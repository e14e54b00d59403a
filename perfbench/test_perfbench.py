"""Quick self-tests of the benchmark (small workload sizes).

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import run as driver  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    DistReplChaos,
    HotspotTwoPL,
    ReadMostlySI,
    UniformTwoPL,
    WORKLOADS,
)

SMALL = {
    "hotspot-2pl": lambda: HotspotTwoPL(num_transactions=40, ops_per_transaction=4),
    "uniform-2pl": lambda: UniformTwoPL(num_transactions=200, num_keys=256),
    "readmostly-si": lambda: ReadMostlySI(duration=200.0, num_keys=512),
    "dist-repl-chaos": lambda: DistReplChaos(num_transactions=40, accounts_per_shard=8),
}

#: metrics that depend only on the seed, never on the machine
DETERMINISTIC_E2E = (
    "commit_share",
    "delay_free_share",
    "commits_per_vt",
    "resp_p50_vt",
    "resp_p99_vt",
)
DETERMINISTIC_LAYER = tuple(
    name
    for name, unit in driver.PER_LAYER.items()
    if unit in ("count", "ratio", "vt") and name not in ("trace.overhead", "trace.coverage")
)


def wrapped_state():
    """Every attribute of every layer class, to check the tracer restored them."""
    return {
        (cls.__qualname__, name): attr
        for _layer, cls in spans.layer_classes()
        for name, attr in vars(cls).items()
    }


def observe(workload, seed):
    inputs = workload.generate(seed)
    fixture = workload.build(inputs, observe=True)
    run = workload.run(fixture)
    assert workload.check(inputs, fixture, run) == []
    return run, workload.outcome_metrics(fixture, run)


def test_small_sizes_cover_every_workload():
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_deterministic_metrics(name):
    first_run, first = observe(SMALL[name](), 7)
    second_run, second = observe(SMALL[name](), 7)
    assert first_run.signature == second_run.signature
    assert first == second


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seed_gives_different_inputs(name):
    workload = SMALL[name]()
    assert input_fingerprint(workload.generate(1)) != input_fingerprint(workload.generate(2))


def input_fingerprint(inputs):
    initial, specs, _seed = inputs
    return [sorted(initial.items()), [[str(op) for op in spec.operations] for spec in specs]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_restores_methods(name):
    before = wrapped_state()
    untraced = driver.measure(SMALL[name](), seed=3, seconds=0.0, trace=False)
    traced = driver.measure(SMALL[name](), seed=3, seconds=0.0, trace=True)
    assert wrapped_state() == before
    assert untraced.correct and traced.correct
    # the traced run reproduced the checked run exactly (the driver
    # compares signatures), and the end-to-end deterministic figures of
    # a second untraced measurement agree with the first
    again = driver.measure(SMALL[name](), seed=3, seconds=0.0, trace=False)
    for metric in DETERMINISTIC_E2E:
        assert untraced.metrics[metric] == again.metrics[metric], metric
    traced_again = driver.measure(SMALL[name](), seed=3, seconds=0.0, trace=True)
    for metric in DETERMINISTIC_LAYER:
        assert traced.metrics[metric] == traced_again.metrics[metric], metric


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_self_times_add_up_to_the_traced_wall_time(name):
    result = driver.measure(SMALL[name](), seed=5, seconds=0.0, trace=True)
    assert result.correct
    assert 0.95 <= result.metrics["trace.coverage"] <= 1.0 + 1e-9
    assert result.metrics["trace.spans"] > 0


def test_registry_counters_match_between_traced_and_observed_runs():
    workload = SMALL["dist-repl-chaos"]()
    inputs = workload.generate(11)
    observed = workload.run(workload.build(inputs, observe=True))
    fixture = workload.build(inputs)
    with spans.SpanTracer():
        traced = workload.run(fixture)
    for counter in driver.REGISTRY_COUNTERS.values():
        assert observed.metrics.count(counter) == traced.metrics.count(counter), counter


def test_printed_metric_names_are_declared_in_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    e2e = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    assert e2e == driver.END_TO_END
    assert layer == driver.PER_LAYER
    assert {entry["name"] for entry in declared["workloads"]} == set(WORKLOADS)
    untraced = driver.measure(SMALL["uniform-2pl"](), seed=1, seconds=0.0, trace=False)
    traced = driver.measure(SMALL["uniform-2pl"](), seed=1, seconds=0.0, trace=True)
    assert set(untraced.metrics) == set(e2e)
    assert set(traced.metrics) == set(layer)


def test_check_catches_a_corrupted_result():
    workload = SMALL["uniform-2pl"]()
    inputs = workload.generate(4)
    fixture = workload.build(inputs, observe=True)
    run = workload.run(fixture)
    key = next(iter(run.raw.store_snapshot))
    run.raw.store_snapshot[key] += 1
    assert workload.check(inputs, fixture, run)


def test_a_run_that_behaves_differently_is_counted_as_failed():
    workload = SMALL["hotspot-2pl"]()
    reference = workload.run(workload.build(workload.generate(2)))
    reference.signature = "not the real signature"
    result = driver.Measurement()
    driver._timed_reps(workload, 2, reference, 0.0, result)
    assert result.failed == result.attempted == driver.MIN_REPS
    assert not result.correct


def test_simulator_feed_fails_loudly_when_exhausted():
    workload = SMALL["readmostly-si"]()
    initial, specs, seed = workload.generate(1)
    fixture = workload.build((initial, specs[:3], seed))
    with pytest.raises(RuntimeError, match="pre-generated"):
        workload.run(fixture)


def test_reference_loop_is_unchanged():
    # the loop defines the reference second: a change to it changes the
    # unit of every timed metric, and must not pass unnoticed
    assert calibrate.reference_loop() == 603328
    assert (calibrate.ROUNDS, calibrate.KEYS, calibrate.REFERENCE_S) == (160_000, 65_536, 0.4)


def test_loop_timing_leaves_the_collector_enabled():
    assert calibrate.loop_seconds() > 0
    assert calibrate.gc.isenabled()
