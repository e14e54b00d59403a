#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hotspot-2pl --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracer and
no wrappers.  ``--trace 1`` prints the per-layer ledger of a separate
traced run (see ``spans.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the result with the source revision, Python version, CPU count
and seed.  A human-readable report goes to standard error.

A run of one workload:

1. generates the inputs from the seed and runs them once with the
   engine's logical-time tracer attached; it checks that run's outputs
   and reads the deterministic metrics from it;
2. for ``--seconds`` (and at least ``MIN_REPS`` times) sets the workload
   up from the seed (input generation plus store, protocol and topology
   construction, timed as set-up) and runs it (timed as the run phase),
   with no tracer, and requires every run to behave exactly like the
   checked one; ``setup_s`` and ``commits_per_s`` are medians over
   these repetitions, in reference seconds (``calibrate.py``);
3. with ``--trace 1``, makes one more run under the span tracer.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from calibrate import REFERENCE_S, loop_seconds
from spans import SpanTracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up and run phase are repeated for --seconds, and at least MIN_REPS times
MIN_REPS = 3
#: each repetition samples set-up until this many seconds were spent in it
SETUP_MIN_S = 0.25

#: name -> unit of every end-to-end metric (printed with --trace 0)
END_TO_END: Dict[str, str] = {
    "commits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "commit_share": "ratio",
    "delay_free_share": "ratio",
    "commits_per_vt": "1/vt",
    "resp_p50_vt": "vt",
    "resp_p99_vt": "vt",
}

#: name -> unit of every per-layer metric (printed with --trace 1)
PER_LAYER: Dict[str, str] = {
    "runtime.self_s": "s",
    "runtime.kernel_steps": "count",
    "kernel.self_s": "s",
    "kernel.calls": "count",
    "kernel.step_p50_us": "us",
    "kernel.step_p99_us": "us",
    "kernel.parks": "count",
    "kernel.wakeups": "count",
    "kernel.restarts": "count",
    "kernel.readonly_fastpath": "count",
    "kernel.block_height_mean": "count",
    "protocols.base.self_s": "s",
    "protocols.base.calls": "count",
    "protocols.base.log_records": "count",
    "protocols.base.block_share": "ratio",
    "protocols.base.abort_share": "ratio",
    "protocols.base.useful_op_share": "ratio",
    "lock.block_prob": "ratio",
    "2pl.self_s": "s",
    "2pl.acquire_calls": "count",
    "2pl.release_s": "s",
    "2pl.deadlocks": "count",
    "si.self_s": "s",
    "si.calls": "count",
    "si.ssi_aborts": "count",
    "si.first_committer_aborts": "count",
    "si.fastpath_aborts": "count",
    "graphs.self_s": "s",
    "graphs.calls": "count",
    "graphs.cycle_checks": "count",
    "storage.self_s": "s",
    "storage.calls": "count",
    "mvstore.self_s": "s",
    "mvstore.calls": "count",
    "mvstore.gc_s": "s",
    "mvstore.gc_passes": "count",
    "mvstore.versions_collected": "count",
    "mvstore.versions_live": "count",
    "simulator.self_s": "s",
    "simulator.events": "count",
    "simulator.sched_vt": "vt",
    "simulator.wait_vt": "vt",
    "simulator.exec_vt": "vt",
    "analysis.self_s": "s",
    "metrics.self_s": "s",
    "metrics.calls": "count",
    "faults.self_s": "s",
    "net.self_s": "s",
    "net.sent": "count",
    "net.delivered": "count",
    "net.dropped": "count",
    "net.duplicated": "count",
    "net.msgs_per_commit": "count",
    "tpc.self_s": "s",
    "tpc.prepares": "count",
    "tpc.no_votes": "count",
    "tpc.timeouts": "count",
    "tpc.retries": "count",
    "tpc.client_retries": "count",
    "tpc.commit_share": "ratio",
    "paxos.self_s": "s",
    "paxos.proposals": "count",
    "paxos.elections": "count",
    "paxos.applies": "count",
    "paxos.log_entries_max": "count",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

#: counters copied from the program's metrics registry
REGISTRY_COUNTERS: Dict[str, str] = {
    "kernel.parks": "kernel.parks",
    "kernel.wakeups": "kernel.wakeups",
    "kernel.restarts": "kernel.restarts",
    "kernel.readonly_fastpath": "kernel.readonly_fastpath",
    "2pl.deadlocks": "2pl.deadlocks",
    "si.ssi_aborts": "si.ssi_aborts",
    "si.first_committer_aborts": "si.first_committer_aborts",
    "si.fastpath_aborts": "si.fastpath_aborts",
    "mvstore.versions_collected": "mvstore.versions_collected",
    "net.sent": "dist.net.sent",
    "net.delivered": "dist.net.delivered",
    "net.dropped": "dist.net.dropped",
    "net.duplicated": "dist.net.duplicated",
    "tpc.prepares": "dist.participant.prepares",
    "tpc.no_votes": "dist.participant.no_votes",
    "tpc.timeouts": "dist.timeouts",
    "tpc.retries": "dist.retries",
    "tpc.client_retries": "dist.client_retries",
    "paxos.proposals": "dist.repl.proposals",
    "paxos.elections": "dist.repl.elections",
    "paxos.applies": "dist.participant.applies",
}


class Measurement:
    """The outcome of measuring one workload once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: extra figures for the human-readable report
        self.notes: Dict[str, Any] = {}
        #: the span tracer of the traced run (``trace`` mode only)
        self.spans: Any = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed_reps(workload: Any, seed: int, reference: Any, seconds: float,
                result: Measurement) -> Tuple[List[float], List[float]]:
    """Set up and run the workload for ``seconds``, at least MIN_REPS times.

    Every repetition sets up from scratch (so set-up is sampled across
    the whole window, like the run phase) and must reproduce the checked
    run.  The calibration loop is timed before and after each repetition
    (see ``calibrate.py``).  Returns the set-up times and the run-phase
    times, both in reference seconds; the wall times go to the notes.
    """
    setups: List[float] = []
    runs: List[float] = []
    walls: List[float] = []
    loops = [loop_seconds()]
    began = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - began < seconds:
        # a set-up shorter than SETUP_MIN_S is sampled several times
        rep_setups: List[float] = []
        while sum(rep_setups) < SETUP_MIN_S:
            fixture = None
            gc.collect()
            started = time.perf_counter()
            fixture = workload.build(workload.generate(seed))
            rep_setups.append(time.perf_counter() - started)
        # each timed phase starts with no garbage left by the previous one
        gc.collect()
        started = time.perf_counter()
        raw = workload.execute(fixture)
        walls.append(time.perf_counter() - started)
        run = workload.summarize(fixture, raw)
        result.attempted += 1
        if run.signature != reference.signature:
            result.failed += 1
            result.problems.append(
                f"run {len(walls)} behaved differently from the checked run"
            )
        del fixture, raw, run
        loops.append(loop_seconds())
        scale = REFERENCE_S / ((loops[-2] + loops[-1]) / 2)
        setups.extend(wall * scale for wall in rep_setups)
        runs.append(walls[-1] * scale)
    result.notes["run_wall_s"] = " ".join(f"{wall:.4f}" for wall in walls)
    result.notes["loop_s"] = " ".join(f"{loop:.4f}" for loop in loops)
    result.notes["commits_per_wall_s"] = statistics.median(
        reference.committed / wall for wall in walls
    )
    return setups, runs


def layer_metrics(spans: Any, run: Any, extras: Dict[str, float],
                  traced_wall: float, scale: float, untraced_run: float) -> Dict[str, float]:
    """Fold the traced run's spans and registry into the per-layer table.

    Times are in reference seconds: span durations (wall seconds) times
    ``scale``, the traced run's reference seconds per wall second.
    ``untraced_run`` is the median untraced run phase, in reference seconds.
    """
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    self_times = spans.self_times()
    calls = spans.calls()
    for layer, seconds in self_times.items():
        out[f"{layer}.self_s"] = seconds * scale
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] = calls[layer]
    registry = run.metrics
    for name, counter in REGISTRY_COUNTERS.items():
        out[name] = registry.count(counter)
    snapshot = registry.snapshot()
    out["kernel.block_height_mean"] = snapshot.get("kernel.block_height.mean", 0.0)

    steps = spans.durations_of(["EngineKernel.step"])
    out["runtime.kernel_steps"] = len(steps)
    if steps:
        out["kernel.step_p50_us"] = percentile(steps, 0.50) * scale * 1e6
        out["kernel.step_p99_us"] = percentile(steps, 0.99) * scale * 1e6

    decisions = sum(
        registry.count(f"protocol.{kind}")
        for kind in ("reads_granted", "writes_granted", "commits", "blocks", "aborts")
    )
    out["protocols.base.block_share"] = _ratio(registry.count("protocol.blocks"), decisions)
    out["protocols.base.abort_share"] = _ratio(registry.count("protocol.aborts"), decisions)
    acquires = spans.count(["StrictTwoPhaseLocking.on_read", "StrictTwoPhaseLocking.on_write"])
    out["2pl.acquire_calls"] = acquires
    out["lock.block_prob"] = _ratio(registry.count("protocol.blocks"), acquires)
    out["2pl.release_s"] = sum(spans.durations_of(["StrictTwoPhaseLocking.on_finished"])) * scale
    out["graphs.cycle_checks"] = spans.count(
        [
            "WaitForGraph.cycle_through",
            "WaitForGraph.deadlocked_transactions",
            "WaitForGraph.has_cycle",
            "WaitForGraph.find_cycle",
        ]
    )
    collections = spans.durations_of(
        ["MultiVersionDataStore.collect_garbage", "ShardedMultiVersionDataStore.collect_garbage"],
        outermost=True,
    )
    out["mvstore.gc_s"] = sum(collections) * scale
    out["mvstore.gc_passes"] = len(collections)
    out["net.msgs_per_commit"] = _ratio(out["net.sent"], run.committed)
    dist_commits = registry.count("dist.commits")
    out["tpc.commit_share"] = _ratio(dist_commits, dist_commits + registry.count("dist.aborts"))

    out.update(extras)
    out["trace.wall_s"] = traced_wall * scale
    out["trace.overhead"] = traced_wall * scale / untraced_run
    out["trace.coverage"] = sum(self_times.values()) / traced_wall
    out["trace.spans"] = len(spans)
    return out


def measure(workload: Any, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set up, check and time one workload (see the module docstring)."""
    result = Measurement()
    inputs = workload.generate(seed)
    observed_fixture = workload.build(inputs, observe=True)
    observed = workload.run(observed_fixture)
    result.attempted += 1
    problems = workload.check(inputs, observed_fixture, observed)
    if problems:
        result.failed += 1
        result.problems.extend(problems)
        return result
    # read before the calibration loop first runs, so that the loop's own
    # memory never counts: the peak of generating, building, running and
    # checking the workload once
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.outcome_metrics(observed_fixture, observed)
    extras = workload.layer_extras(observed_fixture, observed)
    result.notes["resp_samples"] = outcome.pop("resp_samples")
    result.notes["committed"] = observed.committed
    del observed_fixture

    setup_times, runs = _timed_reps(workload, seed, observed, seconds, result)
    result.notes["reps"] = len(runs)
    result.notes["setup_samples"] = len(setup_times)
    result.notes["run_ref_s_median"] = statistics.median(runs)
    if not result.correct:
        return result

    if not trace:
        result.metrics = {
            "commits_per_s": statistics.median(observed.committed / run for run in runs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            **outcome,
        }
        return result

    spans = SpanTracer()
    fixture = workload.build(inputs)
    loop_before = loop_seconds()
    with spans:
        started = time.perf_counter()
        raw = workload.execute(fixture)
        traced_wall = time.perf_counter() - started
    scale = REFERENCE_S / ((loop_before + loop_seconds()) / 2)
    result.notes["traced_wall_s"] = traced_wall
    traced = workload.summarize(fixture, raw)
    result.attempted += 1
    if traced.signature != observed.signature:
        result.failed += 1
        result.problems.append("the traced run behaved differently from the checked run")
        return result
    result.spans = spans
    result.metrics = layer_metrics(
        spans, traced, extras, traced_wall, scale, statistics.median(runs)
    )
    return result


# ----------------------------------------------------------------------
# stamping and reporting
# ----------------------------------------------------------------------


def git_revision(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """sha256 over every source file's path and bytes (a checkout need not be a git repo)."""
    hasher = hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            hasher.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return {
        "git_sha": git_revision(ROOT),
        "source_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def report(name: str, result: Measurement, trace: bool) -> str:
    lines = [f"workload {name}"]
    for key, value in result.notes.items():
        lines.append(f"  {key:<28} {value}")
    units = PER_LAYER if trace else END_TO_END
    for metric, value in result.metrics.items():
        lines.append(f"  {metric:<28} {value:.6g} {units[metric]}")
    for problem in result.problems:
        lines.append(f"  CHECK FAILED: {problem}")
    if trace and result.spans is not None:
        wall = result.metrics["trace.wall_s"]
        lines.append(f"  {'layer':<16} {'self_s':>10} {'share':>7} {'calls':>10}")
        for layer, calls in result.spans.calls().items():
            seconds = result.metrics[f"{layer}.self_s"]
            lines.append(
                f"  {layer:<16} {seconds:>10.4f} {seconds / wall:>7.1%} {calls:>10}"
            )
    return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    args = parse_args(argv)
    trace = bool(args.trace)
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, trace)
    if result.correct and not trace:
        result.metrics = {name: result.metrics[name] for name in END_TO_END}
    print(report(args.workload, result, trace), file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({"stamp": stamp(args.workload, args.seed, args.seconds, trace)}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()
                }
                if result.correct
                else {},
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
