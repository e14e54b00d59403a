"""The benchmark's four workloads: inputs, run phase, checks, metrics.

Every workload splits into the same steps so that the driver can time
them apart:

``generate(seed)``
    builds the inputs (transaction programs, initial data) from the seed;
``build(inputs, observe=False)``
    constructs the store, protocol or topology the run phase drives;
    with ``observe`` it also attaches the engine's own hooks (a
    logical-time tracer, the kernel's commit sink) that the
    deterministic metrics are read from;
``execute(fixture)``
    the run phase, through the engine's public entry points, with the
    program's defaults (default metrics registry, no tracer);
``summarize(fixture, raw)``
    reduces the run phase's result to a :class:`Run`, outside the timing;
``check(inputs, fixture, run)``
    judges an observed run's outputs and returns the violations found;
``outcome_metrics`` / ``layer_extras``
    the deterministic end-to-end and per-layer numbers of an observed run.

Logical time is each front end's own clock: kernel interactions for the
executor, virtual time for the simulator and for the simulated network.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dist.engine import DistributedEngine
from repro.dist.recovery import COMMIT as DIST_COMMIT
from repro.dist.replication import ReplicaCrashSpec
from repro.engine import (
    PROTOCOL_FACTORIES,
    DataStore,
    MultiVersionDataStore,
    SimulationConfig,
    Simulator,
    TransactionSpec,
    WorkloadConfig,
    hotspot_queue_workload,
    read_mostly_generator,
    run_batch,
    uniform_workload,
)
from repro.engine.faults import NetworkFaultSpec
from repro.engine.metrics import Metrics
from repro.engine.operations import AddConstantTransform
from repro.engine.workloads import cross_shard_transfer_workload, dist_shard_of
from repro.harness.oracles import evaluate_dist_run
from repro.harness.scenarios import DistScenario
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from spans import percentile


def increments(spec: TransactionSpec) -> int:
    """How much a committed run of ``spec`` adds to the sum of all values."""
    return sum(
        op.transform.amount
        for op in spec.operations
        if isinstance(op.transform, AddConstantTransform)
    )


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def latency_metrics(responses: Sequence[float]) -> Dict[str, float]:
    return {
        "resp_p50_vt": percentile(responses, 0.50),
        "resp_p99_vt": percentile(responses, 0.99),
        "resp_samples": len(responses),
    }


class ClockTracer(Tracer):
    """Keeps the logical times the end-to-end metrics need, nothing else.

    The executor's clock is the count of kernel interactions (every
    kernel step emits exactly one of ``STEP_EVENTS`` for the protocols
    measured here): per session, the interaction of its first begin and
    of its commit.  The network's clock is its virtual time: per
    distributed transaction, when its commit decision was logged.
    """

    enabled = True
    STEP_EVENTS = frozenset(
        {
            obs_trace.BEGIN,
            obs_trace.READ,
            obs_trace.WRITE,
            obs_trace.BLOCK,
            obs_trace.VALIDATE,
            obs_trace.COMMIT,
            obs_trace.ABORT,
        }
    )

    def __init__(self) -> None:
        super().__init__()
        self.steps = 0
        self.first_begin: Dict[int, int] = {}
        self.commit_at: Dict[int, int] = {}
        self.decided_commit_at: Dict[int, Any] = {}

    def emit(
        self,
        etype: str,
        session_id: int,
        txn_id: Optional[int],
        attempt: int,
        key: Optional[str] = None,
        blockers: Tuple[int, ...] = (),
        code: Optional[str] = None,
        detail: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if etype in self.STEP_EVENTS:
            self.steps += 1
            if etype == obs_trace.BEGIN:
                self.first_begin.setdefault(session_id, self.steps)
            elif etype == obs_trace.COMMIT:
                self.commit_at[session_id] = self.steps
        elif etype == obs_trace.DECIDE and detail.startswith(DIST_COMMIT):
            self.decided_commit_at[txn_id] = self.now


class Run:
    """What one execution produced, reduced to what the driver compares."""

    def __init__(
        self, committed: int, signature: str, metrics: Metrics, raw: Any
    ) -> None:
        self.committed = committed
        #: fingerprint of the run's observable behaviour; identical for
        #: every execution of the same inputs
        self.signature = signature
        #: the program's own metrics registry for this run
        self.metrics = metrics
        self.raw = raw


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""

    def generate(self, seed: int) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any, observe: bool = False) -> Any:
        raise NotImplementedError

    def execute(self, fixture: Any) -> Any:
        raise NotImplementedError

    def summarize(self, fixture: Any, raw: Any) -> Run:
        raise NotImplementedError

    def run(self, fixture: Any) -> Run:
        """Execute and summarize (for runs nobody times)."""
        return self.summarize(fixture, self.execute(fixture))

    def check(self, inputs: Any, fixture: Any, run: Run) -> List[str]:
        raise NotImplementedError

    def outcome_metrics(self, fixture: Any, run: Run) -> Dict[str, float]:
        raise NotImplementedError

    def layer_extras(self, fixture: Any, run: Run) -> Dict[str, float]:
        """Per-layer numbers read off the finished run's own objects."""
        return {}


# ----------------------------------------------------------------------
# executor workloads (run_batch)
# ----------------------------------------------------------------------


class _ExecutorFixture:
    def __init__(self, inputs: Any, protocol: str, tracer: Optional[ClockTracer]) -> None:
        self.initial, self.specs, self.seed = inputs
        self.store = DataStore(self.initial)
        self.tracer = tracer
        self._make_protocol = PROTOCOL_FACTORIES[protocol]
        #: the protocol run_batch built (captured through the factory)
        self.protocol: Any = None

    def factory(self, store: DataStore) -> Any:
        self.protocol = self._make_protocol(store)
        return self.protocol


class _ExecutorWorkload(Workload):
    protocol = "strict-2pl"
    interleaving = "round-robin"
    max_concurrent: Optional[int] = None

    def build(self, inputs: Any, observe: bool = False) -> _ExecutorFixture:
        return _ExecutorFixture(inputs, self.protocol, ClockTracer() if observe else None)

    def execute(self, fixture: _ExecutorFixture) -> Any:
        return run_batch(
            fixture.factory,
            fixture.store,
            fixture.specs,
            interleaving=self.interleaving,
            seed=fixture.seed,
            max_concurrent=self.max_concurrent,
            tracer=fixture.tracer,
        )

    def summarize(self, fixture: _ExecutorFixture, result: Any) -> Run:
        signature = digest(
            [
                result.committed,
                result.gave_up,
                result.restarts,
                result.blocks,
                result.operations_issued,
                sorted(result.store_snapshot.items()),
            ]
        )
        return Run(result.committed, signature, result.metrics, result)

    @staticmethod
    def committed_specs(fixture: _ExecutorFixture, run: Run) -> List[TransactionSpec]:
        per_txn = run.raw.per_transaction
        return [
            spec
            for i, spec in enumerate(fixture.specs)
            if per_txn[f"{spec.name}#{i}"]["committed"]
        ]

    def check(self, inputs: Any, fixture: _ExecutorFixture, run: Run) -> List[str]:
        result = run.raw
        problems: List[str] = []
        if not result.committed_serializable:
            problems.append("committed history is not conflict-serializable")
        if result.committed + result.gave_up != len(fixture.specs):
            problems.append(
                f"{result.committed} commits + {result.gave_up} give-ups != "
                f"{len(fixture.specs)} submitted"
            )
        return problems

    def outcome_metrics(self, fixture: _ExecutorFixture, run: Run) -> Dict[str, float]:
        clock = fixture.tracer
        result = run.raw
        delay_free = sum(
            1
            for record in result.per_transaction.values()
            if record["committed"] and record["blocks"] == 0 and record["attempts"] == 1
        )
        # a transaction's response time runs from the kernel interaction
        # of its first begin to that of its commit
        responses = [
            clock.commit_at[sid] - clock.first_begin[sid] for sid in clock.commit_at
        ]
        return {
            "commit_share": result.committed / len(fixture.specs),
            "delay_free_share": delay_free / result.committed,
            "commits_per_vt": result.committed / max(clock.commit_at.values()),
            **latency_metrics(responses),
        }

    def layer_extras(self, fixture: _ExecutorFixture, run: Run) -> Dict[str, float]:
        committed_ops = sum(len(spec) for spec in self.committed_specs(fixture, run))
        return {
            "protocols.base.log_records": len(fixture.protocol.log),
            "protocols.base.useful_op_share": committed_ops / run.raw.operations_issued,
        }


class HotspotTwoPL(_ExecutorWorkload):
    """The scheduler's contention path: deep lock queues, 90% parked."""

    name = "hotspot-2pl"

    def __init__(self, num_transactions: int = 1000, ops_per_transaction: int = 96) -> None:
        self.num_transactions = num_transactions
        self.ops_per_transaction = ops_per_transaction

    def generate(self, seed: int) -> Any:
        initial, specs = hotspot_queue_workload(
            num_transactions=self.num_transactions,
            ops_per_transaction=self.ops_per_transaction,
            seed=seed,
        )
        return initial, specs, seed

    def check(self, inputs: Any, fixture: _ExecutorFixture, run: Run) -> List[str]:
        problems = super().check(inputs, fixture, run)
        result = run.raw
        if result.committed != len(fixture.specs):
            problems.append(f"only {result.committed}/{len(fixture.specs)} committed")
        # blind writes: every written key ends at its last written value
        last_value = self.ops_per_transaction - 1
        written = {spec.operations[0].key for spec in fixture.specs}
        for key, value in result.store_snapshot.items():
            expected = last_value if key in written else fixture.initial[key]
            if value != expected:
                problems.append(f"{key} = {value}, expected {expected}")
                break
        return problems


class UniformTwoPL(_ExecutorWorkload):
    """The wide, low-contention commit path."""

    name = "uniform-2pl"
    interleaving = "random"
    max_concurrent = 64

    def __init__(self, num_transactions: int = 4000, num_keys: int = 32_768) -> None:
        self.num_transactions = num_transactions
        self.config = WorkloadConfig(
            num_keys=num_keys, operations_per_transaction=4, read_fraction=0.5
        )

    def generate(self, seed: int) -> Any:
        initial, specs = uniform_workload(self.num_transactions, self.config, seed=seed)
        return initial, specs, seed

    def check(self, inputs: Any, fixture: _ExecutorFixture, run: Run) -> List[str]:
        problems = super().check(inputs, fixture, run)
        added = sum(increments(spec) for spec in self.committed_specs(fixture, run))
        delta = sum(run.raw.store_snapshot.values()) - sum(fixture.initial.values())
        if delta != added:
            problems.append(f"final sum moved by {delta}, committed increments add {added}")
        return problems


# ----------------------------------------------------------------------
# simulator workload (Simulator.run)
# ----------------------------------------------------------------------


class SpecFeed:
    """Replays pre-generated programs as the simulator's workload callable."""

    def __init__(self, specs: Sequence[TransactionSpec]) -> None:
        self.specs = specs
        self.used = 0

    def __call__(self, rng: random.Random) -> TransactionSpec:
        if self.used >= len(self.specs):
            raise RuntimeError(
                f"the run needed more than the {len(self.specs)} pre-generated "
                "transactions"
            )
        spec = self.specs[self.used]
        self.used += 1
        return spec


class _SimFixture:
    def __init__(self, initial: Dict[str, int], protocol: Any, feed: SpecFeed,
                 simulator: Simulator) -> None:
        self.initial = initial
        self.protocol = protocol
        self.feed = feed
        self.simulator = simulator
        #: programs committed, in commit order (filled when observing)
        self.committed: List[TransactionSpec] = []


class ReadMostlySI(Workload):
    """Timed clients on the multi-version store under serializable SI."""

    name = "readmostly-si"
    protocol = "serializable-si"

    def __init__(self, duration: float = 10_000.0, num_keys: int = 65_536) -> None:
        self.config = WorkloadConfig(
            num_keys=num_keys, operations_per_transaction=8, zipf_theta=0.9
        )
        self.duration = duration

    def sim_config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(duration=self.duration, seed=seed)

    def programs_needed(self, config: SimulationConfig) -> int:
        """An upper bound on the programs one run can start.

        Every data operation holds its client for at least one scheduling
        plus one execution time, so a program keeps its client busy for
        at least ``ops * (scheduling + execution)`` before the next one
        can start (a program that gives up has spent longer still).
        """
        floor = self.config.operations_per_transaction * (
            config.scheduling_time + config.execution_time
        )
        return config.num_clients * (int(config.duration // floor) + 1)

    def generate(self, seed: int) -> Any:
        initial, generate = read_mostly_generator(self.config, read_fraction=0.9)
        rng = random.Random(seed)
        count = self.programs_needed(self.sim_config(seed))
        return initial, [generate(rng) for _ in range(count)], seed

    def build(self, inputs: Any, observe: bool = False) -> _SimFixture:
        initial, specs, seed = inputs
        protocol = PROTOCOL_FACTORIES[self.protocol](MultiVersionDataStore(initial))
        feed = SpecFeed(specs)
        simulator = Simulator(protocol, feed, self.sim_config(seed))
        fixture = _SimFixture(initial, protocol, feed, simulator)
        if observe:
            fixture.simulator.kernel.commit_sink = (
                lambda session: fixture.committed.append(session.spec)
            )
        return fixture

    def execute(self, fixture: _SimFixture) -> Any:
        return fixture.simulator.run()

    def summarize(self, fixture: _SimFixture, report: Any) -> Run:
        signature = digest(
            [
                report.committed,
                report.aborts,
                report.blocks,
                report.operations,
                report.events_processed,
                fixture.feed.used,
                sorted(report.final_snapshot.items()),
            ]
        )
        return Run(report.committed, signature, report.metrics, report)

    def check(self, inputs: Any, fixture: _SimFixture, run: Run) -> List[str]:
        report = run.raw
        problems: List[str] = []
        if not report.committed_serializable:
            problems.append("committed history is not one-copy serializable (MVSG)")
        if len(fixture.committed) != report.committed:
            problems.append(
                f"commit sink saw {len(fixture.committed)} commits, report says "
                f"{report.committed}"
            )
        added = sum(increments(spec) for spec in fixture.committed)
        delta = sum(report.final_snapshot.values()) - sum(fixture.initial.values())
        if delta != added:
            problems.append(f"final sum moved by {delta}, committed increments add {added}")
        return problems

    def outcome_metrics(self, fixture: _SimFixture, run: Run) -> Dict[str, float]:
        report = run.raw
        # every aborted attempt either restarts or gives its program up
        gave_up = report.aborts - run.metrics.count("kernel.restarts")
        return {
            "commit_share": report.committed / (report.committed + gave_up),
            "delay_free_share": report.delay_free_fraction,
            "commits_per_vt": report.throughput,
            **latency_metrics(fixture.simulator.response_times),
        }

    def layer_extras(self, fixture: _SimFixture, run: Run) -> Dict[str, float]:
        report = run.raw
        breakdown = report.mean_breakdown
        committed_ops = sum(len(spec) for spec in fixture.committed)
        return {
            "protocols.base.log_records": len(fixture.protocol.log),
            "protocols.base.useful_op_share": committed_ops / report.operations,
            "mvstore.versions_live": fixture.protocol.store.total_versions(),
            "simulator.events": report.events_processed,
            "simulator.sched_vt": breakdown.scheduling,
            "simulator.wait_vt": breakdown.waiting,
            "simulator.exec_vt": breakdown.execution,
        }


# ----------------------------------------------------------------------
# distributed workload (DistributedEngine, as run_distributed_batch builds it)
# ----------------------------------------------------------------------


class _DistFixture:
    def __init__(self, engine: DistributedEngine, specs: Sequence[TransactionSpec],
                 tracer: Optional[ClockTracer]) -> None:
        self.engine = engine
        self.specs = specs
        self.tracer = tracer


class DistReplChaos(Workload):
    """Cross-shard transfers over Paxos-replicated shards under chaos."""

    name = "dist-repl-chaos"
    num_shards = 3
    replicas = 3

    def __init__(self, num_transactions: int = 1000, accounts_per_shard: int = 64) -> None:
        self.num_transactions = num_transactions
        self.accounts_per_shard = accounts_per_shard
        #: a transfer adds about 1.9 virtual time units of makespan, so
        #: this lands the leader crash near the middle of the run
        self.crash_at = 0.9 * num_transactions

    def generate(self, seed: int) -> Any:
        initial, specs = cross_shard_transfer_workload(
            num_shards=self.num_shards,
            accounts_per_shard=self.accounts_per_shard,
            num_transactions=self.num_transactions,
            cross_fraction=0.7,
            seed=seed,
        )
        return initial, specs, seed

    def faults(self, seed: int) -> NetworkFaultSpec:
        return NetworkFaultSpec(loss_probability=0.01, duplicate_probability=0.01, seed=seed)

    def crashes(self) -> Tuple[ReplicaCrashSpec, ...]:
        return (ReplicaCrashSpec(shard="shard0", at=self.crash_at),)

    def build(self, inputs: Any, observe: bool = False) -> _DistFixture:
        initial, specs, seed = inputs
        tracer = ClockTracer() if observe else None
        engine = DistributedEngine(
            initial,
            num_shards=self.num_shards,
            shard_of=dist_shard_of,
            network_faults=self.faults(seed),
            seed=seed,
            tracer=tracer,
            replicas=self.replicas,
            replica_crashes=self.crashes(),
        )
        return _DistFixture(engine, specs, tracer)

    def execute(self, fixture: _DistFixture) -> Any:
        return fixture.engine.run(fixture.specs)

    def summarize(self, fixture: _DistFixture, report: Any) -> Run:
        return Run(report.commit_count, report.digest(), report.metrics, report)

    def check(self, inputs: Any, fixture: _DistFixture, run: Run) -> List[str]:
        initial, specs, seed = inputs
        scenario = DistScenario(
            name=self.name,
            seed=seed,
            plan="loss-dup-leader-crash",
            initial_data=initial,
            specs=tuple(specs),
            num_shards=self.num_shards,
            network_faults=self.faults(seed),
            replicas=self.replicas,
            replica_crashes=self.crashes(),
        )
        return [
            str(verdict)
            for verdict in evaluate_dist_run(scenario, run.raw)
            if verdict.required and not verdict.ok
        ]

    def outcome_metrics(self, fixture: _DistFixture, run: Run) -> Dict[str, float]:
        report = run.raw
        # every program is submitted at virtual time 0, so a committed
        # program's response time is when its commit decision was logged
        responses = []
        delay_free = 0
        for history in report.attempts:
            if history and history[-1].outcome == DIST_COMMIT:
                responses.append(fixture.tracer.decided_commit_at[history[-1].txn_id])
                delay_free += len(history) == 1
        return {
            "commit_share": report.commit_count / len(report.attempts),
            "delay_free_share": delay_free / report.commit_count,
            "commits_per_vt": report.commit_count / report.virtual_end,
            **latency_metrics(responses),
        }

    def layer_extras(self, fixture: _DistFixture, run: Run) -> Dict[str, float]:
        return {
            "paxos.log_entries_max": max(
                len(replica.log)
                for group in run.raw.groups.values()
                for replica in group.replicas
            ),
        }


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    HotspotTwoPL.name: HotspotTwoPL,
    UniformTwoPL.name: UniformTwoPL,
    ReadMostlySI.name: ReadMostlySI,
    DistReplChaos.name: DistReplChaos,
}
