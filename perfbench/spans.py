"""Per-layer span recording for the benchmark's traced run.

For the duration of one traced run, :class:`SpanTracer` replaces the
public methods of every layer's classes with thin wrappers that record
one span per call: the call site (layer plus method), start and end on
the wall clock, the enclosing span, and the transaction and session the
call works for.  Spans live in flat ``array`` columns (44 bytes a span),
so a run of millions of calls stays in memory.  Leaving the ``with``
block puts every original method back.

A layer's *self time* is the total duration of its spans minus the time
their child spans cover, so the self times of all layers add up to the
duration of the root spans, i.e. to the traced run's wall time less the
small stretch before the first and after the last wrapped call.

Layers are named groups of engine classes (``LAYER_CLASSES``), one group
per module or pair of modules.  A method belongs to the layer of the
class that *defines* it, so an inherited
:class:`~repro.engine.protocols.base.ConcurrencyControl` method counts as
``protocols.base`` even when called on a 2PL protocol.  Value classes
(lock entries, versions, counters) are not wrapped: their methods are
tiny, called from their own layer, and would only add tracing cost.  Two
more rules keep the layers apart:

* the end-of-run serializability check (``ANALYSIS_METHODS``) is the
  ``analysis`` layer wherever it is defined;
* the ``graphs`` layer is the wait-for graph alone: the generic
  :class:`~repro.util.graphs.DiGraph` methods are wrapped on
  :class:`~repro.util.graphs.WaitForGraph`, so the conflict graphs the
  analysis builds stay inside ``analysis``.

Dunder methods, properties, static and class methods are not wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import math
import operator
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: layer -> the classes whose public methods make up that layer
LAYER_CLASSES: Dict[str, Tuple[str, ...]] = {
    "runtime": ("repro.engine.runtime:TransactionExecutor",),
    "kernel": ("repro.engine.kernel:EngineKernel", "repro.engine.kernel:RunQueue"),
    "protocols.base": (
        "repro.engine.protocols.base:ConcurrencyControl",
        "repro.engine.protocols.multiversion:MultiVersionConcurrencyControl",
    ),
    "2pl": ("repro.engine.protocols.two_phase_locking:StrictTwoPhaseLocking",),
    "si": ("repro.engine.protocols.snapshot_isolation:SnapshotIsolation",),
    "graphs": ("repro.util.graphs:WaitForGraph",),
    "storage": ("repro.engine.storage:DataStore", "repro.engine.storage:ShardedDataStore"),
    "mvstore": (
        "repro.engine.mvstore:MultiVersionDataStore",
        "repro.engine.mvstore:ShardedMultiVersionDataStore",
    ),
    "simulator": ("repro.engine.simulator:Simulator",),
    # methods of other layers' classes: see ANALYSIS_METHODS
    "analysis": (),
    "metrics": ("repro.engine.metrics:Metrics",),
    "faults": ("repro.engine.faults:FaultPlan", "repro.engine.faults:NetworkFaultPlan"),
    "net": ("repro.dist.network:SimulatedNetwork",),
    "tpc": (
        "repro.dist.engine:DistributedEngine",
        "repro.dist.tpc:TwoPhaseCommitCoordinator",
        "repro.dist.tpc:ShardParticipant",
        "repro.dist.recovery:DecisionLog",
    ),
    "paxos": (
        "repro.dist.paxos:PaxosReplica",
        "repro.dist.replication:ReplicatedParticipant",
        "repro.dist.replication:ReplicaGroup",
        "repro.dist.replication:ChaosController",
    ),
}

#: the layer order of the printed table
LAYERS: Tuple[str, ...] = tuple(LAYER_CLASSES)

#: layers whose methods take a transaction id as their first argument
TXN_ID_LAYERS = frozenset({"protocols.base", "2pl", "si", "graphs"})

#: methods that make up the end-of-run history check
ANALYSIS_METHODS = frozenset(
    {"committed_history_serializable", "committed_conflict_graph", "committed_log"}
)

_MISSING = object()


def _public_functions(owner: type) -> Iterator[Tuple[str, Callable]]:
    """The plain public functions ``owner`` defines."""
    for name, attr in list(vars(owner).items()):
        if not name.startswith("_") and inspect.isfunction(attr):
            yield name, attr


def layer_classes() -> List[Tuple[str, type]]:
    """(layer, class) for every class of ``LAYER_CLASSES``, imported."""
    found = []
    for layer, paths in LAYER_CLASSES.items():
        for path in paths:
            module_name, class_name = path.split(":")
            found.append((layer, getattr(importlib.import_module(module_name), class_name)))
    return found


class SpanTracer:
    """Record a span per call into the engine's layers while installed.

    Use as a context manager: entering wraps the methods, leaving
    restores them.  The recorded columns stay readable afterwards.
    """

    def __init__(self) -> None:
        #: call sites: index -> (layer, "Class.method")
        self.sites: List[Tuple[str, str]] = []
        self.site_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.txn_col = array("q")
        self.session_col = array("q")
        #: indices of the open spans, innermost last; -1 is the root
        self._stack: List[int] = [-1]
        self._durations = array("d")
        self._patched: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def __enter__(self) -> "SpanTracer":
        from repro.engine.kernel import Session

        self._session_type = Session
        classes = layer_classes()
        layered = {cls for _layer, cls in classes}
        try:
            for layer, cls in classes:
                # a class wraps what it defines, plus what it inherits
                # from classes outside every layer (WaitForGraph's DiGraph)
                for owner in cls.__mro__:
                    if owner is object or (owner is not cls and owner in layered):
                        break
                    for name, fn in _public_functions(owner):
                        if owner is not cls and name in vars(cls):
                            continue
                        site_layer = "analysis" if name in ANALYSIS_METHODS else layer
                        self._patch(cls, name, fn, site_layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _patch(self, cls: type, name: str, fn: Callable, layer: str) -> None:
        site = len(self.sites)
        self.sites.append((layer, f"{cls.__name__}.{name}"))
        self._patched.append((cls, name, vars(cls).get(name, _MISSING)))
        setattr(cls, name, self._wrap(fn, site, layer in TXN_ID_LAYERS))

    def _restore(self) -> None:
        while self._patched:
            cls, name, original = self._patched.pop()
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def _wrap(self, fn: Callable, site: int, names_txn: bool) -> Callable:
        sites = self.site_col
        starts = self.start_col
        ends = self.end_col
        parents = self.parent_col
        txns = self.txn_col
        sessions = self.session_col
        stack = self._stack
        session_type = self._session_type
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent >= 0:
                txn = txns[parent]
                session = sessions[parent]
            else:
                txn = session = -1
            if len(args) > 1:
                subject = args[1]
                if names_txn and type(subject) is int:
                    txn = subject
                elif isinstance(subject, session_type):
                    session = subject.session_id
                    if subject.txn_id is not None:
                        txn = subject.txn_id
            index = len(sites)
            sites.append(site)
            parents.append(parent)
            txns.append(txn)
            sessions.append(session)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = started
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # ------------------------------------------------------------------
    # folding spans into per-layer numbers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.site_col)

    def durations(self) -> array:
        """Inclusive duration of every span, in span order."""
        if self._stack != [-1]:
            raise RuntimeError("spans are still open")
        if len(self._durations) != len(self.site_col):
            self._durations = array("d", map(operator.sub, self.end_col, self.start_col))
        return self._durations

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (every layer in ``LAYERS``)."""
        durations = self.durations()
        parents = self.parent_col
        child = array("d", bytes(8 * len(durations)))
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[index]
        layer_of = [layer for layer, _name in self.sites]
        totals = {layer: 0.0 for layer in LAYERS}
        for index, site in enumerate(self.site_col):
            totals[layer_of[site]] += durations[index] - child[index]
        return totals

    def site_counts(self) -> List[int]:
        counts = [0] * len(self.sites)
        for site in self.site_col:
            counts[site] += 1
        return counts

    def calls(self) -> Dict[str, int]:
        """Number of spans per layer."""
        totals = {layer: 0 for layer in LAYERS}
        for site, count in enumerate(self.site_counts()):
            totals[self.sites[site][0]] += count
        return totals

    def _sites_named(self, names: Sequence[str]) -> set:
        return {i for i, (_layer, name) in enumerate(self.sites) if name in names}

    def count(self, names: Sequence[str]) -> int:
        """Number of spans at the named sites (``"Class.method"``)."""
        counts = self.site_counts()
        return sum(counts[i] for i in self._sites_named(names))

    def durations_of(self, names: Sequence[str], outermost: bool = False) -> List[float]:
        """Inclusive durations of the spans at the named sites.

        With ``outermost``, a span nested inside another span of the
        named sites is skipped (a sharded store delegating to its shard
        is one call, not two).
        """
        wanted = self._sites_named(names)
        durations = self.durations()
        sites = self.site_col
        parents = self.parent_col
        found: List[float] = []
        for index, site in enumerate(sites):
            if site not in wanted:
                continue
            parent = parents[index]
            if outermost and parent >= 0 and sites[parent] in wanted:
                continue
            found.append(durations[index])
        return found


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]
