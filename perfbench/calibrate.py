"""How fast the machine runs Python right now, measured by a fixed loop.

The benchmark shares its processor with whatever else runs on the host.
On a shared machine the same Python code can run at half speed for tens
of seconds and then at full speed again, which no run of a few seconds
averages out.  The driver therefore times :func:`reference_loop`, a
fixed pure-Python loop that uses nothing of the engine, before and after
every timed repetition, and converts the repetition's wall times into
*reference seconds*::

    reference seconds = wall seconds * REFERENCE_S / (loop time around the phase)

A reference second is the time the machine takes for ``1 / REFERENCE_S``
runs of the loop, so a change to the engine moves reference seconds as
it moves wall seconds, while the host's speed largely cancels out.  The
loop does what the engine's hot paths do — method calls on small
objects, dictionary lookups and updates with string keys, list and heap
operations, tuple allocation — so that both slow down roughly alike.

The loop is part of the benchmark's definition: changing it, or
``REFERENCE_S``, changes the unit every timed metric is reported in.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

#: rounds of the loop per measurement
ROUNDS = 160_000
#: distinct keys the loop touches: a working set well beyond the
#: processor caches, like the engine's key spaces
KEYS = 65_536
#: about the wall seconds the loop took on the machine the benchmark was
#: first run on (2 vCPUs, CPython 3.11); it fixes the size of a
#: reference second
REFERENCE_S = 0.4


class _Entry:
    __slots__ = ("key", "holders", "version")

    def __init__(self, key: str) -> None:
        self.key = key
        self.holders: List[int] = []
        self.version = 0

    def grant(self, owner: int) -> bool:
        if len(self.holders) >= 3:
            self.holders.pop(0)
        self.holders.append(owner)
        self.version += 1
        return self.version % 7 != 0


def reference_loop(rounds: int = ROUNDS) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    keys = [f"k{i}" for i in range(KEYS)]
    table = {}
    heap: List[tuple] = []
    granted = 0
    state = 12345
    for step in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[state % KEYS]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        if entry.grant(step):
            granted += 1
        heapq.heappush(heap, (state & 1023, step, key))
        if len(heap) > 64:
            _, _, popped = heapq.heappop(heap)
            granted += len(table[popped].holders)
    return granted + sum(entry.version for entry in table.values())


def loop_seconds() -> float:
    """Wall seconds of one run of the loop.

    The collector is off while the loop runs: a collection would walk
    whatever else the process holds, and the loop would time the heap
    instead of the machine.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        gc.enable()
