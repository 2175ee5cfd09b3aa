"""The machine-speed reference loop.

The benchmark machine's speed drifts (shared cores, frequency scaling):
the same pure-Python work can take 1.5x longer in one process than in
the next, and it drifts within a process too.  Every timed step is
therefore scaled by ``R0 / R``, where ``R`` is the time of this fixed
loop measured in the same process right before and right after the
step, and ``R0`` is the constant below.

The loop imports nothing from the program under test and runs with
the garbage collector disabled, so no change to the program can move
``R``.  It has two parts, because the machine's speed does not drift
alike for all work.  One builds, looks up, sorts and drops small dicts,
lists and strings, like the orchestrator's own code.  The other chases
a chain of dependent loads through an 8 MiB table, larger than the L2
cache, like a garbage-collector pass over a large heap; without it, the
GC-bound mesh workload tracked ``R`` only half as much as it should.
The table is one untracked array, so it does not change when the
program's collections run.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Optional

#: reference-loop time (seconds) that adjusted figures are scaled to;
#: the median R of this loop on the 2-core VM the benchmark was tuned
#: on (Python 3.11), so adjusted times there read like wall times
R0 = 0.0033

_KEYS = tuple(f"k{i}" for i in range(32))
_ROUNDS = 60
#: chain table size (entries of 4 bytes) and loads per pass
_CHAIN = 1 << 21
_HOPS = 12000
_chain: Optional[array] = None
#: where the previous pass stopped: each pass loads entries no recent
#: pass touched, so whether they are cached does not depend on what
#: the program did between passes
_position = 0


def _work(rounds: int) -> int:
    total = 0
    for r in range(rounds):
        table = {}
        for i, key in enumerate(_KEYS):
            table[key] = {"id": key, "n": i + r, "tags": [key, str(i)]}
        rows = sorted(table.values(), key=lambda row: -row["n"])
        for row in rows:
            total += len(row["tags"]) + row["n"]
        total += len(",".join(row["id"] for row in rows[:8]))
    return total


def _chase(table: array, start: int, hops: int) -> int:
    index = start
    for _ in range(hops):
        index = table[index]
    return index


def _table() -> array:
    """One full cycle over the table: i -> (a*i + c) mod 2**k with
    a = 1 (mod 4) and c odd visits every entry (Hull-Dobell)."""
    global _chain
    if _chain is None:
        mask = _CHAIN - 1
        _chain = array("I")
        for start in range(0, _CHAIN, 1 << 16):   # no big temporary list
            _chain.extend([(1664525 * i + 1013904223) & mask
                           for i in range(start, start + (1 << 16))])
    return _chain


def reference_time() -> float:
    """Wall time of one pass of the reference loop, GC disabled."""
    global _position
    table = _table()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work(_ROUNDS)
        _position = _chase(table, _position, _HOPS)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
