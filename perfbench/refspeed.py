"""Host speed reference: a fixed pure-Python loop timed between operations.

    python3 perfbench/refspeed.py     # the cold reference, as a child process

The benchmark runs on a few cores of a shared host, whose speed changes by
up to half over minutes as other tenants load it. A warm process times this
loop right before every operation, and the run summarises it the way it
summarises the operations (fastest repetition per slot, then the median
over slots). The warm workloads' times are then scaled by REFERENCE_S / that
summary: seconds at the host speed at which the summary reads REFERENCE_S.
A cold run instead times this file as a child process (an interpreter that
imports the standard modules qlattice imports and runs the loop, as a light
command does) before every REF_EVERY-th command, and scales by
REFERENCE_COLD_S / the median of those times.
The loop shares no code with qlattice, so a change to the program cannot
move it; it row-reduces small GF(2) matrices held as bitmask integers and
keys a dict by the results, the kind of work qlattice's incidence and
search layers do.
"""

from __future__ import annotations

import random
import statistics
import time

# The summaries on the reference machine (2 vCPUs of an Intel Xeon, Python
# 3.11.7) in a quiet phase.
REFERENCE_S = 0.0028
REFERENCE_COLD_S = 0.09
REF_EVERY = 5           # cold commands per cold reference child
CHILD_LOOPS = 4         # loop runs in one cold reference child

_rng = random.Random(7)
_SPACES = [tuple(_rng.getrandbits(10) for _ in range(3)) for _ in range(400)]


def _rank_form(rows, width):
    rows = list(rows)
    rank = 0
    for bit in range(width - 1, -1, -1):
        mask = 1 << bit
        pivot = next((j for j in range(rank, len(rows)) if rows[j] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for j in range(len(rows)):
            if j != rank and rows[j] & mask:
                rows[j] ^= rows[rank]
        rank += 1
    return rank, tuple(sorted(rows[:rank]))


def _loop() -> int:
    seen: dict = {}
    for a in range(0, 400, 7):
        for b in range(a % 5, 400, 100):
            rank, form = _rank_form(_SPACES[a] + _SPACES[b], 10)
            seen[form] = seen.get(form, 0) + rank
    return len(seen)


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def summary(samples_by_slot) -> float:
    """Median over slots of each slot's fastest sample."""
    return statistics.median(min(xs) for xs in samples_by_slot if xs)


def _child() -> None:
    import argparse, csv, dataclasses, fractions, functools, io, itertools, json, math  # noqa: F401,E401

    for _ in range(CHILD_LOOPS):
        _loop()


if __name__ == "__main__":
    _child()
