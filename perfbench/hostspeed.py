"""A fixed reference workload that gauges how fast the host runs right now.

The benchmark's host is shared: for minutes at a time it runs the same
code up to twice as slowly, with the process on the CPU throughout (see
``perfbench/README.md``, "Host noise").  The benchmark runs
:func:`reference_s` just before every timed call, and divides the call's
time by the reference's, so the host's speed at that moment divides out.

The reference imports nothing from ``repro``, so no change to the program
changes its work.  It mixes the two kinds of work a campaign does: a
levelized bitwise gather/scatter over a uint8 net array, as
``sim.levelize`` settles a netlist, and a pure-Python dict loop.
"""

from __future__ import annotations

import time

import numpy as np

NETS = 12000
GATES_PER_LEVEL = 250
LEVELS = 40
SWEEPS = 200
PYTHON_STEPS = 150_000

_rng = np.random.default_rng(0)
_LEVELS = [
    tuple(_rng.integers(0, NETS, GATES_PER_LEVEL) for _ in range(3))
    for _ in range(LEVELS)
]


def reference_s() -> float:
    """Wall time of one pass of the reference workload (about 0.05 s)."""
    start = time.perf_counter()
    values = np.zeros(NETS, dtype=np.uint8)
    values[::3] = 1
    for _ in range(SWEEPS):
        for in_a, in_b, out in _LEVELS:
            level = values[in_a]
            level ^= values[in_b]
            level &= 1
            values[out] = level
    counts: dict = {}
    for step in range(PYTHON_STEPS):
        key = step % 1000
        counts[key] = counts.get(key, 0) + step * step % 7
    return time.perf_counter() - start
