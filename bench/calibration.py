"""The machine's speed right now, read from a fixed interpreter workload.

The benchmark runs on a shared machine whose speed for the same code moves
by up to a factor of two, in stretches from about a second to several
minutes, in CPU time as much as in wall time. child.py times this kernel
right before and right after every op, and run.py reports each op in
reference seconds:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where the kernel's seconds are the geometric mean of the two readings
around the op. The kernel does what the program's hot loops do: a loop of
small-integer arithmetic, and modular arithmetic on small objects with a
method call per operation and a dict of the results. It uses nothing from
dualselmer, so no change to the program can move it. The garbage collector is off while it runs, so the
program's heap does not enter into it.
"""
from __future__ import annotations

import gc
import time

# The kernel's median time on the machine the benchmark was tuned on (a
# 2-vCPU Intel Xeon VM, Python 3.11.7), so that reference seconds there read
# about as wall seconds.
REFERENCE_S = 0.009

_Q = 1009
_N = 1500


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % _Q

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)


def _kernel() -> int:
    n = 0
    for i in range(40000):
        n += (i * i) % 7
    one = _Residue(1)
    seen = {}
    for x in range(_N):
        e = _Residue(x)
        y = e * e * e + e + one
        seen[y] = seen.get(y, 0) + 1
        n += len(seen)
    return n


def kernel_s() -> float:
    """Wall seconds of one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
