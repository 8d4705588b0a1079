"""The pace kernel: a fixed piece of exact polynomial arithmetic, timed
between cases so that every time the benchmark reports can be scaled to the
machine's unloaded speed.

On a small shared virtual machine the other tenants slow the same code down
by up to 2x for tens of seconds at a time. The minimum over repeats cannot
remove a slowdown that lasts the whole run, but a slowdown shows in this
kernel as much as in the cases: it runs the same kind of code (Fraction
arithmetic on dict-based Laurent polynomials, with no algconn in it).
A case that took ``wall`` seconds while the kernel took ``k`` seconds around
it is reported as ``wall * REF_S / k``: the time it would take on this
machine at the kernel's unloaded speed. Raw wall times are printed beside.
"""

from __future__ import annotations

import time

import gen

# The kernel's time on an unloaded core of the reference machine (2-vCPU
# Intel Xeon VM, Python 3.11): the minimum of 400 timings.
REF_S = 0.00225

_draw = gen.Draw("pace", 0, "kernel", 0)
_A, _ = gen.unimodular(_draw, 3, 3, -1, 1)
_B, _ = gen.unimodular(_draw, 3, 3, -1, 1)


def kernel() -> float:
    """Seconds taken by one fixed run of the kernel."""
    t0 = time.perf_counter()
    M = _A
    for _ in range(5):
        M = gen.m_mul(M, _B)
    return time.perf_counter() - t0


def paced_child(wall: float, kernel_start: float, kernel_end: float) -> float:
    """Paced time of a child process that ran the kernel at its start and
    at its end; the kernel runs' own time is left out. A child can run in
    another state of the host than its parent sees, so it paces itself."""
    return (wall - kernel_start - kernel_end) * REF_S / ((kernel_start + kernel_end) / 2)


class Pace:
    """Scale factors for consecutive timed intervals: each interval is
    bracketed by one kernel run before and one after, and the run after an
    interval is the run before the next."""

    def __init__(self):
        self.last = kernel()

    def factor(self) -> float:
        """REF_S over the mean of the kernel runs around the interval that
        just ended; multiply a wall time by it."""
        now = kernel()
        k, self.last = (self.last + now) / 2, now
        return REF_S / k
