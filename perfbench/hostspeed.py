"""The host's speed at a moment, read from a fixed piece of reference work.

The benchmark runs on shared cores whose speed swings by half or more
between states that last from seconds to minutes, for reasons outside the
program.  Timing fixed work next to every query shows which state the host
was in; a query's wall time times the reference's nominal time over its
measured time is the query's time at the reference speed.  There are two
references, one for each kind of workload:

- "kernel": `kernel()` run in process (nominal REF_S), for queries that do
  interpreted exact arithmetic in process;
- "child": a fresh interpreter that imports this module and runs the kernel
  three times (nominal REF_CHILD_S), for queries that are a process each,
  whose time is mostly start-up: exec, page faults and reading files follow
  the host's state differently from arithmetic.

Neither shares code with stasys, so no change to the program moves them.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The kernel's time at the reference speed: about its median in the fast
# state of a shared 2-core Xeon at 2.0 GHz with Python 3.11.7.
REF_S = 0.0035
# The reference child's wall time at the reference speed.
REF_CHILD_S = 0.075
CHILD_KERNELS = 3
N = 12
MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(N))
               for i in range(N))


def kernel() -> Fraction:
    """Fraction-exact Gaussian elimination of a fixed 12x12 matrix, the
    same kind of interpreted exact arithmetic the program's LP and Smith
    normal form do; returns the determinant."""
    A = [list(row) for row in MATRIX]
    det = Fraction(1)
    for c in range(N):
        p = next(r for r in range(c, N) if A[r][c] != 0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, N):
            f = A[r][c] * inv
            if f:
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det


DET = kernel()


def sample() -> float:
    """Wall seconds of one kernel run, with the garbage collector off so
    that the program's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        det = kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if det != DET:
        raise AssertionError("reference kernel gave a different determinant")
    return elapsed


def sample_child() -> float:
    """Wall seconds of one reference child, from spawn to exit."""
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
            f"import hostspeed; hostspeed.child()")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def child() -> None:
    for _ in range(CHILD_KERNELS):
        if kernel() != DET:
            raise SystemExit("reference kernel gave a different determinant")


REFERENCES = {"kernel": (sample, REF_S), "child": (sample_child, REF_CHILD_S)}


def samples(reference: str, n: int) -> list[float]:
    return [REFERENCES[reference][0]() for _ in range(n)]


def scale(reference: str, times: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REFERENCES[reference][1] / statistics.median(times)
