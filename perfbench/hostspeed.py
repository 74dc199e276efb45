"""Host-speed calibration: a fixed kernel, timed between units of work.

The speed of a shared host swings by half, from one second to the next
and for minutes at a time.  run.py times this kernel between units all
through a run and divides every time it reports by the run's mean
kernel time over REFERENCE_S: seconds on a host where the kernel takes
REFERENCE_S.

The kernel does the kind of work torhom's ring does, the product of two
sparse polynomials kept in dicts keyed by exponent tuples, but shares no
code with torhom, so a change to the program cannot move it.  Its inputs
are fixed, and hashing tuples of ints does not depend on the process's
hash seed, so every process does the same work.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

# mean kernel time on the 2-core host the bounds were set on (Python 3.11.7)
REFERENCE_S = 0.12
KERNELS_PER_BLOCK = 3
TERMS = 400

Poly = Dict[Tuple[int, int, int], int]


def _poly(rng: random.Random) -> Poly:
    return {(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(0, 30)): rng.randint(1, 9)
            for _ in range(TERMS)}


_RNG = random.Random(0)
_A, _B = _poly(_RNG), _poly(_RNG)


def kernel() -> int:
    out: Poly = {}
    for (a1, t1, q1), c1 in _A.items():
        for (a2, t2, q2), c2 in _B.items():
            key = (a1 + a2, t1 + t2, q1 + q2)
            out[key] = out.get(key, 0) + c1 * c2
    return len(out)


def block() -> List[float]:
    """Time the kernel KERNELS_PER_BLOCK times; return the seconds of each."""
    times = []
    for _ in range(KERNELS_PER_BLOCK):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
