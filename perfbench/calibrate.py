"""Host speed, measured next to each timed step, to scale timings to a reference host.

On the 2-core host this benchmark was built on, other tenants change the
speed of the same code by up to 2x over tens of seconds to minutes: ten
30-second runs of paper-pgm spread by 0.20 of their median (IQR/median) in
raw frames/s, and setup_s drifted from 0.37 s to 0.22 s within seven
minutes.  A fixed loop of numpy and Python work, timed just before and just
after each pipeline call and around the interpreter starts, tracks that
drift; dividing by its rate turns a timing into the timing on a host that
runs the loop REFERENCE_RATE times per second.  The loop uses no entropykf
code and maps its own memory, so a change to the program cannot move it.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

REFERENCE_RATE = 1500.0  # loops per second of host_rate()'s loop that results are scaled to
WINDOW_S = 0.25

_RNG = np.random.default_rng(0)
_A = _RNG.integers(0, 256, 320 * 240, dtype=np.uint8)
_B = _RNG.integers(0, 256, 320 * 240, dtype=np.uint8)
_COPY_BYTES = _A.size * 8


def host_rate(seconds: float = WINDOW_S) -> float:
    """Loops per second of a fixed mix like one frame pair of the pipeline:
    widening copies to int64 into freshly mapped memory (so page faults are
    part of it, as for the pipeline's temporaries), a dot product and a sum,
    and a little interpreted Python.  The memory is mapped directly rather
    than allocated, so the speed does not depend on the state the program
    leaves the allocator in."""
    loops = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        with mmap.mmap(-1, _COPY_BYTES) as mx, mmap.mmap(-1, _COPY_BYTES) as my:
            x = np.frombuffer(mx, dtype=np.int64)
            y = np.frombuffer(my, dtype=np.int64)
            np.copyto(x, _A, casting="unsafe")
            np.copyto(y, _B, casting="unsafe")
            int(x @ y)
            int(x.sum())
            del x, y  # release the buffers before the maps close
        total = 0
        for i in range(300):
            total += i
        loops += 1
    return loops / (perf_counter() - start)


def scale(rates: list[float]) -> float:
    """Host speed over a step bracketed by these rates, relative to the reference."""
    return sum(rates) / len(rates) / REFERENCE_RATE
