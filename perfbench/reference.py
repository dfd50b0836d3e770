"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same code runs up to 40% slower for seconds
or minutes at a time, when another tenant loads the same physical core.  A
pass's wall time then says more about the neighbours than about ``qch``.
The benchmark therefore times this kernel, which does not touch ``qch``,
before and after every chunk of commands, and rescales the chunk's wall time
to the speed at which the kernel takes ``REF_S``.  A change to ``qch`` cannot
alter the kernel, so it moves the rescaled time exactly as it moves the wall
time at a steady machine speed.

Two kernel timings stand for the machine's speed over a short chunk only.  A
chunk longer than ``RESCALE_MAX_S``, a single long command, keeps its wall
time: for the multi-second, memory-bound theorem1-wide command, rescaling by
its bracketing timings made runs spread five times more, not less.

The kernel mixes what ``qch`` spends its time on: interpreted Python, many
small numpy calls with a small matrix product, and a pass over an array
larger than the L1 cache.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 1e-3  # nominal kernel time: rescaled times are seconds at this speed
CHUNK_S = 0.1  # wall time of commands between two kernel timings
RESCALE_MAX_S = 1.0  # longer chunks keep their wall time

_SMALL = np.random.default_rng(0).random((24, 24))
_LARGE = np.random.default_rng(1).random(1 << 15)


def _kernel() -> float:
    s = 0
    for i in range(3000):
        s += i * i
    x = _SMALL
    for _ in range(60):
        x = np.tanh(x @ _SMALL * 0.01)
    for _ in range(2):
        s += float(np.sort(_LARGE)[0])
    return s + float(x[0, 0])


def kernel_seconds() -> float:
    """Median time of three runs of the kernel."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def rescale(chunk_s: float, before_s: float, after_s: float) -> float:
    """A chunk's wall time at the reference speed, given the kernel's times
    before and after it."""
    if chunk_s > RESCALE_MAX_S:
        return chunk_s
    return chunk_s * REF_S / ((before_s + after_s) / 2)
