"""A fixed reference computation that gauges how fast the machine runs right now.

On a shared host the same code runs up to 60% slower for stretches of a
second to a minute, and its CPU time rises with its wall time, so the
slowdown is the processor's, not the scheduler's.  The worker therefore
reads the time of this small computation (a few ms) around and during each
invocation, and divides the invocation's time by the mean reading.  The
quotient, ``wall_rel``, is the pass time in units of this computation: it
moves with any change to the program, but hardly with the host's speed.

The computation mixes what the program spends its time on: interpreted
``math.fsum`` calls over numpy scalars, element-wise work and an FFT on 2^14
doubles, small FFTs, a complex product with a least-squares solve, and float
formatting.  Its inputs are fixed and never depend on the benchmark seed.
Changing this file changes the unit of ``wall_rel``: compare two commits
only with the same version of it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

_VEC = np.random.default_rng(20200615).random(1 << 14)
_SHORT = _VEC[:1024].copy()
_ROWS = _VEC[:100].tolist()
_MAT = (_VEC[:2048] + 1j * _VEC[2048:4096]).reshape(16, 128)

READINGS_BETWEEN = 3  # readings taken between two invocations
SAMPLE_PERIOD_S = 0.2  # one reading per this much time inside an invocation


def reference_work() -> None:
    # Interpreted sums over numpy scalars, as in the spectrum normaliser and
    # the folded closed forms.
    math.fsum(_VEC[::-1])
    math.fsum(_VEC[k * 256 + j] for k in range(1, 9) for j in range(64))
    # Whole-array numpy work.
    np.abs(np.fft.rfft(_VEC)).sum()
    np.cumsum(np.exp(-0.5 * _VEC) * np.cos(3.0 * _VEC))
    # Small numpy calls, as in the Monte Carlo trials.
    for _ in range(8):
        np.fft.ifft(np.fft.fft(_SHORT) * _SHORT).real.sum()
    # A dense complex product and a least-squares solve.
    gram = _MAT @ _MAT.conj().T
    np.linalg.lstsq(gram[:, :12], _MAT[:, 0], rcond=None)
    # Float formatting, as in the CSV writers.
    ",".join(f"{x:.17g}" for x in _ROWS)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def readings(count: int = READINGS_BETWEEN) -> list[float]:
    return [reference_seconds() for _ in range(count)]


class Sampler:
    """Reads the reference computation every ``period`` seconds while active.

    A ``SIGALRM`` interval timer runs the reading on the main thread between
    two bytecodes of the program (a long numpy call delays it).  ``spent``
    is the time the readings took, to be taken off the invocation's time.
    Use it only around single-threaded work: under a thread pool the reading
    would wait for the interpreter lock and read the pool's load, not the
    host's speed.  A ``period`` of 0 takes no readings.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(reference_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.readings, self.spent = [], 0.0
        if not self.period:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if not self.period:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
