"""Call timing corrected for the speed of a shared host.

The CPUs this benchmark runs on are shared with other tenants, and their
speed for a single Python thread changes by up to 1.7 times, in phases that
last from seconds to many minutes.  Process CPU time slows down with wall
time, so it does not help.  A statistic taken inside one run cannot remove a
slow phase that covers the whole run, so every timed call is also measured
against a fixed reference loop.  The loop runs before the call, after it, and
every ``SAMPLE_S`` seconds of wall time during it (on ``SIGALRM``).  The
loop's own time is taken out of the call's time.  The call's *adjusted* time
is its wall time scaled by ``NOMINAL_REF_S`` over the loop's mean time
during the call: the time the call would take on a host where the loop takes
``NOMINAL_REF_S``.  The adjustment is the same on every commit, so it cancels
out of a comparison, and a change to the program moves the adjusted time in
the same proportion as the raw one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_ITERATIONS = 1_000
REF_SVDS = 2
SAMPLE_S = 0.1         # wall seconds between reference samples during a call
NOMINAL_REF_S = 0.004  # the loop's time on the baseline host, rounded; it sets the scale only


class _Pair:
    """A number with one tangent, built by arithmetic like the program's ``Dual``."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Pair(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


_VECTOR = np.linspace(0.0, 1.0, 64)
_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of the kind of work the program does most.

    The loop allocates small objects by interpreted arithmetic and applies
    small numpy operations, then takes singular values of a dense matrix in
    LAPACK, which takes about a third of its time.  The host's slow phases
    slow interpreted code more than LAPACK, so a loop without the LAPACK part
    over-corrected workloads that spend time there, and a loop of plain
    integer arithmetic tracked the slow phases only about half as well.
    """
    t0 = time.perf_counter()
    x, acc, v = _Pair(0.5, 1.0), _Pair(0.0, 0.0), _VECTOR
    for _ in range(REF_ITERATIONS):
        acc = acc + x * x
        v = v * 0.999 + 0.001
    for _ in range(REF_SVDS):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - t0


class Stopwatch:
    """Wall and CPU time of one call, and its time adjusted to the nominal host speed.

    Use as a context manager around exactly one call; read ``wall``, ``cpu`` and
    ``adjusted`` after it exits.  Without ``sampling`` (in the traced run, whose
    spans must not hold reference loops) no loop runs and ``adjusted`` is NaN.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.refs: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0
        self.wall = self.cpu = self.adjusted = 0.0

    def _sample(self, signum, frame) -> None:
        w, c = time.perf_counter(), time.process_time()
        self.refs.append(reference_loop())
        self.spent_wall += time.perf_counter() - w
        self.spent_cpu += time.process_time() - c

    def __enter__(self) -> Stopwatch:
        if self.sampling:
            self.refs.append(reference_loop())
            self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._w0, self._c0 = time.perf_counter(), time.process_time()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._w0 - self.spent_wall
        self.cpu = time.process_time() - self._c0 - self.spent_cpu
        if not self.sampling:
            self.adjusted = float("nan")
            return
        signal.signal(signal.SIGALRM, self._previous)
        self.refs.append(reference_loop())
        self.adjusted = self.wall * NOMINAL_REF_S * len(self.refs) / sum(self.refs)
