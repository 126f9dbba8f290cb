"""Machine-speed calibration, so that timings from a shared host compare.

On a shared virtual machine the speed of one vCPU drifts by up to 1.7x over
tens of seconds, with the load of other tenants, and the same work measured
in two 20 s windows can differ by half.  ``Meter.run`` therefore times a
fixed pure-Python loop (``calibrate``) before and after the call it
measures, and every ``INTERVAL_S`` during it from a SIGALRM handler, and
reports the call's wall time rescaled to a reference speed:

    normalised = (wall - time spent in the handler) * REFERENCE_S / mean(calibrations)

The loop imports nothing from addix, so a change to the program cannot move
it; it mixes what addix spends its time on (method calls on small slotted
objects, tuple building with zip and modulo, list and dict lookups), so it
slows down with the machine the way the program does.  REFERENCE_S is the
loop's typical time on a 2.1 GHz Xeon vCPU, so a normalised time reads about
as the wall time would there.  The handler runs in the measuring process's
own thread; no thread or process is added.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

REFERENCE_S = 0.0036
ROUNDS = 1500
INTERVAL_S = 0.2


class _Elt:
    __slots__ = ("code", "coeffs")

    def __init__(self, code, coeffs):
        self.code = code
        self.coeffs = coeffs

    def add(self, other, p=3):
        cs = tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs))
        return _ELTS[_CODE[cs]]

    def mul(self, other):
        a, b = self.code, other.code
        if a == 0 or b == 0:
            return _ELTS[0]
        return _ELTS[_EXP[(_LOG[a] + _LOG[b]) % 242]]


def _tables():
    # GF(3^5) as tuples of digits; the "exp" table is any fixed permutation
    # of the nonzero codes, which is all the loop needs.
    elts, code = [], {}
    for c in range(243):
        digits = tuple((c // 3 ** k) % 3 for k in range(5))
        elts.append(_Elt(c, digits))
        code[digits] = c
    exp = [1 + (7 * k) % 242 for k in range(242)]
    log = {e: k for k, e in enumerate(exp)}
    return elts, code, exp, log


_ELTS, _CODE, _EXP, _LOG = _tables()


def calibrate() -> float:
    """Seconds the fixed loop takes now: ROUNDS Horner-like steps."""
    elts = _ELTS
    acc = elts[1]
    t0 = perf_counter()
    for i in range(ROUNDS):
        acc = acc.mul(elts[1 + i % 242]).add(elts[i % 243])
    elapsed = perf_counter() - t0
    if acc.code < 0:  # keeps the loop's result alive
        raise AssertionError
    return elapsed


class Meter:
    """Times calls at the reference speed.  ``run`` leaves the last call's
    ``wall`` and ``normalised`` seconds behind, also when the call raised."""

    def __init__(self):
        self.wall = self.normalised = 0.0
        self._samples: list[float] = []
        self._stolen = 0.0
        self._active = False

    def _tick(self, signum, frame):
        if self._active:
            t0 = perf_counter()
            self._samples.append(calibrate())
            self._stolen += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run(self, fn):
        """Return fn(); set ``wall`` and ``normalised`` to its time."""
        self._samples = [calibrate()]
        self._stolen = 0.0
        t0 = perf_counter()
        self._active = True
        try:
            return fn()
        finally:
            self._active = False
            self.wall = perf_counter() - t0 - self._stolen
            self._samples.append(calibrate())
            self.normalised = self.wall * REFERENCE_S / fmean(self._samples)
