"""Shared pieces of the benchmark: op outcomes, accuracy, percentiles, hashing."""

from __future__ import annotations

import hashlib
import json
import bisect
import math
import signal
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

DIGITS_CAP = 16.0

# Percentiles the tail metric may report; the tail is the highest of these
# that still leaves at least TAIL_MIN_BEYOND ops above it.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """Verdict of one op against its oracle.

    digits is the worst -log10 relative error the op reached, None when the
    op produced no value (it raised).  known_defect names the seed defect a
    failure belongs to, None for passes and for unexpected failures.
    """

    ok: bool
    digits: Optional[float]
    error: Optional[str] = None
    known_defect: Optional[str] = None

    def to_json(self) -> dict:
        return asdict(self)


def digits_of(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP; NaN counts as 0 digits."""
    if rel_err != rel_err:
        return 0.0
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(rel_err)))


def check(errors: list, tol: float) -> Outcome:
    """Outcome from a list of relative errors that must each stay within tol."""
    worst = max(errors) if errors else 0.0
    ok = worst <= tol
    return Outcome(ok, digits_of(worst), None if ok else f"relative error {worst:.2e} > {tol:.0e}")


def raised(exc: BaseException) -> Outcome:
    return Outcome(False, None, f"{type(exc).__name__}: {exc}")


def quantile(sorted_vals: list, pct: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_vals:
        raise ValueError("no samples")
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_GRID with at least TAIL_MIN_BEYOND of n samples above it."""
    best = TAIL_GRID[0]
    for pct in TAIL_GRID:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def inputs_hash(ops: list) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- host speed ----------------------------------------------------------------
#
# On a shared host the same fixed loop runs up to 1.7x slower for seconds at
# a time, and process CPU time slows with it (it is not steal time).  Every
# time metric is therefore scaled to a reference speed: a fixed reference
# computation is timed every PROBE_EVERY_S from a timer signal, also while an
# op runs, and each op's latency, less the probes inside it, is divided by
# the mean slowness of the probes during it and on either side of it.
#
# The reference has three equal parts: an interpreter loop, small numpy
# kernels and Fraction arithmetic.  Over rounds of one op list in slow and
# fast spells, this mix left a spread (stdev/mean of round times) of 0.017
# to 0.032 on the four workloads, against 0.09 to 0.17 unscaled; any one part
# alone left up to 0.069 on one workload or another.  The nominal times are
# the parts' medians on a 2-vCPU x86-64 VM, so scaled seconds stay close to
# wall seconds there.

PROBE_EVERY_S = 0.1
REF_NOMINAL_S = (1.55e-3, 0.74e-3, 1.17e-3)  # interpreter, numpy, Fraction
_REF_A = None
_REF_V = None


def _ref_python() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def _ref_numpy() -> None:
    import numpy as np

    for _ in range(10):
        _REF_A @ _REF_A
        np.exp(-_REF_V) * np.sin(_REF_V)


def _ref_fraction() -> Fraction:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 13, i)
    return s


def speed_probe() -> float:
    """Slowness of the host now: 1.0 at the nominal speed, 1.5 when the
    reference computation takes half as long again."""
    global _REF_A, _REF_V
    if _REF_A is None:
        import numpy as np

        _REF_A = np.linspace(-1.0, 1.0, 3600).reshape(60, 60)
        _REF_V = np.linspace(0.1, 5.0, 4000)
        _ref_numpy()
    slowness = 0.0
    for part, nominal in zip((_ref_python, _ref_numpy, _ref_fraction), REF_NOMINAL_S):
        t0 = time.perf_counter()
        part()
        slowness += (time.perf_counter() - t0) / nominal
    return slowness / len(REF_NOMINAL_S)


class SpeedSampler:
    """Speed probes at a fixed wall-clock period, taken in the main thread
    from a SIGALRM handler, so that an op of seconds is sampled while it runs."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.factors: list = []

    def sample(self, *_signal_args) -> float:
        s = time.perf_counter()
        f = speed_probe()
        self.starts.append(s)
        self.ends.append(time.perf_counter())
        self.factors.append(f)
        return f

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, s: float, e: float) -> tuple:
        """(time of [s, e] less the probes inside it, mean speed factor of
        those probes and of the nearest probe on either side)."""
        lo = bisect.bisect_left(self.starts, s)
        hi = bisect.bisect_right(self.ends, e)
        busy = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        near = self.factors[max(0, lo - 1):min(len(self.factors), hi + 1)]
        return e - s - busy, sum(near) / len(near)


def median(vals: list) -> float:
    s = sorted(vals)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])
