"""Renormalized Bessel functions.

The primitives are the renormalized forms

    Jt_lam(t) = (t/2)^(-lam) J_lam(t) = sum_k (-1)^k (t/2)^{2k} / (k! Gamma(lam+k+1)),
    It_a(z)   = (z/2)^(-a)   I_a(z)   = sum_k        (z/2)^{2k} / (k! Gamma(a+k+1)),
    Kt_a(z)   = (z/2)^(-a)   K_a(z),

which are entire (Jt, It) respectively smooth on z > 0 (Kt); the classical
J, I, K are derived views.

For integer and half-integer orders, small arguments use the power
series accumulated in exact rationals (the Gamma factors are exact
rational-sqrtpi values), so the result is correctly rounded; large
arguments use scipy's jv and ive.  The crossover sits at
|argument| = 2*|order| + 20 so both branches stay well conditioned.
Other orders, rational ones such as 3/10 included, have no exact Gamma
values and use jv and ive at every argument: a floating-point series
loses digits to cancellation well below the crossover (about 1e-9
relative at order 3/10, t = 20).  Where the library value under- or
overflows the double range (a large order at a tiny argument) the
evaluators raise ArithmeticError.

Half-integer K-Bessel orders have exact closed forms

    Kt_{ell+1/2}(z) = sqrtpi * e^{-z} * P_ell(1/z),

with P_ell an integer-coefficient Laurent polynomial (P_{-1} = 1/2);
:func:`ktilde_half_closed` returns P_ell exactly.

The module also houses complex-argument evaluators (itilde_complex,
ktilde_complex) needed by the Cauchy coefficient extraction in specfun.
They are thin array wrappers over scipy's ive and kve, the Amos routines
for Bessel functions of complex argument (D. E. Amos, ACM TOMS 12 (1986),
Algorithm 644).  They are internal machinery: the public API is
real-argument only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .algebra import ExactScalar, Polynomial, gamma_exact

__all__ = [
    "BesselOrder",
    "itilde",
    "jtilde",
    "ktilde",
    "ktilde_half_closed",
]

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class BesselOrder:
    """A Bessel order with exact half-integer detection.

    `exact` is the order as a Fraction when the order was constructed from
    a rational (int, Fraction, or a float that is exactly k/2), else None.
    """

    value: float
    exact: Fraction | None = None

    @classmethod
    def coerce(cls, x) -> "BesselOrder":
        if isinstance(x, BesselOrder):
            return x
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
            return cls(float(f), f)
        if isinstance(x, float):
            if abs(x) < sys.float_info.min:
                # a subnormal order is order 0 to within rounding, and scipy's
                # ive/kve return NaN there
                return cls(0.0, Fraction(0))
            f = Fraction(x)
            # floats that are exactly a half-integer keep the exact tag
            return cls(x, f if f.denominator in (1, 2) else None)
        raise TypeError(f"cannot interpret {x!r} as a Bessel order")

    @property
    def is_half_integer(self) -> bool:
        return self.exact is not None and self.exact.denominator == 2

    @property
    def is_integer(self) -> bool:
        return self.exact is not None and self.exact.denominator == 1

    @property
    def ell(self) -> int:
        """Integer part ell with value = ell + 1/2; half-integers only."""
        if not self.is_half_integer:
            raise ValueError(f"order {self.value} is not a half-integer")
        return (self.exact.numerator - 1) // 2

    @property
    def crossover(self) -> float:
        return 2.0 * abs(self.value) + 20.0


# ---------------------------------------------------------------------------
# series engines


def _series_value(order: BesselOrder, t: float, alternating: bool) -> float:
    """sum_k s^k (t/2)^{2k} / (k! Gamma(nu+k+1)) by exact rational arithmetic.

    Integer and half-integer orders nu only: there Gamma(nu+k+1) is rational
    or rational*sqrtpi uniformly in k, so the sum is (exact rational) *
    sqrtpi^{-g}; only the final conversion rounds.
    """
    nu = order.exact
    q = Fraction(t) ** 2 / 4
    g0 = gamma_exact(nu + 1)
    ((grade, r0),) = g0.terms()
    acc = Fraction(0)
    term = 1 / r0
    k = 0
    max_term = term
    while True:
        acc += -term if (alternating and k % 2 == 1) else term
        k += 1
        term = term * q / (k * (nu + k))  # Gamma ratio: Gamma(nu+k+1)/Gamma(nu+k) = nu+k
        if term > max_term:
            max_term = term
        if k > float(t) / 2 + 2 and term < max_term * Fraction(1, 10**30) + Fraction(1, 10**60):
            break
        if k > 4000:  # unreachable for arguments below the crossover
            raise ArithmeticError("renormalized Bessel series did not converge")
    return float(acc) * math.pi ** (-grade / 2.0)


def _use_series(order: BesselOrder, t: float) -> bool:
    # Gamma is an exact rational-sqrtpi value only at integers and half-integers
    return (order.is_integer or order.is_half_integer) and t < order.crossover


def _in_range(value: float, name: str, order: BesselOrder, t: float) -> float:
    """Raise where the library value under- or overflowed (large order, tiny t)."""
    if value == 0.0 or not math.isfinite(value):
        raise ArithmeticError(f"{name}({order.value}, {t}) is outside the double range")
    return value


# ---------------------------------------------------------------------------
# public evaluators


def jtilde(order, t: float) -> float:
    """Renormalized J-Bessel (t/2)^(-lam) J_lam(t) on t >= 0, lam > -1."""
    lam = BesselOrder.coerce(order)
    if lam.value <= -1:
        raise ValueError(f"jtilde needs order > -1, got {lam.value}")
    t = float(t)
    if t < 0:
        raise ValueError(f"jtilde needs t >= 0, got {t}")
    if t == 0.0:
        return 1.0 / math.gamma(lam.value + 1.0)
    if _use_series(lam, t):
        return _series_value(lam, t, alternating=True)
    value = float(sps.jv(lam.value, t)) * (t / 2.0) ** (-lam.value)
    return _in_range(value, "jtilde", lam, t)


def itilde(order, z: float) -> float:
    """Renormalized I-Bessel (z/2)^(-a) I_a(z); entire and even in z."""
    a = BesselOrder.coerce(order)
    if a.value <= -1:
        raise ValueError(f"itilde needs order > -1, got {a.value}")
    z = abs(float(z))
    if z == 0.0:
        return 1.0 / math.gamma(a.value + 1.0)
    if _use_series(a, z):
        return _series_value(a, z, alternating=False)
    # scaled I avoids overflow until exp(z) itself overflows
    value = float(sps.ive(a.value, z)) * math.exp(z) * (z / 2.0) ** (-a.value)
    return _in_range(value, "itilde", a, z)


def ktilde(order, z: float) -> float:
    """Renormalized K-Bessel (z/2)^(-a) K_a(z) on z > 0.

    Half-integer orders use the exact closed form sqrtpi e^{-z} P_ell(1/z);
    other orders use scipy's kv.
    """
    a = BesselOrder.coerce(order)
    z = float(z)
    if z <= 0:
        raise ValueError(f"ktilde needs z > 0, got {z}")
    if a.is_half_integer:
        ell = a.ell
        if ell >= -1:
            return _ktilde_half_value(ell, z)
        # K_{-a} = K_a: Kt_a(z) = (z/2)^{-2a} Kt_{-a}(z) for a < -1/2
        return (z / 2.0) ** (-2.0 * a.value) * _ktilde_half_value(-ell - 1, z)
    value = float(sps.kv(a.value, z)) * (z / 2.0) ** (-a.value)
    if math.isnan(value):
        raise ArithmeticError(f"ktilde({a.value}, {z}) is not a number")
    return value


def ktilde_half_closed(ell: int) -> Polynomial:
    """Exact Laurent polynomial P_ell with Kt_{ell+1/2}(z) = sqrtpi e^{-z} P_ell(1/z).

    P_ell(1/z) = sum_{k=0}^{ell} (ell+k)! 2^{ell-k} / (k! (ell-k)!) z^{-ell-1-k};
    for ell = -1 the constant 1/2.
    """
    if not isinstance(ell, int) or ell < -1:
        raise ValueError(f"ktilde_half_closed needs integer ell >= -1, got {ell}")
    if ell == -1:
        return Polynomial.constant(Fraction(1, 2), ("z",))
    terms = {}
    for k in range(ell + 1):
        c = Fraction(
            math.factorial(ell + k) * 2 ** (ell - k),
            math.factorial(k) * math.factorial(ell - k),
        )
        terms[(-ell - 1 - k,)] = c
    return Polynomial(("z",), terms)


@lru_cache(maxsize=None)
def _half_poly_coeffs(ell: int) -> tuple:
    """(exponent, float coefficient) pairs of P_ell, cached."""
    return tuple((e[0], float(c)) for e, c in sorted(ktilde_half_closed(ell).terms().items()))


def _ktilde_half_value(ell: int, z: float) -> float:
    acc = 0.0
    for e, c in _half_poly_coeffs(ell):
        acc += c * z**e
    return SQRT_PI * math.exp(-z) * acc


# ---------------------------------------------------------------------------
# complex-argument internals (Cauchy extraction support)


def itilde_complex(alpha: float, z):
    """It_alpha at complex argument(s) by the Amos routine behind scipy's ive.

    It is even in z, so z is folded into Re z >= 0 first; there the
    principal branches of (z/2)^(-alpha) and I_alpha(z) agree and their
    product is the entire function.  The value at z = 0 is 1/Gamma(alpha+1).
    """
    alpha = BesselOrder.coerce(alpha).value
    z = np.asarray(z, dtype=complex)
    z = np.where(z.real < 0, -z, z)
    zero = z == 0
    zs = np.where(zero, 1.0, z)
    out = sps.ive(alpha, zs) * np.exp(zs.real) * (zs / 2.0) ** (-alpha)
    return np.where(zero, 1.0 / math.gamma(alpha + 1.0), out)


def _ktilde_half_complex(ell: int, z):
    acc = np.zeros(z.shape, dtype=complex)
    for e, c in _half_poly_coeffs(ell):
        acc += c * z ** float(e)
    return SQRT_PI * np.exp(-z) * acc


def ktilde_complex(order: float, z):
    """Kt_order at complex argument(s) with Re z > 0.

    Half-integer orders use the exact closed form; other orders the Amos
    routine behind scipy's kve, K_nu(z) = kve(nu, z) e^{-z}.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0):
        raise ValueError("ktilde_complex needs Re z > 0")
    o = BesselOrder.coerce(float(order)) if not isinstance(order, BesselOrder) else order
    if o.is_half_integer and o.ell >= -1:
        return _ktilde_half_complex(o.ell, z)
    nu = o.value
    return sps.kve(nu, z) * np.exp(-z) * (z / 2.0) ** (-nu)
