"""Mellin-Barnes machinery for the inversion kernel Phi^{p,q}.

With m = (p+q-4)/2 and the Gamma-factor distribution

    b(lambda, t) = Gamma(-lambda)/Gamma(lambda + (p+q)/2 - 1) (2t)_+^lambda,

the kernel is the contour integral along L (upward, crossing the real
axis left of the Gamma(-lambda) poles)

    Phi^{p,q}(t) = int_L b(lambda, t) dlambda                    (A1, B1)
    Phi^{p,q}(t) = int_L [ b(lambda,t)/tan(pi lambda)
                         + b(lambda,-t)/sin(pi lambda) ] dlambda (B2)

according to the case split A1: p=1 or q=1; B1: p,q>1 both odd; B2:
p,q>1 both even.  This module returns the normalized pointwise value

    PhiHat(t) := Phi^{p,q}(t) / (2 pi i),

a real number: with upward orientation, closing the contour to the right
encircles the poles clockwise, so PhiHat equals minus the sum of
residues to the right of the contour.  Two independent evaluation
methods are provided:

  * method="residue": closed-form residue sums.  For A1/B1 at t>0 the
    simple poles at lambda = 0,1,2,... telescope to the Bessel series
    sum_k (-1)^k (2t)^k/(k! Gamma(k+m+1)) = Jt_m(2 sqrt(2t)); t<0 gives 0.
    For B2 the integrand has simple poles at lambda = -1..-m (the
    t^{-l-1} singular terms) and double poles at lambda = 0,1,2,...
    whose residues carry log(2t) - psi(k+1) - psi(k+m+1) factors,
    computed analytically (never by numerical limits).
  * method="contour": adaptive Gauss-Legendre quadrature along the
    explicit contour (two vertical rays at Re = gamma joined by a
    rectangular detour crossing the real axis at the case's crossing
    point), with tails truncated under the Stirling decay bound
    |b(gamma+is,t)| = O(|s|^{-2 gamma - (p+q)/2 + 1}).  The integrand
    is evaluated on arrays of nodes: the panels are bisected breadth
    first, and each level makes one call on the nodes of every open
    panel of a batch (the three detour segments, or the up and down
    segments of one tail chunk).

The distributional singular parts (Prop-level data) are reported
symbolically by classify/singular_part: relative coefficients
(-1)^l/(2^l (m-l-1)!) for B1 delta derivatives and l!/(2^l (m-l-1)!)
for B2 negative powers, the overall constants being unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy import special as sps

from .cone import ConeSpec
from .specfun import _leggauss

__all__ = [
    "ContourSpec",
    "KernelCase",
    "KernelValue",
    "SingularPart",
    "SingularTerm",
    "b_eval",
    "classification_report",
    "classify",
    "phi_eval",
    "phi_eval_detailed",
    "singular_part",
    "tabulate",
]

_EULER = 0.577215664901532860606512090082


class KernelCase(str, Enum):
    A1 = "A1"
    B1 = "B1"
    B2 = "B2"


@dataclass(frozen=True)
class SingularTerm:
    l: int
    coeff: Fraction


@dataclass(frozen=True)
class SingularPart:
    """Distributional singular terms of PhiHat modulo locally integrable parts.

    kind "delta_derivatives": terms are coefficients of delta^(l)(t);
    kind "negative_powers":   terms are coefficients of t^{-l-1};
    kind "none":              no singular part (case A1, or m = 0).
    The overall multiplicative constant is unknown, only the relative
    coefficients are determined; `constant` records that marker.
    """

    kind: str
    terms: tuple = ()
    constant: str = "UNKNOWN"

    def __post_init__(self):
        if self.kind not in ("delta_derivatives", "negative_powers", "none"):
            raise ValueError(f"bad singular kind {self.kind!r}")
        if self.kind == "none" and self.terms:
            raise ValueError("kind 'none' cannot carry terms")


@dataclass(frozen=True)
class ContourSpec:
    """Contour data: vertical rays at Re = gamma joined by a detour.

    The detour runs horizontally at height +-h and crosses the real axis
    at `crossing`, which must lie in the case's admissible interval
    strictly between the rightmost continuous pole region and the
    Gamma(-lambda) poles.  `gl_order` fixes the Gauss-Legendre node
    schedule of the adaptive panels, part of the deterministic contract.
    """

    gamma: float
    crossing: float
    h: float = 0.5
    gl_order: int = 24

    def __post_init__(self):
        if self.gamma <= -1:
            raise ValueError("contour rays need gamma > -1")
        if self.h <= 0:
            raise ValueError("detour height must be positive")
        if self.gl_order < 2:
            raise ValueError("node schedule needs at least 2 points per panel")


@dataclass(frozen=True)
class KernelValue:
    """Pointwise kernel value with evaluation metadata."""

    t: float
    value: float
    method: str
    est_error: float


# ---------------------------------------------------------------------------
# classification


def classify(p: int, q: int):
    """(case, locally_integrable, singular part) for the pair (p, q).

    Local integrability holds exactly when q = 1, p = 1, or m = 0.
    """
    spec = ConeSpec(p, q)
    spec.require_kernel_domain()
    if p == 1 or q == 1:
        case = KernelCase.A1
    elif p % 2 == 1:
        case = KernelCase.B1
    else:
        case = KernelCase.B2
    m = spec.m
    integrable = (p == 1) or (q == 1) or (m == 0)
    return case, integrable, singular_part(p, q)


def singular_part(p: int, q: int) -> SingularPart:
    """Symbolic singular terms of PhiHat^{p,q}, exact rational coefficients."""
    spec = ConeSpec(p, q)
    spec.require_kernel_domain()
    m = spec.m
    if p == 1 or q == 1 or m == 0:
        return SingularPart("none")
    if p % 2 == 1:
        kind = "delta_derivatives"
        coeff = lambda l: Fraction((-1) ** l, 2**l * math.factorial(m - l - 1))
    else:
        kind = "negative_powers"
        coeff = lambda l: Fraction(math.factorial(l), 2**l * math.factorial(m - l - 1))
    terms = tuple(SingularTerm(l, coeff(l)) for l in range(m))
    return SingularPart(kind, terms)


def classification_report(p: int, q: int) -> dict:
    case, integrable, sing = classify(p, q)
    return {
        "p": p,
        "q": q,
        "case": case.value,
        "m": int(ConeSpec(p, q).m),
        "locally_integrable": integrable,
        "singular_terms": [
            {
                "kind": sing.kind,
                "l": term.l,
                "coeff_num": term.coeff.numerator,
                "coeff_den": term.coeff.denominator,
            }
            for term in sing.terms
        ],
    }


# ---------------------------------------------------------------------------
# the meromorphic factor


def b_eval(lam, t: float, p: int, q: int):
    """b(lambda, t) = Gamma(-lambda)/Gamma(lambda+(p+q)/2-1) (2t)_+^lambda.

    Pointwise branch of the Riesz distribution: 0 for t < 0, and for
    t > 0 the Gamma ratio is computed through loggamma so large imaginary
    parts neither overflow nor lose the Stirling decay.  lambda may be a
    scalar (a complex is returned) or an array (evaluated elementwise).
    """
    if t == 0:
        raise ValueError("b(lambda, t) is evaluated pointwise only for t != 0")
    lam = np.asarray(lam, dtype=complex)
    if t < 0:
        out = np.zeros_like(lam)
    else:
        pole = (lam.imag == 0) & (lam.real >= 0) & (lam.real == np.floor(lam.real))
        if pole.any():
            raise ValueError(f"lambda = {lam.real[pole].flat[0]:g} is a pole of Gamma(-lambda)")
        c = (p + q) / 2.0 - 1.0
        out = np.exp(sps.loggamma(-lam) - sps.loggamma(lam + c) + lam * math.log(2.0 * t))
    return complex(out) if out.ndim == 0 else out


def _cot_pi(lam):
    # exp(+-2 pi i lambda) with the sign that decays on lam's half plane
    s = np.where(lam.imag >= 0, 1.0, -1.0)
    u = np.exp(2j * math.pi * s * lam)
    return s * 1j * (1.0 + u) / (u - 1.0)


def _csc_pi(lam):
    s = np.where(lam.imag >= 0, 1.0, -1.0)
    e = np.exp(1j * math.pi * s * lam)
    return s * 2j * e / (e * e - 1.0)


# ---------------------------------------------------------------------------
# residue method


def _psi_int(n: int) -> float:
    """digamma at a positive integer: -euler + H_{n-1}."""
    return -_EULER + math.fsum(1.0 / k for k in range(1, n))


def _residue_bessel_series(m: int, w: float) -> float:
    """sum_k (-1)^k w^k / (k! Gamma(k+m+1)), w = 2t; equals Jt_m(2 sqrt w)."""
    term = 1.0 / math.gamma(m + 1.0)
    terms = [term]
    k = 0
    while True:
        k += 1
        term = -term * w / (k * (k + m))
        terms.append(term)
        if k > 4 and abs(term) < 1e-20 * max(1.0, max(abs(x) for x in terms)):
            return math.fsum(terms)
        if k > 2000:
            raise ArithmeticError(
                f"residue series for m={m}, 2t={w} did not converge "
                f"(last term {term:.3e} after {k} terms)"
            )


def _residue_b2(m: int, t: float) -> float:
    """Minus the residue sum of the B2 integrand to the right of the contour.

    t > 0: simple poles at lambda=-1..-m give -(1/pi) l! (2t)^{-l-1}/(m-l-1)!
    and double poles at lambda=k>=0 give
    (1/pi)(-1)^k (2t)^k [log(2t)-psi(k+1)-psi(k+m+1)]/(k! Gamma(k+m+1)).
    t < 0: the csc term contributes; the alternating signs move to the
    negative powers and the k-series loses its (-1)^k.
    """
    w = 2.0 * abs(t)
    logw = math.log(w)
    neg = []
    for l in range(m):
        mag = math.factorial(l) * w ** (-l - 1) / math.factorial(m - l - 1)
        if t > 0:
            neg.append(-mag)
        else:
            neg.append(mag if l % 2 == 0 else -mag)
    series = []
    base = 1.0 / math.gamma(m + 1.0)
    k = 0
    max_base = base
    while True:
        factor = logw - _psi_int(k + 1) - _psi_int(k + m + 1)
        series.append(((-1) ** k if t > 0 else 1.0) * base * factor)
        k += 1
        base = base * w / (k * (k + m))
        max_base = max(max_base, base)
        if k > 4 and base * (abs(logw) + 2.0 * math.log(k + m + 2.0) + 4.0) < 1e-20 * max(
            1.0, max_base
        ):
            break
        if k > 2000:
            raise ArithmeticError(
                f"B2 residue series for m={m}, t={t} did not converge"
            )
    return (math.fsum(neg) + math.fsum(series)) / math.pi


def _phi_residue(p: int, q: int, t: float) -> KernelValue:
    case, _, _ = classify(p, q)
    m = int(ConeSpec(p, q).m)
    if case in (KernelCase.A1, KernelCase.B1):
        value = _residue_bessel_series(m, 2.0 * t) if t > 0 else 0.0
    else:
        value = _residue_b2(m, t)
    return KernelValue(t=t, value=value, method="residue", est_error=1e-15 * max(1.0, abs(value)))


# ---------------------------------------------------------------------------
# contour method

_PROBES = np.linspace(0.0, 1.0, 5)  # seg_tol samples at 0, 1/4, 1/2, 3/4, 1


def _integrate_segments(f, a, b, tol, rule):
    """Adaptive complex line integrals of f over the segments [a_i, b_i].

    Breadth-first bisection: each level calls f once, on the nodes of both
    halves of every open panel (level 0 also on the whole segments).  A
    panel is accepted when |whole - halves| <= its tol; otherwise its
    halves go to the next level with tol/2 each, their half-sums becoming
    their `whole`.  A panel still open at depth 24 raises ArithmeticError.
    """
    nodes, weights = rule
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    owner = np.arange(a.size)
    out = np.zeros(a.size, dtype=complex)
    whole = None
    for _ in range(25):  # depths 0..24
        n = a.size
        mid = (a + b) / 2.0
        lo, hi = np.concatenate((a, mid)), np.concatenate((mid, b))
        if whole is None:
            lo, hi = np.concatenate((lo, a)), np.concatenate((hi, b))
        c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
        sums = r * (f(c[:, None] + r[:, None] * nodes) @ weights)
        left, right = sums[:n], sums[n : 2 * n]
        halves = left + right
        if whole is None:
            whole = sums[2 * n :]
        ok = np.abs(whole - halves) <= tol
        np.add.at(out, owner[ok], halves[ok])
        if ok.all():
            return out
        bad = ~ok
        a, b = np.concatenate((a[bad], mid[bad])), np.concatenate((mid[bad], b[bad]))
        whole = np.concatenate((left[bad], right[bad]))
        tol = np.tile(tol[bad] / 2.0, 2)
        owner = np.tile(owner[bad], 2)
    raise ArithmeticError(
        f"adaptive contour quadrature: {bad.sum()} panels still open at bisection depth 24"
    )


def default_contour(p: int, q: int) -> ContourSpec:
    """Case contour: A1 crosses in (-1,0), B1/B2 in (-m-1,-m); rays at
    gamma = m/2 + 3.25 so the tails decay like |s|^{-(2m+7.5)}."""
    case, _, _ = classify(p, q)
    m = int(ConeSpec(p, q).m)
    crossing = -0.5 if case is KernelCase.A1 else -m - 0.5
    return ContourSpec(gamma=m / 2.0 + 3.25, crossing=crossing)


def _phi_contour(
    p: int, q: int, t: float, contour: ContourSpec | None = None, tol: float = 1e-10
) -> KernelValue:
    case, _, _ = classify(p, q)
    m = int(ConeSpec(p, q).m)
    if contour is None:
        contour = default_contour(p, q)
    if case is not KernelCase.A1:
        if not (-m - 1 < contour.crossing < -m):
            raise ValueError(
                f"crossing {contour.crossing} outside the admissible interval "
                f"({-m-1}, {-m})"
            )
    elif not (-1 < contour.crossing < 0):
        raise ValueError("case A1 contour must cross the real axis in (-1, 0)")

    if case in (KernelCase.A1, KernelCase.B1):
        if t < 0:
            return KernelValue(t=t, value=0.0, method="contour", est_error=0.0)
        integrand = lambda lam: b_eval(lam, t, p, q)
    else:
        if t > 0:
            integrand = lambda lam: b_eval(lam, t, p, q) * _cot_pi(lam)
        else:
            integrand = lambda lam: b_eval(lam, -t, p, q) * _csc_pi(lam)

    g, c, h = contour.gamma, contour.crossing, contour.h
    rule = _leggauss(contour.gl_order)

    def seg_tol(a, b):
        # the quadrature cannot beat the rounding floor of the integrand
        # scale; near the crossing |(2t)^lambda| can dwarf the final value,
        # so the per-segment target is scale-aware
        probes = a[:, None] + _PROBES * (b - a)[:, None]
        scale = np.abs(integrand(probes)).max(axis=1) * np.abs(b - a)
        return np.maximum(tol / 8.0, 4e-15 * scale)

    # upward orientation: bottom ray, lower detour, crossing, upper detour, top ray
    a = np.array([complex(g, -h), complex(c, -h), complex(c, h)])
    b = np.array([complex(c, -h), complex(c, h), complex(g, h)])
    st = seg_tol(a, b)
    est = sum(st.tolist())
    total = complex(_integrate_segments(integrand, a, b, st, rule).sum())

    # vertical tails in doubling chunks [T, 2T] until both the last chunk
    # and the Stirling bound drop below the tolerance
    decay = 2.0 * g + m  # |integrand| ~ s^{-decay-1}
    T_prev = h
    T = 12.0
    tail_bound = math.inf
    while True:
        a = np.array([complex(g, T_prev), complex(g, -T)])
        b = np.array([complex(g, T), complex(g, -T_prev)])
        st = float(seg_tol(a, b).max())
        up, dn = _integrate_segments(integrand, a, b, st, rule)
        total += complex(up + dn)
        est += 2.0 * st
        mag = float(np.abs(integrand(np.array([complex(g, T), complex(g, -T)]))).sum())
        tail_bound = mag * T / decay
        if tail_bound < 0.1 * tol and abs(up) + abs(dn) < tol:
            break
        T_prev, T = T, 2.0 * T
        if T > 1e7:
            raise ArithmeticError(
                f"contour tails did not converge by |Im lambda| = {T:.1e} "
                f"(bound {tail_bound:.2e})"
            )

    value = total / (2j * math.pi)
    est = (est + tail_bound) / (2.0 * math.pi) + tol
    if abs(value.imag) > 10.0 * est + 1e-9 * max(1.0, abs(value.real)):
        raise ArithmeticError(
            f"contour value has non-negligible imaginary part {value.imag:.2e} "
            f"(error estimate {est:.2e})"
        )
    return KernelValue(t=t, value=value.real, method="contour", est_error=est)


# ---------------------------------------------------------------------------
# public evaluation


def phi_eval_detailed(
    p: int,
    q: int,
    t: float,
    method: str = "residue",
    contour: ContourSpec | None = None,
    tol: float = 1e-10,
) -> KernelValue:
    if t == 0:
        raise ValueError("PhiHat is evaluated pointwise only for t != 0")
    if method == "residue":
        return _phi_residue(p, q, t)
    if method == "contour":
        return _phi_contour(p, q, t, contour=contour, tol=tol)
    raise ValueError(f"unknown method {method!r}, expected 'residue' or 'contour'")


def phi_eval(p: int, q: int, t: float, method: str = "residue") -> float:
    """PhiHat^{p,q}(t) = Phi^{p,q}(t)/(2 pi i) at t != 0."""
    return phi_eval_detailed(p, q, t, method=method).value


def tabulate(p: int, q: int, ts, method: str = "residue") -> list:
    """KernelValue rows for a t-grid, in grid order."""
    return [phi_eval_detailed(p, q, float(t), method=method) for t in ts]
