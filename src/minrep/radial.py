"""Radial model of the cone Hilbert space and the spectral inversion operator.

Rotation-invariant functions on the cone in R^{p,q} depend only on the
bipolar radius r, which identifies them with L^2(R_+, (1/2) r^{p+q-3} dr).
For each j the radial part of the j-th isotypic component is the line
spanned by Lam_j^{p-2,q-2}(2r), so the family {Lam_j(2r)} is an
orthogonal basis of the radial space; with x = 2r its orthogonality
weight x^{(p-2)+(q-2)+1} dx matches the radial measure up to a constant
since (p-2)+(q-2)+1 = p+q-3.

The unitary inversion operator acts diagonally in this basis with signs

    F (Lam_j(2r)) = eps_j Lam_j(2r),   eps_j = (-1)^{j + (p-q)/2},

which reproduces the two known special cases: eps_0 = +1 iff
p - q = 0 mod 4, and for even p+1, q+1 the sign +1 iff
(q-p)/2 = j mod 2.  The general-j rule for the remaining parities is the
unique parity-consistent interpolation of those two statements and is
flagged as an extrapolation; both special cases are assert-checked by
the test suite.  F is involutive and norm preserving on the truncated
span by construction.

The minimal isotypic vector is Kt_{(q-2)/2}(2r), square integrable with
respect to the radial measure, and for even p+1, q+1 the radial
eigenvectors are expressed through Mano polynomials by

    u_j^{m,n}(x) = (2x)^{-2n+3} e^{-x} M_j^{2m-3, n-2}(2x),

normalized so that u_0^{2,1}(x) = e^{-x}; u_j^{m,n}(2r) spans the same
line as Lam_j^{2m-3,2n-3}(2r) and u_0^{m,n}(2r) is a constant multiple
of Kt_{n-3/2}(2r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .bessel import ktilde
from .cone import ConeSpec
from .specfun import _elementary_rows, _gl_panels, _lambda_prefactors, lambda_table

__all__ = [
    "ExpansionResult",
    "InversionSpec",
    "RadialFunction",
    "apply_inversion",
    "expand",
    "inner_product",
    "lambda_basis_table",
    "minimal_ktype",
    "u_eval",
]


@dataclass(frozen=True)
class RadialFunction:
    """A function on R_+ given by an evaluator, optionally with expansion data.

    The evaluator should accept a float ndarray and return an ndarray;
    plain scalar-only callables are wrapped transparently.  When
    coefficients are present they describe the function in the
    Lam_j^{p-2,q-2}(2r) basis through the recorded truncation, and the
    reconstruction matches the evaluator to the recorded L^2 residual.
    """

    evaluator: Callable
    coeffs: Optional[tuple] = None
    truncation: Optional[int] = None
    residual: Optional[float] = None

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        try:
            vals = np.asarray(self.evaluator(r_arr), dtype=float)
            if vals.shape != r_arr.shape:
                raise TypeError
        except TypeError:
            vals = np.array([self.evaluator(float(ri)) for ri in np.atleast_1d(r_arr)])
            vals = vals.reshape(r_arr.shape)
        return vals if r_arr.ndim else float(vals)


@dataclass(frozen=True)
class InversionSpec:
    """Sign data of the inversion operator for the pair (p, q), p+q even."""

    p: int
    q: int

    def __post_init__(self):
        ConeSpec(self.p, self.q).require_kernel_domain()

    def sign(self, j: int) -> int:
        """eps_j = (-1)^{j + (p-q)/2}."""
        return -1 if (j + (self.p - self.q) // 2) % 2 else 1


# ---------------------------------------------------------------------------
# quadrature on the radial measure


def inner_product(
    f, g, spec: ConeSpec, tol: float = 1e-10, upper: float = 40.0
) -> float:
    """integral_0^inf f(r) g(r) (1/2) r^{p+q-3} dr by panel-doubling quadrature.

    The domain is extended until the integrand magnitude at the cutoff is
    negligible (functions in this model decay exponentially); failure to
    converge raises ArithmeticError with the last two estimates.
    """
    f = f if isinstance(f, RadialFunction) else RadialFunction(f)
    g = g if isinstance(g, RadialFunction) else RadialFunction(g)
    nw = spec.n - 3

    def integrand(rs):
        return f(rs) * g(rs) * 0.5 * rs**nw

    # extend the cutoff until the boundary contribution is negligible
    for _ in range(6):
        edge = abs(float(np.max(np.abs(integrand(np.array([upper * 0.97, upper]))))))
        if edge * upper < 0.01 * tol:
            break
        upper *= 2.0
    prev = None
    panels = 16
    while panels <= 512:
        xs, ws = _gl_panels(upper, panels)
        cur = float(np.dot(integrand(xs), ws))
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        panels *= 2
    raise ArithmeticError(
        f"radial quadrature did not converge: last estimates {prev:.6e} on "
        f"[0, {upper}]"
    )


# ---------------------------------------------------------------------------
# the Lambda basis on the cone


def lambda_basis_table(spec: ConeSpec, jmax: int, xs) -> np.ndarray:
    """Lam_j^{p-2,q-2}(x) on a grid for j <= jmax, shape (jmax+1, len(xs)).

    Odd q uses the elementary odd-nu rows of `specfun._elementary_rows`
    (Laguerre rows for q in {1, 3}, exact Mano coefficients for q >= 5);
    they carry x^{-(q-2)}, so odd q >= 3 needs x > 0.  Even q uses Cauchy
    extraction from the generating function.
    """
    spec.require_kernel_domain()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    mu, nu = spec.p - 2, spec.q - 2
    if spec.q % 2 == 0:
        return lambda_table(mu, nu, jmax, xs)
    return _elementary_rows(mu, nu, jmax, xs)


@dataclass(frozen=True)
class ExpansionResult:
    """Expansion of a radial function in the Lam_j(2r) basis."""

    spec: ConeSpec
    truncation: int
    coeffs: tuple
    norms: tuple
    residual: float

    def to_json_obj(self) -> dict:
        return {
            "p": self.spec.p,
            "q": self.spec.q,
            "J": self.truncation,
            "coeffs": list(self.coeffs),
            "residual": self.residual,
        }


def expand(f, spec: ConeSpec, jmax: int, upper: float = 30.0) -> ExpansionResult:
    """Orthogonal-projection coefficients c_j = <f, Lam_j(2.)> / ||Lam_j(2.)||^2.

    Quadrature runs on a panel-doubled Gauss-Legendre grid under the
    radial measure; the reported residual is ||f - sum c_j Lam_j(2.)||.
    Two refinements agreeing to 1e-10 end the doubling; after 384 panels the
    last estimate is returned if the drift is at most 1e-6, else ArithmeticError.
    """
    spec.require_kernel_domain()
    f = f if isinstance(f, RadialFunction) else RadialFunction(f)
    nw = spec.n - 3
    prev = None
    panels = 24
    drift = math.inf
    while panels <= 384:
        rs, ws = _gl_panels(upper, panels)
        meas = ws * 0.5 * rs**nw
        fvals = f(rs)
        B = lambda_basis_table(spec, jmax, 2.0 * rs)
        norms = (B * B) @ meas
        coeffs = (B * fvals[None, :]) @ meas / norms
        recon = coeffs @ B
        residual = math.sqrt(max(0.0, float(((fvals - recon) ** 2) @ meas)))
        if prev is not None:
            drift = float(np.max(np.abs(coeffs - prev[0]))) / max(
                1.0, float(np.max(np.abs(coeffs)))
            )
            if drift <= 1e-10:
                return ExpansionResult(
                    spec, jmax, tuple(coeffs.tolist()), tuple(norms.tolist()), residual
                )
        prev = (coeffs, norms, residual)
        panels *= 2
    if drift > 1e-6:
        raise ArithmeticError(
            f"expansion quadrature did not settle: coefficient drift {drift:.2e} "
            f"between the last two panel refinements on [0, {upper}]"
        )
    coeffs, norms, residual = prev
    return ExpansionResult(
        spec, jmax, tuple(coeffs.tolist()), tuple(norms.tolist()), residual
    )


def apply_inversion(
    f, inv: InversionSpec, jmax: int = 40, tol: float = 1e-6, upper: float = 30.0
) -> RadialFunction:
    """Spectral image F f = sum_j eps_j c_j Lam_j(2.) through truncation jmax.

    Requires the expansion to capture f: the relative expansion residual
    must not exceed tol, else ValueError.  F is realized diagonally in
    the Lam basis (the signs eps_j), never as an integral operator.
    """
    spec = ConeSpec(inv.p, inv.q)
    f = f if isinstance(f, RadialFunction) else RadialFunction(f)
    exp_res = expand(f, spec, jmax, upper=upper)
    norm2 = float(np.dot(np.array(exp_res.coeffs) ** 2, np.array(exp_res.norms)))
    scale = math.sqrt(norm2 + exp_res.residual**2)
    if scale > 0 and exp_res.residual > tol * scale:
        raise ValueError(
            f"truncation J={jmax} leaves relative residual "
            f"{exp_res.residual / scale:.2e} > {tol:.1e}"
        )
    signed = tuple(inv.sign(j) * c for j, c in enumerate(exp_res.coeffs))

    def evaluator(rs):
        rs_arr = np.atleast_1d(np.asarray(rs, dtype=float))
        B = lambda_basis_table(spec, jmax, 2.0 * rs_arr)
        vals = np.asarray(signed) @ B
        return vals.reshape(np.shape(rs))

    return RadialFunction(
        evaluator=evaluator,
        coeffs=signed,
        truncation=jmax,
        residual=exp_res.residual,
    )


# ---------------------------------------------------------------------------
# distinguished vectors


def minimal_ktype(spec: ConeSpec, r: float) -> float:
    """Radial generator of the minimal isotypic component: Kt_{(q-2)/2}(2r)."""
    spec.require_kernel_domain()
    if r <= 0:
        raise ValueError(f"minimal_ktype needs r > 0, got {r}")
    return ktilde(Fraction(spec.q - 2, 2), 2.0 * r)


def u_eval(m: int, n: int, j: int, x: float) -> float:
    """Radial eigenvector u_j^{m,n}(x) = (2x)^{-2n+3} e^{-x} M_j^{2m-3,n-2}(2x).

    Defined for integer m >= 2 (so 2m-3 is an odd positive integer) and
    n >= 1; x = 2r in bipolar coordinates.  Normalized so u_0^{2,1} = e^{-x};
    u_j^{m,n}(2r) spans Lam_j^{2m-3,2n-3}(2r) and the orthogonality weight
    of M_j^{2m-3,n-2} is exactly x^{(2m-3)-2(n-2)} e^{-x} dx.
    """
    if not (isinstance(m, int) and m >= 2):
        raise ValueError(f"need integer m >= 2, got {m}")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need integer n >= 1, got {n}")
    if j < 0:
        raise ValueError("index j must be >= 0")
    if x <= 0:
        raise ValueError(f"u_eval needs x > 0, got {x}")
    # u_j^{m,n}(x) = 2^{-nu} Lam_j^{mu,nu}(x) / (2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1))
    mu, nu = 2 * m - 3, 2 * n - 3
    lam = _elementary_rows(mu, nu, j, np.array([x], dtype=float))[j, 0]
    return float(2.0 ** (-nu) * lam / _lambda_prefactors(mu, j)[j])
