"""Polynomial and special-function families: Laguerre, Mano, Lambda.

The Mano family M_j^{mu,ell} is defined through the generating function

    G^{mu,ell}(t,x) = (x/2)^{2 ell + 1} e^{x/2} (1-t)^{-(ell+(mu+3)/2)}
                      It_{mu/2}( t x / (2(1-t)) ) Kt_{ell+1/2}( x / (2(1-t)) ),

    M_j^{mu,ell}(x) = Gamma(j+mu+1) / (j! 2^mu Gamma(j+(mu+1)/2))
                      * d^j/dt^j G^{mu,ell}(t,x) |_{t=0},

with top term (-1)^j x^{j+ell} / j!.  Two independent computation routes
are implemented and serve as mutual oracles:

  * the exact route (odd integer mu, integer ell >= -1) reads the t^j
    coefficient of G off a closed form.  With tau = t/(1-t) and
    a = ell + (mu+3)/2,

        G = (1-t)^{-a} K(t,x) F(x tau),   F(s) = e^{-s/2} It_{mu/2}(s/2),

    where K = sqrtpi sum_{k<=ell} (ell+k)!/(k!(ell-k)!) x^{ell-k}
    (1-t)^{ell+1+k} is the K-Bessel factor (sqrtpi/x when ell = -1), so
    [t^j] G is a double sum over k <= ell and m <= j of exact scalars
    times binomial coefficients of (1-t)^{ell+1+k-a-m}.  The coefficients
    live in Q[sqrtpi, 1/sqrtpi]; all sqrtpi grades cancel and the result
    is a rational-coefficient (Laurent) polynomial;
  * the numeric route (:func:`mano_genfun`) reads M_j off a Lambda table:
    G^{mu,ell}(t,x) = (x/2)^{2 ell+1} e^{x/2} sum_j t^j Lam_j^{mu,2 ell+1}(x/2).

The Lambda family is defined by

    sum_j t^j Lam_j^{mu,nu}(x) = (1-t)^{-(mu+nu+2)/2}
                                 It_{mu/2}(t x/(1-t)) Kt_{nu/2}(x/(1-t)),

computed by Cauchy extraction (:func:`lambda_table`, the one Cauchy engine:
all j <= jmax from one Hermitian FFT over n/2+1 nodes of the upper half
circle |t| = rho < 1, Im t >= 0) and by the identity

    Lam_j^{mu,2l+1}(x) = 2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1)
                         * x^{-2l-1} e^{-x} M_j^{mu,l}(2x)

when nu is an odd integer (the one row builder `_elementary_rows`).  The
per-value :func:`lambda_eval` and :func:`mano_genfun` read one column of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import ExactScalar, Polynomial, gamma_exact
from .bessel import itilde_complex, ktilde_complex

__all__ = [
    "LambdaParams",
    "ManoParams",
    "laguerre",
    "lambda_eval",
    "lambda_gram",
    "lambda_table",
    "mano_exact",
    "mano_genfun",
    "moment_inner_product",
    "norm_squared",
]


@dataclass(frozen=True)
class ManoParams:
    """Parameters (mu, ell, j) of a Mano polynomial."""

    mu: object
    ell: object
    j: int

    def validate_exact(self) -> None:
        """Exact route: odd integer mu >= 1, integer ell >= -1."""
        if not isinstance(self.mu, int) or self.mu < 1 or self.mu % 2 == 0:
            raise ValueError(f"exact Mano route needs odd integer mu >= 1, got {self.mu}")
        if not isinstance(self.ell, int) or self.ell < -1:
            raise ValueError(f"exact Mano route needs integer ell >= -1, got {self.ell}")
        if self.j < 0:
            raise ValueError("index j must be >= 0")

    def validate_float(self) -> None:
        """Numeric route: real mu > -1 (so in particular off the excluded
        set {-1,-2,...} of the defining formula), any real ell."""
        mu = float(self.mu)
        if mu <= -1:
            raise ValueError(f"numeric Mano route needs mu > -1, got {self.mu}")
        if self.j < 0:
            raise ValueError("index j must be >= 0")


@dataclass(frozen=True)
class LambdaParams:
    """Parameters (mu, nu, j) of a Lambda function."""

    mu: object
    nu: object
    j: int

    def validate(self) -> None:
        if float(self.mu) <= -2 or float(self.nu) <= -2:
            raise ValueError("lambda family needs mu, nu > -2")
        if self.j < 0:
            raise ValueError("index j must be >= 0")

    def validate_orthogonality(self) -> None:
        """Hypotheses under which orthogonality in x^{mu+nu+1} dx holds."""
        mu, nu = self.mu, self.nu
        ok = (
            isinstance(mu, int)
            and isinstance(nu, int)
            and mu >= nu >= -1
            and (mu - nu) % 2 == 0
            and (mu, nu) != (-1, -1)
        )
        if not ok:
            raise ValueError(
                f"orthogonality needs integers mu >= nu >= -1 of equal parity, "
                f"(mu,nu) != (-1,-1); got ({mu},{nu})"
            )


# ---------------------------------------------------------------------------
# Laguerre polynomials


def laguerre(j: int, mu=None) -> Polynomial:
    """Exact generalized Laguerre polynomial L_j^mu.

    With rational mu the result is a polynomial in x.  With mu=None the
    coefficients are returned as polynomials in the symbol mu, so the
    result lives in Q[x, mu]:  L_1^mu = (mu+1) - x.
    """
    if j < 0:
        raise ValueError("index j must be >= 0")
    if mu is None:
        variables = ("x", "mu")
        mu_poly = Polynomial.variable("mu", variables)
        out = Polynomial(variables, {})
        for k in range(j + 1):
            c = Fraction((-1) ** k * math.comb(j, k), math.factorial(j))
            rising = Polynomial.constant(1, variables)
            for i in range(k + 1, j + 1):
                rising = rising * (mu_poly + i)
            out = out + rising * Polynomial.monomial((k, 0), c, variables)
        return out
    mu = Fraction(mu)
    out = Polynomial(("x",), {})
    for k in range(j + 1):
        c = Fraction((-1) ** k * math.comb(j, k), math.factorial(j))
        for i in range(k + 1, j + 1):
            c *= mu + i
        out = out + Polynomial.monomial((k,), c, ("x",))
    return out


def _laguerre_rows(n: int, alpha, ys: np.ndarray) -> np.ndarray:
    """L_0^alpha .. L_n^alpha(ys) for integer alpha >= 0, shape (n+1, len(ys)).

    One pass of scipy's eval_genlaguerre recurrence on p_k = L_k / C(k+alpha, k),
    stabler than the three-term one; row k is C(k+alpha, k) p_k, binomial exact.
    """
    out = np.ones((n + 1, ys.size))
    out[1:2] = -ys + alpha + 1.0  # no row when n = 0
    d = -ys / (alpha + 1.0)
    p = d + 1.0
    for k in range(n - 1):
        d = -ys / (k + alpha + 2.0) * p + ((k + 1.0) / (k + alpha + 2.0)) * d
        p = d + p
        out[k + 2] = math.comb(k + 2 + alpha, k + 2) * p
    return out


# ---------------------------------------------------------------------------
# Mano polynomials, exact route


def _bessel_exp_coeffs(mu: int, order: int) -> list:
    """c_0..c_order of F(s) = e^{-s/2} It_{mu/2}(s/2) = sum_m c_m s^m, grade -1.

    By Kummer's transformation (DLMF 10.39.5) F(s) = M((mu+1)/2, mu+1, -s) /
    Gamma(mu/2+1), so c_0 = 1/Gamma(mu/2+1) and
    c_m = -c_{m-1} (mu+2m-1) / (2m (mu+m)).
    """
    cs = [1 / gamma_exact(Fraction(mu, 2) + 1)]
    for m in range(1, order + 1):
        cs.append(cs[-1] * Fraction(-(mu + 2 * m - 1), 2 * m * (mu + m)))
    return cs


def _kfactor_coeffs(ell: int) -> list:
    """b_0..b_ell of the K-Bessel factor of G, grade 1.

    (x/2)^{2 ell + 1} Kt_{ell+1/2}(x/(2(1-t))) / e^{-x/(2(1-t))}
    = sum_k b_k x^{ell-k} (1-t)^{ell+1+k} with b_k = sqrtpi (ell+k)!/(k!(ell-k)!);
    for ell = -1 the single Laurent term sqrtpi / x, that is b_0 = sqrtpi.
    """
    if ell == -1:
        return [ExactScalar(1, grade=1)]
    return [
        ExactScalar(
            Fraction(math.factorial(ell + k), math.factorial(k) * math.factorial(ell - k)),
            grade=1,
        )
        for k in range(ell + 1)
    ]


def _binomial_coeff(e: int, n: int) -> int:
    """[t^n] (1-t)^e for any integer e."""
    if e >= 0:
        return (-1) ** n * math.comb(e, n)
    return math.comb(n - e - 1, n)


def mano_exact(mu, ell=None, j=None) -> Polynomial:
    """Exact Mano polynomial M_j^{mu,ell} (Laurent when ell = -1).

    Closed form, no series arithmetic.  With tau = t/(1-t) and
    a = ell + (mu+3)/2 the generating function is

        G = (1-t)^{-a} K(t,x) F(x tau),
        F(s) = e^{-s/2} It_{mu/2}(s/2) = sum_m c_m s^m,
        K = sum_k b_k x^{ell-k} (1-t)^{ell+1+k},  b_k = sqrtpi (ell+k)!/(k!(ell-k)!),

    k <= ell (K = sqrtpi/x when ell = -1), so

        [t^j] G = sum_k sum_{m<=j} b_k c_m x^{ell-k+m} [t^{j-m}] (1-t)^{ell+1+k-a-m},

    (ell+1)(j+1) exact scalar products, and M_j = Gamma(j+mu+1) /
    (2^mu Gamma(j+(mu+1)/2)) [t^j] G.  c_m has sqrtpi grade -1 and b_k
    grade +1; the result is checked to have pure grade 0 and the exact top
    term (-1)^j x^{j+ell} / j!.  A failure of either check is an
    implementation bug and raises ArithmeticError.
    """
    params = mu if isinstance(mu, ManoParams) else ManoParams(mu, ell, j)
    params.validate_exact()
    mu, ell, j = params.mu, params.ell, params.j
    a = ell + (mu + 3) // 2
    cs = _bessel_exp_coeffs(mu, j)
    pref = Fraction(
        math.factorial(j + mu), 2**mu * math.factorial(j + (mu + 1) // 2 - 1)
    )
    acc: dict = {}
    for k, b in enumerate(_kfactor_coeffs(ell)):
        for m in range(j + 1):
            binom = _binomial_coeff(ell + 1 + k - a - m, j - m)
            if binom:
                d = ell - k + m
                acc[d] = acc.get(d, 0) + b * cs[m] * binom
    poly = Polynomial(("x",), {(d,): c * pref for d, c in acc.items()})
    for exps, c in poly.terms().items():
        if not c.is_rational:
            raise ArithmeticError(
                f"M_{j}^{{{mu},{ell}}} coefficient at x^{exps[0]} has nonzero "
                f"sqrtpi grade: {c}"
            )
    top_exps, top = poly.leading_term()
    expected = ExactScalar(Fraction((-1) ** j, math.factorial(j)))
    if top_exps != (j + ell,) or top != expected:
        raise ArithmeticError(
            f"M_{j}^{{{mu},{ell}}} top term {top}*x^{top_exps[0]} does not match "
            f"(-1)^j/j! * x^(j+ell)"
        )
    if ell == -1 and poly.min_degree_in("x") < -1:
        raise ArithmeticError("ell = -1 Mano value has a pole of order > 1")
    return poly


@lru_cache(maxsize=4096)
def _mano_float_coeffs(mu: int, ell: int, j: int) -> tuple:
    """(exponent, float coefficient) pairs of the exact polynomial, cached."""
    poly = mano_exact(mu, ell, j)
    return tuple((e[0], float(c)) for e, c in sorted(poly.terms().items()))


# ---------------------------------------------------------------------------
# Lambda family


@lru_cache(maxsize=64)
def _lambda_prefactors(mu: int, jmax: int) -> np.ndarray:
    """2^mu Gamma(j+(mu+1)/2) / Gamma(j+mu+1) for j <= jmax, odd mu >= 1, read-only.

    Exact r_0 = 2^mu ((mu-1)/2)!/mu!, r_{j+1} = r_j (2j+mu+1)/(2(j+mu+1)), each rounded once.
    """
    r = Fraction(2**mu * math.factorial((mu - 1) // 2), math.factorial(mu))
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        out[j] = r
        r *= Fraction(2 * j + mu + 1, 2 * (j + mu + 1))
    out.setflags(write=False)
    return out


def _elementary_rows(mu: int, nu: int, jmax: int, xs: np.ndarray) -> np.ndarray:
    """Lam_j^{mu,nu}(xs) for j <= jmax, odd mu >= 1 and odd nu >= -1, shape (jmax+1, len(xs)).

    The odd-nu identity with the exact prefactors of `_lambda_prefactors`.
    For ell = (nu-1)/2 in {-1, 0} the rows are e^{-x} L_j^mu(2x) (times 1/2,
    or 1/x), all built by one Laguerre recurrence pass over the grid; for
    ell >= 1 each row sums the exact Mano coefficients as one array
    operation.  The rows carry x^{-nu}, so nu >= 1 needs x > 0.
    """
    if nu >= 1 and np.any(xs <= 0):
        raise ValueError(f"Lambda rows with nu = {nu} >= 1 need x > 0")
    ell = (nu - 1) // 2
    if ell in (-1, 0) and mu >= 1:
        xpow = 0.5 * np.exp(-xs) if ell == -1 else np.exp(-xs) / xs
        return _lambda_prefactors(mu, jmax)[:, None] * xpow * _laguerre_rows(jmax, mu, 2.0 * xs)
    rows = np.empty((jmax + 1, len(xs)))
    for j in range(jmax + 1):
        es, cs = np.array(_mano_float_coeffs(mu, ell, j)).T
        rows[j] = cs @ (2.0 * xs)[None, :] ** es[:, None]
    return _lambda_prefactors(mu, jmax)[:, None] * (np.exp(-xs) * xs ** float(-nu)) * rows


def _lambda_generating_table(mu: float, nu: float, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Generating-function values on the grid xs x ts, shape (len(xs), len(ts))."""
    om = 1.0 - ts
    arg_i = np.outer(xs, ts / om)
    arg_k = np.outer(xs, 1.0 / om)
    return (
        om[None, :] ** (-(mu + nu + 2.0) / 2.0)
        * itilde_complex(mu / 2.0, arg_i)
        * ktilde_complex(nu / 2.0, arg_k)
    )


def _nodes_for(xs: np.ndarray, jmax: int, rho: float) -> np.ndarray:
    """Circle nodes for each point of xs so the Taylor-tail aliasing is negligible.

    The Lambda coefficients in t grow at most like (2x)^i / i!, so trapezoid
    aliasing after N nodes is bounded by (2 rho x)^N / N!.  The generating
    function is also singular at t = 1, where its coefficients stop
    decaying, so the aliasing factor rho^N itself must be below 1e-17.
    N is the first power of two, from max(64, 4(jmax+1)) rounded up, that
    meets both.  Where N is above 8192 and above that jmax minimum, this
    raises ValueError.  Needs finite xs and 0 < rho < 1.
    """
    n = 1 << max(6, (4 * (jmax + 1) - 1).bit_length())
    cap = max(8192, n)
    log_c = np.log(np.maximum(2.0 * rho * xs, 1e-9))
    nodes = np.zeros(xs.shape, dtype=np.int64)
    while not np.all(nodes):
        # log of the first aliased coefficient, Stirling form
        log_tail = n * log_c - (n * math.log(n) - n)
        meets = (log_tail < -60.0) & (n * math.log(rho) <= math.log(1e-17))
        nodes[(nodes == 0) & meets] = n
        n *= 2
    if np.max(nodes, initial=0) > cap:
        worst = int(np.argmax(nodes))
        raise ValueError(
            f"Cauchy extraction at x = {xs[worst]}, jmax = {jmax}, rho = {rho} needs "
            f"{nodes[worst]} circle nodes for its aliasing bound, over the cap of {cap}"
        )
    return nodes


def lambda_table(
    mu,
    nu,
    jmax: int,
    xs,
    rho: float | None = None,
    refine: bool = False,
    tol: float = 1e-11,
) -> np.ndarray:
    """Lambda_j^{mu,nu}(x) for all j <= jmax on a grid, shape (jmax+1, len(xs)).

    Cauchy extraction shares one batch of generating-function values per x:
    for real x, mu and nu the values at conjugate nodes are conjugate, so
    the coefficients for all j come from one Hermitian FFT over the n/2+1
    nodes of the upper half circle.  Each x gets the node count n of its
    aliasing bound (`_nodes_for`, which raises above its cap before any
    Bessel call), and points with equal n share one FFT; refine=True
    doubles nodes until two successive tables agree to tol, as an
    independent consistency pass.

    The default radius is rho = max(0.5, 1 - 8/jmax).  The generating
    function is singular at t = 1, and for such functions the radius that
    keeps the rounding error of the j-th Cauchy coefficient small tends to
    1 as j grows (Bornemann, Found. Comput. Math. 11 (2011)); a fixed
    rho = 0.5 loses about j log10(2) digits.  The default is capped at
    700/(700 + max x), which keeps the It factor, of size up to
    e^{rho x/(1-rho)}, inside the double range; an explicit rho beyond
    that bound raises ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError("lambda_table needs finite x > 0")
    xmax = float(np.max(xs, initial=0.0))
    if rho is None:
        rho = min(max(0.5, 1.0 - 8.0 / max(jmax, 1)), 700.0 / (700.0 + xmax))
    elif not 0 < rho < 1 or rho * xmax / (1.0 - rho) > 700.0:
        raise ValueError(
            f"Cauchy radius rho={rho} needs 0 < rho < 1 and rho * max x / (1 - rho) "
            f"<= 700 (the It factor overflows); max x is {xmax}"
        )
    mu_f, nu_f = float(mu), float(nu)

    def table_chunk(xs_chunk: np.ndarray, n: int) -> np.ndarray:
        # f(conj t) = conj f(t) for real x, mu and nu, so the DFT input is
        # Hermitian and the upper half circle k = 0..n/2 determines it
        ts = rho * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
        vals = _lambda_generating_table(mu_f, nu_f, xs_chunk, ts)
        coeffs = np.fft.hfft(vals, n, axis=1)[:, : jmax + 1] / n
        scale = rho ** (-np.arange(jmax + 1, dtype=float))
        return (coeffs * scale[None, :]).T

    nodes = _nodes_for(xs, jmax, rho)

    def table(extra_doubling: int) -> np.ndarray:
        out = np.empty((jmax + 1, len(xs)), dtype=float)
        for n in np.unique(nodes):
            at = nodes == n
            out[:, at] = table_chunk(xs[at], int(n) << extra_doubling)
        return out

    cur = table(0)
    if not refine:
        return cur
    for extra in range(1, 4):
        nxt = table(extra)
        scale = np.maximum(np.max(np.abs(nxt), axis=1, keepdims=True), 1e-300)
        if np.max(np.abs(nxt - cur) / scale) <= tol:
            return nxt
        cur = nxt
    return cur


def lambda_eval(mu, nu, j: int, x: float, method: str = "auto") -> float:
    """Lambda_j^{mu,nu}(x) for x > 0.

    method="elementary" reads column x of the odd-nu rows of
    `_elementary_rows`; method="cauchy" reads it off `lambda_table`;
    "auto" picks elementary only for nu in {-1, 1} with odd mu >= 1, where
    the rows come from the stable Laguerre recurrence, and Cauchy otherwise.
    Measured for odd mu <= 7, j <= 40 and x in [0.5, 30], relative to
    max |Lam_{j-1..j+1}(x)|: for nu in {-1, 1} the routes agree to 1.2e-10;
    for nu >= 3 the Cauchy route stays within 4e-11 of the exact Mano
    polynomial, but the elementary rows sum monomials of alternating sign
    and at (mu, nu, j, x) = (3, 3, 40, 30) are off by 5.1e3 times that
    envelope.
    """
    params = mu if isinstance(mu, LambdaParams) else LambdaParams(mu, nu, j)
    params.validate()
    mu, nu, j = params.mu, params.nu, params.j
    if x <= 0:
        raise ValueError(f"lambda_eval needs x > 0, got {x}")
    odd_nu = isinstance(nu, int) and nu % 2 == 1
    elementary_ok = odd_nu and isinstance(mu, int) and mu >= 1 and mu % 2 == 1
    if method == "auto":
        method = "elementary" if elementary_ok and nu in (-1, 1) else "cauchy"
    if method == "elementary":
        if not elementary_ok:
            raise ValueError("elementary route needs odd integer nu and odd integer mu >= 1")
        return float(_elementary_rows(mu, nu, j, np.array([x], dtype=float))[j, 0])
    if method == "cauchy":
        return float(lambda_table(mu, nu, j, [x])[j, 0])
    raise ValueError(f"unknown method {method!r}")


def mano_genfun(mu, ell, j: int, x: float) -> float:
    """Numeric Mano value from Cauchy extraction, one column of `lambda_table`.

    M_j^{mu,ell}(x) = Gamma(j+mu+1)/(2^mu Gamma(j+(mu+1)/2)) (x/2)^{2 ell+1}
    e^{x/2} Lam_j^{mu,2 ell+1}(x/2).  Works for any real mu > -1 and real ell;
    independent of the exact route, which it cross-checks.
    """
    ManoParams(mu, ell, j).validate_float()
    if x <= 0:
        raise ValueError("mano_genfun needs x > 0")
    mu_f, nu_f = float(mu), 2.0 * float(ell) + 1.0
    lam = lambda_table(mu_f, nu_f, j, [x / 2.0])[j, 0]
    log_pref = (math.lgamma(j + mu_f + 1.0) - mu_f * math.log(2.0)
                - math.lgamma(j + (mu_f + 1.0) / 2.0) + nu_f * math.log(x / 2.0) + x / 2.0)
    return float(lam * math.exp(log_pref))


# ---------------------------------------------------------------------------
# norms and Gram matrices


def moment_inner_product(f: Polynomial, g: Polynomial, weight_exponent: int) -> ExactScalar:
    """Exact integral of f*g*x^w*e^{-x} over (0, inf) via moments a! = Gamma(a+1)."""
    prod = f * g
    acc = ExactScalar(0)
    for exps, c in sorted(prod.terms().items()):
        a = exps[0] + weight_exponent
        if a < 0:
            raise ValueError(
                f"moment exponent {a} < 0: the integral diverges at the origin"
            )
        acc = acc + c * math.factorial(a)
    return acc


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gl_panels(upper: float, panels: int, order: int = 32):
    """Nodes and weights of `panels` equal Gauss-Legendre panels on [0, upper]."""
    nodes, weights = _leggauss(order)
    width = upper / panels
    xs = (((np.arange(panels)[:, None] + 0.5) + 0.5 * nodes[None, :]) * width).ravel()
    ws = np.tile(0.5 * width * weights, panels)
    return xs, ws


def _lambda_norms(mu, nu, jmax: int) -> np.ndarray:
    """||Lam_j^{mu,nu}||^2 under x^{mu+nu+1} dx for j <= jmax, closed form.

    Lam_0 = Kt_{nu/2}(x)/Gamma(mu/2+1) and the Mellin integral of K_{nu/2}^2
    give ||Lam_0||^2 = 2^nu sqrtpi Gamma((mu+nu+2)/2) Gamma((mu-nu+2)/2) /
    (4 Gamma((mu+3)/2) Gamma(mu/2+1)); each later norm follows by the ratio
    ||Lam_{j+1}||^2/||Lam_j||^2 = (2j+mu+1)(2j+mu+2-nu)(2j+mu+2+nu) /
    (4 (j+1)(j+mu+1)(2j+mu+3)).  See Hilgert, Kobayashi, Mano and Moellers,
    Ramanujan J. 26 (2011), for the family.
    """
    norm = (
        2.0**nu * math.sqrt(math.pi) * math.gamma((mu + nu + 2) / 2)
        * math.gamma((mu - nu + 2) / 2)
        / (4.0 * math.gamma((mu + 3) / 2) * math.gamma(mu / 2 + 1))
    )
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        out[j] = norm
        norm *= (
            (2 * j + mu + 1) * (2 * j + mu + 2 - nu) * (2 * j + mu + 2 + nu)
            / (4 * (j + 1) * (j + mu + 1) * (2 * j + mu + 3))
        )
    return out


def norm_squared(family: str, params):
    """Squared L^2 norm under the family's orthogonality weight.

    family="mano":     ManoParams, weight x^{mu-2 ell} e^{-x} dx, exact
                       moments of the exact polynomial.
    family="laguerre": (j, mu),    weight x^{mu} e^{-x} dx, Gamma(j+mu+1)/j!:
                       an exact integer for integer mu >= 0, else a float.
    family="lambda":   LambdaParams, weight x^{mu+nu+1} dx, the closed form
                       of `_lambda_norms` as a float.
    """
    if family == "mano":
        p = params if isinstance(params, ManoParams) else ManoParams(*params)
        p.validate_exact()
        if p.mu < 2 * p.ell + 1:
            raise ValueError(
                f"orthogonality weight needs mu >= 2*ell+1, got mu={p.mu}, ell={p.ell}"
            )
        poly = mano_exact(p)
        return moment_inner_product(poly, poly, p.mu - 2 * p.ell)
    if family == "laguerre":
        j, mu = params
        if j < 0:
            raise ValueError("index j must be >= 0")
        if float(mu) <= -1:
            raise ValueError("laguerre orthogonality needs mu > -1")
        if isinstance(mu, int):
            return ExactScalar(math.perm(j + mu, mu))
        # Gamma(mu+1) prod_{i<=j} (i+mu)/i, no overflow of Gamma(j+mu+1) itself
        norm = math.gamma(float(mu) + 1.0)
        for i in range(1, j + 1):
            norm *= (i + float(mu)) / i
        return norm
    if family == "lambda":
        p = params if isinstance(params, LambdaParams) else LambdaParams(*params)
        p.validate_orthogonality()
        return float(_lambda_norms(p.mu, p.nu, p.j)[p.j])
    raise ValueError(f"unknown family {family!r}")


def mano_gram_exact(mu: int, ell: int, jmax: int) -> list:
    """Exact Gram matrix of {M_0..M_jmax} under x^{mu-2 ell} e^{-x} dx."""
    if mu < 2 * ell + 1:
        raise ValueError("Gram weight needs mu >= 2*ell+1")
    polys = [mano_exact(mu, ell, j) for j in range(jmax + 1)]
    return [
        [moment_inner_product(polys[i], polys[k], mu - 2 * ell) for k in range(jmax + 1)]
        for i in range(jmax + 1)
    ]


@lru_cache(maxsize=32)
def lambda_gram(mu: int, nu: int, jmax: int, upper: float = 56.0) -> np.ndarray:
    """Numeric Gram matrix of {Lam_0..Lam_jmax} under x^{mu+nu+1} dx.

    Fixed composite Gauss-Legendre grid with one panel-doubling consistency
    pass; entries are deterministic.
    """
    LambdaParams(mu, nu, 0).validate_orthogonality()

    def gram(panels: int) -> np.ndarray:
        xs, ws = _gl_panels(upper, panels)
        B = lambda_table(mu, nu, jmax, xs)
        W = ws * xs ** float(mu + nu + 1)
        return (B * W[None, :]) @ B.T

    g1 = gram(12)
    g2 = gram(24)
    scale = max(np.max(np.abs(np.diag(g2))), 1e-300)
    if np.max(np.abs(g2 - g1)) > 1e-9 * scale:
        g1, g2 = g2, gram(48)
    g2.setflags(write=False)
    return g2
