"""Differential-operator calculus on exact polynomials.

One-variable layer: the second-order operator

    R_{mu,ell} = (x d/dx + mu - 2 ell - 1 - x/2)(x d/dx + mu - x/2) - (x/2)^2

and the fourth-order operator P_{mu,ell} = (1/x^2) R_{mu,ell} R_{0,ell},
whose eigenfunctions are the Mano polynomials with eigenvalue j(j+mu+1).

Cone layer: the fundamental operators on R^{p+q}

    R_a = eps_a x_a Box - (2 E + p + q - 2) d/dx_a,

with Box = sum eps_b d^2/dx_b^2 and E = sum x_b d/dx_b, tangential to the
cone and mutually commuting modulo the quadric ideal (Q); the coordinate
multiplications Q_a = x_a; and the rank-two Jordan product on R^{p,q}.

Both second-order operators act by a closed-form rule on one term, so an
image is one pass over the terms of f, at arbitrary degree and without
matrix truncation.  With c1 = mu - 2 ell - 1 and c2 = mu the x^{n+2} terms
of the two Euler factors cancel against (x/2)^2, and R_{mu,ell} is
bidiagonal on every integer power:

    R_{mu,ell} x^n = (n + c1)(n + c2) x^n - (2n + 1 + c1 + c2)/2 x^{n+1}.

On a monomial x^e of total degree |e| = sum_b e_b,

    R_a x^e = eps_a sum_b eps_b e_b (e_b - 1) x^{e + delta_a - 2 delta_b}
              - e_a (2|e| + p + q - 4) x^{e - delta_a},

reduced modulo the quadric afterwards.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ExactnessError, Polynomial, _accumulate, reduce_mod_quadric
from .cone import ConeSpec

__all__ = [
    "apply_P",
    "apply_Rmuell",
    "coordinate_mult",
    "fundamental_R",
    "jordan_mul",
]


def apply_Rmuell(mu, ell, f: Polynomial) -> Polynomial:
    """Exact image of f under R_{mu,ell}; degree grows by at most 1."""
    if len(f.variables) != 1:
        raise ValueError("R_{mu,ell} acts on univariate polynomials")
    c1 = Fraction(mu) - 2 * Fraction(ell) - 1
    c2 = Fraction(mu)
    terms: dict = {}
    for (n,), c in f.terms().items():
        diag = (n + c1) * (n + c2)
        if diag:
            _accumulate(terms, (n,), c * diag)
        up = (2 * n + 1 + c1 + c2) / 2
        if up:
            _accumulate(terms, (n + 1,), c * -up)
    return Polynomial(f.variables, terms)


def apply_P(mu, ell, f: Polynomial) -> Polynomial:
    """(1/x^2) R_{mu,ell} R_{0,ell} f, with exact division by x^2.

    The image may not reach below the lowest exponent of f (or below x^0
    for a polynomial f): a polynomial f must give R R f in x^2 Q[x], a
    Laurent f = c x^{-1} + ... must give R R f without an x^0 or x^{-1}
    term.  A violation raises ExactnessError; it cannot occur when f is a
    Mano polynomial M_j^{mu,ell}, including the Laurent M_j^{mu,-1}.
    """
    g = apply_Rmuell(mu, ell, apply_Rmuell(0, ell, f))
    if g.is_zero:
        return g
    name = f.variables[0]
    low = g.min_degree_in(name)
    if low < min(f.min_degree_in(name), 0) + 2:
        raise ExactnessError(
            f"R R f has an {name}^{low} term: not divisible by {name}**2 "
            f"within the exponent range of f"
        )
    return g.times_power(name, -2)


def coordinate_mult(a: int, f: Polynomial) -> Polynomial:
    """Multiplication operator Q_a f = x_a f, a 1-based."""
    if not 1 <= a <= len(f.variables):
        raise IndexError(f"coordinate index {a} out of range 1..{len(f.variables)}")
    return f.times_power(f.variables[a - 1], 1)


def fundamental_R(a: int, f: Polynomial, spec: ConeSpec) -> Polynomial:
    """eps_a x_a Box f - (2E + p+q-2)(df/dx_a), reduced modulo the quadric.

    The operators are tangential to the cone, so identities among them only
    hold after quadric reduction; the reduction is applied to every image.
    A Laurent f raises ExactnessError: the quadric ideal is defined on true
    polynomials only.
    """
    if f.variables != spec.variables:
        raise ValueError("polynomial variables do not match the cone spec")
    if not 1 <= a <= spec.n:
        raise IndexError(f"coordinate index {a} out of range 1..{spec.n}")
    if not f.is_true_polynomial:
        raise ExactnessError("R_a is defined modulo the quadric on true polynomials")
    i = a - 1
    sig = spec.signature
    shift = spec.n - 4
    terms: dict = {}
    for exps, c in f.terms().items():
        for b, e in enumerate(exps):
            if e >= 2:
                new = list(exps)
                new[i] += 1
                new[b] -= 2
                _accumulate(terms, tuple(new), c * (sig[i] * sig[b] * e * (e - 1)))
        e = exps[i]
        if e:
            new = list(exps)
            new[i] = e - 1
            _accumulate(terms, tuple(new), c * (-e * (2 * sum(exps) + shift)))
    return reduce_mod_quadric(Polynomial(spec.variables, terms), spec)


def jordan_mul(u, v, spec: ConeSpec):
    """Rank-two Jordan product on R^{p,q} = R + R^{p+q-1}.

    (x_1, x') . (y_1, y') = (x_1 y_1 - sum_{i=2}^p x_i y_i
                             + sum_{i=p+1}^{p+q} x_i y_i,
                             x_1 y' + y_1 x').
    e_1 is the identity element and the product is commutative.
    """
    u = list(u)
    v = list(v)
    if len(u) != spec.n or len(v) != spec.n:
        raise ValueError(
            f"vectors must have dimension p+q = {spec.n}, got {len(u)}, {len(v)}"
        )
    if spec.n < 2:
        raise ValueError("the rank-two Jordan product needs p+q >= 2")
    head = u[0] * v[0]
    for i in range(2, spec.p + 1):
        head = head - u[i - 1] * v[i - 1]
    for i in range(spec.p + 1, spec.n + 1):
        head = head + u[i - 1] * v[i - 1]
    tail = [u[0] * v[i] + v[0] * u[i] for i in range(1, spec.n)]
    return [head] + tail
