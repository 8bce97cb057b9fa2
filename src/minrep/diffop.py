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

Operators are composable closures over exact polynomial maps, so they
apply at arbitrary degree without matrix truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ExactnessError, Polynomial, reduce_mod_quadric
from .cone import ConeSpec

__all__ = [
    "EulerFactor",
    "apply_P",
    "apply_Rmuell",
    "coordinate_mult",
    "fundamental_R",
    "jordan_mul",
]


class EulerFactor:
    """The first-order factor x d/dx + c + a x acting on polynomials in x."""

    __slots__ = ("c", "a")

    def __init__(self, c, a):
        self.c = Fraction(c)
        self.a = Fraction(a)

    def __call__(self, f: Polynomial) -> Polynomial:
        x = Polynomial.variable(f.variables[0], f.variables)
        return x * f.derivative(f.variables[0]) + f * self.c + x * f * self.a

    def __repr__(self):
        return f"EulerFactor(c={self.c}, a={self.a})"


def apply_Rmuell(mu, ell, f: Polynomial) -> Polynomial:
    """Exact image of f under R_{mu,ell}; degree grows by at most 2."""
    if len(f.variables) != 1:
        raise ValueError("R_{mu,ell} acts on univariate polynomials")
    mu = Fraction(mu)
    ell = Fraction(ell)
    outer = EulerFactor(mu - 2 * ell - 1, Fraction(-1, 2))
    inner = EulerFactor(mu, Fraction(-1, 2))
    x = Polynomial.variable(f.variables[0], f.variables)
    return outer(inner(f)) - x * x * f * Fraction(1, 4)


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


def _box(f: Polynomial, spec: ConeSpec) -> Polynomial:
    out = Polynomial(f.variables, {})
    for a in range(1, spec.n + 1):
        name = f.variables[a - 1]
        out = out + f.derivative(name).derivative(name) * spec.epsilon(a)
    return out


def _euler(f: Polynomial) -> Polynomial:
    out = Polynomial(f.variables, {})
    for name in f.variables:
        out = out + f.derivative(name).times_power(name, 1)
    return out


def fundamental_R(a: int, f: Polynomial, spec: ConeSpec) -> Polynomial:
    """eps_a x_a Box f - (2E + p+q-2)(df/dx_a), reduced modulo the quadric.

    The operators are tangential to the cone, so identities among them only
    hold after quadric reduction; the reduction is applied to every image.
    """
    if f.variables != spec.variables:
        raise ValueError("polynomial variables do not match the cone spec")
    if not 1 <= a <= spec.n:
        raise IndexError(f"coordinate index {a} out of range 1..{spec.n}")
    name = spec.variables[a - 1]
    d = f.derivative(name)
    img = _box(f, spec).times_power(name, 1) * spec.epsilon(a)
    img = img - _euler(d) * 2 - d * (spec.n - 2)
    return reduce_mod_quadric(img, spec)


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
