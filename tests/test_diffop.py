import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrep.algebra import ExactnessError, ExactScalar, Polynomial, reduce_mod_quadric
from minrep.cone import ConeSpec
from minrep.diffop import (
    apply_P,
    apply_Rmuell,
    coordinate_mult,
    fundamental_R,
    jordan_mul,
)
from minrep.specfun import laguerre, mano_exact

X = Polynomial.variable("x")
ONE = Polynomial.constant(1)

rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
# coefficients in Q[sqrtpi, 1/sqrtpi], as the Gamma bookkeeping produces them
graded = st.builds(
    lambda pairs: ExactScalar.from_terms(dict(pairs)),
    st.lists(st.tuples(st.integers(-2, 2), rationals), max_size=3),
)
# the cone signatures of the exact-sweep benchmark workload
SIGNATURES = ((2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2), (3, 3))


def upoly(max_degree=5):
    return st.builds(
        lambda terms: Polynomial(("x",), dict(terms)),
        st.lists(st.tuples(st.tuples(st.integers(0, max_degree)), rationals), max_size=5),
    )


# -- reference: the operators as compositions of polynomial maps ---------------


class EulerFactor:
    """The first-order factor x d/dx + c + a x acting on polynomials in x."""

    __slots__ = ("c", "a")

    def __init__(self, c, a):
        self.c = Fraction(c)
        self.a = Fraction(a)

    def __call__(self, f: Polynomial) -> Polynomial:
        x = Polynomial.variable(f.variables[0], f.variables)
        return x * f.derivative(f.variables[0]) + f * self.c + x * f * self.a


def composed_Rmuell(mu, ell, f: Polynomial) -> Polynomial:
    """(x d/dx + mu - 2 ell - 1 - x/2)(x d/dx + mu - x/2) f - (x/2)^2 f."""
    mu = Fraction(mu)
    ell = Fraction(ell)
    outer = EulerFactor(mu - 2 * ell - 1, Fraction(-1, 2))
    inner = EulerFactor(mu, Fraction(-1, 2))
    x = Polynomial.variable(f.variables[0], f.variables)
    return outer(inner(f)) - x * x * f * Fraction(1, 4)


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


def composed_fundamental_R(a: int, f: Polynomial, spec: ConeSpec) -> Polynomial:
    """eps_a x_a Box f - (2E + p+q-2)(df/dx_a) mod Q, from Box and E."""
    name = spec.variables[a - 1]
    d = f.derivative(name)
    img = _box(f, spec).times_power(name, 1) * spec.epsilon(a)
    img = img - _euler(d) * 2 - d * (spec.n - 2)
    return reduce_mod_quadric(img, spec)


# -- one-variable operators ----------------------------------------------------


def test_R_on_constants():
    # two-factor symbolic expansion collapses to ell*x on constants
    for ell in (0, 1, 2, 7):
        assert apply_Rmuell(0, ell, ONE) == X * ell
    assert apply_Rmuell(5, 3, Polynomial(("x",), {})).is_zero


@settings(max_examples=40, deadline=None)
@given(upoly(), st.integers(0, 6), st.integers(0, 4))
def test_R_degree_bound(f, mu, ell):
    img = apply_Rmuell(mu, ell, f)
    if not f.is_zero and not img.is_zero:
        assert img.total_degree() <= f.total_degree() + 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(st.integers(-4, 6)), graded), max_size=6),
    rationals,
    rationals,
)
def test_R_term_rule_matches_composition(terms, mu, ell):
    f = Polynomial(("x",), dict(terms))
    assert apply_Rmuell(mu, ell, f) == composed_Rmuell(mu, ell, f)


@settings(max_examples=40, deadline=None)
@given(upoly(), rationals, rationals)
def test_euler_factor_degree_bound(f, c, a):
    img = EulerFactor(c, a)(f)
    if not f.is_zero and not img.is_zero:
        assert img.total_degree() <= f.total_degree() + 1


def test_P_eigen_examples():
    assert apply_P(3, 1, X + 2).is_zero  # eigenvalue 0 at j = 0
    L11 = laguerre(1, 1)
    assert apply_P(1, 0, L11) == L11 * 3  # eigenvalue j(j+mu+1) = 3


def test_P_divisibility_decided_by_symbolic_oracle():
    # R_{3,1} R_{0,1} (1) must lie in x^2 Q[x] for apply_P(3,1,1) to exist
    g = composed_Rmuell(3, 1, composed_Rmuell(0, 1, ONE))
    divisible = g.is_zero or g.min_degree_in("x") >= 2
    if divisible:
        apply_P(3, 1, ONE)
    else:
        with pytest.raises(ExactnessError):
            apply_P(3, 1, ONE)


def test_eigen_identity_small_sweep():
    for mu in (1, 3):
        for ell in (0, 1):
            for j in range(5):
                M = mano_exact(mu, ell, j)
                assert apply_P(mu, ell, M) == M * (j * (j + mu + 1))


def test_eigen_identity_and_top_term_sweep_to_j40():
    mu, ell = 7, 2
    for j in range(41):
        M = mano_exact(mu, ell, j)
        assert apply_P(mu, ell, M) == M * (j * (j + mu + 1))
        exps, c = M.leading_term()
        assert exps == (j + ell,) and c == Fraction((-1) ** j, math.factorial(j))


def test_eigen_identity_laurent_mano():
    # M_j^{mu,-1} carries an x^{-1} term; P keeps it within x^{-1} Q[x]
    for mu in (1, 3, 5, 9):
        for j in (1, 2, 5, 12):
            M = mano_exact(mu, -1, j)
            assert M.min_degree_in("x") == -1
            assert apply_P(mu, -1, M) == M * (j * (j + mu + 1))


def test_RR_divisible_by_x_squared_on_mano():
    for mu in (1, 5):
        for ell in (0, 2):
            for j in (0, 2, 4):
                M = mano_exact(mu, ell, j)
                g = composed_Rmuell(mu, ell, composed_Rmuell(0, ell, M))
                assert g.is_zero or g.min_degree_in("x") >= 2


# -- cone operators --------------------------------------------------------------


def _vars(spec):
    return [Polynomial.variable(n, spec.variables) for n in spec.variables]


def test_fundamental_R_examples():
    spec = ConeSpec(2, 2)
    x1 = _vars(spec)[0]
    one = Polynomial.constant(1, spec.variables)
    assert fundamental_R(1, one, spec).is_zero
    assert fundamental_R(1, x1, spec) == Polynomial.constant(-2, spec.variables)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fundamental_R_term_rule_matches_composition(data):
    spec = ConeSpec(*data.draw(st.sampled_from(SIGNATURES)))
    exps = st.tuples(*[st.integers(0, 3) for _ in range(spec.n)])
    terms = data.draw(st.lists(st.tuples(exps, graded), max_size=5))
    f = Polynomial(spec.variables, dict(terms))
    a = data.draw(st.integers(1, spec.n))
    assert fundamental_R(a, f, spec) == composed_fundamental_R(a, f, spec)


def test_fundamental_R_rejects_laurent():
    # x1^{-1} has no term with e_b >= 2 or e_2 >= 1, so a term map that only
    # skipped those would return 0 at a = 2 instead of refusing the input
    spec = ConeSpec(2, 2)
    f = Polynomial.monomial((-1, 0, 0, 0), 1, spec.variables)
    for a in range(1, spec.n + 1):
        with pytest.raises(ExactnessError):
            fundamental_R(a, f, spec)


def test_commutator_on_x1x3():
    spec = ConeSpec(2, 2)
    x1, _, x3, _ = _vars(spec)
    f = x1 * x3
    a = fundamental_R(1, fundamental_R(2, f, spec), spec)
    b = fundamental_R(2, fundamental_R(1, f, spec), spec)
    assert a == b


@pytest.mark.parametrize("p,q", [(2, 2), (3, 1)])
def test_commutativity_low_degree(p, q):
    spec = ConeSpec(p, q)
    vs = spec.variables
    monos = [
        Polynomial.monomial(e, 1, vs)
        for e in itertools.product(range(4), repeat=spec.n)
        if sum(e) <= 3
    ]
    for a, b in itertools.combinations(range(1, spec.n + 1), 2):
        for mono in monos:
            lhs = fundamental_R(a, fundamental_R(b, mono, spec), spec)
            rhs = fundamental_R(b, fundamental_R(a, mono, spec), spec)
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fundamental_R_linear(data):
    spec = ConeSpec(2, 2)
    vs = spec.variables
    exps = st.tuples(*[st.integers(0, 2) for _ in vs])
    draw_poly = st.builds(
        lambda terms: Polynomial(vs, dict(terms)),
        st.lists(st.tuples(exps, rationals), max_size=4),
    )
    f = data.draw(draw_poly)
    g = data.draw(draw_poly)
    c = data.draw(rationals)
    a = data.draw(st.integers(1, 4))
    lhs = fundamental_R(a, f * c + g, spec)
    rhs = fundamental_R(a, f, spec) * c + fundamental_R(a, g, spec)
    assert reduce_mod_quadric(lhs - rhs, spec).is_zero


def test_coordinate_mult():
    spec = ConeSpec(2, 2)
    one = Polynomial.constant(1, spec.variables)
    x1 = _vars(spec)[0]
    assert coordinate_mult(1, one) == x1
    f = x1 * x1 - 3
    assert coordinate_mult(1, coordinate_mult(2, f)) == coordinate_mult(
        2, coordinate_mult(1, f)
    )
    with pytest.raises(IndexError):
        coordinate_mult(5, one)


def test_double_commutator_is_multiplication_operator():
    # [[Q_i, R_j], Q_k] acts as multiplication by a fixed polynomial mod Q
    spec = ConeSpec(2, 2)
    vs = spec.variables

    def op(i, j, k, f):
        def QiRj_comm(g):
            return coordinate_mult(i, fundamental_R(j, g, spec)) - fundamental_R(
                j, coordinate_mult(i, g), spec
            )

        return reduce_mod_quadric(
            QiRj_comm(coordinate_mult(k, f)) * -1 + coordinate_mult(k, QiRj_comm(f)),
            spec,
        ) * -1

    import random

    rng = random.Random(99)
    for (i, j, k) in ((1, 2, 3), (2, 1, 4), (1, 1, 1)):
        one = Polynomial.constant(1, vs)
        mult = op(i, j, k, one)  # candidate multiplier m(x)
        for _ in range(5):
            f = Polynomial(
                vs,
                {
                    tuple(rng.randint(0, 2) for _ in vs): Fraction(rng.randint(-5, 5))
                    for _ in range(4)
                },
            )
            lhs = op(i, j, k, f)
            rhs = reduce_mod_quadric(mult * f, spec)
            assert lhs == rhs


# -- Jordan product ---------------------------------------------------------------


def test_jordan_identity_element():
    spec = ConeSpec(2, 2)
    v = [Fraction(3), Fraction(1, 2), Fraction(-2), Fraction(7)]
    assert jordan_mul([1, 0, 0, 0], v, spec) == v


def test_jordan_example_sign():
    spec = ConeSpec(2, 2)
    assert jordan_mul([0, 1, 0, 0], [0, 1, 0, 0], spec) == [-1, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_jordan_commutative(u, v):
    spec = ConeSpec(2, 2)
    assert jordan_mul(u, v, spec) == jordan_mul(v, u, spec)


def test_jordan_dimension_mismatch():
    with pytest.raises(ValueError):
        jordan_mul([1, 0], [0, 1], ConeSpec(2, 2))
