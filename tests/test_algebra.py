import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minrep.algebra import (
    ExactScalar,
    ExactnessError,
    Polynomial,
    gamma_exact,
    reduce_mod_quadric,
)
from minrep.cone import ConeSpec

# -- strategies --------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
scalars = st.builds(
    lambda pairs: ExactScalar.from_terms(dict(pairs)),
    st.lists(st.tuples(st.integers(-2, 2), rationals), max_size=3),
)


def poly_strategy(variables, max_degree=3, laurent=False):
    lo = -1 if laurent else 0
    exps = st.tuples(*[st.integers(lo, max_degree) for _ in variables])
    return st.builds(
        lambda terms: Polynomial(variables, dict(terms)),
        st.lists(st.tuples(exps, rationals), max_size=5),
    )


# -- ExactScalar -------------------------------------------------------------


def test_exact_scalar_grades_multiply():
    a = ExactScalar(Fraction(1, 2), 1)
    b = ExactScalar(Fraction(3, 1), 1)
    assert (a * b).terms() == ((2, Fraction(3, 2)),)  # pi stays symbolic


def test_exact_scalar_division_by_monomial():
    a = ExactScalar(Fraction(3, 4), 2)
    b = ExactScalar(Fraction(1, 2), 1)
    assert a / b == ExactScalar(Fraction(3, 2), 1)
    with pytest.raises(ExactnessError):
        a / (b + ExactScalar(1))


def test_exact_scalar_grade_zero_hashes_like_its_rational():
    assert len({ExactScalar(3), 3}) == 1
    for q in (0, 3, -7, Fraction(1, 3), Fraction(-22, 7)):
        assert ExactScalar(q) == q
        assert hash(ExactScalar(q)) == hash(q)
    assert len({ExactScalar(Fraction(1, 2)), Fraction(1, 2), ExactScalar(1, 1)}) == 2


def test_exact_scalar_string_roundtrip():
    v = ExactScalar(Fraction(1, 2)) + ExactScalar(Fraction(-3, 4), 1)
    assert ExactScalar.from_string(str(v)) == v
    assert str(ExactScalar(2)) == "2/1"


def test_gamma_exact_values():
    assert gamma_exact(5) == ExactScalar(24)
    assert gamma_exact(Fraction(1, 2)) == ExactScalar(1, 1)
    assert gamma_exact(Fraction(5, 2)) == ExactScalar(Fraction(3, 4), 1)
    assert float(gamma_exact(Fraction(7, 2))) == pytest.approx(math.gamma(3.5), rel=1e-15)
    with pytest.raises(ValueError):
        gamma_exact(0)
    with pytest.raises(ExactnessError):
        gamma_exact(Fraction(1, 3))


@settings(max_examples=150, deadline=None)
@given(scalars, scalars, scalars)
def test_exact_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


# -- Polynomial --------------------------------------------------------------


def test_poly_arith_examples():
    x = Polynomial.variable("x")
    one = Polynomial.constant(1)
    assert (one + x) * (one - x) == one - x * x
    p = x * x * 3 + x - 7
    assert p + Polynomial(("x",), {}) == p
    assert (x + 2) * (x + 2) == x * x + 4 * x + 4


def test_poly_incompatible_variables():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y", ("y",))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_leading_term_graded_lex():
    vs = ("x1", "x2")
    p = Polynomial(vs, {(1, 2): 1, (2, 1): 5, (0, 0): -3})
    exps, c = p.leading_term()
    assert exps == (2, 1) and c == ExactScalar(5)


def test_poly_json_roundtrip():
    p = Polynomial(("x",), {(-1,): Fraction(1, 2), (3,): ExactScalar(2, 1)})
    q = Polynomial.from_json_obj(p.to_json_obj(), ("x",))
    assert p == q


def test_poly_evaluate_exact_and_float():
    x = Polynomial.variable("x")
    p = x * x - Fraction(1, 4)
    assert p.evaluate({"x": Fraction(1, 2)}) == ExactScalar(0)
    assert p.evaluate({"x": 1.5}) == pytest.approx(2.0)


# -- quadric reduction -------------------------------------------------------


def _cone_vars(spec):
    return [Polynomial.variable(n, spec.variables) for n in spec.variables]


def test_reduce_examples():
    spec = ConeSpec(2, 2)
    x1, x2, x3, x4 = _cone_vars(spec)
    assert reduce_mod_quadric(x4**2, spec) == x1**2 + x2**2 - x3**2
    Q = x1**2 + x2**2 - x3**2 - x4**2
    assert reduce_mod_quadric(Q, spec).is_zero
    # two-step reduction oracle: x4^3 = x4 * x4^2 -> x4 * S
    assert reduce_mod_quadric(x1 * x4**3, spec) == x1 * x4 * (x1**2 + x2**2 - x3**2)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 1), (4, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_kills_quadric_multiples_and_is_idempotent(p, q, data):
    spec = ConeSpec(p, q)
    f = data.draw(poly_strategy(spec.variables, max_degree=2))
    Q = Polynomial(
        spec.variables,
        {
            tuple(2 if b == a else 0 for b in range(spec.n)): spec.epsilon(a + 1)
            for a in range(spec.n)
        },
    )
    assert reduce_mod_quadric(f * Q, spec).is_zero
    once = reduce_mod_quadric(f, spec)
    assert reduce_mod_quadric(once, spec) == once


@settings(max_examples=60, deadline=None)
@given(
    poly_strategy(("x",), max_degree=4),
    poly_strategy(("x",), max_degree=4),
    poly_strategy(("x",), max_degree=4),
)
def test_polynomial_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
