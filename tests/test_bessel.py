import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from minrep.bessel import (
    BesselOrder,
    itilde,
    itilde_complex,
    jtilde,
    ktilde,
    ktilde_complex,
    ktilde_half_closed,
)

SQRT_PI = math.sqrt(math.pi)

# frozen from the 40-term rational power series sum_k (-1)^k / (k!)^2
JTILDE_0_AT_2 = 0.22389077914123567


def test_order_half_integer_detection():
    assert BesselOrder.coerce(Fraction(1, 2)).is_half_integer
    assert BesselOrder.coerce(Fraction(1, 2)).ell == 0
    assert BesselOrder.coerce(Fraction(-1, 2)).ell == -1
    assert BesselOrder.coerce(Fraction(7, 2)).ell == 3
    assert not BesselOrder.coerce(0.3).is_half_integer
    assert BesselOrder.coerce(1).is_integer


def test_jtilde_at_zero_is_reciprocal_gamma():
    for lam in (0, Fraction(1, 2), 1.25, 3):
        assert jtilde(lam, 0.0) == pytest.approx(1.0 / math.gamma(float(lam) + 1.0), rel=1e-15)


def test_jtilde_half_integer_closed_form():
    for t in (0.3, 1.0, 7.5, 25.0, 49.0):
        assert jtilde(Fraction(1, 2), t) == pytest.approx(
            2.0 * math.sin(t) / (SQRT_PI * t), rel=1e-12
        )


def test_jtilde_series_oracle_value():
    assert jtilde(0, 2.0) == pytest.approx(JTILDE_0_AT_2, rel=1e-14)


def test_jtilde_negative_argument_rejected():
    with pytest.raises(ValueError):
        jtilde(0, -1.0)
    with pytest.raises(ValueError):
        jtilde(-1.5, 1.0)


def test_jtilde_against_library_on_grid():
    for lam in (0, Fraction(1, 2), 1, Fraction(5, 2), 2.0):
        for t in (1e-3, 0.5, 3.0, 12.0, 30.0, 50.0):
            ref = float(sps.jv(float(lam), t)) * (t / 2.0) ** (-float(lam))
            assert jtilde(lam, t) == pytest.approx(ref, rel=1e-12)


def test_rational_order_off_the_half_integers():
    # 3/10 has no exact Gamma value: the float series, then the library
    a = Fraction(3, 10)
    for t in (0.5, 2.0, 5.0, 8.0, 25.0, 40.0):
        ref = float(sps.jv(0.3, t)) * (t / 2.0) ** -0.3
        assert jtilde(a, t) == pytest.approx(ref, rel=1e-12)
    for z in (0.5, 2.0, 5.0, 12.0, 20.0, 30.0):
        ref = float(sps.iv(0.3, z)) * (z / 2.0) ** -0.3
        assert itilde(a, z) == pytest.approx(ref, rel=1e-12)


def test_itilde_values_and_evenness():
    assert itilde(2, 0.0) == pytest.approx(0.5, rel=1e-15)
    for z in (0.4, 2.0, 9.0):
        assert itilde(Fraction(1, 2), z) == pytest.approx(
            2.0 * math.sinh(z) / (SQRT_PI * z), rel=1e-13
        )


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=30.0), st.floats(min_value=-0.9, max_value=4.0))
def test_itilde_even_in_z(z, alpha):
    assert itilde(alpha, -z) == itilde(alpha, z)


@pytest.mark.parametrize("alpha", [1e-320, -1e-320, -2.2250738585e-313])
def test_subnormal_order_is_order_zero(alpha):
    # scipy's ive/kve return NaN at subnormal orders; those orders are 0
    # to within rounding, so every evaluator must give the order-0 value
    assert itilde(alpha, 1.0) == itilde(0, 1.0)
    assert itilde(alpha, -1.0) == itilde(alpha, 1.0)
    assert jtilde(alpha, 1.0) == jtilde(0, 1.0)
    assert ktilde(alpha, 1.0) == ktilde(0, 1.0)
    z = np.array([0.0, 1.0, 2.0 + 1.0j, -3.0 + 0.5j])
    np.testing.assert_array_equal(itilde_complex(alpha, z), itilde_complex(0.0, z))


def test_itilde_overflow_signals():
    with pytest.raises(OverflowError):
        itilde(0, 800.0)


def test_ktilde_bottom_closed_form_machine_exact():
    # the closed-form path computes (sqrtpi/2) e^{-t} literally
    for t in (0.25, 1.0, 2.0, 8.0, 20.0):
        assert ktilde(Fraction(-1, 2), t) == SQRT_PI / 2.0 * math.exp(-t)


def test_ktilde_half_values():
    assert ktilde(Fraction(1, 2), 1.0) == pytest.approx(SQRT_PI * math.exp(-1.0), rel=1e-15)
    # definition unwinding: Kt_a(z) (z/2)^a = K_a(z), including the
    # extremes of the contracted domain [1e-3, 50]
    for a, z in ((0.3, 1.7), (1.0, 2.5), (2.7, 0.9), (0.3, 1e-3), (1.0, 50.0)):
        assert ktilde(a, z) * (z / 2.0) ** a == pytest.approx(float(sps.kv(a, z)), rel=1e-12)
    with pytest.raises(ValueError):
        ktilde(0.5, 0.0)
    with pytest.raises(ValueError):
        ktilde(0.5, -2.0)


def test_ktilde_half_closed_polynomials():
    p_m1 = ktilde_half_closed(-1)
    assert p_m1.evaluate({"z": Fraction(17)}).as_fraction() == Fraction(1, 2)
    p_0 = ktilde_half_closed(0)
    assert p_0.terms() == {(-1,): p_0.coefficient((-1,))}
    assert p_0.coefficient((-1,)).as_fraction() == 1
    p_1 = ktilde_half_closed(1)
    assert p_1.coefficient((-2,)).as_fraction() == 2
    assert p_1.coefficient((-3,)).as_fraction() == 2
    with pytest.raises(ValueError):
        ktilde_half_closed(-2)


def test_ktilde_half_closed_matches_library_small_grid():
    for ell in range(-1, 5):
        poly = ktilde_half_closed(ell)
        for z in (0.5, 1.0, 5.0):
            closed = SQRT_PI * math.exp(-z) * float(poly.evaluate({"z": float(z)}))
            ref = float(sps.kv(ell + 0.5, z)) * (z / 2.0) ** (-(ell + 0.5))
            assert closed == pytest.approx(ref, rel=1e-12)


def test_ktilde_half_closed_matches_ktilde_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ell = int(rng.integers(-1, 6))
        z = float(rng.uniform(0.2, 30.0))
        poly = ktilde_half_closed(ell)
        closed = SQRT_PI * math.exp(-z) * float(poly.evaluate({"z": z}))
        lib = float(sps.kv(ell + 0.5, z)) * (z / 2.0) ** (-(ell + 0.5))
        assert closed == pytest.approx(lib, rel=1e-11)


def test_crossover_continuity_jtilde():
    # both branches evaluated in an overlap window around the crossover
    from minrep.bessel import _series_value

    for lam in (0, Fraction(1, 2), 1, Fraction(3, 2)):
        order = BesselOrder.coerce(lam)
        for dt in (-5.0, -2.0, -0.5):
            t = order.crossover + dt
            series = _series_value(order, t, alternating=True)
            asym = float(sps.jv(order.value, t)) * (t / 2.0) ** (-order.value)
            assert abs(series - asym) <= 1e-10 * abs(asym)


def _itilde_any_order(alpha: float, z: float) -> float:
    """It_alpha series without the alpha > -1 restriction (alpha not a
    nonpositive integer), for the reflection formula below."""
    q = z * z / 4.0
    term = 1.0 / math.gamma(alpha + 1.0)
    terms = [term]
    for k in range(1, 500):
        term = term * q / (k * (alpha + k))
        terms.append(term)
        if abs(term) < 1e-30 * max(abs(x) for x in terms):
            return math.fsum(terms)
    raise ArithmeticError("series did not converge")


def _ktilde_series(alpha: float, z: float) -> float:
    """Ascending-series K via the reflection formula, non-integer alpha, small z.

    Kt_a = pi/(2 sin(pi a)) [ (z/2)^{-2a} It_{-a}(z) - It_a(z) ].
    Cancellation grows like e^{2z}, so it is a reference on a small-z window only.
    """
    s = math.pi / (2.0 * math.sin(math.pi * alpha))
    return s * ((z / 2.0) ** (-2.0 * alpha) * _itilde_any_order(-alpha, z) - _itilde_any_order(alpha, z))


def test_crossover_continuity_ktilde():
    # closed form vs the reflection series on its well-conditioned window
    for alpha in (Fraction(1, 2), Fraction(3, 2)):
        for z in (1.0, 2.0, 4.0):
            assert ktilde(alpha, z) == pytest.approx(
                _ktilde_series(float(alpha), z), rel=1e-10
            )


def test_ktilde_positive_and_decreasing():
    for alpha in (Fraction(-1, 2), 0, Fraction(1, 2), 1, 2.3):
        zs = np.linspace(0.05, 12.0, 60)
        vals = [ktilde(alpha, float(z)) for z in zs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_complex_internals_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(11)
    for nu in (0.0, 1.0, 2.0, 1.5):
        re = rng.uniform(0.5, 50.0, 6)
        im = rng.uniform(-0.5, 0.5, 6) * re
        zs = re + 1j * im
        mine = ktilde_complex(nu, zs)
        ref = np.array(
            [complex((z / 2) ** mp.mpc(-nu) * mp.besselk(nu, mp.mpc(z))) for z in zs]
        )
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-12
    for alpha in (0.5, 1.0, 2.0):
        zs = rng.uniform(0.1, 30.0, 6) * np.exp(1j * rng.uniform(-0.5, 0.5, 6))
        mine = itilde_complex(alpha, zs)
        ref = np.array(
            [complex((z / 2) ** mp.mpc(-alpha) * mp.besseli(alpha, mp.mpc(z))) for z in zs]
        )
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-12


def test_itilde_complex_near_imaginary_axis_and_left_half():
    # points a Cauchy circle reaches for x up to 60, where a plain power
    # series of It loses up to all its digits to cancellation
    mp = pytest.importorskip("mpmath")
    zs = [r * np.exp(1j * th) for r in (20.0, 30.0, 45.0, 60.0)
          for th in (1.45, -1.5, 1.62, 2.2, -2.9)]
    zs += [-40 - 0j, -40 + 0j, -12.5 + 3j, -0.3 - 0.2j]
    zs = np.array(zs)
    with mp.workdps(40):
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.5):
            mine = itilde_complex(alpha, zs)
            ref = np.array(
                [complex((mp.mpc(z) / 2) ** mp.mpf(-alpha) * mp.besseli(alpha, mp.mpc(z)))
                 for z in zs]
            )
            assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-12
    assert itilde_complex(1.5, np.array([0j]))[0] == 1.0 / math.gamma(2.5)


def test_off_half_integer_orders_against_mpmath():
    # below the crossover 2|order| + 20, where a float power series
    # cancels down to about 1e-9 relative at t = 20
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        nu = mp.mpf(3) / 10
        for t in (8.0, 12.0, 16.0, 20.0, 20.5):
            tt = mp.mpf(t)
            ref_j = float((tt / 2) ** -nu * mp.besselj(nu, tt))
            ref_i = float((tt / 2) ** -nu * mp.besseli(nu, tt))
            for order in (Fraction(3, 10), 0.3):
                assert abs(jtilde(order, t) - ref_j) <= 1e-13 * abs(ref_j)
                assert abs(itilde(order, t) - ref_i) <= 1e-13 * abs(ref_i)


def test_off_half_integer_order_underflow_raises():
    # J_{50.3}(1e-5) underflows the double range; no silent zero
    with pytest.raises(ArithmeticError):
        jtilde(50.3, 1e-5)
