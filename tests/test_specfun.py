import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps

from minrep import specfun
from minrep.algebra import ExactScalar, Polynomial, gamma_exact
from minrep.bessel import itilde, ktilde
from minrep.specfun import (
    _bessel_exp_coeffs,
    _elementary_rows,
    _lambda_generating_table,
    _lambda_prefactors,
    _laguerre_rows,
    _leggauss,
    _nodes_for,
    LambdaParams,
    ManoParams,
    laguerre,
    lambda_eval,
    lambda_gram,
    lambda_table,
    mano_exact,
    mano_genfun,
    mano_gram_exact,
    moment_inner_product,
    norm_squared,
)

X = Polynomial.variable("x")


# -- Laguerre ----------------------------------------------------------------


def test_laguerre_symbolic():
    assert laguerre(0) == Polynomial.constant(1, ("x", "mu"))
    L1 = laguerre(1)
    vs = ("x", "mu")
    assert L1 == Polynomial(vs, {(0, 1): 1, (0, 0): 1, (1, 0): -1})  # (mu+1) - x


def test_laguerre_numeric():
    assert laguerre(2, 2) == X * X * Fraction(1, 2) - 4 * X + 6
    assert laguerre(1, 1) == 2 - X


def test_laguerre_rows_against_scipy_and_mpmath():
    # one recurrence pass for all rows; references: scipy's per-row
    # eval_genlaguerre and mpmath's hypergeometric Laguerre at 50 digits.
    # The bare rows peak at y = 240, where scipy itself is off by up to
    # 3.0e-15 of that peak; with the weight e^{-y/2} of the Lambda basis
    # both stay within 1e-15 of the row maximum.
    mp = pytest.importorskip("mpmath")
    ys = np.linspace(0.0, 240.0, 13)
    weight = np.exp(-ys / 2.0)
    for alpha in (1, 3, 5, 7, 9):
        rows = _laguerre_rows(60, alpha, ys)
        assert rows.shape == (61, len(ys))
        with mp.workdps(50):
            ref = np.array([[float(mp.laguerre(j, alpha, y)) for y in ys] for j in range(61)])
        for j in range(61):
            scale = np.max(np.abs(ref[j]))
            assert np.max(np.abs(rows[j] - sps.eval_genlaguerre(j, alpha, ys))) <= 1e-15 * scale
            assert np.max(np.abs(rows[j] - ref[j])) <= 4e-15 * scale, (alpha, j)
            wscale = np.max(np.abs(weight * ref[j]))
            assert np.max(np.abs(weight * (rows[j] - ref[j]))) <= 1e-15 * wscale, (alpha, j)


def test_laguerre_rows_short():
    ys = np.array([0.0, 0.5, 7.0])
    assert np.array_equal(_laguerre_rows(0, 3, ys), np.ones((1, 3)))
    assert np.array_equal(_laguerre_rows(1, 3, ys), np.array([[1.0] * 3, 4.0 - ys]))


def test_lambda_prefactors_equal_gamma_ratio():
    # the running product against 2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1) from
    # exact Gamma values, each rounded once
    for mu in (1, 3, 5, 7, 9):
        want = np.array([
            float(ExactScalar(2**mu) * gamma_exact(j + (mu + 1) // 2) / gamma_exact(j + mu + 1))
            for j in range(61)
        ])
        got = _lambda_prefactors(mu, 60)
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def test_gauss_legendre_rule_cached_read_only():
    from minrep.kernel import _leggauss as kernel_leggauss

    nodes, weights = _leggauss(32)
    fresh = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
    assert _leggauss(32) is _leggauss(32) and kernel_leggauss is _leggauss
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


# -- Mano exact route ----------------------------------------------------------


def test_mano_bottom_case():
    assert mano_exact(3, 1, 0) == X + 2
    # bottom value is independent of (odd) mu
    assert mano_exact(7, 1, 0) == X + 2


def test_mano_bottom_closed_sum_up_to_ell_4():
    for ell in range(5):
        closed = Polynomial(
            ("x",),
            {
                (k,): Fraction(
                    math.factorial(2 * ell - k),
                    math.factorial(k) * math.factorial(ell - k),
                )
                for k in range(ell + 1)
            },
        )
        for mu in (1, 3, 5, 7):
            assert mano_exact(mu, ell, 0) == closed


def test_mano_reduces_to_laguerre():
    for mu in (1, 3, 5):
        for j in range(11):
            assert mano_exact(mu, 0, j) == laguerre(j, mu)
            assert X * mano_exact(mu, -1, j) == laguerre(j, mu)


def test_mano_top_term():
    m = mano_exact(3, 1, 2)
    exps, c = m.leading_term()
    assert exps == (3,) and c == ExactScalar(Fraction(1, 2))
    for mu in (1, 5):
        for ell in (-1, 0, 2):
            for j in (0, 3, 6):
                exps, c = mano_exact(mu, ell, j).leading_term()
                assert exps == (j + ell,)
                assert c == ExactScalar(Fraction((-1) ** j, math.factorial(j)))


def test_mano_grade_and_denominator_invariant():
    for mu in (1, 3, 5, 7):
        for ell in (-1, 0, 1, 2):
            for j in range(8):
                M = mano_exact(mu, ell, j)
                bound = (
                    math.factorial(j)
                    * 2 ** (mu + j + max(ell, 0))
                    * math.factorial(j + mu)
                )
                for _, c in M.terms().items():
                    frac = c.as_fraction()  # raises if any sqrtpi grade survives
                    assert bound % frac.denominator == 0


def _laguerre_explicit(n, mu):
    """L_n^mu = sum_k (-1)^k C(n+mu, n-k) x^k / k!, integer mu >= 0."""
    return Polynomial(
        ("x",),
        {(k,): Fraction((-1) ** k * math.comb(n + mu, n - k), math.factorial(k)) for k in range(n + 1)},
    )


def _mano_laguerre_closed_form(mu, ell, j):
    """M_j^{mu,ell} in the L^(mu) basis, the reference route.

    Expanding (1-t)^k in the four-factor generating function
    G^{mu,ell} = sum_{k<=ell} b_k x^{ell-k} (1-t)^k G^{mu,0}, with
    M_j^{mu,0} = L_j^mu, gives
    M_j = sum_k b_k x^{ell-k} sum_{i<=min(k,j)} (-1)^i C(k,i) (P_j/P_{j-i}) L_{j-i}^mu,
    b_k = (ell+k)!/(k!(ell-k)!), P_j = Gamma(j+mu+1)/(2^mu Gamma(j+(mu+1)/2));
    for ell = -1 the single Laurent term L_j^mu / x.
    """
    if ell == -1:
        return _laguerre_explicit(j, mu) * Polynomial(("x",), {(-1,): 1})

    def P(n):
        return Fraction(math.factorial(n + mu), 2**mu * math.factorial(n + (mu - 1) // 2))

    out = Polynomial(("x",), {})
    for k in range(ell + 1):
        b = Fraction(math.factorial(ell + k), math.factorial(k) * math.factorial(ell - k))
        for i in range(min(k, j) + 1):
            c = b * (-1) ** i * math.comb(k, i) * P(j) / P(j - i)
            out = out + _laguerre_explicit(j - i, mu) * Polynomial(("x",), {(ell - k,): c})
    return out


def test_mano_exact_matches_four_factor_series():
    # the reference is the L^(mu) closed form of the same four-factor
    # generating function, built from the explicit Laguerre sum
    for mu in (1, 3, 5, 7, 9):
        for ell in (-1, 0, 1, 2, 3):
            for j in range(13):
                assert mano_exact(mu, ell, j) == _mano_laguerre_closed_form(mu, ell, j)


def _bessel_exp_double_sum(mu, order):
    # c_m = sum_{2k <= m} (-1/2)^{m-2k}/(m-2k)! / (16^k k! Gamma(mu/2+k+1)),
    # the Cauchy product of the e^{-s/2} and It_{mu/2}(s/2) series
    expo = [Fraction(1)]
    for i in range(1, order + 1):
        expo.append(expo[-1] * Fraction(-1, 2 * i))
    ibes = [Fraction(1)]
    for k in range(1, order // 2 + 1):
        ibes.append(ibes[-1] * Fraction(2, 16 * k * (mu + 2 * k)))
    inv_gamma = 1 / gamma_exact(Fraction(mu, 2) + 1)
    return [
        inv_gamma * sum(ibes[k] * expo[m - 2 * k] for k in range(m // 2 + 1))
        for m in range(order + 1)
    ]


def test_bessel_exp_coeffs_kummer_matches_double_sum():
    # c_m does not depend on the order, so order 40 covers every order <= 40
    for mu in range(10):
        assert _bessel_exp_coeffs(mu, 40) == _bessel_exp_double_sum(mu, 40)


def test_mano_exact_validation():
    with pytest.raises(ValueError):
        mano_exact(2, 1, 0)  # even mu is off the exact path
    with pytest.raises(ValueError):
        mano_exact(3, -2, 0)
    with pytest.raises(ValueError):
        ManoParams(-3.0, 0, 1).validate_float()  # excluded mu


# -- Cauchy extraction ---------------------------------------------------------


def test_mano_genfun_matches_exact_single():
    ve = float(mano_exact(3, 1, 1).evaluate({"x": 1.0}))
    assert mano_genfun(3, 1, 1, 1.0) == pytest.approx(ve, rel=1e-9)


def test_mano_genfun_matches_exact_sweep():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = int(rng.choice([1, 3, 5]))
        ell = int(rng.integers(-1, 3))
        j = int(rng.integers(0, 5))
        x = float(rng.uniform(0.3, 3.0))
        ve = float(mano_exact(mu, ell, j).evaluate({"x": x}))
        vc = mano_genfun(mu, ell, j, x)
        assert vc == pytest.approx(ve, rel=1e-9, abs=1e-12)


def test_mano_genfun_high_j_against_exact():
    # the Lambda-table column keeps its digits at high j; a Cauchy circle of
    # fixed radius 0.5 was off by 5e-8, 8e-9 and 5e-5 here
    for mu, ell, j, x in ((7, 2, 30, 10.0), (3, -1, 25, 3.0), (1, 0, 40, 20.0)):
        ve = float(mano_exact(mu, ell, j).evaluate({"x": Fraction(x)}))
        assert abs(mano_genfun(mu, ell, j, x) - ve) <= 1e-10 * max(1.0, abs(ve))


def test_mano_genfun_off_the_exact_domain_against_mpmath():
    # real mu > -1 and any real ell: [t^j] G^{mu,ell} by mpmath's Taylor
    # expansion of the generating function, with It_a(z) = 0F1(;a+1;z^2/4)/Gamma(a+1)
    # and Kt_a(z) = (z/2)^{-a} K_a(z)
    mp = pytest.importorskip("mpmath")
    mu, ell, j, x = -0.5, -2.5, 5, 1.7
    with mp.workdps(20):
        mu_m, ell_m, x_m = mp.mpf(mu), mp.mpf(ell), mp.mpf(x)

        def gen(t):
            om = 1 - t
            zi, zk = t * x_m / (2 * om), x_m / (2 * om)
            it = mp.hyp0f1(mu_m / 2 + 1, zi**2 / 4) / mp.gamma(mu_m / 2 + 1)
            kt = (zk / 2) ** (-(ell_m + 0.5)) * mp.besselk(ell_m + 0.5, zk)
            return ((x_m / 2) ** (2 * ell_m + 1) * mp.exp(x_m / 2)
                    * om ** (-(ell_m + (mu_m + 3) / 2)) * it * kt)

        coeff = mp.taylor(gen, 0, j)[j]
        want = float(mp.gamma(j + mu_m + 1) / (2**mu_m * mp.gamma(j + (mu_m + 1) / 2)) * coeff)
    assert mano_genfun(mu, ell, j, x) == pytest.approx(want, rel=1e-11)


def test_per_value_entry_points_return_python_float():
    # a numpy scalar would make a caller's comparisons numpy.bool_, which
    # json cannot encode
    from minrep.radial import u_eval

    assert type(mano_genfun(3, 1, 4, 2.0)) is float
    for method in ("auto", "elementary", "cauchy"):
        assert type(lambda_eval(3, 1, 4, 2.0, method=method)) is float
    assert type(lambda_eval(2, 0, 4, 2.0)) is float
    for n in (1, 2, 3):
        assert type(u_eval(3, n, 4, 2.0)) is float


# -- Lambda family ---------------------------------------------------------------


def test_lambda_bottom_value():
    for mu, nu in ((1, 1), (2, 0), (2, 2), (3, 3)):
        x = 1.3
        order = Fraction(nu, 2) if nu % 2 else nu // 2
        ref = ktilde(order, x) / math.gamma(mu / 2.0 + 1.0)
        assert lambda_eval(mu, nu, 0, x) == pytest.approx(ref, rel=1e-11)


def test_lambda_mano_relation():
    # elementary route vs Cauchy route at (mu, ell, j, x) = (3, 1, 2, 0.7)
    ve = lambda_eval(3, 3, 2, 0.7, method="elementary")
    vc = lambda_eval(3, 3, 2, 0.7, method="cauchy")
    assert vc == pytest.approx(ve, rel=1e-9)
    # and the relation written out through the Mano polynomial itself
    x = 0.7
    pref = 2**3 * math.gamma(2 + 2.0) / math.gamma(2 + 4.0)
    direct = pref * x**-3 * math.exp(-x) * float(mano_exact(3, 1, 2).evaluate({"x": 2 * x}))
    assert ve == pytest.approx(direct, rel=1e-12)


def test_lambda_partial_sums_match_bessel_product():
    t = 0.3
    for x in (0.5, 1.0, 2.0):
        rhs = (1 - t) ** -2.0 * itilde(1, t * x / (1 - t)) * ktilde(0, x / (1 - t))
        tab = lambda_table(2, 0, 30, np.array([x]))
        lhs = math.fsum(t**j * tab[j, 0] for j in range(31))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_lambda_table_high_rows_against_laguerre():
    # against the elementary route
    # Lam_j^{mu,1}(x) = 2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1) e^{-x}/x L_j^mu(2x);
    # the second case needs the radius cap that keeps It(rho x/(1-rho)) finite
    mu = 3
    cases = (
        (40, np.linspace(0.5, 60.0, 64), 1e-9),
        (100, np.array([5.0, 30.0, 70.0, 120.0]), 1e-6),
    )
    for jmax, xs, tol in cases:
        tab = lambda_table(mu, 1, jmax, xs)
        worst = 0.0
        for j in range(jmax + 1):
            pref = math.exp(
                mu * math.log(2.0) + math.lgamma(j + (mu + 1) / 2.0) - math.lgamma(j + mu + 1.0)
            )
            want = pref * np.exp(-xs) / xs * sps.eval_genlaguerre(j, mu, 2.0 * xs)
            worst = max(worst, float(np.max(np.abs(tab[j] - want)) / np.max(np.abs(want))))
        assert worst < tol


def test_lambda_eval_high_j_against_laguerre():
    # both routes against scipy's Laguerre form of Lam_j^{3,1}, relative to the
    # envelope |Lam_{j-1..j+1}(x)|, so x near a zero of Lam_j reads no lost digit
    def want(j, x):
        pref = math.exp(3 * math.log(2.0) + math.lgamma(j + 2.0) - math.lgamma(j + 4.0))
        return pref * math.exp(-x) / x * float(sps.eval_genlaguerre(j, 3, 2.0 * x))

    for method, tol in (("cauchy", 1e-10), ("elementary", 1e-13)):
        for j in (20, 30, 40):
            for x in (0.5, 5.0, 30.0):
                env = max(abs(want(i, x)) for i in (j - 1, j, j + 1))
                assert abs(lambda_eval(3, 1, j, x, method=method) - want(j, x)) <= tol * env


def test_lambda_eval_auto_odd_nu_against_exact_mano():
    # Lam_j^{mu,nu}(x) = r_j x^{-nu} e^{-x} M_j^{mu,ell}(2x), nu = 2 ell + 1, with
    # M_j summed in Fractions and r_j = 2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1)
    # exact; at nu >= 3 the default route must not be the cancelling monomial sum
    def exact(mu, nu, j, x):
        r = Fraction(2**mu * math.factorial(j + (mu - 1) // 2), math.factorial(j + mu))
        m = mano_exact(mu, (nu - 1) // 2, j).evaluate({"x": 2 * Fraction(x)}).as_fraction()
        return float(r * m / Fraction(x) ** nu) * math.exp(-x)

    for mu, nu, j, x in ((3, 3, 40, 30.0), (5, 5, 30, 20.0), (7, 3, 40, 12.5)):
        env = max(abs(exact(mu, nu, i, x)) for i in (j - 1, j, j + 1))
        assert abs(lambda_eval(mu, nu, j, x) - exact(mu, nu, j, x)) <= 1e-11 * env


def test_lambda_table_short_tables_keep_radius_half():
    xs = np.array([0.7, 12.0, 45.0])
    for jmax in (4, 16):
        assert np.array_equal(lambda_table(2, 0, jmax, xs), lambda_table(2, 0, jmax, xs, rho=0.5))


def test_lambda_table_rejects_overflowing_radius():
    # rho * max x / (1 - rho) = 900 > 700: the It factor would overflow
    with pytest.raises(ValueError):
        lambda_table(2, 0, 30, [5.0, 100.0], rho=0.9)
    with pytest.raises(ValueError):
        lambda_table(2, 0, 4, [1.0], rho=1.0)
    assert np.all(np.isfinite(lambda_table(2, 0, 30, [5.0, 100.0], rho=0.8)))


def test_generating_function_is_hermitian():
    # f(conj t) = conj f(t) for real x, mu, nu: the premise of the half-circle FFT
    xs = np.array([0.05, 0.5, 3.0, 17.0, 60.0])
    for rho in (0.5, 0.8):
        ts = np.concatenate([[rho, -rho], rho * np.exp(2j * np.pi * np.arange(1, 64) / 128)])
        for mu, nu in ((4, 0), (3, 1), (2, 2), (1.5, 0.7)):
            vals = _lambda_generating_table(mu, nu, xs, ts)
            conj_vals = _lambda_generating_table(mu, nu, xs, np.conj(ts))
            assert np.all(np.abs(conj_vals - np.conj(vals)) <= 1e-15 * np.abs(vals)), (mu, nu, rho)


def test_half_circle_table_matches_full_circle_fft():
    # the full-circle DFT of all n nodes per x, as the table was built before
    xs = np.array([0.3, 2.0, 9.5, 31.0, 60.0])
    for mu, nu in ((4, 0), (3, 1), (2, 2), (1.5, 0.7)):
        for jmax, rho in ((8, 0.5), (40, 0.8)):
            tab = lambda_table(mu, nu, jmax, xs, rho=rho)
            ref = np.empty_like(tab)
            for i, (x, n) in enumerate(zip(xs, _nodes_for(xs, jmax, rho))):
                ts = rho * np.exp(2j * np.pi * np.arange(n) / n)
                vals = _lambda_generating_table(float(mu), float(nu), np.array([x]), ts)
                ref[:, i] = np.fft.fft(vals[0])[: jmax + 1].real / n * rho ** -np.arange(jmax + 1.0)
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.max(np.abs(tab - ref) / scale) <= 1e-10, (mu, nu, jmax)


def _scalar_nodes_for(xmax: float, jmax: int, rho: float) -> int:
    # the per-point node rule as it was written before vectorising
    n = 1 << max(6, (4 * (jmax + 1) - 1).bit_length())
    c = 2.0 * rho * xmax
    while n < 8192:
        log_tail = n * math.log(max(c, 1e-9)) - (n * math.log(n) - n)
        if log_tail < -60.0 and n * math.log(rho) <= math.log(1e-17):
            return n
        n *= 2
    return n


def test_vectorised_node_count_equals_scalar_rule():
    xs = np.geomspace(1e-3, 150.0, 401)
    for jmax in (0, 4, 16, 17, 40, 100, 300):
        for rho in (0.05, 0.3, 0.5, 0.8, 0.92):
            want = [_scalar_nodes_for(float(x), jmax, rho) for x in xs]
            assert _nodes_for(xs, jmax, rho).tolist() == want, (jmax, rho)


def test_node_cap_raises_before_any_bessel_call(monkeypatch):
    # rho = 0.996 at jmax = 2000: rho^N <= 1e-17 needs N >= 9771, over the cap 8192
    def no_bessel(*args):
        raise AssertionError("Bessel call before the node check")

    monkeypatch.setattr(specfun, "itilde_complex", no_bessel)
    with pytest.raises(ValueError, match="16384 circle nodes"):
        lambda_table(2, 0, 2000, [1.0])


def test_table_evaluates_half_circle_only(monkeypatch):
    seen = []
    itilde_complex = specfun.itilde_complex

    def counting(alpha, z):
        seen.append(np.size(z))
        return itilde_complex(alpha, z)

    monkeypatch.setattr(specfun, "itilde_complex", counting)
    xs = np.linspace(0.5, 60.0, 64)
    lambda_table(2, 2, 40, xs, rho=0.8)
    assert sum(seen) == int(np.sum(_nodes_for(xs, 40, 0.8) // 2 + 1))
    assert len(seen) == len(np.unique(_nodes_for(xs, 40, 0.8)))


def test_lambda_table_odd_nu_rows_against_elementary():
    xs = np.linspace(0.5, 60.0, 64)
    for mu, nu in ((3, 1), (1, 1), (5, -1)):
        ref = _elementary_rows(mu, nu, 40, xs)
        err = np.abs(lambda_table(mu, nu, 40, xs) - ref) / np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(err) <= 5e-11, (mu, nu)


def test_lambda_eval_domain():
    with pytest.raises(ValueError):
        lambda_eval(2, 0, 1, -1.0)
    with pytest.raises(ValueError):
        lambda_eval(2, 0, 1, 0.0)
    # a NaN grid point would never meet the node rule's bound
    with pytest.raises(ValueError, match="finite"):
        lambda_table(2, 0, 4, [1.0, math.nan])
    with pytest.raises(ValueError):
        lambda_table(2, 0, 4, [1.0, math.inf])


# -- norms and Gram matrices -----------------------------------------------------


def test_moment_norm_example():
    # ||M_0^{3,1}||^2 = integral (x+2)^2 x e^{-x} = 3! + 4*2! + 4*1! = 18
    assert norm_squared("mano", (3, 1, 0)) == ExactScalar(18)


def test_laguerre_norm_bottom():
    for mu in (0, 1, 4):
        assert norm_squared("laguerre", (0, mu)) == ExactScalar(math.factorial(mu))


def test_laguerre_norm_non_integer_mu_against_mpmath():
    # (j, mu) = (0, 0.5) is where the old panel quadrature stopped at 5.9e-7
    mp = pytest.importorskip("mpmath")
    assert norm_squared("laguerre", (0, 0.5)) == pytest.approx(math.gamma(1.5), rel=1e-14)
    with mp.workdps(20):
        for mu in (0.5, 2.5):
            for j in (0, 3, 7):
                want = mp.quad(
                    lambda x: mp.laguerre(j, mu, x) ** 2 * x**mu * mp.exp(-x), [0, mp.inf]
                )
                assert norm_squared("laguerre", (j, mu)) == pytest.approx(float(want), rel=1e-13)


def test_lambda_norms_odd_nu_match_exact_mano_norms():
    # ||Lam_j||^2 = r_j^2 ||M_j^{mu,ell}||^2 / 2^{mu-2 ell+1}, x = y/2 in the Mano weight
    for mu, nu in ((1, 1), (3, 1), (5, 3), (7, 5), (9, 3), (3, -1)):
        ell = (nu - 1) // 2
        r = _lambda_prefactors(mu, 10)
        for j in range(11):
            want = r[j] ** 2 * float(norm_squared("mano", (mu, ell, j))) / 2 ** (mu - 2 * ell + 1)
            assert norm_squared("lambda", (mu, nu, j)) == pytest.approx(want, rel=1e-14)


def test_lambda_norms_even_nu_against_mpmath():
    # Lam_0^{mu,nu} = Kt_{nu/2}(x) / Gamma(mu/2+1), Kt_a(x) = (x/2)^{-a} K_a(x)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        for mu, nu in ((2, 0), (2, 2), (4, 2)):
            a = mp.mpf(nu) / 2

            def integrand(x):
                kt = (x / 2) ** (-a) * mp.besselk(a, x) / mp.gamma(mp.mpf(mu) / 2 + 1)
                return kt**2 * x ** (mu + nu + 1)

            want = mp.quad(integrand, [0, mp.inf])
            assert norm_squared("lambda", (mu, nu, 0)) == pytest.approx(float(want), rel=1e-13)


def test_mano_norm_ratio_exact():
    # n_{j+1}/n_j = (j+mu+1)/(j+1) (2j+mu+2-nu)(2j+mu+2+nu) / ((2j+mu+1)(2j+mu+3)),
    # nu = 2 ell + 1, the Mano form of the closed-form Lambda norm ratio
    for mu, ell in ((9, 3), (11, 2), (3, -1), (1, 0), (7, 3)):
        nu = 2 * ell + 1
        norms = [norm_squared("mano", (mu, ell, j)).as_fraction() for j in range(9)]
        for j in range(8):
            want = Fraction(j + mu + 1, j + 1) * Fraction(
                (2 * j + mu + 2 - nu) * (2 * j + mu + 2 + nu), (2 * j + mu + 1) * (2 * j + mu + 3)
            )
            assert norms[j + 1] / norms[j] == want


def test_moment_inner_product_diverging_exponent():
    inv_x = Polynomial(("x",), {(-1,): 1})
    with pytest.raises(ValueError):
        moment_inner_product(inv_x, inv_x, 0)


def test_norm_hypothesis_violations():
    with pytest.raises(ValueError):
        norm_squared("mano", (1, 1, 0))  # mu < 2 ell + 1
    with pytest.raises(ValueError):
        norm_squared("lambda", LambdaParams(2, 1, 0))  # parity mismatch
    with pytest.raises(ValueError):
        norm_squared("lambda", LambdaParams(-1, -1, 0))


def test_quadrature_matches_exact_moments():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = int(rng.choice([3, 5, 7]))
        ell = int(rng.integers(0, (mu - 1) // 2 + 1))
        j = int(rng.integers(0, 5))
        exact = float(norm_squared("mano", (mu, ell, j)))
        coeffs = [(e[0], float(c)) for e, c in sorted(mano_exact(mu, ell, j).terms().items())]

        def poly_val(x):
            return math.fsum(c * x**e for e, c in coeffs)

        quad, err = scipy.integrate.quad(
            lambda x: poly_val(x) ** 2 * x ** (mu - 2 * ell) * math.exp(-x),
            0.0,
            np.inf,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        assert quad == pytest.approx(exact, rel=1e-10)


def test_mano_gram_exactly_diagonal_small():
    gram = mano_gram_exact(3, 1, 4)
    for i in range(5):
        for k in range(5):
            if i != k:
                assert not gram[i][k]
            else:
                assert gram[i][k].as_fraction() > 0


@pytest.mark.slow
def test_lambda_gram_offdiagonals():
    g = lambda_gram(2, 2, 6)
    d = np.sqrt(np.abs(np.diag(g)))
    off = g - np.diag(np.diag(g))
    assert float(np.max(np.abs(off) / np.outer(d, d))) < 1e-8


def test_genfun_route_equals_exact_route_on_lambda():
    # odd-nu lambda values: elementary (exact-polynomial) vs Cauchy for
    # several parameters
    for (mu, nu, j, x) in ((1, 1, 1, 0.5), (3, 1, 3, 1.2), (5, 3, 2, 2.0)):
        a = lambda_eval(mu, nu, j, x, method="elementary")
        b = lambda_eval(mu, nu, j, x, method="cauchy")
        assert b == pytest.approx(a, rel=1e-9)
