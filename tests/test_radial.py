import math
from fractions import Fraction

import numpy as np
import pytest

from minrep.bessel import ktilde
from minrep.cone import ConeSpec
from minrep.radial import (
    ExpansionResult,
    InversionSpec,
    RadialFunction,
    apply_inversion,
    expand,
    inner_product,
    lambda_basis_table,
    minimal_ktype,
    u_eval,
)
from minrep.specfun import lambda_gram, mano_exact

SPEC31 = ConeSpec(3, 1)
SPEC51 = ConeSpec(5, 1)


def _l2_distance(f, g, spec):
    d = RadialFunction(lambda r: f(r) - g(r))
    return math.sqrt(inner_product(d, d, spec))


def _ktype_function(spec):
    return RadialFunction(
        lambda r: np.array(
            [minimal_ktype(spec, ri) for ri in np.atleast_1d(np.asarray(r, dtype=float))]
        ).reshape(np.shape(np.asarray(r)))
    )


# -- measure and inner product ----------------------------------------------------


def test_inner_product_elementary_value():
    # integral e^{-4r} (1/2) r dr = 1/32
    f = RadialFunction(lambda r: np.exp(-2.0 * r))
    assert inner_product(f, f, SPEC31) == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_inner_product_positivity():
    f = RadialFunction(lambda r: np.exp(-2.0 * r) * np.cos(r))
    assert inner_product(f, f, SPEC31) > 0.0
    zero = RadialFunction(lambda r: 0.0 * r)
    assert inner_product(zero, zero, SPEC31) == 0.0


def test_lambda_orthogonality_42():
    # <Lam_0(2r), Lam_1(2r)> under the radial measure of (4,2)
    spec = ConeSpec(4, 2)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    panels, upper = 48, 25.0
    width = upper / panels
    rs = (((np.arange(panels)[:, None] + 0.5) + 0.5 * nodes[None, :]) * width).ravel()
    ws = np.tile(0.5 * width * weights, panels)
    B = lambda_basis_table(spec, 1, 2.0 * rs)
    meas = ws * 0.5 * rs ** (spec.n - 3)
    off = float((B[0] * B[1]) @ meas)
    d0 = float((B[0] * B[0]) @ meas)
    d1 = float((B[1] * B[1]) @ meas)
    assert abs(off) <= 1e-8 * math.sqrt(d0 * d1)


def test_weight_consistency_both_ways():
    # mu+nu+1 = p+q-3 under x = 2r: Gram diagonality holds in both pictures
    g = lambda_gram(2, 0, 4)
    d = np.sqrt(np.abs(np.diag(g)))
    off = g - np.diag(np.diag(g))
    assert float(np.max(np.abs(off) / np.outer(d, d))) < 1e-8

    spec = ConeSpec(4, 2)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    panels, upper = 48, 25.0
    width = upper / panels
    rs = (((np.arange(panels)[:, None] + 0.5) + 0.5 * nodes[None, :]) * width).ravel()
    ws = np.tile(0.5 * width * weights, panels)
    B = lambda_basis_table(spec, 4, 2.0 * rs)
    meas = ws * 0.5 * rs ** (spec.n - 3)
    G = (B * meas[None, :]) @ B.T
    d = np.sqrt(np.abs(np.diag(G)))
    off = G - np.diag(np.diag(G))
    assert float(np.max(np.abs(off) / np.outer(d, d))) < 1e-8


# -- distinguished vectors -----------------------------------------------------------


def test_u_bottom_is_exponential():
    for x in (0.3, 1.3, 4.0):
        assert u_eval(2, 1, 0, x) == pytest.approx(math.exp(-x), rel=1e-14)


def test_u_leading_behavior():
    # u_j^{m,n}(x) ~ (-1)^j (2x)^{j-n+1} e^{-x} / j! for large x: the
    # log-slope of u e^x recovers the power, and the ratio to the leading
    # term drifts toward 1 (the correction decays like 1/x)
    def log_slope(m, n, j, x1, x2):
        v1, v2 = u_eval(m, n, j, x1), u_eval(m, n, j, x2)
        return (math.log(abs(v2)) + x2 - math.log(abs(v1)) - x1) / math.log(x2 / x1)

    for (m, n, j) in ((2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 4)):
        # the O(1/x) correction cancels under Richardson extrapolation
        s_lo = log_slope(m, n, j, 100.0, 200.0)
        s_hi = log_slope(m, n, j, 200.0, 400.0)
        assert 2.0 * s_hi - s_lo == pytest.approx(j - n + 1, abs=0.02)
        ratios = [
            u_eval(m, n, j, x)
            / ((-1.0) ** j * (2.0 * x) ** (j - n + 1) * math.exp(-x) / math.factorial(j))
            for x in (40.0, 50.0)
        ]
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_u_bottom_proportional_to_ktilde():
    # u_0^{m,n}(2r) = c * Kt_{n-3/2}(2r) with one fitted constant
    for (m, n) in ((2, 1), (2, 2), (3, 2), (2, 3)):
        rs = (0.5, 1.0, 2.0)
        ratios = [
            u_eval(m, n, 0, 2.0 * r) / ktilde(Fraction(2 * n - 3, 2), 2.0 * r) for r in rs
        ]
        assert max(ratios) - min(ratios) == pytest.approx(0.0, abs=1e-12 * abs(ratios[0]))


def test_u_eval_domain():
    with pytest.raises(ValueError):
        u_eval(1, 1, 0, 1.0)
    with pytest.raises(ValueError):
        u_eval(2, 0, 0, 1.0)
    with pytest.raises(ValueError):
        u_eval(2, 1, 0, -1.0)


def test_u_eval_high_j_against_mpmath():
    # (2x)^{-2n+3} e^{-x} M_j^{2m-3,n-2}(2x) from the exact coefficients at
    # 80 digits, relative to the envelope |u_{j-1..j+1}(x)|
    mp = pytest.importorskip("mpmath")

    def want(m, n, j, x):
        with mp.workdps(80):
            y = 2 * mp.mpf(x)
            val = mp.fsum(
                mp.mpf(c.as_fraction().numerator) / c.as_fraction().denominator * y ** e[0]
                for e, c in mano_exact(2 * m - 3, n - 2, j).terms().items()
            )
            return float(y ** (-2 * n + 3) * mp.exp(-mp.mpf(x)) * val)

    for m, n, j, x in ((3, 2, 40, 30.0), (4, 2, 30, 12.0)):
        near = [want(m, n, i, x) for i in (j - 1, j, j + 1)]
        assert abs(u_eval(m, n, j, x) - near[1]) <= 1e-13 * max(map(abs, near))


def test_minimal_ktype_values_and_integrability():
    # (3,1): Kt_{-1/2}(2r) = (sqrtpi/2) e^{-2r}
    for r in (0.2, 1.0, 3.0):
        assert minimal_ktype(SPEC31, r) == math.sqrt(math.pi) / 2.0 * math.exp(-2.0 * r)
    with pytest.raises(ValueError):
        minimal_ktype(SPEC31, 0.0)
    rs = np.linspace(0.05, 5.0, 40)
    for spec in (SPEC31, ConeSpec(4, 2), ConeSpec(3, 3)):
        vals = [minimal_ktype(spec, float(r)) for r in rs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        f = _ktype_function(spec)
        assert math.isfinite(inner_product(f, f, spec))


# -- expansion --------------------------------------------------------------------


def test_expand_projects_basis_vector():
    basis2 = RadialFunction(
        lambda r: lambda_basis_table(SPEC31, 2, 2.0 * np.atleast_1d(np.asarray(r, dtype=float)))[2].reshape(
            np.shape(np.asarray(r))
        )
    )
    res = expand(basis2, SPEC31, 6)
    want = np.zeros(7)
    want[2] = 1.0
    assert np.max(np.abs(np.array(res.coeffs) - want)) < 1e-8


def test_expand_ground_state():
    res = expand(RadialFunction(lambda r: np.exp(-2.0 * r)), SPEC31, 8)
    assert res.coeffs[0] == pytest.approx(1.0, abs=1e-8)
    assert max(abs(c) for c in res.coeffs[1:]) < 1e-8
    assert res.residual < 1e-8


def test_expand_residual_monotone():
    f = RadialFunction(lambda r: np.exp(-3.0 * r))
    residuals = [expand(f, SPEC31, J).residual for J in (0, 2, 4, 8, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-9


def test_expansion_json_schema():
    res = expand(RadialFunction(lambda r: np.exp(-2.0 * r)), SPEC31, 3)
    obj = res.to_json_obj()
    assert set(obj) == {"p", "q", "J", "coeffs", "residual"}
    assert obj["J"] == 3 and len(obj["coeffs"]) == 4


# -- the inversion operator --------------------------------------------------------


def test_hydrogen_ground_state_sign():
    inv = InversionSpec(3, 1)
    f = RadialFunction(lambda r: np.exp(-2.0 * r))
    Ff = apply_inversion(f, inv, 40)
    err = _l2_distance(Ff, RadialFunction(lambda r: -np.exp(-2.0 * r)), SPEC31)
    assert err <= 1e-6


def test_minimal_ktype_signs():
    # +1 when p-q = 0 mod 4, here (5,1); -1 for (3,1)
    for (p, q), sign in (((5, 1), +1), ((3, 1), -1)):
        spec = ConeSpec(p, q)
        f = _ktype_function(spec)
        Ff = apply_inversion(f, InversionSpec(p, q), 40)
        err = _l2_distance(Ff, RadialFunction(lambda r: sign * f(r)), spec)
        assert err <= 1e-6, (p, q)


def test_involution_and_unitarity():
    cases = [
        (InversionSpec(3, 1), lambda r: np.exp(-2.0 * r)),
        (InversionSpec(3, 1), lambda r: np.exp(-3.0 * r)),
        (InversionSpec(5, 1), lambda r: r * np.exp(-2.0 * r)),
    ]
    for inv, fn in cases:
        spec = ConeSpec(inv.p, inv.q)
        f = RadialFunction(fn)
        F1 = apply_inversion(f, inv, 40)
        F2 = apply_inversion(F1, inv, 40)
        assert _l2_distance(F2, f, spec) <= 2e-6
        n0 = math.sqrt(inner_product(f, f, spec))
        n1 = math.sqrt(inner_product(F1, F1, spec))
        assert abs(n0 - n1) <= 1e-6 * n0


def test_parseval():
    for a in (2.0, 3.0):
        f = RadialFunction(lambda r, a=a: np.exp(-a * r))
        res = expand(f, SPEC31, 24)
        total = float(np.dot(np.array(res.coeffs) ** 2, np.array(res.norms)))
        norm2 = inner_product(f, f, SPEC31)
        assert total == pytest.approx(norm2, rel=1e-6)


def test_inversion_result_carries_consistent_expansion():
    # the returned object stores the signed coefficients, and rebuilding
    # from them reproduces the evaluator
    inv = InversionSpec(3, 1)
    Ff = apply_inversion(RadialFunction(lambda r: np.exp(-3.0 * r)), inv, 24)
    assert Ff.truncation == 24 and len(Ff.coeffs) == 25
    rs = np.linspace(0.05, 6.0, 17)
    B = lambda_basis_table(SPEC31, 24, 2.0 * rs)
    recon = np.asarray(Ff.coeffs) @ B
    assert np.max(np.abs(recon - Ff(rs))) < 1e-12
    # scalar evaluation matches the grid path
    assert Ff(1.0) == pytest.approx(float(Ff(np.array([1.0]))[0]), rel=1e-13)


def test_inversion_rejects_uncaptured_function():
    inv = InversionSpec(3, 1)
    f = RadialFunction(lambda r: np.exp(-0.4 * r))  # slow decay, J=1 insufficient
    with pytest.raises(ValueError):
        apply_inversion(f, inv, 1)


def test_sign_rules_boolean_identities():
    for total in range(4, 13, 2):
        for p in range(1, total):
            q = total - p
            inv = InversionSpec(p, q)
            assert inv.sign(0) ** 2 == 1
            assert (inv.sign(0) == 1) == ((p - q) % 4 == 0)
            if p % 2 == 1 and q % 2 == 1:
                m2, n2 = (p + 1) // 2, (q + 1) // 2
                for j in range(6):
                    assert (inv.sign(j) == 1) == ((n2 - m2 - j) % 2 == 0)


def test_inversion_spec_rejects_odd_total():
    with pytest.raises(ValueError):
        InversionSpec(2, 1)


def test_lambda_basis_table_mano_rows_against_mpmath():
    # odd q with ell >= 1 evaluates the exact Mano coefficients as one
    # array operation per row; reference: the exact polynomial at 50 digits
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(0.05, 60.0, 40)
    for (p, q, jmax, tol) in ((7, 5, 20, 1e-12), (5, 5, 30, 1e-9)):
        mu, nu = p - 2, q - 2
        ell = (nu - 1) // 2
        tab = lambda_basis_table(ConeSpec(p, q), jmax, xs)
        with mp.workdps(50):
            for j in range(jmax + 1):
                coeffs = [(e[0], mp.mpf(c.as_fraction().numerator) / c.as_fraction().denominator)
                          for e, c in mano_exact(mu, ell, j).terms().items()]
                pref = mp.mpf(2) ** mu * mp.gamma(j + mp.mpf(mu + 1) / 2) / mp.gamma(j + mu + 1)
                ref = np.array([
                    float(pref * mp.mpf(x) ** -nu * mp.exp(-x)
                          * mp.fsum(c * (2 * mp.mpf(x)) ** e for e, c in coeffs))
                    for x in xs
                ])
                assert np.max(np.abs(tab[j] - ref)) <= tol * np.max(np.abs(ref))


def test_lambda_basis_table_laguerre_rows_against_mpmath():
    # ell in {-1, 0}: e^{-x} L_j^mu(2x) (times 1/2, or 1/x) with the exact
    # Gamma-ratio prefactor; reference: the three-term Laguerre recurrence
    # and mpmath's Gamma at 50 digits
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(0.02, 120.0, 97)
    jmax = 60
    for (p, q) in ((3, 1), (5, 1), (9, 1), (3, 3), (7, 3), (11, 3)):
        mu = p - 2
        tab = lambda_basis_table(ConeSpec(p, q), jmax, xs)
        ref = np.empty_like(tab)
        with mp.workdps(50):
            for i, x in enumerate(xs):
                x = mp.mpf(x)
                lag = [mp.mpf(1), mu + 1 - 2 * x]
                for k in range(1, jmax):
                    lag.append(((2 * k + 1 + mu - 2 * x) * lag[k] - (k + mu) * lag[k - 1]) / (k + 1))
                xpow = mp.exp(-x) / 2 if q == 1 else mp.exp(-x) / x
                for j in range(jmax + 1):
                    pref = mp.mpf(2) ** mu * mp.gamma(j + mp.mpf(mu + 1) / 2) / mp.gamma(j + mu + 1)
                    ref[j, i] = float(pref * xpow * lag[j])
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(tab - ref) / scale) <= 1e-15, (p, q)
