import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from minrep.kernel import (
    ContourSpec,
    KernelCase,
    b_eval,
    classification_report,
    classify,
    phi_eval,
    phi_eval_detailed,
    singular_part,
    tabulate,
    _integrate_segments,
    _leggauss,
)


# -- classification -----------------------------------------------------------


def test_classify_examples():
    case, integ, sing = classify(3, 1)
    assert case is KernelCase.A1 and integ and sing.kind == "none"

    case, integ, sing = classify(2, 2)
    assert case is KernelCase.B2 and integ and sing.kind == "none" and not sing.terms

    case, integ, sing = classify(5, 3)
    assert case is KernelCase.B1 and not integ
    assert sing.kind == "delta_derivatives"
    assert [(t.l, t.coeff) for t in sing.terms] == [
        (0, Fraction(1)),
        (1, Fraction(-1, 2)),
    ]


def test_classify_odd_total_rejected():
    with pytest.raises(ValueError):
        classify(4, 3)
    with pytest.raises(ValueError):
        classify(1, 2)


def _integrable_oracle(p, q):
    # the conformal algebras with integrable kernel: o(p+1,2), o(2,q+1), o(3,3)
    return q == 1 or p == 1 or (p, q) == (2, 2)


def test_classification_table_matches_oracle():
    for total in range(4, 13, 2):
        for p in range(1, total):
            q = total - p
            _, integ, _ = classify(p, q)
            assert integ == _integrable_oracle(p, q), (p, q)


def test_singular_parts_exact_up_to_m4():
    # B1 rows carry (-1)^l / (2^l (m-l-1)!), B2 rows l! / (2^l (m-l-1)!)
    for p, q in ((5, 3), (7, 3), (7, 5), (4, 4), (6, 4), (8, 4), (6, 6)):
        m = (p + q - 4) // 2
        sing = singular_part(p, q)
        assert len(sing.terms) == m
        assert sing.constant == "UNKNOWN"
        for term in sing.terms:
            if sing.kind == "delta_derivatives":
                want = Fraction((-1) ** term.l, 2**term.l * math.factorial(m - term.l - 1))
            else:
                want = Fraction(
                    math.factorial(term.l), 2**term.l * math.factorial(m - term.l - 1)
                )
            assert term.coeff == want


def test_singular_part_b2_normalized_head():
    # (4,4): m=2, power terms 1 and 1/2 relative to the l=0 normalization
    sing = singular_part(4, 4)
    assert sing.kind == "negative_powers"
    head = sing.terms[0].coeff
    rel = [t.coeff / head for t in sing.terms]
    assert rel == [Fraction(1), Fraction(1, 2)]


def test_classification_report_schema():
    rep = classification_report(5, 3)
    assert set(rep) == {"p", "q", "case", "m", "locally_integrable", "singular_terms"}
    assert rep["case"] == "B1" and rep["m"] == 2
    assert rep["singular_terms"][1] == {
        "kind": "delta_derivatives",
        "l": 1,
        "coeff_num": -1,
        "coeff_den": 2,
    }


# -- the meromorphic factor -----------------------------------------------------


def test_b_eval_half_integer_value():
    # Gamma(-1/2)/Gamma(3/2) * 1 = (-2 sqrtpi)/(sqrtpi/2) = -4
    v = b_eval(0.5, 0.5, 2, 2)
    assert v.real == pytest.approx(-4.0, rel=1e-12)
    assert abs(v.imag) < 1e-12


def test_b_eval_riesz_vanishes_for_negative_t():
    assert b_eval(1.7 + 2j, -3.0, 3, 3) == 0j


def test_b_eval_pole_rejected():
    with pytest.raises(ValueError):
        b_eval(2.0, 1.0, 3, 3)
    b_eval(2.0, -1.0, 3, 3)  # not a pole when the Riesz factor vanishes
    with pytest.raises(ValueError):
        b_eval(0.5, 0.0, 3, 3)


def test_b_eval_array_matches_scalar_calls():
    lam = np.array([[0.25 + 3.0j, -1.5 - 0.5j], [4.75 + 1e3j, -2.5 + 0.0j]])
    for t, p, q in ((0.7, 3, 3), (2.5, 4, 2), (-1.2, 5, 1)):
        got = b_eval(lam, t, p, q)
        assert got.shape == lam.shape
        for z, v in zip(lam.ravel(), got.ravel()):
            ref = b_eval(complex(z), t, p, q)
            assert type(ref) is complex
            assert abs(v - ref) <= 2e-16 * abs(ref)
    with pytest.raises(ValueError, match="pole"):
        b_eval(np.array([0.5 + 1j, 3.0, -0.5]), 1.0, 3, 3)


def test_integrate_segments_depth_cap_raises():
    # a kink that no panel resolves at tol 0 must not return the last estimate
    calls = []

    def kinked(z):
        calls.append(z.shape)
        return np.abs(z - 1.0 / 3.0)

    with pytest.raises(ArithmeticError, match="depth 24"):
        _integrate_segments(kinked, [0.0], [1.0], 0.0, _leggauss(24))
    assert len(calls) == 25  # one call per level, depths 0..24


def test_integrate_segments_polynomial_exact_at_depth_0():
    calls = []

    def poly(z):
        calls.append(z.shape)
        return z**7 - 2j * z**3 + 1.0

    a, b = np.array([0.0, 1.0 + 1.0j]), np.array([2.0, -1.0 + 3.0j])
    got = _integrate_segments(poly, a, b, 1e-9, _leggauss(24))
    prim = lambda z: z**8 / 8 - 0.5j * z**4 + z
    np.testing.assert_allclose(got, prim(b) - prim(a), rtol=1e-14)
    assert calls == [(6, 24)]  # both halves and the whole of both segments, once


def test_b_eval_stirling_decay_exponent():
    # |b(gamma+is,t)| ~ |s|^(-2 gamma - (p+q)/2 + 1): slope check at 1e3 vs 1e4
    for (p, q, g) in ((3, 3, 0.75), (4, 2, 1.5), (3, 1, 0.25)):
        expected = -2 * g - (p + q) / 2 + 1
        ratio = abs(b_eval(complex(g, 1e4), 1.0, p, q)) / abs(
            b_eval(complex(g, 1e3), 1.0, p, q)
        )
        assert math.log10(ratio) == pytest.approx(expected, abs=0.01)


# -- pointwise kernel values ------------------------------------------------------


def test_phi_a1_is_renormalized_bessel():
    for t in (0.05, 0.5, 1.0, 2.0, 10.0):
        ref = float(sps.jv(0, 2.0 * math.sqrt(2.0 * t)))
        assert phi_eval(3, 1, t) == pytest.approx(ref, rel=1e-10)
    for p in (5, 7):
        m = (p - 3) // 2
        for t in (0.4, 1.7):
            w = 2.0 * math.sqrt(2.0 * t)
            ref = float(sps.jv(m, w)) * (w / 2.0) ** (-m)
            assert phi_eval(p, 1, t) == pytest.approx(ref, rel=1e-10)


def test_phi_vanishes_for_negative_t_outside_b2():
    assert phi_eval(3, 1, -0.7) == 0.0
    assert phi_eval(5, 3, -2.0) == 0.0
    assert phi_eval(3, 1, -0.7, "contour") == 0.0


def test_phi_zero_t_rejected():
    with pytest.raises(ValueError):
        phi_eval(3, 3, 0.0)


@pytest.mark.parametrize("p,q", [(3, 1), (5, 1), (3, 3), (5, 3), (4, 2), (4, 4)])
def test_residue_vs_contour(p, q):
    ts = [0.1, 0.5, 1.0, 2.0]
    if classify(p, q)[0] is KernelCase.B2:
        ts += [-0.1, -0.5, -1.0, -2.0]
    for t in ts:
        r = phi_eval(p, q, t, "residue")
        c = phi_eval(p, q, t, "contour")
        if r == 0.0 and c == 0.0:
            continue
        assert abs(r - c) / max(abs(r), abs(c)) < 1e-6, (p, q, t)


def test_b2_small_t_blowup_rate():
    ts = np.geomspace(1e-4, 1e-2, 9)
    vals = np.array([abs(phi_eval(4, 4, float(t))) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_contour_independence():
    base = phi_eval_detailed(5, 3, 0.7, "contour")
    moved = phi_eval_detailed(
        5, 3, 0.7, "contour", contour=ContourSpec(gamma=4.85, crossing=-2.5)
    )
    moved2 = phi_eval_detailed(
        5, 3, 0.7, "contour", contour=ContourSpec(gamma=3.6, crossing=-2.2, h=0.8)
    )
    moved3 = phi_eval_detailed(
        5, 3, 0.7, "contour",
        contour=ContourSpec(gamma=3.6, crossing=-2.5, gl_order=32),
    )
    assert abs(base.value - moved.value) <= base.est_error + moved.est_error
    assert abs(base.value - moved2.value) <= base.est_error + moved2.est_error
    assert abs(base.value - moved3.value) <= base.est_error + moved3.est_error


def test_contour_crossing_validated():
    with pytest.raises(ValueError):
        phi_eval_detailed(
            5, 3, 0.7, "contour", contour=ContourSpec(gamma=4.0, crossing=-0.5)
        )
    with pytest.raises(ValueError):
        ContourSpec(gamma=-2.0, crossing=-0.5)


def test_tabulate_rows():
    rows = tabulate(3, 1, [0.5, 1.0], method="residue")
    assert [r.t for r in rows] == [0.5, 1.0]
    assert rows[0].method == "residue"
    assert rows[0].est_error >= 0.0


def test_residue_vs_contour_extended_range():
    # beyond the standard grid: larger |t| and the m = 4 signatures, where
    # |(2t)^lambda| near the crossing dwarfs the kernel value and the
    # quadrature tolerances must follow the integrand scale
    for p, q in ((7, 5), (6, 6)):
        ts = [0.05, 3.0, 8.0]
        if classify(p, q)[0] is KernelCase.B2:
            ts += [-3.0, -8.0]
        for t in ts:
            r = phi_eval(p, q, t, "residue")
            c = phi_eval(p, q, t, "contour")
            if r == 0.0 and c == 0.0:
                continue
            assert abs(r - c) / max(abs(r), abs(c)) < 1e-6, (p, q, t)


def test_residue_nonconvergence_is_diagnosed():
    # far outside the perturbative range the series must fail loudly,
    # carrying the state it reached, rather than return garbage
    with pytest.raises(ArithmeticError, match="did not converge"):
        phi_eval(3, 1, 1e9)
