"""cauchy-tables: the numeric (Cauchy-extraction) route to the Mano and
Lambda families, with no exact algebra in the timed path.

Mostly the complex-argument internals of `bessel` and the Cauchy engine of
`specfun`.  The Mano family is used here by the numeric route and in
exact-sweep by the exact route, so a gain for one route that costs the
other shows on one of the two.
"""

from __future__ import annotations

import math
import random

import numpy as np

from common import Outcome, check, raised

NAME = "cauchy-tables"
# op_tail_ms percentile.  The 27 seeded odd-nu tables (4-6 ms each) are 77 %
# of the ops.  p75 sits on the upper edge of that cluster, where one slow
# table moved it by a third (spread 0.156 over ten seeds), and p90 falls
# among the genfun and eval ops, whose cost moves with their seeded j.  p50,
# inside the cluster, is the highest percentile that stays put.
TAIL_PCT = 50.0
TOL = 1e-9  # the documented agreement of the exact and Cauchy routes
GRAM_TOL = 1e-8
ODD_MUS = (1, 3, 5, 7)
EVEN_PAIRS = ((2, 0), (2, 2), (4, 0), (4, 2), (4, 4), (6, 0), (6, 2), (6, 4))
# lambda_gram costs the same (about 4 s at J = 6) on these pairs; (0,0),
# (2,0) and (2,2) need a third pass and cost twice as much
GRAM_PAIRS = ((4, 0), (4, 2), (4, 4), (6, 0), (6, 2), (6, 4))
DEFECT_TABLE = {"mu": 3, "nu": 1, "jmax": 40}

# nominal seconds of one round (spawn, timed ops, oracle checks) at the
# reference speed; run.round_count turns --seconds into a round count
ROUND_S = {"full": 5.5, "tiny": 1.0}
SIZES = {
    "full": {"gram": 1, "genfun": 2, "eval": 2, "odd_tables": 27, "odd_points": 16,
             "defect_points": 64, "even_tables": 2, "even_points": 8},
    "tiny": {"gram": 0, "genfun": 1, "eval": 2, "odd_tables": 1, "odd_points": 4,
             "defect_points": 4, "even_tables": 1, "even_points": 2},
}


def _x(rng: random.Random, high: bool) -> float:
    # half of all points lie above x = 30, half in (0.5, 30]
    return rng.uniform(30.0, 60.0) if high else rng.uniform(0.5, 30.0)


def _grid(rng: random.Random, n: int) -> list:
    return sorted(_x(rng, i % 2 == 1) for i in range(n))


def _j(rng: random.Random, band: int) -> int:
    return rng.randint(4, 10) if band == 0 else rng.randint(11, 16)


def generate(seed: int, scale: str) -> list:
    size = SIZES[scale]
    rng = random.Random(f"{NAME}:{seed}")
    ops = []
    for _ in range(size["gram"]):
        mu, nu = rng.choice(GRAM_PAIRS)
        ops.append({"kind": "gram", "mu": mu, "nu": nu, "jmax": 6})
    for i in range(size["genfun"]):
        ops.append({"kind": "genfun", "mu": rng.choice((1, 3, 5, 7, 9)),
                    "ell": rng.choice((-1, 0, 1, 2)), "j": _j(rng, i % 2),
                    "x": _x(rng, i % 2 == 1)})
    bands = [0, 1]
    rng.shuffle(bands)
    for i in range(size["eval"]):
        mu, nu = (rng.choice(ODD_MUS), 1) if i % 2 == 0 else rng.choice(EVEN_PAIRS)
        ops.append({"kind": "eval", "mu": mu, "nu": nu, "j": _j(rng, bands[i % 2]),
                    "x": _x(rng, bands[i % 2] == 1)})
    # a fixed grid: the digits this op loses set accuracy_digits, and on
    # seeded grids they move by a factor of 10 with where the points fall
    n = size["defect_points"]
    ops.append({"kind": "table", **DEFECT_TABLE,
                "xs": [0.5 + 59.5 * i / (n - 1) for i in range(n)]})
    n = size["odd_tables"]
    mus = [ODD_MUS[i % len(ODD_MUS)] for i in range(n)]
    # 10..16, spread evenly: rows above 16 miss the tolerance on some grids
    # and not on others (the fixed-rho defect), which would make the number
    # of failing ops depend on the seed; the fixed-grid table above carries
    # that defect on every seed
    jmaxes = [10 + (6 * i) // max(1, n - 1) for i in range(n)]
    rng.shuffle(mus)
    rng.shuffle(jmaxes)
    for mu, jmax in zip(mus, jmaxes):
        ops.append({"kind": "table", "mu": mu, "nu": 1, "jmax": jmax,
                    "xs": _grid(rng, size["odd_points"])})
    n = size["even_tables"]
    pairs = rng.sample(EVEN_PAIRS, n)
    jmaxes = [8 + (8 * i) // max(1, n - 1) for i in range(n)]  # 8..16, spread evenly
    rng.shuffle(jmaxes)
    for (mu, nu), jmax in zip(pairs, jmaxes):
        ops.append({"kind": "table", "mu": mu, "nu": nu, "jmax": jmax,
                    "xs": _grid(rng, size["even_points"])})
    rng.shuffle(ops)
    return ops


def _points(op: dict) -> list:
    return op["xs"] if op["kind"] == "table" else [op["x"]] if "x" in op else []


def properties(ops: list) -> dict:
    xs = [x for op in ops for x in _points(op)]
    kinds = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    return {"ops_by_kind": kinds, "points": len(xs),
            "x_gt_30_share": sum(x > 30.0 for x in xs) / len(xs) if xs else 0.0}


# -- independent reference values (no minrep import) --------------------------


def laguerre_lambda(mu: int, j: int, xs) -> np.ndarray:
    """Odd-nu elementary route for nu = 1:
    Lam_j^{mu,1}(x) = 2^mu Gamma(j+(mu+1)/2)/Gamma(j+mu+1) e^{-x}/x L_j^mu(2x)."""
    from scipy import special as sps

    xs = np.asarray(xs, dtype=float)
    pref = math.exp(mu * math.log(2.0) + math.lgamma(j + (mu + 1) / 2.0) - math.lgamma(j + mu + 1.0))
    return pref * np.exp(-xs) / xs * sps.eval_genlaguerre(j, mu, 2.0 * xs)


def series_lambda(mu: int, nu: int, jmax: int, x: float, dps: int = 60) -> list:
    """Lam_0..Lam_jmax at x from the Taylor series of the generating function
    (1-t)^{-(mu+nu+2)/2} It_{mu/2}(t x/(1-t)) Kt_{nu/2}(x/(1-t)) in mpmath.

    Kt_{nu/2}(x/(1-t)) is expanded in w = z^2/2 around x^2/2 with
    (d/dw)^n z^{-b} K_b(z) = (-1)^n z^{-b-n} K_{b+n}(z), and the K_{b+n}(x)
    come from the upward recurrence; no Cauchy circle and no complex Bessel
    function is involved.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(x)
        a, b = mp.mpf(mu) / 2, mp.mpf(nu) / 2
        n_terms = jmax + 1

        def mul(p, q):
            out = [mp.mpf(0)] * n_terms
            for i, pi in enumerate(p):
                if pi:
                    for k in range(n_terms - i):
                        out[i + k] += pi * q[k]
            return out

        def power_sum(coef, step):
            acc, pw = [mp.mpf(0)] * n_terms, [mp.mpf(1)] + [mp.mpf(0)] * jmax
            for c in coef:
                acc = [s + c * p for s, p in zip(acc, pw)]
                pw = mul(pw, step)
            return acc

        c = (mp.mpf(mu) + nu + 2) / 2
        binom = [mp.rf(c, m) / mp.factorial(m) for m in range(n_terms)]
        u = [mp.mpf(0)] + [mp.mpf(1)] * jmax  # t/(1-t)
        i_coef = [x ** (2 * k) / (4**k * mp.factorial(k) * mp.gamma(k + a + 1))
                  for k in range(n_terms // 2 + 1)]
        i_part = power_sum(i_coef, mul(u, u))
        kv = [mp.besselk(b, x), mp.besselk(b + 1, x)]
        for n in range(1, n_terms):
            kv.append(kv[n - 1] + 2 * (b + n) / x * kv[n])
        k_coef = [(-1) ** n * 2**b * x ** (-b - n) * kv[n] / mp.factorial(n) for n in range(n_terms)]
        dw = [mp.mpf(0)] + [x * x / 2 * (m + 1) for m in range(1, n_terms)]
        k_part = power_sum(k_coef, dw)
        return [float(g) for g in mul(mul(binom, i_part), k_part)]


def references(ops: list) -> list:
    refs = []
    for op in ops:
        kind, mu, nu = op["kind"], op.get("mu"), op.get("nu")
        if kind == "table" and nu % 2 == 1:
            refs.append({"rows": [laguerre_lambda(mu, j, op["xs"]).tolist()
                                  for j in range(op["jmax"] + 1)]})
        elif kind == "table":
            # mpmath on a subsample, every j: the first grid point, where the
            # rows are largest (the series costs about 1 s at x near 30)
            idx = [0]
            refs.append({"index": idx,
                         "cols": [series_lambda(mu, nu, op["jmax"], op["xs"][k]) for k in idx]})
        elif kind == "eval" and nu % 2 == 1:
            js = range(max(0, op["j"] - 1), op["j"] + 2)
            refs.append({"near": [float(laguerre_lambda(mu, i, [op["x"]])[0]) for i in js]})
        elif kind == "eval":
            col = series_lambda(mu, nu, op["j"] + 1, op["x"])
            refs.append({"near": col[max(0, op["j"] - 1):]})
        else:
            refs.append(None)
    return refs


# -- timed ops and their checks ---------------------------------------------------


def run(op: dict):
    from minrep import specfun

    kind = op["kind"]
    if kind == "gram":
        return specfun.lambda_gram(op["mu"], op["nu"], op["jmax"])
    if kind == "genfun":
        return specfun.mano_genfun(op["mu"], op["ell"], op["j"], op["x"])
    if kind == "eval":
        return specfun.lambda_eval(op["mu"], op["nu"], op["j"], op["x"], method="cauchy")
    return specfun.lambda_table(op["mu"], op["nu"], op["jmax"], np.array(op["xs"]))


def _near_err(got: float, near: list, want: float, bump: float) -> float:
    # relative to the local envelope |Lam_{j-1..j+1}(x)|, so a point close
    # to a zero of Lam_j in x does not read as a lost digit
    return abs(got - want * bump) / max(abs(v) for v in near)


def verify(op: dict, result, ref, tamper: bool = False) -> Outcome:
    if isinstance(result, Exception):
        return raised(result)
    bump = 1.0 + 1e-6 if tamper else 1.0
    kind = op["kind"]
    if kind == "gram":
        g = np.asarray(result, dtype=float)
        scale = float(np.max(np.abs(np.diag(g))))
        off = g - np.diag(np.diag(g))
        worst = float(np.max(np.abs(off))) / scale
        if tamper:
            worst += 1e-6
        return check([worst], GRAM_TOL)
    if kind == "genfun":
        from fractions import Fraction

        from minrep import specfun

        x = Fraction(op["x"])
        js = range(max(0, op["j"] - 1), op["j"] + 2)
        near = [float(specfun.mano_exact(op["mu"], op["ell"], i).evaluate({"x": x})) for i in js]
        want = near[list(js).index(op["j"])]
        return check([_near_err(result, near, want, bump)], TOL)
    if kind == "eval":
        near = ref["near"]
        want = near[min(op["j"], 1)]
        return check([_near_err(result, near, want, bump)], TOL)
    tab = np.asarray(result)
    if "rows" in ref:
        errs = []
        for j, row in enumerate(ref["rows"]):
            want = np.asarray(row) * bump
            errs.append(float(np.max(np.abs(tab[j] - want)) / np.max(np.abs(want))))
        out = check(errs, TOL)
        bad = [j for j, e in enumerate(errs) if e > TOL]
        if bad:
            out.error += f"; rows over tolerance: {bad}"
            # the fixed Cauchy radius rho = 0.5 of lambda_table loses digits
            # with j; rows up to j = 16 meet the tolerance on every grid
            if min(bad) > 16:
                out.known_defect = "lambda_table-fixed-rho"
        return out
    want = np.array(ref["cols"]).T * bump  # (jmax+1, subsample)
    got = tab[:, ref["index"]]
    # relative to the local envelope |Lam_{j-1..j+1}| on the subsample, as in
    # _near_err, so a grid point close to a zero of Lam_j does not read as a
    # lost digit
    mag = np.max(np.abs(want), axis=1)
    scale = np.array([np.max(mag[max(0, j - 1):j + 2]) for j in range(len(mag))])
    return check((np.max(np.abs(got - want), axis=1) / scale).tolist(), TOL)
