"""exact-sweep: cold exact Mano polynomials with their eigen check, and
commutation of the fundamental operators on the cone.

Mostly the `algebra` and `diffop` layers.  The (mu, ell, order) keys drawn
here outnumber the 64 entries of the Mano series cache across seeds, and
every round starts in a fresh process, so cache policy and the Polynomial
hot path both show in wall_s.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from common import Outcome, raised

NAME = "exact-sweep"
# op_tail_ms percentile: the highest with ten ops beyond it in the fewest
# rounds a run holds, so the percentile does not move with the round count
TAIL_PCT = 95.0
MUS = (1, 3, 5, 7, 9)
ELLS = (-1, 0, 1, 2)
SIGNATURES = ((2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2), (3, 3))

# (j values, ops per value) per size band; the widest band draws one j
# from each pair so the heavy tail costs the same for every seed
_BANDS_FULL = [([(j,) for j in range(0, 11)], 2), ([(j,) for j in range(11, 21)], 5),
               ([(j, j + 1) for j in range(21, 33, 2)], 1)]
_BANDS_TINY = [([(2,), (5,)], 1), ([(12,)], 1)]
# nominal seconds of one round (spawn, timed ops, oracle checks) at the
# reference speed; run.round_count turns --seconds into a round count
ROUND_S = {"full": 6.0, "tiny": 1.0}
SIZES = {
    "full": {"bands": _BANDS_FULL, "repeats": 16, "commute_per_degree": 24},
    "tiny": {"bands": _BANDS_TINY, "repeats": 1, "commute_per_degree": 1},
}


def _order(j: int) -> int:
    # the key the Mano series cache uses for a given j
    return 10 if j <= 10 else j


def generate(seed: int, scale: str) -> list:
    size = SIZES[scale]
    rng = random.Random(f"{NAME}:{seed}")
    mano = []
    for choices, per in size["bands"]:
        js = [rng.choice(c) for c in choices for _ in range(per)]
        ells = [ELLS[i % len(ELLS)] for i in range(len(js))]
        rng.shuffle(ells)
        _one_laurent_j0(js, ells)
        # mu cycles through a shuffled MUS within each (order, ell) group, so
        # a round holds the same number of distinct cache keys for every seed
        groups: dict = {}
        for i, (j, ell) in enumerate(zip(js, ells)):
            groups.setdefault((_order(j), ell), []).append(i)
        mus = [0] * len(js)
        for idx in groups.values():
            cycle = rng.sample(MUS, len(MUS))
            for k, i in enumerate(idx):
                mus[i] = cycle[k % len(cycle)]
        for j, ell, mu in zip(js, ells, mus):
            mano.append({"kind": "mano", "mu": mu, "ell": ell, "j": j})
    commute = []
    for degree in range(1, 6):
        sigs = [SIGNATURES[i % len(SIGNATURES)] for i in range(size["commute_per_degree"])]
        for p, q in sigs:
            n = p + q
            exps = [0] * n
            for _ in range(degree):
                exps[rng.randrange(n)] += 1
            a, b = rng.sample(range(1, n + 1), 2)
            commute.append({"kind": "commute", "p": p, "q": q, "a": a, "b": b, "exps": exps})
    ops = mano + commute
    rng.shuffle(ops)
    # every fourth repeat is of an op that hits the apply_P defect, as one
    # ell in four is -1, so the number of failing ops is the same for every seed
    for k in range(size["repeats"]):
        defect = k % len(ELLS) == 0
        sources = [i for i, o in enumerate(ops) if o["kind"] == "mano" and _laurent(o) == defect]
        src = rng.choice(sources)
        ops.insert(rng.randrange(src + 1, len(ops) + 1), dict(ops[src]))
    return ops


def _laurent(op: dict) -> bool:
    # a Laurent M_j^{mu,-1} with j >= 1, on which apply_P raises (known defect)
    return op["ell"] == -1 and op["j"] >= 1


def _one_laurent_j0(js: list, ells: list) -> None:
    """Swap ells so that exactly one j = 0 op of a band has ell = -1.

    M_0^{mu,-1} passes the eigen check while every other ell = -1 op fails,
    so without this the number of failing ops would move with the seed.
    """
    zeros = [i for i, j in enumerate(js) if j == 0]
    if not zeros or -1 not in ells:
        return
    hit = [i for i in zeros if ells[i] == -1]
    if not hit:
        k = next(i for i, e in enumerate(ells) if e == -1)
        ells[zeros[0]], ells[k] = ells[k], ells[zeros[0]]
    for i in hit[1:]:
        k = next(k for k, e in enumerate(ells) if e != -1 and js[k] != 0)
        ells[i], ells[k] = ells[k], ells[i]


def properties(ops: list) -> dict:
    seen_pair, seen_key = set(), set()
    hits_pair = hits_key = n = 0
    for op in ops:
        if op["kind"] != "mano":
            continue
        n += 1
        pair = (op["mu"], op["ell"])
        key = pair + (_order(op["j"]),)
        hits_pair += pair in seen_pair
        hits_key += key in seen_key
        seen_pair.add(pair)
        seen_key.add(key)
    return {
        "mano_ops": n,
        "commute_ops": len(ops) - n,
        "seen_mu_ell_share": hits_pair / n if n else 0.0,
        "seen_mu_ell_order_share": hits_key / n if n else 0.0,
        "distinct_mu_ell_order_keys": len(seen_key),
    }


def references(ops: list) -> list:
    # every oracle here is an exact identity; nothing to precompute
    return [None] * len(ops)


def run(op: dict):
    from minrep import algebra, cone, diffop, specfun

    if op["kind"] == "mano":
        m = specfun.mano_exact(op["mu"], op["ell"], op["j"])
        return m, diffop.apply_P(op["mu"], op["ell"], m)
    spec = cone.ConeSpec(op["p"], op["q"])
    mono = algebra.Polynomial.monomial(tuple(op["exps"]), 1, spec.variables)
    a, b = op["a"], op["b"]
    ab = diffop.fundamental_R(a, diffop.fundamental_R(b, mono, spec), spec)
    ba = diffop.fundamental_R(b, diffop.fundamental_R(a, mono, spec), spec)
    return ab, ba


def verify(op: dict, result, ref, tamper: bool = False) -> Outcome:
    if isinstance(result, Exception):
        out = raised(result)
        # apply_P cannot divide R_{mu,-1} R_{0,-1} M by x^2 for Laurent M_j^{mu,-1}
        if (op["kind"] == "mano" and _laurent(op)
                and type(result).__name__ == "ExactnessError"):
            out.known_defect = "apply_P-laurent"
        return out
    if op["kind"] == "commute":
        ab, ba = result
        ok = (ab == ba) != tamper
        return Outcome(ok, 16.0 if ok else 0.0, None if ok else "R_a R_b m != R_b R_a m")
    mu, ell, j = op["mu"], op["ell"], op["j"]
    m, pm = result
    eigen = j * (j + mu + 1) + (1 if tamper else 0)
    if pm != m * eigen:
        return Outcome(False, 0.0, f"P M != {eigen} M")
    terms = m.terms()
    top = max(terms, key=lambda e: e[0])
    want = Fraction((-1) ** j, math.factorial(j))
    if top != (j + ell,) or terms[top].as_fraction() != want:
        return Outcome(False, 0.0, f"top term {terms[top]} x^{top[0]} != {want} x^{j + ell}")
    return Outcome(True, 16.0)
