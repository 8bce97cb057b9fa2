"""kernel-eval: `minrep kernel eval --method both` requests, run in-process
through the CLI entry point with stdout captured.

Mostly the contour quadrature of `kernel` and the formatting of `cli`;
without it the kernel layer goes unmeasured.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random

from common import Outcome, check, raised

NAME = "kernel-eval"
# op_tail_ms percentile: the highest with ten ops beyond it in the fewest
# rounds a run holds, so the percentile does not move with the round count
TAIL_PCT = 95.0
METHOD_TOL = 1e-6  # residue against contour, as in `minrep verify kernel`
CLOSED_TOL = 1e-10  # residue sum against the A1 Bessel closed form
CASES = {
    "A1": ((3, 1), (5, 1), (7, 1), (9, 1), (1, 3), (1, 5), (1, 7)),
    "B1": ((3, 3), (5, 3), (3, 5), (5, 5), (7, 3), (3, 7)),
    "B2": ((2, 2), (4, 2), (2, 4), (4, 4), (6, 2), (2, 6)),
}
# nominal seconds of one round (spawn, timed ops, oracle checks) at the
# reference speed; run.round_count turns --seconds into a round count
ROUND_S = {"full": 4.3, "tiny": 1.0}
SIZES = {"full": {"per_signature": {"A1": 4, "B1": 5, "B2": 5}},
         "tiny": {"per_signature": {"A1": 1, "B1": 1, "B2": 1}, "signatures": 1}}
T_BANDS = ((0.05, 1.0), (1.0, 2.0), (2.0, 3.0))


def generate(seed: int, scale: str) -> list:
    size = SIZES[scale]
    rng = random.Random(f"{NAME}:{seed}")
    ops = []
    for case, sigs in CASES.items():
        for p, q in sigs[: size.get("signatures", len(sigs))]:
            for _ in range(size["per_signature"][case]):
                # one point per band, so every request costs about the same
                ts = [round(rng.uniform(lo, hi), 6) for lo, hi in T_BANDS]
                if case == "B2":
                    # one point of every B2 request lies on the negative axis
                    k = rng.randrange(len(ts))
                    ts[k] = -ts[k]
                ops.append({"kind": case, "p": p, "q": q, "ts": ts})
    rng.shuffle(ops)
    return ops


def argv(op: dict) -> list:
    return ["kernel", "eval", "--p", str(op["p"]), "--q", str(op["q"]),
            "--t", *[repr(t) for t in op["ts"]], "--method", "both"]


def properties(ops: list) -> dict:
    kinds = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    ts = [t for op in ops for t in op["ts"]]
    return {"ops_by_case": kinds, "points": len(ts),
            "negative_t_share": sum(t < 0 for t in ts) / len(ts) if ts else 0.0}


def references(ops: list) -> list:
    """A1 closed form PhiHat^{p,q}(t) = Jt_m(2 sqrt(2t)), Jt_m(z) = (z/2)^{-m} J_m(z)."""
    from scipy import special as sps

    refs = []
    for op in ops:
        if op["kind"] != "A1":
            refs.append(None)
            continue
        m = (op["p"] + op["q"] - 4) // 2
        vals = []
        for t in op["ts"]:
            z = 2.0 * (2.0 * t) ** 0.5
            vals.append(float((z / 2.0) ** (-m) * sps.jv(m, z)))
        refs.append(vals)
    return refs


def run(op: dict):
    from minrep import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv(op))
    return code, buf.getvalue()


def verify(op: dict, result, ref, tamper: bool = False) -> Outcome:
    if isinstance(result, Exception):
        return raised(result)
    code, text = result
    if code != 0:
        return Outcome(False, None, f"exit status {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    by_method = {"residue": {}, "contour": {}}
    for row in rows:
        by_method[row["method"]][float(row["t"])] = float(row["value"])
    errs, closed = [], []
    for i, t in enumerate(op["ts"]):
        r, c = by_method["residue"].get(t), by_method["contour"].get(t)
        if r is None or c is None:
            return Outcome(False, None, f"no value for t = {t}")
        if tamper and i == 0:
            r *= 1.0 + 1e-5
        scale = max(abs(r), abs(c))
        errs.append(abs(r - c) / scale if scale else 0.0)
        if ref is not None:
            closed.append(abs(r - ref[i]) / abs(ref[i]))
    out = check(errs, METHOD_TOL)
    if closed:
        closed_out = check(closed, CLOSED_TOL)
        if not closed_out.ok:
            return closed_out
        out.digits = min(out.digits, closed_out.digits)
    return out
