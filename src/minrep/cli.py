"""Command-line frontend.

Commands
--------
mano       coefficient table of a Mano polynomial (CSV or JSON)
laguerre   coefficient table of a generalized Laguerre polynomial
lambda     tabulate Lam_j^{mu,nu} on an x-grid (CSV)
kernel     eval | classify | singular for the inversion kernel
invert     apply the radial inversion operator to sampled data (CSV in/out)
table      tabulate a renormalized Bessel function or the minimal
           isotypic vector (CSV)
verify     run a named verification suite; one report line per check

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
Output is buffered and written only when the command returns, so a
command that fails with exit code 2 leaves stdout empty.
All commands are deterministic: fixed summation orders and node
schedules make identical invocations produce byte-identical output.
CSV output is comma-separated with a header row, UTF-8, LF line endings;
JSON uses stable (sorted) key order.  Floats are printed with 17
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import bessel, kernel, radial, specfun, verify
from .cone import ConeSpec
from .radial import InversionSpec, RadialFunction

__all__ = ["main"]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _coeff_rows(poly) -> list:
    rows = []
    for exps, c in sorted(poly.terms().items()):
        frac = c.as_fraction()
        rows.append((exps[0], frac.numerator, frac.denominator))
    return rows


def _emit_coeff_table(poly, fmt: str, out) -> None:
    rows = _coeff_rows(poly)
    if fmt == "csv":
        w = _csv_writer(out)
        w.writerow(["k", "numerator", "denominator"])
        for k, num, den in rows:
            w.writerow([k, num, den])
    else:
        payload = [
            {"k": k, "numerator": num, "denominator": den} for k, num, den in rows
        ]
        out.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_mano(args, out) -> int:
    poly = specfun.mano_exact(args.mu, args.ell, args.j)
    _emit_coeff_table(poly, args.format, out)
    return 0


def _cmd_laguerre(args, out) -> int:
    poly = specfun.laguerre(args.j, args.mu)
    _emit_coeff_table(poly, args.format, out)
    return 0


def _grid_from_args(args, values: str = "x") -> list:
    """Explicit `--<values>` points, else `--count` equispaced points on [min, max]."""
    explicit = getattr(args, values)
    if explicit is not None:
        return [float(v) for v in explicit]
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.count == 1:
        return [args.min]
    step = (args.max - args.min) / (args.count - 1)
    return [args.min + i * step for i in range(args.count)]


def _cmd_lambda(args, out) -> int:
    xs = _grid_from_args(args)
    if any(x <= 0 for x in xs):
        raise ValueError("lambda tabulation needs x > 0")
    w = _csv_writer(out)
    w.writerow(["x", "value"])
    tab = specfun.lambda_table(args.mu, args.nu, args.j, np.array(xs), refine=True)
    for x, v in zip(xs, tab[args.j]):
        w.writerow([_fmt(x), _fmt(v)])
    return 0


def _cmd_kernel(args, out) -> int:
    if args.kernel_cmd == "classify":
        out.write(json.dumps(kernel.classification_report(args.p, args.q), sort_keys=True) + "\n")
        return 0
    if args.kernel_cmd == "singular":
        report = kernel.classification_report(args.p, args.q)
        sing = kernel.singular_part(args.p, args.q)
        payload = {
            "p": args.p,
            "q": args.q,
            "m": report["m"],
            "kind": sing.kind,
            "constant": sing.constant,
            "terms": [
                {"l": t.l, "coeff_num": t.coeff.numerator, "coeff_den": t.coeff.denominator}
                for t in sing.terms
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return 0
    # eval
    ts = _grid_from_args(args, "t")
    methods = ["residue", "contour"] if args.method == "both" else [args.method]
    w = _csv_writer(out)
    w.writerow(["t", "value", "method", "est_error"])
    for method in methods:
        for kv in kernel.tabulate(args.p, args.q, ts, method=method):
            w.writerow([_fmt(kv.t), _fmt(kv.value), kv.method, _fmt(kv.est_error)])
    return 0


def _cmd_invert(args, out) -> int:
    if args.input == "-":
        rows = list(csv.reader(sys.stdin))
    else:
        with open(args.input, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty input table")
    body = rows[1:] if not _is_number(rows[0][0]) else rows
    rs = np.array([float(r[0]) for r in body])
    fs = np.array([float(r[1]) for r in body])
    if np.any(np.diff(rs) <= 0):
        raise ValueError("sample radii must be strictly increasing")
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(rs, fs, extrapolate=False)

    def evaluator(r):
        r = np.asarray(r, dtype=float)
        vals = interp(np.clip(r, rs[0], rs[-1]))
        vals = np.where(r > rs[-1], 0.0, vals)
        return np.nan_to_num(vals)

    inv = InversionSpec(args.p, args.q)
    Ff = radial.apply_inversion(
        RadialFunction(evaluator), inv, args.max_j, tol=args.tol,
        upper=min(30.0, float(rs[-1])),
    )
    vals = Ff(rs)
    w = _csv_writer(out)
    w.writerow(["r", "Ff"])
    for r, v in zip(rs, vals):
        w.writerow([_fmt(r), _fmt(v)])
    return 0


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_table(args, out) -> int:
    xs = _grid_from_args(args)
    w = _csv_writer(out)
    w.writerow(["x", "value"])
    if args.function == "minimal-ktype":
        spec = ConeSpec(args.p, args.q)
        fn = lambda x: radial.minimal_ktype(spec, x)
    else:
        order = Fraction(args.order).limit_denominator(10**9)
        fn = {
            "jtilde": lambda x: bessel.jtilde(order, x),
            "itilde": lambda x: bessel.itilde(order, x),
            "ktilde": lambda x: bessel.ktilde(order, x),
        }[args.function]
    for x in xs:
        w.writerow([_fmt(x), _fmt(fn(x))])
    return 0


def _cmd_verify(args, out) -> int:
    results = verify.run_suite(args.suite, max_j=args.max_j)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failures += 1
        out.write(
            f"{status} [{res.suite}] {res.name}: measured={_fmt(res.measured)} "
            f"tol={_fmt(res.tol)} claim: {res.claim}\n"
        )
    out.write(
        f"{'FAIL' if failures else 'OK'}: {len(results) - failures}/{len(results)} "
        f"checks passed in suite '{args.suite}'\n"
    )
    return 1 if failures else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrep",
        description="special-function calculus of the minimal-representation radial model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mano = sub.add_parser("mano", help="Mano polynomial coefficient table")
    p_mano.add_argument("--mu", type=int, required=True)
    p_mano.add_argument("--ell", type=int, required=True)
    p_mano.add_argument("--j", type=int, required=True)
    p_mano.add_argument("--format", choices=("csv", "json"), default="csv")

    p_lag = sub.add_parser("laguerre", help="Laguerre polynomial coefficient table")
    p_lag.add_argument("--j", type=int, required=True)
    p_lag.add_argument("--mu", type=int, required=True)
    p_lag.add_argument("--format", choices=("csv", "json"), default="csv")

    p_lam = sub.add_parser("lambda", help="tabulate Lam_j^{mu,nu}(x)")
    p_lam.add_argument("--mu", type=int, required=True)
    p_lam.add_argument("--nu", type=int, required=True)
    p_lam.add_argument("--j", type=int, required=True)
    _add_grid(p_lam)

    p_ker = sub.add_parser("kernel", help="inversion kernel operations")
    ker_sub = p_ker.add_subparsers(dest="kernel_cmd", required=True)
    k_eval = ker_sub.add_parser("eval", help="tabulate PhiHat^{p,q}(t)")
    k_eval.add_argument("--p", type=int, required=True)
    k_eval.add_argument("--q", type=int, required=True)
    k_eval.add_argument("--t", type=float, nargs="+", default=None)
    k_eval.add_argument("--min", type=float, default=0.1)
    k_eval.add_argument("--max", type=float, default=2.0)
    k_eval.add_argument("--count", type=int, default=1)
    k_eval.add_argument("--method", choices=("residue", "contour", "both"), default="residue")
    for name in ("classify", "singular"):
        k_sub = ker_sub.add_parser(name)
        k_sub.add_argument("--p", type=int, required=True)
        k_sub.add_argument("--q", type=int, required=True)

    p_inv = sub.add_parser("invert", help="radial inversion of sampled data")
    p_inv.add_argument("--p", type=int, required=True)
    p_inv.add_argument("--q", type=int, required=True)
    p_inv.add_argument("--max-j", type=int, default=40)
    p_inv.add_argument("--tol", type=float, default=1e-6)
    p_inv.add_argument("--input", default="-", help="CSV of r,f(r) samples ('-' = stdin)")

    p_tab = sub.add_parser("table", help="tabulate a special function")
    p_tab.add_argument(
        "--function",
        choices=("jtilde", "itilde", "ktilde", "minimal-ktype"),
        required=True,
    )
    p_tab.add_argument("--order", type=float, default=0.0)
    p_tab.add_argument("--p", type=int, default=3)
    p_tab.add_argument("--q", type=int, default=1)
    _add_grid(p_tab)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=verify.SUITE_NAMES)
    p_ver.add_argument("--max-j", type=int, default=10)

    return parser


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=float, nargs="+", default=None)
    p.add_argument("--min", type=float, default=0.1)
    p.add_argument("--max", type=float, default=5.0)
    p.add_argument("--count", type=int, default=1)


_COMMANDS = {
    "mano": _cmd_mano,
    "laguerre": _cmd_laguerre,
    "lambda": _cmd_lambda,
    "kernel": _cmd_kernel,
    "invert": _cmd_invert,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    # the parser is built on the first call, not at import, and reused
    args = _build_parser().parse_args(argv)
    # a command that fails part-way writes nothing: its output is buffered
    # and goes to the current sys.stdout only once the command has returned
    buf = io.StringIO()
    try:
        code = _COMMANDS[args.command](args, buf)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"minrep {args.command}: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
