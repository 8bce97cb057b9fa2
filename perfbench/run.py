"""minrep benchmark: one workload, one seed, about --seconds of measuring.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; minrep is imported from its src/.  The
workload's op list is generated from the seed.  A fixed number of rounds,
set by --seconds and the workload's nominal round time, is run one after
another, each in a fresh interpreter with cold caches (one closed-loop
caller, one BLAS/OpenMP thread).  Times are given in seconds at a reference
speed (see common.speed_probe).  Every op is checked against an oracle
outside the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced rounds and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; a fuller record of the run,
including the inputs hash, input properties and the machine, is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

ROUND_TIMEOUT_S = 150
# set-up is sampled at least this often a run; spawns that only set up make
# up for runs with fewer untraced rounds
SETUP_SAMPLES = 3
PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "accuracy_digits": "digits", "peak_rss_mb": "MB"}
# op_p50_ms is printed and recorded but left out of the result line: on
# exact-sweep the median op lies between 0.8-ms commutation checks and 30-ms
# Mano ops, and over five seeds its spread was 0.115 of the median even
# after scaling to the reference speed, against 0.05 to 0.06 for wall_s and
# op_tail_ms
RESULT_METRICS = ("setup_s", "wall_s", "op_tail_ms", "accuracy_digits", "peak_rss_mb")


def layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.total_s": "s",
                      f"{layer}.self_s": "s", f"{layer}.failures": "count"})
    units.update({
        "algebra.polys_built": "count",
        "bessel.complex_points": "count",
        "bessel.points_per_call": "points/call",
        "specfun.cauchy_passes_per_value": "passes/value",
        "specfun.table_values": "count",
        "radial.table_passes_per_expand": "passes/expand",
        "radial.quad_points": "count",
        "kernel.b_evals_per_value": "evals/value",
        "trace.overhead_s": "s",
    })
    return units


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "pinning": dict(PINNING),
    }


def run_round(args, index: int, traced: bool, refs_path: Path, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env.update(PINNING)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--trace", "1" if traced else "0", "--refs", str(refs_path),
           "--tamper-op", str(args.tamper_op)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-round{index}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    before = common.speed_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"round {index} exceeded {ROUND_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"round {index} failed (exit {proc.returncode})")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = setup
    # scaled by the host's speed just before the spawn and just after READY
    record["scaled_setup_s"] = setup / (0.5 * (before + record["first_probe"]))
    record["traced"] = traced
    return record


def summarize(wl, ops: list, rounds: list, setups: list) -> tuple:
    timed = [r for r in rounds if not r["traced"]]
    setups = timed + setups
    lat_ms = sorted(x * 1e3 for r in timed for x in r["scaled_latencies_s"])
    tail_pct = min(common.tail_percentile(len(lat_ms)), wl.TAIL_PCT)
    outcomes = [o for r in rounds for o in r["outcomes"]]
    digits = [o["digits"] for o in outcomes if o["digits"] is not None]
    failed = [o for o in outcomes if not o["ok"]]
    defects: dict = {}
    for o in failed:
        key = o["known_defect"] or "unexpected"
        defects[key] = defects.get(key, 0) + 1
    e2e = {
        "setup_s": common.median([r["scaled_setup_s"] for r in setups]),
        "wall_s": common.median([r["scaled_wall_s"] for r in timed]),
        "op_p50_ms": common.quantile(lat_ms, 50.0),
        "op_tail_ms": common.quantile(lat_ms, tail_pct),
        "accuracy_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in timed]),
    }
    worst_by_kind: dict = {}
    for r in rounds:
        for op, o in zip(ops, r["outcomes"]):
            if o["digits"] is not None:
                k = op["kind"]
                worst_by_kind[k] = min(worst_by_kind.get(k, o["digits"]), o["digits"])
    detail = {
        "tail_percentile": tail_pct,
        "accuracy_digits_by_kind": worst_by_kind,
        "latency_samples": len(lat_ms),
        "fail_frac": len(failed) / len(outcomes),
        "failures_by_defect": defects,
        "first_errors": sorted({o["error"] for o in failed})[:8],
        "round_setup_s": [r["scaled_setup_s"] for r in setups],
        "round_wall_s": [r["scaled_wall_s"] for r in timed],
        "round_latencies_s": [r["scaled_latencies_s"] for r in timed],
        "raw_round_setup_s": [r["setup_s"] for r in setups],
        "raw_round_wall_s": [r["wall_s"] for r in timed],
        "raw_setup_s": common.median([r["setup_s"] for r in setups]),
        "raw_wall_s": common.median([r["wall_s"] for r in timed]),
        # slowness of the host against the reference speed, over all probes
        "probe_factor_range": [min(r["probe_factor_range"][0] for r in rounds),
                               max(r["probe_factor_range"][1] for r in rounds)],
    }
    layers = None
    traced = [r for r in rounds if r["traced"]]
    if traced:
        names = list(traced[0]["layers"])
        layers = {n: common.median([r["layers"][n] for r in traced]) for n in names}
        layers["trace.overhead_s"] = (
            common.median([r["scaled_wall_s"] for r in traced]) - e2e["wall_s"]
        )
    return e2e, detail, layers, len(outcomes), len(failed), not defects.get("unexpected")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="all: every workload in turn, each with its own result line")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per category, for the harness self-test")
    ap.add_argument("--tamper-op", type=int, default=-1,
                    help="corrupt the oracle of this op index (self-test)")
    args = ap.parse_args(argv)

    # a terminated run still stops its worker (run_round's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "minrep" / "__init__.py").is_file():
        print(f"perfbench: no minrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            args.workload = name
            run_workload(args)
        return 0
    run_workload(args)
    return 0


def round_count(wl, args) -> int:
    """Rounds that fill --seconds at the nominal speed.  The count depends on
    --seconds and --scale only, never on how fast the host is running, so
    every run of a seed attempts the same ops.  A traced run holds at least
    one traced and one untraced round."""
    per_round = wl.ROUND_S[args.scale]
    return max(2 if args.trace else 1, int(args.seconds / per_round + 0.5))


def run_workload(args) -> None:
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.generate(args.seed, args.scale)
    inputs_hash = common.inputs_hash(ops)
    OUT.mkdir(exist_ok=True)
    refs_path = OUT / f"refs-{args.workload}-seed{args.seed}-{args.scale}.json"
    refs_path.write_text(json.dumps(wl.references(ops)))

    rounds: list = []
    for index in range(round_count(wl, args)):
        traced = bool(args.trace) and index % 2 == 0
        rec = run_round(args, index, traced, refs_path)
        if rec["inputs_hash"] != inputs_hash:
            raise RuntimeError("worker generated different inputs from the same seed")
        rounds.append(rec)
    setups = [run_round(args, len(rounds) + k, False, refs_path, setup_only=True)
              for k in range(SETUP_SAMPLES - sum(not r["traced"] for r in rounds))]

    e2e, detail, layers, attempted, failed, correct = summarize(wl, ops, rounds, setups)
    units = layer_units()
    metrics = (
        {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]} for k in RESULT_METRICS}
        if not args.trace
        else {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs_hash": inputs_hash,
        "properties": wl.properties(ops),
        "machine": machine(),
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "end_to_end": e2e,
        "detail": detail,
        "layers": layers,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  inputs {inputs_hash}  "
          f"rounds {len(rounds)} x {len(ops)} ops")
    print(f"  properties {json.dumps(record['properties'], sort_keys=True)}")
    for k, v in e2e.items():
        print(f"  {k:<16} {v:12.6g} {END_TO_END_UNITS[k]}")
    print(f"  {'op_tail':<16} is p{detail['tail_percentile']:g} of "
          f"{detail['latency_samples']} op latencies")
    print(f"  {'fail_frac':<16} {detail['fail_frac']:12.6g} ({failed}/{attempted}; "
          f"{json.dumps(detail['failures_by_defect'], sort_keys=True)})")
    if layers:
        for k, v in layers.items():
            print(f"  {k:<34} {v:14.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
