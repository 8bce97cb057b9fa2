"""One round of a workload in a fresh interpreter.

Set-up is `import minrep` plus input generation; the worker then prints
READY, runs every op back to back with per-op timing and periodic host
speed probes, notes its peak RSS, and only then checks each result against
its oracle.  The last line of stdout is a JSON record of the round.  Run by
run.py; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--spans", default="")
    ap.add_argument("--tamper-op", type=int, default=-1)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after READY and one speed probe: a set-up time sample")
    args = ap.parse_args()

    import minrep
    import minrep.cli  # noqa: F401  (not loaded by the package; kernel-eval calls it)

    src = (ROOT / "src").resolve()
    if src not in Path(minrep.__file__).resolve().parents:
        print(f"minrep imported from {minrep.__file__}, not from {src}", file=sys.stderr)
        return 3

    import common
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = wl.generate(args.seed, args.scale)
    print("READY", flush=True)

    # the host's speed is probed every common.PROBE_EVERY_S, also inside ops
    sampler = common.SpeedSampler()
    first = sampler.sample()
    if args.setup_only:
        print(json.dumps({"first_probe": first}))
        return 0
    sampler.start()
    intervals, results = [], []
    for op in ops:
        s = time.perf_counter()
        try:
            r = wl.run(op)
        except Exception as exc:  # an op that raises is a counted failure
            r = exc
        intervals.append((s, time.perf_counter()))
        results.append(r)
    sampler.stop()
    sampler.sample()
    latencies, scaled = [], []
    for s, e in intervals:
        lat, factor = sampler.interval(s, e)
        latencies.append(lat)
        scaled.append(lat / factor)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_metrics = None
    if tracer is not None:
        tracer.stop()
        layer_metrics = tracer.metrics(sampler.interval)
        if args.spans:
            tracer.dump(args.spans)

    refs = json.loads(Path(args.refs).read_text())
    outcomes = []
    for i, (op, r, ref) in enumerate(zip(ops, results, refs)):
        outcomes.append(wl.verify(op, r, ref, tamper=i == args.tamper_op).to_json())

    record = {
        "inputs_hash": common.inputs_hash(ops),
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "scaled_wall_s": sum(scaled),
        "scaled_latencies_s": scaled,
        "first_probe": first,
        "probe_factor_range": [min(sampler.factors), max(sampler.factors)],
        "peak_rss_mb": rss_mb,
        "outcomes": outcomes,
        "layers": layer_metrics,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
