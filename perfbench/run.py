#!/usr/bin/env python3
"""Benchmark entry point for the full LLSC posture.

    python3 perfbench/run.py --workload job-stream --seed 1 --seconds 10 \
        --trace 0

Runs one workload (``job-stream``, ``tenant-mix``, ``flow-flood`` or
``zone-shards``; see ``perfbench/README.md``) against the program in
``src/`` of the checkout this file sits in, checks every output, prints
a human-readable report and, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same seed untraced, then again with spans around every layer's
public calls (each pass measuring half of ``--seconds``), and reports
the per-layer ledger plus the tracing overhead
(traced minus untraced end-to-end figures); the spans are written to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program imported is that one, not some other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("job-stream", "tenant-mix", "flow-flood",
                             "zone-shards"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _report(res, metrics: dict, units: dict) -> None:
    print(f"perfbench {res.workload}: rounds={res.rounds} "
          f"measured_s={res.raw_wall_s:.3f} attempted={res.attempted} "
          f"failed={res.failed} correct={res.correct}")
    print(f"  unscaled wall-clock figures: "
          f"{json.dumps(res.end_to_end(raw=True))}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    named = {**res.named, "error_rate": (
        res.failed / res.attempted if res.attempted else 0.0, "ratio")}
    for name, (value, unit) in named.items():
        print(f"  [{res.workload}] {name:<23} {value:>16.6g} {unit}")
    for name, value in res.props.items():
        print(f"  property {name}: {value}")
    print(f"  oracle: {res.oracle_checks} checks, "
          f"{res.oracle_violations} violations")
    print(f"  digest {res.digest.hexdigest()}")
    for msg in res.breaches:
        print(f"  BREACH: {msg}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from common import END_TO_END, WALL_CAP_S
    from layers import PER_LAYER, layer_metrics, patch_classes
    from spans import Tracer
    from workloads import WORKLOADS

    mod = WORKLOADS[args.workload]
    if not args.trace:
        res = mod.run(args.seed, args.seconds, wall_cap=WALL_CAP_S)
        metrics, units = res.end_to_end(), END_TO_END
    else:
        # untraced and traced passes share the invocation's measured
        # time and its time limit
        half = args.seconds / 2
        base = mod.run(args.seed, half, wall_cap=WALL_CAP_S / 2)
        tracer = Tracer()
        patch_classes(tracer)
        try:
            res = mod.run(args.seed, half, tracer=tracer,
                          wall_cap=WALL_CAP_S / 2)
        finally:
            tracer.restore()
        metrics, units = layer_metrics(tracer, res), PER_LAYER
        plain, traced = base.end_to_end(), res.end_to_end()
        if plain["ops_per_s"]:
            metrics["trace.overhead_ops_pct"] = 100.0 * (
                plain["ops_per_s"] - traced["ops_per_s"]) / plain["ops_per_s"]
        if plain["op_p50_us"]:
            metrics["trace.overhead_p50_pct"] = 100.0 * (
                traced["op_p50_us"] - plain["op_p50_us"]) / plain["op_p50_us"]
        print(f"untraced pass: {json.dumps(plain)}")
        print(f"traced pass:   {json.dumps(traced)}")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"),
            {"workload": args.workload, "seed": args.seed})
        res.breaches = base.breaches + res.breaches
        res.oracle_violations += base.oracle_violations

    _report(res, metrics, units)
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
