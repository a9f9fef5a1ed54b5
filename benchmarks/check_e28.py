"""E28 regression gate: fail CI when the sharded engine regresses.

Compares the freshly produced ``benchmarks/results/e28_shard.json`` (the
smoke run CI just executed) against the committed
``benchmarks/baselines/e28_baseline.json`` and exits non-zero when:

* any identity flag is false — a sharded or multiprocessing run that is
  not bit-identical to the single-engine reference is a correctness bug,
  never a performance trade;
* any oracle violation was recorded;
* sharded-serial events/sec at the smoke point fell more than 20% below
  the committed floor (the floor is half the reference machine's
  measurement, so honest runner variance passes and an accidental
  quadratic in the merge/epoch path does not);
* the merge protocol's own overhead (single-engine vs serial-sharded
  throughput, measured back-to-back in one process) exceeded the
  baseline bound;
* full-sweep results are present *and* the host armed the speedup gate,
  but the 4-worker speedup at the 32k point fell below the baseline's
  ``min_speedup``.  Hosts with fewer CPUs record the measured ratio
  without gating on it (the benchmark prints this, never silently).

Usage: ``python benchmarks/check_e28.py`` from the repo root (CI runs it
right after the smoke benchmark).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOLERANCE = 0.8  # >20% below the committed floor fails


def load(name: str, folder: str = "results") -> dict:
    """Read one JSON document: a run output from ``results/`` (ignored by
    git) or a committed gate baseline from ``baselines/`` (tracked)."""
    path = os.path.join(HERE, folder, name)
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    baseline = load("e28_baseline.json", "baselines")
    current = load("e28_shard.json")
    failures: list[str] = []

    smoke = current["smoke"]
    for flag in ("identity_single_vs_serial", "identity_single_vs_mp"):
        if not smoke.get(flag):
            failures.append(f"smoke: {flag} is false — sharded run "
                            "diverged from the single-engine reference")
    for mode in ("single_engine", "sharded_serial", "sharded_mp2"):
        if smoke[mode]["oracle_violations"]:
            failures.append(
                f"smoke/{mode}: {smoke[mode]['oracle_violations']} "
                "separation-oracle violation(s)")

    floor = baseline["smoke"]["sharded_events_per_sec_floor"] * TOLERANCE
    got = smoke["sharded_serial"]["events_per_sec"]
    if got < floor:
        failures.append(
            f"smoke: sharded-serial {got} ev/s < {floor:.0f} (floor "
            f"{baseline['smoke']['sharded_events_per_sec_floor']} - 20%)")
    if smoke["protocol_overhead"] > baseline["smoke"]["max_protocol_overhead"]:
        failures.append(
            f"smoke: protocol overhead {smoke['protocol_overhead']}x > "
            f"{baseline['smoke']['max_protocol_overhead']}x bound")

    p32 = current.get("point_32k")
    if p32 is not None:
        if not p32.get("identity_serial_vs_mp4"):
            failures.append("32k: 4-worker run diverged from 1-process run")
        if p32["serial"]["events"] < baseline["point_32k"]["min_events"]:
            failures.append(
                f"32k: {p32['serial']['events']} events < "
                f"{baseline['point_32k']['min_events']}")
        if p32["serial"]["oracle_violations"]:
            failures.append("32k: separation-oracle violation(s)")
        if p32["speedup_gate_armed"] and \
                p32["speedup_mp4"] < baseline["point_32k"]["min_speedup"]:
            failures.append(
                f"32k: 4-worker speedup {p32['speedup_mp4']}x < "
                f"{baseline['point_32k']['min_speedup']}x "
                f"(gate armed on {p32['cpus']} CPUs)")

    p100 = current.get("point_100k")
    if p100 is not None:
        if p100["run"]["events"] < baseline["point_100k"]["min_events"]:
            failures.append(
                f"100k: {p100['run']['events']} events < "
                f"{baseline['point_100k']['min_events']}")
        if p100["n_nodes"] < baseline["point_100k"]["min_nodes"]:
            failures.append(f"100k: only {p100['n_nodes']} nodes")

    if failures:
        print("E28 REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    scope = "smoke" if p32 is None else "full sweep"
    print(f"E28 regression gate: OK ({scope} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
