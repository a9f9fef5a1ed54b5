"""E24 regression gate: fail CI when throughput regresses.

Compares the freshly produced ``benchmarks/results/e24_scale.json`` (the
smoke run CI just executed) against the committed
``benchmarks/baselines/e24_baseline.json`` and exits non-zero when:

* indexed events/sec at any baseline sweep point regressed more than 20%
  below the baseline figure (the baseline stores a *floor* — half the
  reference machine's measurement — so honest runner variance passes and
  an accidental return to O(nodes x queue) scanning does not), or
* the indexed-vs-naive speedup ratio fell below the baseline's
  ``min_speedup`` for that point (the ratio is measured back-to-back in
  one process, so it is largely machine-independent), or
* the same rules fail for the UBF verdict and procfs listing rates.

Usage: ``python benchmarks/check_e24.py`` from the repo root (CI runs it
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
    baseline = load("e24_baseline.json", "baselines")
    current = load("e24_scale.json")
    failures: list[str] = []

    cur_points = {(p["n_nodes"], p["target_events"]): p
                  for p in current["points"]}
    for bp in baseline["points"]:
        key = (bp["n_nodes"], bp["target_events"])
        cp = cur_points.get(key)
        if cp is None:
            continue  # full-sweep-only point; smoke runs don't produce it
        floor = bp["indexed_events_per_sec_floor"] * TOLERANCE
        got = cp["indexed"]["events_per_sec"]
        if got < floor:
            failures.append(
                f"sched {key}: {got} ev/s < {floor:.0f} "
                f"(floor {bp['indexed_events_per_sec_floor']} - 20%)")
        if cp["speedup"] < bp["min_speedup"]:
            failures.append(
                f"sched {key}: speedup {cp['speedup']}x < "
                f"{bp['min_speedup']}x vs naive")

    for section, rate_key in (("ubf", "verdicts_per_sec"),
                              ("procfs", "listings_per_sec")):
        floor = baseline[section][f"{rate_key}_floor"] * TOLERANCE
        got = current[section]["indexed"][rate_key]
        if got < floor:
            failures.append(f"{section}: {got}/s < {floor:.0f}")
        if current[section]["speedup"] < baseline[section]["min_speedup"]:
            failures.append(
                f"{section}: speedup {current[section]['speedup']}x < "
                f"{baseline[section]['min_speedup']}x")
    # coalescing is measured in upstream round trips, not wall time
    if current["ubf"]["rtt_reduction"] < baseline["ubf"]["min_rtt_reduction"]:
        failures.append(
            f"ubf: ident round-trip reduction "
            f"{current['ubf']['rtt_reduction']}x < "
            f"{baseline['ubf']['min_rtt_reduction']}x")

    if failures:
        print("E24 REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("E24 regression gate: OK "
          f"({len(baseline['points'])} baseline points checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
