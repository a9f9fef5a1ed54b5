"""E30 regression gate: fail CI when crash recovery regresses.

Compares the freshly produced ``benchmarks/results/e30_recovery.json``
(the smoke run CI just executed) against the committed
``benchmarks/baselines/e30_baseline.json`` and exits non-zero when:

* any identity flag is false — a recovered run that is not
  digest-identical to its uncrashed reference, or a recovery that did
  not rebuild the exact at-crash control plane, is a correctness bug,
  never a performance trade;
* any separation-oracle violation was recorded (the smoke point runs
  the oracle fail-fast at full sampling through the crash/recover
  cycle);
* smoke recovery time exceeded the committed ceiling (the ceiling is
  2.5x the reference machine's measurement, so honest runner variance
  passes and an accidental quadratic in restore/replay does not);
* the journal's per-event tax on the E24 hot path reached the 5% bound
  (measured bottom-up — real op mix x tight-loop writer costs — so the
  number is stable on noisy shared runners);
* full-sweep results are present but any scale point diverged, violated
  the oracle, or blew its per-scale recovery ceiling.

Usage: ``python benchmarks/check_e30.py`` from the repo root (CI runs
it right after the smoke benchmark).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECOVERY_TOLERANCE = 2.5  # x the committed reference recovery time


def load(name: str, folder: str = "results") -> dict:
    """Read one JSON document: a run output from ``results/`` (ignored by
    git) or a committed gate baseline from ``baselines/`` (tracked)."""
    path = os.path.join(HERE, folder, name)
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    baseline = load("e30_baseline.json", "baselines")
    current = load("e30_recovery.json")
    failures: list[str] = []

    smoke = current["smoke"]
    if not smoke.get("recovery_identical"):
        failures.append("smoke: recovery did not rebuild the exact "
                        "at-crash control plane (report.identical false)")
    if not smoke.get("digest_identical"):
        failures.append("smoke: recovered run diverged from the "
                        "uncrashed reference trajectory")
    if smoke["oracle_violations"]:
        failures.append(f"smoke: {smoke['oracle_violations']} "
                        "separation-oracle violation(s) with I8 armed")
    if smoke["oracle_checks"] == 0:
        failures.append("smoke: oracle recorded zero checks — I8 was "
                        "not exercised")
    ceiling = baseline["smoke"]["recovery_s_reference"] * RECOVERY_TOLERANCE
    if smoke["recovery_s"] > ceiling:
        failures.append(
            f"smoke: recovery took {smoke['recovery_s']}s > "
            f"{ceiling:.4f}s ceiling (reference "
            f"{baseline['smoke']['recovery_s_reference']}s x "
            f"{RECOVERY_TOLERANCE})")

    ov = current["overhead"]
    bound = baseline["overhead"]["max_journal_overhead_pct"]
    if ov["journal_overhead_pct"] >= bound:
        failures.append(
            f"overhead: journal tax {ov['journal_overhead_pct']}% >= "
            f"{bound}% of the E24 hot path")

    series = current.get("scale_series", [])
    ceilings = baseline.get("scale", {}).get("recovery_s_ceiling", {})
    for point in series[1:]:  # [0] is the smoke point, gated above
        n = point["n_nodes"]
        if not (point["recovery_identical"] and point["digest_identical"]):
            failures.append(f"{n} nodes: recovery diverged")
        if point["oracle_violations"]:
            failures.append(f"{n} nodes: separation-oracle violation(s)")
        cap = ceilings.get(str(n))
        if cap is not None and point["recovery_s"] > cap:
            failures.append(
                f"{n} nodes: recovery took {point['recovery_s']}s > "
                f"{cap}s ceiling")

    if failures:
        print("E30 REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    scope = "smoke" if len(series) <= 1 else \
        f"full sweep, {len(series)} scale points"
    print(f"E30 regression gate: OK ({scope} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
