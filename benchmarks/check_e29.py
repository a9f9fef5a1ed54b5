"""E29 regression gate: fail CI when the attack campaign regresses.

Compares the freshly produced ``benchmarks/results/e29_attacks.json``
(the campaign replay CI just executed) against the committed
``benchmarks/baselines/e29_baseline.json`` and exits non-zero when:

* any probe ``SUCCEEDED`` (or was merely ``DETECTED``) under the
  ``full`` preset — a silent or late separation failure is never a
  performance trade;
* the ``baseline`` preset differential was lost — a probe that cannot
  cross even an unprotected boundary is a no-op, not an attack;
* any ablation's observed flip set differs from the committed map — a
  mechanism stopped being load-bearing, or an attack picked up an
  undeclared second line of defence;
* deny-record attribution coverage fell below the committed minimum
  (blocked probes must stay pinned to concrete audit records);
* campaign determinism was lost (the byte-identical ``docs/ATTACKS.md``
  regeneration gate depends on it); or
* full-preset campaign throughput fell more than 20% below the
  committed floor (the floor is half the reference machine's
  measurement, so honest runner variance passes and an accidental
  per-attack blowup in the armed-cluster path does not).

Usage: ``python benchmarks/check_e29.py`` from the repo root (CI runs it
right after the campaign smoke).
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
    baseline = load("e29_baseline.json", "baselines")
    current = load("e29_attacks.json")
    failures: list[str] = []

    fc = current["full_campaign"]
    bf = baseline["full"]
    if fc["counts"]["SUCCEEDED"] != bf["succeeded"]:
        failures.append(
            f"full: {fc['counts']['SUCCEEDED']} probe(s) SUCCEEDED — "
            "silent separation failure")
    if fc["counts"]["DETECTED"] != bf["detected"]:
        failures.append(
            f"full: {fc['counts']['DETECTED']} probe(s) only DETECTED — "
            "the boundary must hold, not just alarm")
    if fc["counts"]["BLOCKED"] != bf["blocked"]:
        failures.append(
            f"full: {fc['counts']['BLOCKED']} blocked != "
            f"{bf['blocked']} committed (catalog shrank or misclassified)")
    if fc["blocked_with_deny_record"] < bf["min_blocked_with_deny_record"]:
        failures.append(
            f"full: only {fc['blocked_with_deny_record']} blocked probes "
            f"carry a deny record < {bf['min_blocked_with_deny_record']} "
            "committed (attribution coverage lost)")

    bc = current["baseline_campaign"]
    if bc["counts"]["SUCCEEDED"] != baseline["baseline_preset"]["succeeded"]:
        failures.append(
            f"baseline preset: {bc['counts']['SUCCEEDED']} succeeded != "
            f"{baseline['baseline_preset']['succeeded']} — differential "
            "lost, some probe is a no-op")

    for key, committed in baseline["ablation_flips"].items():
        section = current["ablations"].get(key)
        if section is None:
            failures.append(f"ablation {key}: missing from results")
            continue
        if section["flips"] != committed:
            failures.append(
                f"ablation {key}: flips {section['flips']} != committed "
                f"{committed}")

    for flag, ok in current["determinism"].items():
        if not ok:
            failures.append(f"determinism: {flag} is false — report "
                            "regeneration is no longer byte-stable")

    floor = bf["attacks_per_sec_floor"] * TOLERANCE
    if fc["attacks_per_sec"] < floor:
        failures.append(
            f"full: {fc['attacks_per_sec']} attacks/s < {floor:.0f} "
            f"(floor {bf['attacks_per_sec_floor']} - 20%)")

    if failures:
        print("E29 gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"E29 gate OK: {fc['counts']['BLOCKED']}/{fc['attacks']} blocked "
          f"under full, baseline differential "
          f"{bc['counts']['SUCCEEDED']}/{bc['attacks']}, "
          f"{len(baseline['ablation_flips'])} ablations flip as committed, "
          f"{fc['attacks_per_sec']} attacks/s (floor "
          f"{bf['attacks_per_sec_floor']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
