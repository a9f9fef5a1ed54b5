"""E27 — columnar UBF data plane: flow decisions/sec vs the per-object paths.

The paper's §IV-D daemon must answer nfqueue at line rate; E24 already
showed batching + coalescing beating the sequential daemon, but the batch
path still pays per-object Python for every flow (a Packet, a dict probe, a
log record).  E27 measures the columnar plane built on
``repro.net.ubf_columnar``: verdicts computed into a reusable bitmap over
preallocated int64 columns, with the decision cache as flat open-addressed
arrays.

Three timed paths over the *same* packet stream (a fixed pool of distinct
flows cycled to the target decision count, ~95% kernel-stamped, with
no-listener dst ports and unidentifiable src ports mixed in):

* **naive**  — ``decide()`` per packet, the sequential reference (capped:
  measured on a prefix, printed and recorded — never silent);
* **batch**  — ``decide_batch()`` per chunk, the E24 coalescing path and
  the acceptance denominator;
* **columnar** — ``decide_columns()`` on one reused :class:`FlowBatch`,
  gathering the pool's precomputed columns per chunk (the long-lived-columns
  deployment the module docstring describes).

Differential guarantee asserted on every run: bit-identical verdicts
columnar ⇄ batch over the full stream and batch ⇄ naive over the naive
prefix.  Sub-sections: memory per million cached verdicts (flat arrays vs
the per-object paths' dict cache), a full-sampling fail-fast oracle pass over the
columnar path, and a strict-zone-tier run proving the posture knobs are
verdict-invariant.

Results land in ``benchmarks/results/e27_ubf.json`` (the CI artifact;
``check_e27.py`` gates regressions against ``e27_baseline.json``).  The
smoke point runs under pytest; the full sweep — including the 1e6-decision
point with its >=5x columnar-vs-batch acceptance assertion — runs with
``E27_FULL=1`` (or ``python benchmarks/bench_e27_ubf.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from repro.kernel import LinuxNode, UserDB
from repro.net import (
    ConnState,
    Fabric,
    Firewall,
    FiveTuple,
    FlowBatch,
    HostStack,
    Packet,
    Proto,
    UBFDaemon,
    Verdict,
    ZoneTier,
    apply_tier,
    ubf_ruleset,
)
from repro.net.ubf_columnar import V_ACCEPT

from _helpers import RESULTS_DIR, print_table

#: target flow-decision counts; the first point is the CI smoke, the
#: 1e6 point carries the columnar-vs-batch acceptance assertion.
SWEEP = [65_536, 1_000_000]
ACCEPTANCE_POINT = 1_000_000
MIN_SPEEDUP = 5.0
#: per-packet naive reference caps — sequential decide() does not scale,
#: so its rate is measured on a prefix of the same stream (recorded,
#: never silent); the prefix still cycles the whole pool twice.
NAIVE_CAPS = {65_536: 32_768, 1_000_000: 65_536}

#: nfqueue drain burst = FlowBatch capacity (both object and columnar
#: batch paths consume the stream in these chunks)
CHUNK = 8_192
#: distinct flows in the pool (distinct principal triples stay well under
#: the 65_536-entry cache bound: steady state is the cache-hit regime)
POOL = 16_384

N_USERS = 128
N_LISTENERS = 192   # every 16th is root-owned; every 8th serves a project egid
N_INITIATORS = 96   # one root initiator; the rest cycle the user population


def build_rig(*, naive: bool = False, oracle=None, tier: ZoneTier | None = None):
    """Two hosts, a listener farm on c2, initiators on c1; returns
    (fabric, daemon, uid_by_src_port).

    UserDB construction is deterministic, so every rig assigns identical
    uids/gids — one packet pool is valid against all of them.
    """
    userdb = UserDB()
    users = [userdb.add_user(f"u{i}") for i in range(N_USERS)]
    proj = userdb.add_project_group("proj", steward=users[0])
    for u in users[1:25]:
        userdb.add_to_project(proj, u, approver=users[0])
    root = userdb.user("root")
    fabric = Fabric()
    nodes, daemons = {}, {}
    for name in ("c1", "c2"):
        node = LinuxNode(name, userdb)
        HostStack(node, fabric, firewall=Firewall(rules=ubf_ruleset()))
        nodes[name] = node
        daemons[name] = UBFDaemon(node.net, fabric, userdb,
                                  naive=naive).install()
    net2 = nodes["c2"].net
    for i in range(N_LISTENERS):
        user = root if i % 16 == 15 else users[i % N_USERS]
        if user is not root and i % 8 == 3:
            # project-serving listener: must be run by a project member
            user = users[1 + i % 24]
        creds = userdb.credentials_for(user)
        if user is not root and i % 8 == 3:
            creds = creds.with_egid(proj.gid)
        proc = nodes["c2"].procs.spawn(creds, ["server"])
        net2.listen(net2.bind(proc, 5000 + i))
    net1 = nodes["c1"].net
    uid_by_port: dict[int, int] = {}
    for j in range(N_INITIATORS):
        user = root if j == 0 else users[j % N_USERS]
        proc = nodes["c1"].procs.spawn(userdb.credentials_for(user),
                                       ["client"])
        net1.bind(proc, 40_000 + j)
        uid_by_port[40_000 + j] = user.uid
    daemon = daemons["c2"]
    daemon.oracle = oracle
    if tier is not None:
        apply_tier(daemon, tier)
    return fabric, daemon, uid_by_port


def packet_pool(uid_by_port: dict[int, int], seed: int = 27) -> list[Packet]:
    """The distinct-flow pool: ~95% kernel-stamped, ~2% unstamped, ~1%
    unidentifiable src port, ~1% no-listener dst port."""
    rng = np.random.default_rng(seed)
    pkts = []
    for _ in range(POOL):
        if rng.random() < 0.01:
            dst = 6000 + int(rng.integers(32))        # nothing listening
        else:
            dst = 5000 + int(rng.integers(N_LISTENERS))
        if rng.random() < 0.01:
            sport, uid = 49_000 + int(rng.integers(32)), None  # unbound
        else:
            sport = 40_000 + int(rng.integers(N_INITIATORS))
            uid = uid_by_port[sport] if rng.random() < 0.95 else None
        pkts.append(Packet(FiveTuple(Proto.TCP, "c1", sport, "c2", dst),
                           ConnState.NEW, src_uid=uid))
    return pkts


def chunked_stream(n_decisions: int, seed: int = 4242):
    """Index stream into the pool, pre-chunked to the nfqueue burst size."""
    rng = np.random.default_rng(seed)
    stream = rng.integers(0, POOL, size=n_decisions, dtype=np.int64)
    return [stream[i:i + CHUNK] for i in range(0, n_decisions, CHUNK)]


def _as_bits(verdicts: list[Verdict]) -> np.ndarray:
    return np.fromiter((1 if v is Verdict.ACCEPT else 0 for v in verdicts),
                       dtype=np.uint8, count=len(verdicts))


def run_naive_trial(pool, chunks, cap: int):
    fabric, daemon, _ = build_rig(naive=True)
    pkts = [pool[int(i)] for idx in chunks for i in idx][:cap]
    t0 = time.perf_counter()
    verdicts = [daemon.decide(p) for p in pkts]
    elapsed = time.perf_counter() - t0
    return {
        "decisions": len(verdicts),
        "elapsed_s": round(elapsed, 3),
        "decisions_per_sec": round(len(verdicts) / elapsed, 1),
        "cap": cap,
    }, _as_bits(verdicts)


def run_batch_trial(pool, chunks):
    fabric, daemon, _ = build_rig()
    chunk_pkts = [[pool[int(i)] for i in idx] for idx in chunks]
    verdicts: list[Verdict] = []
    t0 = time.perf_counter()
    for cpkts in chunk_pkts:
        verdicts.extend(daemon.decide_batch(cpkts))
    elapsed = time.perf_counter() - t0
    report = fabric.metrics.report()
    return {
        "decisions": len(verdicts),
        "elapsed_s": round(elapsed, 3),
        "decisions_per_sec": round(len(verdicts) / elapsed, 1),
        "cache_hits": report.get("ubf_cache_hits", 0),
        "ident_round_trips": report.get("ident_round_trips", 0),
    }, _as_bits(verdicts), daemon


def run_columnar_trial(pool, chunks, *, oracle=None,
                       tier: ZoneTier | None = None):
    """The hot-path deployment: pool columns resolved once, one reused
    FlowBatch, per-chunk gather + decide_columns."""
    fabric, daemon, _ = build_rig(oracle=oracle, tier=tier)
    src = daemon.columns_from_packets(pool)
    pool_su = src.src_uid[:POOL].copy()
    pool_lu = src.listener_uid[:POOL].copy()
    pool_lg = src.listener_egid[:POOL].copy()
    chunk_pkts = [[pool[int(i)] for i in idx] for idx in chunks]
    fb = FlowBatch(CHUNK)
    n = sum(len(idx) for idx in chunks)
    verdicts = np.empty(n, dtype=np.uint8)
    chunk_s: list[tuple[int, float]] = []
    pos = 0
    t0 = time.perf_counter()
    for idx, cpkts in zip(chunks, chunk_pkts):
        tc = time.perf_counter()
        fb.load(pool_su[idx], pool_lu[idx], pool_lg[idx], idx)
        out = daemon.decide_columns(fb, cpkts)
        chunk_s.append((len(idx), time.perf_counter() - tc))
        verdicts[pos:pos + len(idx)] = out
        pos += len(idx)
    elapsed = time.perf_counter() - t0
    # per-decision latency once the cache is warm (the pool has been seen
    # at least once): the steady-state cache-hit regime E27 reports on
    warm_from = (POOL + CHUNK - 1) // CHUNK
    warm = [s / c for c, s in chunk_s[warm_from:]] or \
           [s / c for c, s in chunk_s]
    report = fabric.metrics.report()
    return {
        "decisions": n,
        "elapsed_s": round(elapsed, 3),
        "decisions_per_sec": round(n / elapsed, 1),
        "chunk": CHUNK,
        "warm_p99_us": round(float(np.percentile(warm, 99)) * 1e6, 3),
        "cache_hits": report.get("ubf_cache_hits", 0),
        "ident_round_trips": report.get("ident_round_trips", 0),
        "cache_evictions": daemon._columnar.evictions,
    }, (verdicts == V_ACCEPT).astype(np.uint8), daemon


def run_point(n_decisions: int, pool) -> dict:
    chunks = chunked_stream(n_decisions)
    cap = min(n_decisions, NAIVE_CAPS[n_decisions])
    naive, nv = run_naive_trial(pool, chunks, cap)
    batch, bv, _ = run_batch_trial(pool, chunks)
    columnar, cv, _ = run_columnar_trial(pool, chunks)
    if cap < n_decisions:
        print(f"  [naive capped at {cap} of {n_decisions} decisions — "
              f"sequential decide() does not scale; rate from the prefix]")
    identical = bool((cv == bv).all() and (nv == bv[:cap]).all())
    return {
        "decisions": n_decisions,
        "naive": naive,
        "batch": batch,
        "columnar": columnar,
        "speedup_vs_batch": round(columnar["decisions_per_sec"]
                                  / batch["decisions_per_sec"], 2),
        "speedup_vs_naive": round(columnar["decisions_per_sec"]
                                  / naive["decisions_per_sec"], 2),
        "verdicts_identical": identical,
    }


# -- memory per million cached verdicts --------------------------------------

def _dict_cache_bytes(cache) -> int:
    """Measured resident bytes of the daemon's dict cache: the dict plus
    the per-entry key/value tuples and their non-shared ints (Verdict
    members are shared singletons and not charged)."""
    total = sys.getsizeof(cache)
    for key, val in cache.items():
        total += sys.getsizeof(key) + sum(sys.getsizeof(c) for c in key)
        total += sys.getsizeof(val) + sys.getsizeof(val[1])
    return total


#: distinct principal triples for the memory comparison — the columnar
#: cache is sized so the fill lands exactly at capacity (fixed-size arrays
#: amortize honestly only when full, which is the regime the bound is for)
MEM_ENTRIES = 1 << 18


def memory_section() -> dict:
    """Fill both cache implementations with the same distinct triples and
    compare resident bytes per million cached verdicts."""
    from repro.net import ColumnarVerdictCache
    flat = ColumnarVerdictCache(MEM_ENTRIES)
    _, daemon, _ = build_rig()
    daemon.cache_capacity = None
    for i in range(MEM_ENTRIES):
        key = (10_000 + i, 1000 + i % 512, 1000 + i % 512)
        flat.insert(key[0], key[1], key[2], V_ACCEPT, now=i)
        daemon._tick = i
        daemon._cache_put(key, Verdict.ACCEPT)
    assert len(flat) == MEM_ENTRIES and flat.evictions == 0
    flat_pm = int(flat.nbytes / len(flat) * 1e6)
    dictish = daemon._cache
    dict_pm = int(_dict_cache_bytes(dictish) / len(dictish) * 1e6)
    return {
        "cached_entries": MEM_ENTRIES,
        "columnar_bytes_per_million": flat_pm,
        "dict_bytes_per_million": dict_pm,
        "ratio": round(dict_pm / max(1, flat_pm), 2),
    }


# -- separation oracle -------------------------------------------------------

def oracle_section(pool) -> dict:
    """Full-sampling fail-fast oracle over the columnar path: every cached
    hit revalidated, every full decision shadow-rederived (I2); any
    divergence aborts the benchmark."""
    from repro.oracle import SeparationOracle
    oracle = SeparationOracle(sampling_rate=1.0, fail_fast=True)
    chunks = chunked_stream(CHUNK * 4, seed=777)
    run_columnar_trial(pool, chunks, oracle=oracle)
    oracle.assert_clean()
    return {
        "checks": oracle.total_checks,
        "shadow_checks": oracle.shadow_checks,
        "violations": len(oracle.violations),
    }


# -- strict zone tier --------------------------------------------------------

def strict_tier_section(pool) -> dict:
    """The STRICT posture (fail-closed, TTL'd cache) must change *when*
    decisions are recomputed, never *what* they are (fault-free)."""
    chunks = chunked_stream(POOL * 2, seed=99)
    _, sv, sdaemon = run_columnar_trial(pool, chunks)
    _, tv, tdaemon = run_columnar_trial(pool, chunks, tier=ZoneTier.STRICT)
    return {
        "verdicts_identical": bool((sv == tv).all()),
        "cache_ttl": tdaemon.cache_ttl,
        "fail_open": tdaemon.fail_open,
        "ttl_evictions": tdaemon.fabric.metrics.counter(
            "ubf_cache_evictions_total", reason="ttl").value,
    }


# -- orchestration -----------------------------------------------------------

def run_e27(points: list[int]) -> dict:
    _, _, uid_by_port = build_rig()
    pool = packet_pool(uid_by_port)
    results = {
        "experiment": "E27",
        "mode": "full" if len(points) > 1 else "smoke",
        "pool": POOL,
        "chunk": CHUNK,
        "points": [run_point(n, pool) for n in points],
        "memory": memory_section(),
        "oracle": oracle_section(pool),
        "strict_tier": strict_tier_section(pool),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "e27_ubf.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"\n[e27] results written to {path}")
    return results


def _report(results: dict) -> None:
    print_table(
        "E27: flow decisions/sec (columnar vs batch vs naive)",
        ["decisions", "columnar/s", "batch/s", "naive/s (cap)",
         "vs batch", "warm p99 us"],
        [[p["decisions"], p["columnar"]["decisions_per_sec"],
          p["batch"]["decisions_per_sec"],
          f"{p['naive']['decisions_per_sec']} ({p['naive']['cap']})",
          f"{p['speedup_vs_batch']}x", p["columnar"]["warm_p99_us"]]
         for p in results["points"]])
    mem = results["memory"]
    print_table(
        "E27: memory per million cached verdicts",
        ["cache", "bytes/1M entries", "entries measured"],
        [["columnar (flat arrays)", mem["columnar_bytes_per_million"],
          mem["cached_entries"]],
         ["dict (decide/decide_batch)", mem["dict_bytes_per_million"],
          mem["cached_entries"]],
         ["ratio", f"{mem['ratio']}x", "-"]])
    orc, st = results["oracle"], results["strict_tier"]
    print_table(
        "E27: oracle + strict tier",
        ["pass", "checks", "shadow", "violations", "identical"],
        [["full sampling", orc["checks"], orc["shadow_checks"],
          orc["violations"], "-"],
         ["strict tier", "-", "-", "-", st["verdicts_identical"]]])


def test_e27_ubf_smoke(benchmark):
    """CI smoke: the 65k point + every differential assertion (full sweep
    with E27_FULL=1)."""
    full = os.environ.get("E27_FULL") == "1"
    points = SWEEP if full else SWEEP[:1]
    results = benchmark.pedantic(run_e27, args=(points,),
                                 rounds=1, iterations=1)
    _report(results)
    benchmark.extra_info["e27"] = {
        "points": [{k: p[k] for k in ("decisions", "speedup_vs_batch",
                                      "verdicts_identical")}
                   for p in results["points"]],
        "memory_ratio": results["memory"]["ratio"],
    }
    for p in results["points"]:
        assert p["verdicts_identical"], \
            f"verdict divergence at the {p['decisions']}-decision point"
        assert p["columnar"]["cache_hits"] > 0
    mem = results["memory"]
    assert mem["columnar_bytes_per_million"] < mem["dict_bytes_per_million"]
    assert mem["columnar_bytes_per_million"] < 100 * 1024 * 1024
    orc = results["oracle"]
    assert orc["violations"] == 0
    # UBF's I2 re-derivation counts as a plain check (shadow counters
    # belong to the scheduler/procfs differential passes)
    assert orc["checks"] > 0
    st = results["strict_tier"]
    assert st["verdicts_identical"] and st["fail_open"] is False
    assert st["ttl_evictions"] > 0  # the 2x-pool stream outlives the TTL
    if full:
        accept = next(p for p in results["points"]
                      if p["decisions"] == ACCEPTANCE_POINT)
        assert accept["speedup_vs_batch"] >= MIN_SPEEDUP, (
            f"acceptance: expected >={MIN_SPEEDUP}x over decide_batch at "
            f"{ACCEPTANCE_POINT} decisions, got "
            f"{accept['speedup_vs_batch']}x")


if __name__ == "__main__":
    res = run_e27(SWEEP if os.environ.get("E27_SMOKE") != "1" else SWEEP[:1])
    _report(res)
    accept = [p for p in res["points"]
              if p["decisions"] == ACCEPTANCE_POINT]
    if accept:
        ok = (accept[0]["speedup_vs_batch"] >= MIN_SPEEDUP
              and accept[0]["verdicts_identical"])
        print(f"[e27] acceptance {ACCEPTANCE_POINT}: "
              f"{accept[0]['speedup_vs_batch']}x "
              f"{'PASS' if ok else 'FAIL'}")
        raise SystemExit(0 if ok else 1)
