"""UBF burst path: ``decide_batch`` against its references.

``decide``/``decide_batch`` is the daemon's one fast path and ``naive``
its differential reference.  These tests pin (a) the one verdict cache
both fast-path entry points share — LRU bound, LRU touch, TTL expiry and
eviction counters — and (b) the property that makes the burst path
shippable: verdicts identical to per-packet ``decide`` and to ``naive``
under random principal mixes, uid stamps, zone tiers and injected identd
faults, with the same counters, audit records, spans and oracle checks.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind
from repro.net import ConnState, FiveTuple, Packet, Proto, Verdict
from repro.net.zones import POSTURES, ZoneTier, apply_tier
from repro.obs import Tracer
from repro.obs.audit import AuditTrail
from repro.oracle import SeparationOracle

from tests.net.conftest import build_fabric, proc_on


def listen_on(nodes, userdb, host, user, port):
    proc = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    net.listen(net.bind(proc, port))
    return proc


def initiator_on(nodes, userdb, host, user, src_port):
    proc = proc_on(nodes, host, userdb, user, argv=("client",))
    nodes[host].net.bind(proc, src_port)
    return proc


def pkt(src_port, dst_port, *, src_uid=None, src="c1", dst="c2"):
    return Packet(FiveTuple(Proto.TCP, src, src_port, dst, dst_port),
                  ConnState.NEW, src_uid=src_uid)


class TestNaiveCacheBound:
    def test_naive_path_evicts_lru(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        daemon = daemons["c2"]
        daemon.naive = True
        daemon.cache_capacity = 2
        for port, user in ((5000, "alice"), (5001, "bob"),
                           (5002, "carol")):
            listen_on(nodes, userdb, "c2", user, port)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        for dst in (5000, 5001, 5002):
            daemon.decide(pkt(40000, dst))
        assert len(daemon._cache) == 2
        assert fabric.metrics.counter("ubf_cache_evictions_total",
                                      reason="lru").value == 1


def build_scenario(userdb, *, fail_open=False, cache=True):
    """Two hosts, listeners covering every rule outcome, initiators for
    each principal; returns (fabric, nodes, daemon)."""
    fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                          cache=cache)
    daemon = daemons["c2"]
    daemon.fail_open = fail_open
    listen_on(nodes, userdb, "c2", "alice", 5000)
    carol = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
    carol.creds = carol.creds.with_egid(userdb.group("fusion").gid)
    nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5001))
    listen_on(nodes, userdb, "c2", "root", 5002)
    listen_on(nodes, userdb, "c2", "bob", 5003)
    initiator_on(nodes, userdb, "c1", "alice", 40000)
    initiator_on(nodes, userdb, "c1", "bob", 40001)
    initiator_on(nodes, userdb, "c1", "dave", 40002)
    initiator_on(nodes, userdb, "c1", "root", 40003)
    return fabric, nodes, daemon


SRC_PORTS = (40000, 40001, 40002, 40003, 49999)  # 49999: unbound port
DST_PORTS = (5000, 5001, 5002, 5003, 6000)       # 6000: no listener


def stamped(userdb, src_port, dst_port):
    """A kernel-stamped packet from one of the scenario's initiators."""
    return pkt(src_port, dst_port,
               src_uid=userdb.user(PORT_UID[src_port]).uid)


def hits(fabric):
    return fabric.metrics.report().get("ubf_cache_hits", 0)


class TestBoundedDaemonCache:
    """The one verdict dict behind ``decide`` and ``decide_batch``:
    LRU bound, LRU touch on a hit, TTL expiry, and eviction counters."""

    def test_lru_eviction(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.cache_capacity = 4
        first = [stamped(userdb, sp, dp) for sp in (40000, 40001)
                 for dp in (5000, 5001, 5003)]
        for p in first:
            daemon.decide(p)
        assert len(daemon._cache) == 4
        assert fabric.metrics.counter("ubf_cache_evictions_total",
                                      reason="lru").value == 2
        daemon.decide(first[-1])                  # newest: still cached
        assert hits(fabric) == 1
        daemon.decide(first[0])                   # oldest: evicted
        assert hits(fabric) == 1

    def test_get_is_an_lru_touch(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.cache_capacity = 2
        a, b, c = (stamped(userdb, 40000, dp) for dp in (5000, 5001, 5003))
        daemon.decide(a)
        daemon.decide(b)
        daemon.decide(a)          # hit: a is now most recently used
        daemon.decide(c)          # evicts b, not a
        assert hits(fabric) == 1
        daemon.decide(a)
        assert hits(fabric) == 2
        daemon.decide(b)
        assert hits(fabric) == 2

    def test_ttl_expiry(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.cache_ttl = 10
        alice = stamped(userdb, 40000, 5000)
        daemon.decide(alice)                      # stored at tick 1
        for _ in range(9):                        # ticks 2..10
            daemon.decide(pkt(40001, 6000))
        daemon.decide(alice)                      # tick 11: age 10
        assert hits(fabric) == 1
        daemon.decide(alice)                      # tick 12: age 11
        assert hits(fabric) == 1
        assert fabric.metrics.counter("ubf_cache_evictions_total",
                                      reason="ttl").value == 1

    def test_unbounded_when_capacity_is_none(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.cache_capacity = None
        daemon.decide_batch([stamped(userdb, sp, dp)
                             for sp in (40000, 40001, 40002, 40003)
                             for dp in (5000, 5001, 5003)])
        assert len(daemon._cache) == 12
        assert not any(k.startswith("ubf_cache_evictions_total")
                       for k in fabric.metrics.report())

    def test_batch_and_decide_share_one_cache(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        alice = stamped(userdb, 40000, 5000)
        daemon.decide_batch([alice])
        assert daemon.decide(alice) is Verdict.ACCEPT
        assert hits(fabric) == 1


def decide_each(daemon, pkts):
    """The per-packet fast path: one ``decide`` per packet, in order."""
    return [daemon.decide(p) for p in pkts]


#: one nfqueue drain of the burst path
BURST = 256


class TestBatchMatchesReferences:
    def test_rule_matrix_identical_across_paths(self, userdb):
        """Every (initiator, listener) combination, decided three ways."""
        pkts = [pkt(sp, dp) for sp in SRC_PORTS for dp in DST_PORTS]

        def run(mode):
            fabric, nodes, daemon = build_scenario(userdb)
            if mode == "naive":
                daemon.naive = True
            if mode == "decide":
                return decide_each(daemon, list(pkts))
            return daemon.decide_batch(list(pkts))

        naive = run("naive")
        assert run("decide") == naive
        assert run("batch") == naive

    def test_cached_second_round_identical_and_rtt_free(self, userdb):
        stamped = [pkt(40000 + i, 5000, src_uid=userdb.user(u).uid)
                   for i, u in enumerate(("alice", "bob", "dave"))]
        fabric, nodes, daemon = build_scenario(userdb)
        first = daemon.decide_batch(stamped)
        rtt_before = fabric.metrics.report()["ident_round_trips"]
        second = daemon.decide_batch(stamped)
        assert second == first
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == rtt_before  # all cache hits
        assert rep["ubf_cache_hits"] == 3

    def test_degraded_group_matches_naive_policy(self, userdb):
        for fail_open in (False, True):
            verdicts = {}
            for mode in ("naive", "batch"):
                fabric, nodes, daemon = build_scenario(
                    userdb, fail_open=fail_open)
                daemon.naive = mode == "naive"
                fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
                verdicts[mode] = daemon.decide_batch(
                    [pkt(40000, 5000), pkt(40001, 5000)])
            assert verdicts["batch"] == verdicts["naive"]
            expected = Verdict.ACCEPT if fail_open else Verdict.DROP
            assert verdicts["batch"] == [expected, expected]

    def test_degraded_batch_verdicts_never_cached(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fault = fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        alice = stamped(userdb, 40000, 5000)
        assert daemon.decide_batch([alice]) == [Verdict.DROP]
        assert len(daemon._cache) == 0
        fabric.faults.clear(fault)
        assert daemon.decide_batch([alice]) == [Verdict.ACCEPT]
        assert len(daemon._cache) == 1

    def test_strict_tier_changes_posture_not_verdicts(self, userdb):
        """The STRICT posture (fail-closed, TTL'd cache) changes *when*
        a burst stream's decisions are recomputed, never *what* they are
        (fault-free)."""
        rng = random.Random(99)
        stream = [[stamped(userdb, rng.choice(SRC_PORTS[:4]),
                           rng.choice(DST_PORTS)) for _ in range(BURST)]
                  for _ in range(24)]
        ttl = POSTURES[ZoneTier.STRICT].cache_ttl
        assert 24 * BURST > ttl  # cached entries outlive the TTL

        def run(tier):
            fabric, nodes, daemon = build_scenario(userdb, fail_open=True)
            apply_tier(daemon, tier)
            verdicts = [daemon.decide_batch(b) for b in stream]
            return verdicts, daemon, fabric.metrics.counter(
                "ubf_cache_evictions_total", reason="ttl").value

        standard, _, standard_ttl = run(ZoneTier.STANDARD)
        strict, daemon, strict_ttl = run(ZoneTier.STRICT)
        assert strict == standard
        assert daemon.cache_ttl == ttl and daemon.fail_open is False
        assert standard_ttl == 0
        assert strict_ttl > 0


@st.composite
def burst(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    rows = []
    for _ in range(n):
        sp = draw(st.sampled_from(SRC_PORTS))
        dp = draw(st.sampled_from(DST_PORTS))
        stamp = draw(st.booleans())
        rows.append((sp, dp, stamp))
    return rows


PORT_UID = {40000: "alice", 40001: "bob", 40002: "dave", 40003: "root"}


def make_userdb():
    """Fresh per-example database (hypothesis cannot reuse the fixture)."""
    from repro.kernel.users import UserDB
    db = UserDB(upg=True)
    db.add_user("alice")
    db.add_user("bob")
    carol = db.add_user("carol")
    dave = db.add_user("dave")
    grp = db.add_project_group("fusion", steward=carol)
    db.add_to_project(grp, dave, approver=carol)
    return db


class TestBatchProperty:
    @settings(max_examples=30, deadline=None)
    @given(rows=burst(), faulty=st.booleans(), fail_open=st.booleans(),
           strict=st.booleans())
    def test_three_paths_agree_under_random_mixes(self, rows, faulty,
                                                  fail_open, strict):
        """Per-packet decide ⇄ decide_batch ⇄ naive verdict identity under
        random principal/port mixes, uid stamps, zone tiers, and identd
        faults."""
        def make_pkts(db):
            out = []
            for sp, dp, stamp in rows:
                uid = None
                if stamp and sp in PORT_UID:
                    uid = db.user(PORT_UID[sp]).uid
                out.append(pkt(sp, dp, src_uid=uid))
            return out

        def run(mode):
            db = make_userdb()
            fabric, nodes, daemon = build_scenario(
                db, fail_open=fail_open)
            if strict:
                apply_tier(daemon, ZoneTier.STRICT)
            if faulty:
                fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
            pkts = make_pkts(db)
            mid = len(pkts) // 2
            if mode == "decide":
                return decide_each(daemon, pkts)
            daemon.naive = mode == "naive"
            return (daemon.decide_batch(pkts[:mid])
                    + daemon.decide_batch(pkts[mid:]))

        naive = run("naive")
        assert run("decide") == naive
        assert run("batch") == naive


class TestBatchTracing:
    def test_decide_batch_emits_batch_and_group_spans(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.tracer = tracer = Tracer()
        daemon.decide_batch([pkt(40000, 5000), pkt(40000, 5001),
                             pkt(40001, 5000)])
        parent = tracer.by_name("ubf.decide_batch")[0]
        assert parent.tags["n"] == 3
        # alice->alice accepts; alice->carol(fusion) and bob->alice drop
        assert parent.tags["accepts"] == 1 and parent.tags["drops"] == 2
        groups = tracer.by_name("ubf.ident_group")
        assert len(groups) == 2  # two initiating processes
        assert all(g.parent_id == parent.span_id for g in groups)
        assert {g.tags["src"] for g in groups} == {"c1:40000", "c1:40001"}
        assert all(g.finished for g in groups) and parent.finished

    def test_degraded_group_span_is_annotated(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.tracer = tracer = Tracer()
        fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        daemon.decide_batch([pkt(40000, 5000)])
        group = tracer.by_name("ubf.ident_group")[0]
        assert group.tags["status"] == "degraded"


class TestFirewallBatchWiring:
    def test_evaluate_batch_reaches_daemon_once(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fw = daemon.stack.firewall
        pkts = [pkt(40000, 5000), pkt(40000, 5001), pkt(40001, 5003)]
        verdicts = fw.evaluate_batch(pkts)
        # alice->alice ok; alice->carol(fusion egid) denied; bob->bob ok
        assert verdicts == [Verdict.ACCEPT, Verdict.DROP, Verdict.ACCEPT]
        # accepted flows committed to conntrack: burst replay is fastpath
        again = fw.evaluate_batch([pkts[0], pkts[2]])
        assert again == [Verdict.ACCEPT] * 2
        assert fabric.metrics.report()["conntrack_fastpath_packets"] == 2

    def test_crash_detaches_batch_handler(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fw = daemon.stack.firewall
        daemon.crash()
        assert fw.evaluate_batch([pkt(40000, 5000)]) == [Verdict.DROP]
        daemon.restart()
        assert fw.evaluate_batch([pkt(40000, 5000)]) == [Verdict.ACCEPT]


#: counters decide_batch bulk-increments per closed reason
VERDICT_COUNTERS = ("ubf_verdicts_total", "ubf_denials", "ubf_cache_hits",
                    "ubf_full_decisions")


def verdict_counters(fabric) -> dict:
    return {k: v for k, v in fabric.metrics.report().items()
            if k.startswith(VERDICT_COUNTERS)}


def allow_rows(trail) -> list:
    return sorted((r.uid, r.node, r.target, r.detail)
                  for r in trail.records
                  if r.mechanism == "ubf" and r.action == "allow")


class TestDecideMemory:
    """A long ``decide`` loop holds no per-decision state: over a fixed
    set of principal triples (so the verdict cache stays one size) the
    daemon's memory stays flat, with its ``on_decision`` hook armed."""

    #: allowed tracemalloc growth over the measured loop, in bytes; a
    #: per-decision record of even 10 bytes would exceed it
    GROWTH_BOUND = 128 * 1024
    DECISIONS = 24_000

    def test_memory_flat_over_long_decide_loop(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        reported = [0]

        def on_decision(pkt_, decision):
            reported[0] += 1

        daemon.on_decision = on_decision
        # stamped packets answer from the cache; unstamped ones take the
        # full ident path every time (cross-user and unidentifiable DROPs
        # reach the hook)
        pkts = [stamped(userdb, sp, dp) for sp in PORT_UID
                for dp in DST_PORTS]
        pkts += [pkt(sp, dp) for sp in SRC_PORTS for dp in DST_PORTS]
        for p in pkts * 4:  # warm-up: cache, allow-sets, counter series
            daemon.decide(p)
        cache_size = len(daemon._cache)
        rounds = -(-self.DECISIONS // len(pkts))
        warm_reports = reported[0]

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(rounds):
                for p in pkts:
                    daemon.decide(p)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert rounds * len(pkts) >= 20_000
        assert len(daemon._cache) == cache_size
        assert reported[0] > warm_reports  # the hook really ran
        assert after - before < self.GROWTH_BOUND


class TestBatchMatchesDecide:
    """``decide_batch`` against per-packet ``decide`` over bursts of
    distinct principal triples (so a sequential decision can never hit
    an entry an earlier packet of the same burst created)."""

    def _run(self, db, rounds, mode):
        fabric, nodes, daemon = build_scenario(db)
        daemon.audit = AuditTrail()
        daemon.oracle = oracle = SeparationOracle(sampling_rate=1.0,
                                                  fail_fast=True)
        verdicts = []
        for burst_pkts in rounds:
            if mode == "decide":
                verdicts.append([daemon.decide(p) for p in burst_pkts])
            else:
                verdicts.append(daemon.decide_batch(burst_pkts))
        return (verdicts, verdict_counters(fabric), allow_rows(daemon.audit),
                oracle.total_checks, daemon._tick)

    @pytest.mark.parametrize("stamp", [True, False])
    def test_verdicts_counters_and_audit_identical(self, userdb, stamp):
        def burst_of(db):
            return [pkt(sp, dp, src_uid=db.user(PORT_UID[sp]).uid
                        if stamp and sp in PORT_UID else None)
                    for sp in SRC_PORTS for dp in DST_PORTS]
        # round 1 is cold (full decisions); round 2 replays the same
        # triples, so stamped packets answer from the cache
        rounds = [burst_of(userdb), burst_of(userdb)]
        seq = self._run(userdb, rounds, "decide")
        batch = self._run(userdb, rounds, "batch")
        assert batch[0] == seq[0]
        assert batch[1] == seq[1]
        assert batch[2] == seq[2]
        assert batch[3] == seq[3]          # oracle checks
        assert batch[4] == seq[4]          # one decision tick per packet
        rep = batch[1]
        assert rep["ubf_full_decisions"] > 0 and rep["ubf_denials"] > 0
        if stamp:
            assert rep["ubf_cache_hits"] > 0

    def test_degraded_rows_match_decide(self, userdb):
        pkts = [pkt(sp, dp) for sp in (40000, 40001) for dp in DST_PORTS]
        results = []
        for mode in ("decide", "batch"):
            fabric, nodes, daemon = build_scenario(userdb)
            fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
            got = (daemon.decide_batch(pkts) if mode == "batch"
                   else [daemon.decide(p) for p in pkts])
            results.append((got, verdict_counters(fabric)))
        assert results[0] == results[1]


class TestBurstOracle:
    def test_full_sampling_oracle_over_burst_stream(self, userdb):
        """A few thousand ``decide_batch`` decisions under a full-sampling
        fail-fast oracle — stamped and unstamped rows, unidentifiable
        initiators, and a group revocation mid-stream: every full
        decision is re-derived against the appendix rule and every cache
        hit revalidated (I2), with zero violations."""
        fabric, nodes, daemon = build_scenario(userdb)
        daemon.oracle = oracle = SeparationOracle(sampling_rate=1.0,
                                                  fail_fast=True)
        rng = random.Random(777)
        decided = 0
        for i in range(16):
            if i == 8:
                userdb.remove_from_project("fusion", userdb.user("dave"),
                                           approver=userdb.user("carol"))
            rows = [(rng.choice(SRC_PORTS), rng.choice(DST_PORTS))
                    for _ in range(BURST)]
            decided += len(daemon.decide_batch([
                pkt(sp, dp, src_uid=userdb.user(PORT_UID[sp]).uid
                    if sp in PORT_UID and rng.random() < 0.5 else None)
                for sp, dp in rows]))
        oracle.assert_clean()
        assert decided == 16 * BURST
        assert oracle.checks_for("I2") > 0
        rep = fabric.metrics.report()
        assert rep["ubf_cache_hits"] > 0 and rep["ubf_full_decisions"] > 0


def flow_counters(fabric) -> dict:
    rep = fabric.metrics.report()
    return {k: rep.get(k, 0) for k in ("conntrack_fastpath_packets",
                                       "rule_walks", "nfqueue_decisions")}


class TestEvaluateBatchCounters:
    def _burst(self, fw):
        """A cold burst, then a mixed one: conntrack replays of accepted
        flows, NEW flows to user ports (queued) and to a privileged
        port (ACCEPT rule)."""
        cold = [pkt(40000, 5000), pkt(40001, 5000), pkt(40001, 5003)]
        fw.evaluate_batch(cold)
        est = Packet(cold[0].flow, ConnState.ESTABLISHED, payload_len=64)
        return [est, est, pkt(40002, 5001), pkt(40000, 22),
                pkt(40003, 5000), pkt(40001, 6000)]

    def test_totals_cover_every_packet(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fw = daemon.stack.firewall
        burst_pkts = self._burst(fw)
        before = flow_counters(fabric)
        fw.evaluate_batch(burst_pkts)
        after = flow_counters(fabric)
        delta = {k: after[k] - before[k] for k in after}
        assert delta["conntrack_fastpath_packets"] == 2
        assert (delta["conntrack_fastpath_packets"] + delta["rule_walks"]
                == len(burst_pkts))
        queued = [p for p in burst_pkts if p.state is ConnState.NEW
                  and p.flow.dst_port >= 1024]
        assert delta["nfqueue_decisions"] == len(queued) == 3

    def test_matches_evaluate_per_packet(self, userdb):
        runs = []
        for mode in ("evaluate", "batch"):
            fabric, nodes, daemon = build_scenario(userdb)
            fw = daemon.stack.firewall
            burst_pkts = self._burst(fw)
            got = (fw.evaluate_batch(burst_pkts) if mode == "batch"
                   else [fw.evaluate(p) for p in burst_pkts])
            runs.append((got, flow_counters(fabric)))
        assert runs[0] == runs[1]

    def test_fail_closed_without_daemon_counts_like_evaluate(self, userdb):
        runs = []
        for mode in ("evaluate", "batch"):
            fabric, nodes, daemon = build_scenario(userdb)
            fw = daemon.stack.firewall
            burst_pkts = self._burst(fw)
            fw.unbind_nfqueue()
            base = flow_counters(fabric)
            got = (fw.evaluate_batch(burst_pkts) if mode == "batch"
                   else [fw.evaluate(p) for p in burst_pkts])
            now = flow_counters(fabric)
            runs.append((got, {k: now[k] - base[k] for k in now}))
        assert runs[0] == runs[1]
        verdicts, delta = runs[1]
        assert verdicts.count(Verdict.DROP) == delta["nfqueue_decisions"] == 3
