"""flow-flood: the UBF batch decision path under a NEW-connection flood.

After Prout et al., *Enhancing HPC Security with a User-Based Firewall*
(arXiv:1607.02982), the firewall's cost belongs on NEW-connection setup;
established flows ride the conntrack fast path.  One compute node is a
listener farm — 240 user listeners (a quarter under a project egid) and
16 root-owned services on user ports, over a 512-user population in 32
project groups — and eight other nodes host one initiator process per
user with four bound sockets each.

One closed loop drains nfqueue bursts of ``burst`` packets through
``Firewall.evaluate_batch`` on the farm.  Principal pairs (initiator,
listener) are Zipf-drawn (exponent ``zipf_s``) over all 131,072 pairs,
so the set of (uid, listener uid, egid) triples outgrows the
65,536-entry verdict cache while heavy hitters repeat; ``retransmit``
of each burst re-sends flows the previous burst accepted (conntrack
fast path).  Flows are closed after their verdict so conntrack stays
flat.  Set-up is the build of this world (cluster, planes, listener
farm, initiator sockets, pair table); ``warm`` further bursts then fill
the verdict cache before the measured ``bursts`` begin, and are counted
in neither.

``ops_per_s`` is packets decided per second of time spent in
``evaluate_batch``; ``op_p50_us`` / ``op_p90_us`` time each burst.
"""

from __future__ import annotations

import time

import numpy as np

from repro import LLSC, Cluster
from repro.kernel.node import ROOT_CREDS
from repro.net.firewall import ConnState, FiveTuple, Packet, Proto, Verdict
from repro.obs import attach_forensics
from repro.oracle import attach_oracle
from repro.oracle.oracle import SeparationViolation
from repro.persist import attach_persistence
from repro.sched.health import attach_health

from common import (WALL_CAP_S, HostClock, PassResult, SetupClock, Slicer,
                    count, ratio, rng_for, run_rounds)
from expect import ACCEPT, Model
from layers import patch_cluster
from spans import recording

NAME = "flow-flood"
#: bursts per host-clock slice
SLICE_BURSTS = 5
FARM = "c1"
USER_PORT0 = 10_000
ROOT_PORT0 = 20_000
INIT_PORT0 = 30_000

SIZES = {
    "full": dict(users=512, projects=32, initiator_nodes=8, sockets=4,
                 listeners=240, root_listeners=16, burst=256,
                 retransmit=0.1, zipf_s=0.8, warm=400, bursts=1000,
                 oracle_rate=0.01),
    "smoke": dict(users=32, projects=4, initiator_nodes=2, sockets=2,
                  listeners=12, root_listeners=2, burst=32,
                  retransmit=0.1, zipf_s=0.8, warm=5, bursts=20,
                  oracle_rate=1.0),
}


class _World:
    """The farm, the initiators, the Zipf pair table and the model."""

    def __init__(self, sz: dict, rng, tracer):
        n, n_proj = sz["users"], sz["projects"]
        names = [f"f{i:03d}" for i in range(n)]
        projects = {f"p{p}": tuple(names[p::n_proj]) for p in range(n_proj)}
        c = self.cluster = Cluster.build(
            LLSC, n_compute=1 + sz["initiator_nodes"], users=tuple(names),
            staff=(), projects=projects)
        attach_persistence(c)
        attach_health(c).start()
        attach_forensics(c)
        attach_oracle(c, sampling_rate=sz["oracle_rate"], fail_fast=True)
        if tracer is not None:
            patch_cluster(tracer, c)
        self.fw = c.node(FARM).net.firewall

        self.model = Model()
        uid = [c.user(u).uid for u in names]
        pgid = [c.userdb.group(f"p{p}").gid for p in range(n_proj)]
        for i in range(n):
            self.model.add_member(uid[i], pgid[i % n_proj])

        # listener farm: (port, uid, egid); user listeners on every other
        # user, a quarter of them under the owner's project egid
        farm = c.node(FARM)
        self.listeners = []
        for k in range(sz["listeners"]):
            owner = (2 * k) % n
            creds = c.userdb.credentials_for(c.user(names[owner]))
            if k % 4 == 0:
                creds = creds.with_egid(pgid[owner % n_proj])
            self._listen(farm, creds, USER_PORT0 + k)
            self.listeners.append((USER_PORT0 + k, creds.uid, creds.egid))
        for k in range(sz["root_listeners"]):
            self._listen(farm, ROOT_CREDS, ROOT_PORT0 + k)
            self.listeners.append((ROOT_PORT0 + k, 0, 0))

        # initiators: user i on node c(2 + i % nodes) with bound sockets
        self.initiators = []
        per_node = sz["initiator_nodes"]
        for i in range(n):
            host = f"c{2 + i % per_node}"
            node = c.node(host)
            proc = node.procs.spawn(
                c.userdb.credentials_for(c.user(names[i])), ["client"])
            ports = [INIT_PORT0 + (i // per_node) * sz["sockets"] + s
                     for s in range(sz["sockets"])]
            for port in ports:
                node.net.bind(proc, port)
            self.initiators.append((host, ports, uid[i]))

        # Zipf over all (initiator, listener) pairs, ranks shuffled
        n_pairs = n * len(self.listeners)
        gen = np.random.default_rng(rng.getrandbits(64))
        weights = 1.0 / np.arange(1, n_pairs + 1) ** sz["zipf_s"]
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.pair_of_rank = gen.permutation(n_pairs)
        self.gen = gen
        self.next_socket = [0] * n
        self.live: dict[FiveTuple, int] = {}   # accepted, still open

    @staticmethod
    def _listen(node, creds, port: int) -> None:
        proc = node.procs.spawn(creds, ["service", str(port)])
        node.net.listen(node.net.bind(proc, port))

    def burst(self, sz: dict, rng) -> tuple[list[Packet], list[str]]:
        """Draw one burst and the model's verdict for each packet."""
        size = sz["burst"]
        n_re = min(len(self.live), int(size * sz["retransmit"]))
        pkts, expect = [], []
        for flow in rng.sample(list(self.live), n_re):
            pkts.append(Packet(flow, ConnState.ESTABLISHED, payload_len=512,
                               src_uid=self.live[flow]))
            expect.append(ACCEPT)
        n_l = len(self.listeners)
        ranks = np.searchsorted(self.cdf, self.gen.random(size - n_re))
        for pair in self.pair_of_rank[ranks].tolist():
            i, k = divmod(pair, n_l)
            host, ports, uid = self.initiators[i]
            s = self.next_socket[i]
            self.next_socket[i] = (s + 1) % len(ports)
            port, l_uid, l_egid = self.listeners[k]
            flow = FiveTuple(Proto.TCP, host, ports[s], FARM, port)
            pkts.append(Packet(flow, ConnState.NEW, src_uid=uid))
            expect.append(ACCEPT if flow in self.live
                          else self.model.ubf_verdict(uid, l_uid, l_egid))
        return pkts, expect

    def close_previous(self, pkts, verdicts, n_re: int) -> None:
        """Close the flows the previous burst opened; this burst's
        accepted NEW flows stay open for the next burst's retransmits."""
        opened = {p.flow: p.src_uid
                  for p, v in zip(pkts[n_re:], verdicts[n_re:])
                  if v is Verdict.ACCEPT}
        ct = self.fw.conntrack
        for flow in self.live:
            if flow not in opened:
                ct.evict(flow, reason="close")
        self.live = opened


def run(seed: int, seconds: float, *, tracer=None, size: str = "full",
        rounds: int | None = None, wall_cap: float = WALL_CAP_S
        ) -> PassResult:
    sz = SIZES[size]
    res = PassResult(NAME)
    tally = {"packets": 0, "denied": 0, "audit": 0}

    clock = HostClock()

    def drive(w: _World, rng, k: int, slicer: Slicer | None) -> None:
        pkts, expect = w.burst(sz, rng)
        n_re = sum(1 for p in pkts if p.state is ConnState.ESTABLISHED)
        if tracer is not None:
            tracer.rid = k
        t0 = time.perf_counter_ns()
        verdicts = w.fw.evaluate_batch(pkts)
        ns = time.perf_counter_ns() - t0
        for pkt, got, want in zip(pkts, verdicts, expect):
            if (got is Verdict.ACCEPT) != (want == ACCEPT):
                res.breach(f"{NAME}: {pkt.flow} uid {pkt.src_uid}: "
                           f"{got.value}, expected {want}")
        w.close_previous(pkts, verdicts, n_re)
        if slicer is not None:
            slicer.add(ns / 1e9, ns)
            res.work += len(pkts)
            res.attempted += len(pkts)
            tally["packets"] += len(pkts)
            tally["denied"] += sum(v is not Verdict.ACCEPT for v in verdicts)
            res.digest.add(k, bytes(v is Verdict.ACCEPT for v in verdicts))

    def one_round(index: int) -> None:
        rng = rng_for(NAME, seed, index)
        setup = SetupClock(res, clock)
        w = _World(sz, rng, tracer)
        c = w.cluster
        base = None
        setup.done()
        try:
            for k in range(sz["warm"]):
                drive(w, rng, k, None)
            clock.mark()
            base = count(c.metrics)
            slicer = Slicer(res, clock, SLICE_BURSTS)
            with recording(tracer):
                for k in range(sz["bursts"]):
                    drive(w, rng, k, slicer)
            slicer.close()
        except SeparationViolation as exc:
            res.oracle_violations += 1
            res.breach(f"{NAME}: oracle violation: {exc}")
        if base is not None:
            res.add_counters(c.metrics, base)
        res.oracle_checks += c.oracle.total_checks
        res.oracle_violations += len(c.oracle.violations)
        tally["audit"] += len(c.forensics.audit)

    run_rounds(res, seconds, one_round, rounds=rounds, wall_cap=wall_cap)
    c = res.counters
    decided = c.get("nfqueue_decisions", 0)
    res.props = {
        "ubf_cache_hit_share": ratio(c.get("ubf_cache_hits", 0), decided),
        "conntrack_fastpath_share": ratio(
            c.get("conntrack_fastpath_packets", 0), tally["packets"]),
        "ident_rtt_per_decision": ratio(c.get("ident_round_trips", 0),
                                        decided),
        "denial_share": ratio(tally["denied"], tally["packets"]),
        "cache_evictions": c.get("ubf_cache_evictions_total", 0),
    }
    res.layer = {
        "props.denial_share": res.props["denial_share"],
        "obs.audit_records": ratio(tally["audit"], res.rounds),
    }
    e2e = res.end_to_end()
    res.named = {
        "decisions_per_s": (e2e["ops_per_s"], "1/s"),
        "burst_p50_us": (e2e["op_p50_us"], "us"),
        "burst_p99_us": (res.pct_us(99), "us"),
    }
    return res
