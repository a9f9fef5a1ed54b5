"""Regression tests for the PR 9 UBF hardening pair.

1. **Ident-spoof cross-check** — a compromised initiating host's identd
   (``FaultKind.IDENT_SPOOF``) claims the victim's identity; the receiving
   daemon must catch the contradiction against the kernel-stamped packet
   uid and DROP with ``DecisionReason.IDENT_MISMATCH``, on every decision
   path (naive decide, per-packet decide, coalesced batch).

2. **Generation cache invalidation** — a project revocation bumps
   ``UserDB.generation``; every decision-cache variant must flush so a
   revoked member's *fresh* session cannot replay the pre-revocation
   cross-user ACCEPT (the allow-sets were already generation-checked; the
   verdict caches were the hole).
"""

from __future__ import annotations

import pytest

from repro.faults import FaultKind
from repro.kernel.errors import TimedOut
from repro.net import ConnState, FiveTuple, Packet, Proto, Verdict
from repro.net.ubf import DecisionReason

from tests.net.conftest import build_fabric, proc_on


def serve(nodes, userdb, host, user, port):
    p = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    return net.listen(net.bind(p, port)), p


def spoof_as(fabric, userdb, host, username):
    """Compromise *host*'s identd: it answers with *username*'s identity."""
    user = userdb.user(username)
    return fabric.faults.inject(
        FaultKind.IDENT_SPOOF, host, uid=user.uid, egid=user.primary_gid,
        groups=(user.primary_gid,))


def pkt(flow_src, src_port, dst, dst_port, *, src_uid):
    return Packet(FiveTuple(Proto.TCP, flow_src, src_port, dst, dst_port),
                  ConnState.NEW, src_uid=src_uid)


class TestIdentSpoofCrossCheck:
    def test_connect_with_forged_ident_dropped(self, ubf_fabric, userdb):
        fabric, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        spoof_as(fabric, userdb, "c1", "alice")
        bob = proc_on(nodes, "c1", userdb, "bob")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(bob, "c2", 5000)
        assert fabric.metrics.counter("ubf_ident_mismatches").value >= 1

    def test_mismatch_logged_with_reason(self, ubf_fabric, userdb):
        fabric, nodes, daemons = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        spoof_as(fabric, userdb, "c1", "alice")
        bob = proc_on(nodes, "c1", userdb, "bob")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(bob, "c2", 5000)
        entry = daemons["c2"].log[-1]
        assert entry.verdict is Verdict.DROP
        assert "contradicts kernel-stamped" in entry.reason
        assert fabric.metrics.counter(
            "ubf_verdicts_total", verdict="drop",
            reason=DecisionReason.IDENT_MISMATCH.value).value == 1

    def test_spoof_matching_kernel_uid_not_flagged(self, ubf_fabric,
                                                   userdb):
        """A 'spoof' that tells the truth about the uid is just an honest
        reply as far as the cross-check goes: alice still reaches her own
        service (the check must not add false positives)."""
        fabric, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        spoof_as(fabric, userdb, "c1", "alice")
        alice = proc_on(nodes, "c1", userdb, "alice")
        conn = nodes["c1"].net.connect(alice, "c2", 5000)
        assert conn.open
        assert fabric.metrics.counter("ubf_ident_mismatches").value == 0

    def test_batch_path_catches_forged_ident(self, ubf_fabric, userdb):
        fabric, nodes, daemons = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        spoof_as(fabric, userdb, "c1", "alice")
        bob = proc_on(nodes, "c1", userdb, "bob")
        nodes["c1"].net.bind(bob, 40001)
        verdicts = daemons["c2"].decide_batch(
            [pkt("c1", 40001, "c2", 5000, src_uid=bob.creds.uid)])
        assert verdicts == [Verdict.DROP]
        assert fabric.metrics.counter("ubf_ident_mismatches").value >= 1


class TestGenerationCacheFlush:
    def _warm_group_accept(self, nodes, daemons, userdb):
        """dave (fusion member) connects to carol's sg-fusion listener on
        c2, leaving a cross-user ACCEPT in c2's verdict cache."""
        fusion = userdb.group("fusion").gid
        carol = proc_on(nodes, "c2", userdb, "carol")
        carol.creds = carol.creds.with_egid(fusion)
        nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 7000))
        dave = proc_on(nodes, "c1", userdb, "dave")
        conn = nodes["c1"].net.connect(dave, "c2", 7000)
        assert conn.open
        return carol

    def test_revoked_member_fresh_session_dropped(self, ubf_fabric, userdb):
        fabric, nodes, daemons = ubf_fabric
        self._warm_group_accept(nodes, daemons, userdb)
        userdb.remove_from_project("fusion", userdb.user("dave"),
                                   approver=userdb.user("carol"))
        dave2 = proc_on(nodes, "c1", userdb, "dave")  # fresh login creds
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(dave2, "c2", 7000)
        assert fabric.metrics.counter(
            "ubf_cache_purged_total", reason="membership-change").value >= 1

    def test_stale_session_still_accepted_via_snapshot(self, ubf_fabric,
                                                       userdb):
        """The *already logged in* revoked member keeps his initgroups
        snapshot (exactly like a real login session): the full decision's
        snapshot fallback accepts him.  Only fresh sessions see the
        revocation — the cache flush must not overreach into re-deciding
        live credentials."""
        _, nodes, daemons = ubf_fabric
        self._warm_group_accept(nodes, daemons, userdb)
        dave_stale = proc_on(nodes, "c1", userdb, "dave")  # pre-revocation
        userdb.remove_from_project("fusion", userdb.user("dave"),
                                   approver=userdb.user("carol"))
        conn = nodes["c1"].net.connect(dave_stale, "c2", 7000)
        assert conn.open

    def test_unrelated_membership_change_costs_one_flush(self, ubf_fabric,
                                                         userdb):
        """Any generation bump flushes (coarse by design), but steady
        state with no membership churn never purges."""
        fabric, nodes, daemons = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        alice = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.connect(alice, "c2", 5000)
        alice2 = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.connect(alice2, "c2", 5000)
        assert fabric.metrics.counter(
            "ubf_cache_purged_total", reason="membership-change").value == 0

    def test_naive_cache_also_flushed(self, userdb):
        fabric, nodes, daemons = build_fabric(
            userdb, ["c1", "c2"], ubf=True)
        for d in daemons.values():
            d.naive = True
        self._warm_group_accept(nodes, daemons, userdb)
        userdb.remove_from_project("fusion", userdb.user("dave"),
                                   approver=userdb.user("carol"))
        dave2 = proc_on(nodes, "c1", userdb, "dave")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(dave2, "c2", 7000)
