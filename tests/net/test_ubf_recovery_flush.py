"""Regression: the UBF verdict cache must honor the recovery generation bump.

Journal replay rebuilds ``UserDB.generation`` numerically *equal* to its
pre-crash value, and ``_revalidate_generation`` early-returns on equality
— so without the recovery bump + :meth:`UBFDaemon.resync`, every verdict
cached before the control-plane crash would read as current afterwards.
Same family as the membership-flush tests in ``test_ubf_hardening.py``,
but through the crash/recover path: the verdict cache and the
``restart()`` re-sync path must both land on the bumped generation.
"""

from __future__ import annotations

import pytest

from repro import LLSC, Cluster
from repro.kernel.errors import TimedOut
from repro.persist import attach_persistence


def build_cluster():
    c = Cluster.build(LLSC, n_compute=2,
                      users=("carol", "dave"),
                      projects={"fusion": ("carol", "dave")})
    attach_persistence(c)
    return c


def fusion_service(cluster, port=7000):
    """carol serves on a compute node with egid fusion (sg fusion)."""
    job = cluster.submit("carol", duration=1000.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    fusion = cluster.userdb.group("fusion").gid
    shell.process.creds = shell.process.creds.with_egid(fusion)
    shell.node.net.listen(shell.node.net.bind(shell.process, port))
    return shell.node.name


def crash_recover(cluster):
    cluster.chaos().crash_scheduler()
    return cluster.recover()


class TestRecoveryFlush:
    def test_recovery_purges_every_verdict_cache(self):
        cluster = build_cluster()
        host = fusion_service(cluster)
        dave = cluster.login("dave")
        assert dave.socket().connect(host, 7000).open  # warms the cache
        daemon = cluster.ubf_daemons[host]
        assert len(daemon._cache) >= 1
        report = crash_recover(cluster)
        assert report.purged_verdicts >= 1
        assert len(daemon._cache) == 0
        for d in cluster.ubf_daemons.values():
            assert d._cache_gen == cluster.userdb.generation
            assert d._allow_gen == cluster.userdb.generation
        assert cluster.metrics.counter(
            "ubf_resyncs_total", reason="recovery").value \
            == len(cluster.ubf_daemons)

    def test_revoked_member_dropped_after_recovery(self):
        """Revoke dave, then crash before he reconnects: replay rebuilds
        the revoked membership, and the bump keeps his warm pre-crash
        ACCEPT from resurrecting via an equal-generation cache hit."""
        cluster = build_cluster()
        host = fusion_service(cluster)
        dave = cluster.login("dave")
        assert dave.socket().connect(host, 7000).open
        db = cluster.userdb
        db.remove_from_project("fusion", db.user("dave"),
                               approver=db.user("carol"))
        crash_recover(cluster)
        dave2 = cluster.login("dave")  # fresh session, fresh initgroups
        with pytest.raises(TimedOut):
            dave2.socket().connect(host, 7000)

    def test_member_in_good_standing_unaffected(self):
        cluster = build_cluster()
        host = fusion_service(cluster)
        dave = cluster.login("dave")
        assert dave.socket().connect(host, 7000).open
        crash_recover(cluster)
        dave2 = cluster.login("dave")
        assert dave2.socket().connect(host, 7000).open


class TestRestartResync:
    def test_restart_pins_generation_not_just_flushes(self):
        """Generation moves while the daemon is dead; restart() must
        re-sync to the *current* generation, not resume with the stale
        one (the flush-only restart left ``_cache_gen`` behind)."""
        cluster = build_cluster()
        host = fusion_service(cluster)
        dave = cluster.login("dave")
        assert dave.socket().connect(host, 7000).open
        chaos = cluster.chaos()
        chaos.kill_ubf(host)
        db = cluster.userdb
        db.remove_from_project("fusion", db.user("dave"),
                               approver=db.user("carol"))
        chaos.heal_all()               # restart() -> resync("restart")
        daemon = cluster.ubf_daemons[host]
        assert daemon.alive
        assert daemon._cache_gen == db.generation
        assert cluster.metrics.counter(
            "ubf_resyncs_total", reason="restart").value >= 1
        dave2 = cluster.login("dave")
        with pytest.raises(TimedOut):
            dave2.socket().connect(host, 7000)
