"""The ``UserDB.groups_of`` memo never outlives a membership change.

``credentials_for`` (ssh/PAM, portal forwarders, job spawns) reads group
membership through a per-user memo.  A stale entry would be a separation
hole — a revoked project member would keep the gid in fresh credentials —
so these tests pin that every mutation path, including snapshot restore
and journal replay after a crash, is seen by the very next call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LLSC, Cluster
from repro.kernel.errors import TimedOut
from repro.kernel.users import Group, UserDB
from repro.persist import attach_persistence
from repro.persist.recovery import _rp_member_del


def fresh_scan(db: UserDB, user) -> frozenset[int]:
    """The memo-free answer: scan every group for *user*'s uid."""
    return frozenset(g.gid for g in db._groups.values()
                     if user.uid in g.members) | {user.primary_gid}


def assert_memo_matches_scan(db: UserDB) -> None:
    for user in db.users():
        assert db.groups_of(user) == fresh_scan(db, user), user.name


def fusion_cluster():
    cluster = Cluster.build(LLSC, n_compute=2, users=("carol", "dave"),
                            projects={"fusion": ("carol", "dave")})
    attach_persistence(cluster)
    return cluster


def fusion_service(cluster, port=7000):
    """carol serves on a compute node with egid fusion (sg fusion)."""
    job = cluster.submit("carol", duration=1000.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    fusion = cluster.userdb.group("fusion").gid
    shell.process.creds = shell.process.creds.with_egid(fusion)
    shell.node.net.listen(shell.node.net.bind(shell.process, port))
    return shell.node.name


class TestRevocation:
    def test_memo_hands_out_the_same_frozenset(self, userdb):
        carol = userdb.user("carol")
        assert userdb.groups_of(carol) is userdb.groups_of(carol)

    def test_revocation_seen_by_credentials_ssh_and_ubf(self):
        cluster = fusion_cluster()
        db = cluster.userdb
        fusion = db.group("fusion").gid
        dave = db.user("dave")
        host = fusion_service(cluster)
        # warm every consumer of the memo while dave is a member
        assert fusion in db.credentials_for(dave).groups
        assert fusion in cluster.ssh("dave", "login1").creds.groups
        assert cluster.login("dave").socket().connect(host, 7000).open

        db.remove_from_project("fusion", dave, approver=db.user("carol"))

        assert fusion not in db.credentials_for(dave).groups
        assert fusion not in cluster.ssh("dave", "login1").creds.groups
        def drops(reason):
            return cluster.metrics.counter(
                "ubf_verdicts_total", verdict="drop", reason=reason).value

        cached_drops, full_drops = drops("cached"), drops("cross-user")
        with pytest.raises(TimedOut):
            cluster.login("dave").socket().connect(host, 7000)
        # the refusal came from a full decision, not a cached verdict
        assert drops("cross-user") == full_drops + 1
        assert drops("cached") == cached_drops
        assert cluster.metrics.counter(
            "ubf_cache_purged_total", reason="membership-change").value >= 1

    def test_group_registration_drops_the_memo(self, userdb):
        """Registering a group does not move ``generation`` by itself; the
        memo must still see the new membership."""
        alice = userdb.user("alice")
        before = userdb.groups_of(alice)
        userdb._register_group(Group("extra", 4242, members={alice.uid}))
        assert userdb.groups_of(alice) == before | {4242}

    def test_replay_at_an_equal_generation_drops_the_memo(self, userdb):
        """Journal replay sets ``generation`` from the record; even when
        that equals the memo's generation the memo must be dropped."""
        dave = userdb.user("dave")
        fusion = userdb.group("fusion").gid
        assert fusion in userdb.groups_of(dave)
        cluster = type("C", (), {"userdb": userdb})()
        _rp_member_del(cluster, {"gid": fusion, "uid": dave.uid,
                                 "gen": userdb.generation})
        assert fusion not in userdb.groups_of(dave)


class TestCrashRecover:
    def test_membership_changed_after_snapshot(self):
        cluster = fusion_cluster()
        db = cluster.userdb
        carol = db.user("carol")
        fusion = db.group("fusion").gid
        eve = db.add_user("eve")
        assert_memo_matches_scan(db)            # warm the memo
        db.add_to_project("fusion", eve, approver=carol)
        db.remove_from_project("fusion", db.user("dave"), approver=carol)
        assert_memo_matches_scan(db)
        ops = [r["op"] for r in cluster.persist.journal.records()]
        assert {"member_add", "member_del"} <= set(ops)

        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        assert report.identical and report.replayed >= 2

        assert_memo_matches_scan(db)
        assert fusion in db.credentials_for(db.user("eve")).groups
        assert fusion not in db.credentials_for(db.user("dave")).groups
        assert fusion not in cluster.ssh("dave", "login1").creds.groups


# -- property: any mutation sequence keeps the memo equal to a fresh scan --

_ops = st.lists(
    st.tuples(st.sampled_from(("user", "project", "add", "remove",
                               "query")),
              st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=40)


@settings(max_examples=60)
@given(upg=st.booleans(), ops=_ops)
def test_memo_equals_fresh_scan(upg, ops):
    db = UserDB(upg=upg)
    root = db.user("root")
    users = [db.add_user("u0")]
    projects: list[Group] = []
    for i, (op, a, b) in enumerate(ops):
        if op == "user":
            users.append(db.add_user(f"u{i + 1}"))
        elif op == "project":
            projects.append(db.add_project_group(
                f"p{i}", steward=users[a % len(users)]))
        elif op in ("add", "remove") and projects:
            grp = projects[a % len(projects)]
            user = users[b % len(users)]
            if op == "add":
                db.add_to_project(grp, user, approver=root)
            else:
                db.remove_from_project(grp, user, approver=root)
        else:
            db.credentials_for(users[a % len(users)])
        assert_memo_matches_scan(db)
