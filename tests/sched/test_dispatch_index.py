"""Unit tests for the free-capacity dispatch index (E24 tentpole).

The property suite (tests/prop/test_prop_dispatch.py) proves indexed ≡
naive on random streams; these tests pin the *mechanics*: what the index
contains after each lifecycle event, that the skip logic actually skips
(via the ``sched_dispatch_scan`` counter), and that the incrementally
maintained queues and core-second accumulators stay truthful.
"""

from __future__ import annotations

from repro.sched import JobState, NodeSharing, SchedulerConfig
from repro.sched.dispatch_index import PartitionIndex
from tests.sched.conftest import build_sched, spec


def _index(sched, part="normal") -> PartitionIndex:
    return sched._pindex[part]


class TestIndexMaintenance:
    def test_fresh_cluster_is_all_idle(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=3)
        idx = _index(sched)
        assert idx.idle == {0, 1, 2}
        assert idx.open_all == {0, 1, 2}
        assert idx.user_nodes == {}

    def test_allocation_moves_node_between_buckets(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8)
        sched.submit(spec(userdb, ntasks=3), duration=10.0)
        engine.run(until=1.0)
        idx = _index(sched)
        assert idx.idle == {1}
        # n1 has 5 free cores, n2 the full 8
        assert idx.by_cores == {5: {0}, 8: {1}}
        alice = userdb.user("alice").uid
        assert idx.user_nodes == {alice: {0}}

    def test_full_node_leaves_open_set(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=4)
        sched.submit(spec(userdb, ntasks=4), duration=10.0)
        engine.run(until=1.0)
        idx = _index(sched)
        assert idx.open_all == set()
        assert idx.idle == set()
        engine.run()  # job completes, node returns
        assert idx.idle == {0}
        assert idx.by_cores == {4: {0}}

    def test_drain_and_fail_evict_resume_restores(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=3)
        idx = _index(sched)
        sched.drain("c2")
        assert idx.idle == {0, 2}
        sched.fail_node("c3")
        assert idx.idle == {0}
        sched.resume("c2")
        sched.resume("c3")
        assert idx.idle == {0, 1, 2}

    def test_mixed_uid_node_has_no_sole_owner(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=8)
        sched.submit(spec(userdb, "alice"), duration=10.0)
        sched.submit(spec(userdb, "bob"), duration=10.0)
        engine.run(until=1.0)
        assert _index(sched).user_nodes == {}

    def test_candidates_preserve_declaration_order(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=4)
        names = _index(sched).candidates(
            policy=NodeSharing.SHARED, whole=False,
            uid=userdb.user("alice").uid, cores_per_task=1)
        assert names == ["c1", "c2", "c3", "c4"]


class TestDispatchBehaviour:
    def test_whole_node_user_packs_onto_own_node(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8,
                                    policy=NodeSharing.WHOLE_NODE_USER)
        a1 = sched.submit(spec(userdb, "alice"), duration=50.0)
        b1 = sched.submit(spec(userdb, "bob"), duration=50.0)
        a2 = sched.submit(spec(userdb, "alice"), duration=50.0, at=1.0)
        engine.run(until=2.0)
        assert a2.state is JobState.RUNNING
        assert a2.nodes == a1.nodes
        assert b1.nodes != a1.nodes

    def test_saturated_cluster_examines_no_nodes(self, userdb):
        """Once the cluster is full, further submissions must not rescan
        the node list — the whole point of the index."""
        engine, sched = build_sched(userdb, n_nodes=4, cores=2)
        for _ in range(4):
            sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                         duration=100.0)
        engine.run(until=1.0)
        scanned_when_full = sched.metrics.counter("sched_dispatch_scan").value
        for i in range(20):
            sched.submit(spec(userdb, ntasks=1, mem_mb_per_task=0),
                         duration=5.0, at=2.0 + i * 0.01)
        engine.run(until=3.0)
        assert sched.metrics.counter("sched_dispatch_scan").value \
            == scanned_when_full

    def test_indexed_scans_fewer_nodes_than_naive(self, userdb):
        def churn(naive):
            engine, sched = build_sched(userdb, n_nodes=16, cores=2)
            sched.config.naive = naive
            for i in range(40):
                sched.submit(spec(userdb, ntasks=1), duration=3.0,
                             at=float(i % 7))
            engine.run()
            return sched.metrics.counter("sched_dispatch_scan").value
        assert churn(naive=False) < churn(naive=True)

    def test_running_and_pending_track_incrementally(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=2)
        j1 = sched.submit(spec(userdb, ntasks=2), duration=10.0)
        j2 = sched.submit(spec(userdb, ntasks=2), duration=10.0)
        engine.run(until=1.0)
        assert [j.job_id for j in sched.running()] == [j1.job_id]
        assert [j.job_id for j in sched.pending()] == [j2.job_id]
        sched.cancel(j2, by=userdb.user("root"))
        assert sched.pending() == []
        engine.run()
        assert sched.running() == []
        assert j1.state is JobState.COMPLETED

    def test_requeued_job_redispatches_via_index(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=2)
        sched.config.requeue_on_node_fail = True
        job = sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                           duration=10.0)
        blocker = sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                               duration=10.0)
        engine.run(until=1.0)
        assert job.state is JobState.RUNNING
        failed_on = job.nodes[0]
        sched.fail_node(failed_on)
        engine.run(until=2.0)
        # requeued instantly onto the surviving node once it frees
        engine.run()
        assert job.state is JobState.COMPLETED
        assert blocker.state is JobState.COMPLETED
        assert job.nodes[0] != failed_on

    def test_exclusive_job_waits_for_idle_node(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8)
        small = sched.submit(spec(userdb, "alice"), duration=5.0)
        sched.submit(spec(userdb, "bob", ntasks=8), duration=5.0)
        wide = sched.submit(spec(userdb, "carol", exclusive=True),
                            duration=5.0, at=1.0)
        engine.run(until=2.0)
        assert wide.state is JobState.PENDING  # no idle node yet
        engine.run()
        assert wide.state is JobState.COMPLETED
        assert small.state is JobState.COMPLETED

    def test_user_has_job_on_tracks_allocations(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2)
        job = sched.submit(spec(userdb, "alice"), duration=10.0)
        engine.run(until=1.0)
        node = job.nodes[0]
        alice = userdb.user("alice").uid
        bob = userdb.user("bob").uid
        assert sched.user_has_job_on(alice, node)
        assert not sched.user_has_job_on(bob, node)
        engine.run()
        assert not sched.user_has_job_on(alice, node)


def _outcome(sched) -> dict:
    """Per-job state, start/end times and allocations."""
    return {jid: (j.state, j.start_time, j.end_time,
                  [(a.node, a.tasks, a.cores) for a in j.allocations])
            for jid, j in sched.jobs.items()}


def _spy_examined(sched) -> list[int]:
    """Record the id of every job the indexed dispatch tries to place."""
    seen: list[int] = []
    inner = sched._placement_indexed

    def spy(job):
        seen.append(job.job_id)
        return inner(job)

    sched._placement_indexed = spy
    return seen


def _raise(ctx):
    raise RuntimeError("batch step exits 1")


class TestPerUidWakeups:
    """Whole-node-per-user: a free on a node its owner still holds can
    only help that owner, so it wakes only the owner's queued jobs."""

    def _two_owner_nodes(self, userdb, *, short_tasks=4, naive=False):
        """c1 held by alice (long + short job), c2 by bob with 2 free
        cores; bob's 4-task job waits, as does alice's."""
        engine, sched = build_sched(userdb, n_nodes=2, cores=8,
                                    policy=NodeSharing.WHOLE_NODE_USER)
        sched.config.naive = naive
        if short_tasks < 8:
            sched.submit(spec(userdb, "alice", ntasks=8 - short_tasks),
                         duration=100.0)
        short = sched.submit(spec(userdb, "alice", ntasks=short_tasks),
                             duration=10.0)
        sched.submit(spec(userdb, "bob", ntasks=6), duration=100.0)
        b_wait = sched.submit(spec(userdb, "bob", ntasks=4), duration=5.0,
                              at=1.0)
        engine.run(until=5.0)
        assert short.nodes == ["c1"] and b_wait.state is JobState.PENDING
        return engine, sched, b_wait

    def test_owner_held_free_examines_no_other_uid(self, userdb):
        engine, sched, b_wait = self._two_owner_nodes(userdb)
        a_wait = sched.submit(spec(userdb, "alice", ntasks=4),
                              duration=5.0, at=6.0)
        engine.run(until=7.0)
        assert a_wait.state is JobState.PENDING
        seen = _spy_examined(sched)
        scan = sched.metrics.counter("sched_dispatch_scan")
        before = scan.value
        engine.run(until=11.0)  # alice's short job ends at t=10
        assert a_wait.state is JobState.RUNNING
        assert a_wait.start_time == 10.0 and a_wait.nodes == ["c1"]
        assert b_wait.job_id not in seen
        assert seen == [a_wait.job_id]
        assert scan.value - before == 1  # only c1, for alice's job
        assert b_wait.state is JobState.PENDING

    def test_free_that_idles_the_node_wakes_everyone(self, userdb):
        engine, sched, b_wait = self._two_owner_nodes(userdb, short_tasks=8)
        seen = _spy_examined(sched)
        engine.run(until=11.0)  # alice's only job ends: c1 goes idle
        assert b_wait.job_id in seen
        assert b_wait.state is JobState.RUNNING
        assert b_wait.start_time == 10.0 and b_wait.nodes == ["c1"]

    def _batch_failure_mid_pass(self, userdb, naive):
        engine, sched, b_wait = self._two_owner_nodes(userdb, naive=naive)
        # queued in this order; c1 gets 4 cores back at t=10
        wide = sched.submit(spec(userdb, "alice", ntasks=6), duration=5.0,
                            at=6.0)
        broken = sched.submit(spec(userdb, "alice", ntasks=4,
                                   script=_raise), duration=5.0, at=6.0)
        after = sched.submit(spec(userdb, "alice", ntasks=4), duration=5.0,
                             at=6.0)
        seen = [] if naive else _spy_examined(sched)
        engine.run(until=11.0)
        woken = list(seen)
        engine.run()
        return sched, (b_wait, wide, broken, after), woken

    def test_batch_failure_mid_pass_matches_naive(self, userdb):
        """The broken job starts, its batch step fails and frees c1 again
        inside the uid-only pass: the job queued behind it gets c1 at the
        same instant, exactly as the naive rescan places it."""
        sched, (b_wait, wide, broken, after), woken = \
            self._batch_failure_mid_pass(userdb, naive=False)
        ref, _, _ = self._batch_failure_mid_pass(userdb, naive=True)
        assert broken.state is JobState.FAILED
        assert broken.start_time == 10.0
        assert after.start_time == 10.0 and after.nodes == ["c1"]
        assert wide.start_time > 10.0
        assert b_wait.job_id not in woken
        assert sched.metrics.counter("script_failures").value == 1
        assert _outcome(sched) == _outcome(ref)

    def _out_of_order_queue(self, userdb, naive):
        """Queue order is not job-id order: a job submitted with a later
        ``at=`` queues behind one submitted after it, and a requeued
        node-failure victim goes to the tail."""
        engine, sched = build_sched(userdb, n_nodes=3, cores=8,
                                    policy=NodeSharing.WHOLE_NODE_USER)
        sched.config.naive = naive
        sched.config.requeue_on_node_fail = True
        victim = sched.submit(spec(userdb, "alice", ntasks=8),
                              duration=50.0)
        sched.submit(spec(userdb, "alice", ntasks=4), duration=100.0)
        sched.submit(spec(userdb, "alice", ntasks=4), duration=10.0)
        sched.submit(spec(userdb, "bob", ntasks=8), duration=100.0)
        late = sched.submit(spec(userdb, "alice", ntasks=4), duration=20.0,
                            at=5.0)
        early = sched.submit(spec(userdb, "alice", ntasks=4), duration=20.0,
                             at=1.0)
        engine.at(2.0, lambda: sched.fail_node(victim.nodes[0]))
        engine.at(30.0, lambda: sched.resume("c1"))
        engine.run(until=6.0)
        queued = [j.job_id for j in sched.pending()]
        engine.run()
        return sched, (victim, late, early), queued

    def test_future_arrivals_and_requeue_to_tail_match_naive(self, userdb):
        sched, (victim, late, early), queued = \
            self._out_of_order_queue(userdb, naive=False)
        ref, _, ref_queued = self._out_of_order_queue(userdb, naive=True)
        assert queued == ref_queued == [early.job_id, victim.job_id,
                                        late.job_id]
        assert victim.attempt == 2
        # FIFO, not job-id order, decides who gets c2's freed cores
        assert early.start_time == 10.0
        assert late.start_time > 10.0
        assert _outcome(sched) == _outcome(ref)
