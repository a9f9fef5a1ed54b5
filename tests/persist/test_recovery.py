"""Crash/recover semantics: wipe scope, digest identity, forensics.

The crash model is Slurm-realistic — ``slurmctld`` dying does not power
off the fleet.  These tests pin the wipe scope (control plane gone, data
plane untouched), the rebuild (digest-identical, continues to the
reference end state), the guard rails (no journal → no crash; no crash →
no recover), and the forensic contract (RECOVERY audit markers with
``chain()`` unbroken across the restart, flight dumps on both sides).
"""

from __future__ import annotations

import pytest

from repro.obs import attach_forensics
from repro.oracle import attach_oracle
from repro.persist import JsonlRunStore, attach_persistence, state_digest
from repro.persist.recovery import crash_control_plane
from repro.sched.health import attach_health
from repro.sched.jobs import JobState

from tests.persist.conftest import build_cluster, submit_batch


def _run_reference(**kw):
    cluster = build_cluster(**kw)
    submit_batch(cluster, 8)
    cluster.engine.run()
    return state_digest(cluster)


class TestCrashScope:
    def test_crash_without_spine_refused(self):
        from repro.core.cluster import Cluster
        from repro.core.config import SeparationConfig
        bare = Cluster.build(SeparationConfig(), n_compute=2,
                             users=("alice",))
        with pytest.raises(RuntimeError, match="attach_persistence"):
            crash_control_plane(bare)

    def test_double_crash_refused(self, persisted_cluster):
        crash_control_plane(persisted_cluster)
        with pytest.raises(RuntimeError, match="already crashed"):
            crash_control_plane(persisted_cluster)

    def test_recover_without_crash_refused(self, persisted_cluster):
        with pytest.raises(RuntimeError, match="not crashed"):
            persisted_cluster.recover()

    def test_submit_to_dead_control_plane_refused(self, persisted_cluster):
        crash_control_plane(persisted_cluster)
        with pytest.raises(RuntimeError):
            persisted_cluster.submit("alice", name="x", duration=1.0)

    def test_data_plane_survives_the_crash(self):
        cluster = build_cluster(gpus=2)
        submit_batch(cluster, 6, gpus_per_task=1)
        for _ in range(10):
            cluster.engine.step()
        running = dict(cluster.scheduler._running)
        assert running, "nothing running at the crash point"
        allocs = {jid: j.allocations[0].node for jid, j in running.items()}
        crash_control_plane(cluster)
        sched = cluster.scheduler
        assert sched.jobs == {} and sched._running == {}
        assert sched.accounting.records_total == 0
        for jid, node_name in allocs.items():
            node = sched.nodes[node_name]
            assert jid in node.allocations        # allocation survived
            assert any(p.job_id == jid
                       for p in node.node.procs.processes())


class TestRecoveryRebuild:
    def test_mid_run_crash_recovers_to_reference_digest(self):
        reference = _run_reference()
        cluster = build_cluster()
        submit_batch(cluster, 8)
        for _ in range(9):
            cluster.engine.step()
        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        assert report.identical
        assert report.digest_before == report.digest_after
        cluster.engine.run()
        assert state_digest(cluster) == reference

    def test_report_facts(self):
        cluster = build_cluster(snapshot_every=10)
        submit_batch(cluster, 8)
        for _ in range(25):
            cluster.engine.step()
        pre_seq = cluster.persist.journal.seq
        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        assert report.journal_seq == pre_seq
        assert report.snapshot_seq >= 10
        assert report.replayed == pre_seq - report.snapshot_seq
        assert report.generation == cluster.userdb.generation
        assert report.duration_s > 0

    def test_generation_bumped_strictly_past_precrash(self):
        cluster = build_cluster()
        gen_before = cluster.userdb.generation
        cluster.chaos().crash_scheduler()
        cluster.recover()
        assert cluster.userdb.generation > gen_before

    def test_chaos_auto_recovery_via_for_(self):
        """crash_scheduler(for_=...) re-arms recovery on the engine; the
        clamped timers still complete every job."""
        cluster = build_cluster()
        submit_batch(cluster, 8)
        for _ in range(9):
            cluster.engine.step()
        cluster.chaos().crash_scheduler(for_=5.0)
        assert cluster.scheduler.crashed
        cluster.engine.run()
        assert not cluster.scheduler.crashed
        assert all(j.state is JobState.COMPLETED
                   for j in cluster.scheduler.jobs.values())

    def test_recovery_with_health_and_faults(self):
        """Recovery in the middle of a node-failure episode: the rebuilt
        health lifecycle keeps the fenced node quarantined (I7/I8)."""
        cluster = build_cluster(requeue=True)
        attach_health(cluster).start()
        attach_oracle(cluster, sampling_rate=1.0, fail_fast=True)
        for i in range(6):
            cluster.submit("alice" if i % 2 else "bob", name=f"j{i}",
                           ntasks=1, duration=60.0, exclusive=True,
                           at=i * 0.5)
        cluster.chaos().crash_node("c2")       # never reboots
        for _ in range(40):
            cluster.engine.step()
        assert cluster.scheduler.nodes["c2"].fenced
        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        assert report.identical
        node = cluster.scheduler.nodes["c2"]
        assert node.fenced and node.needs_remediation
        assert cluster.health.state_of("c2").value == "down"


class TestDurableRestart:
    def test_recovery_from_jsonl_store(self, tmp_path):
        """The JSONL backend carries a run across a cold restart: crash,
        rebuild from the on-disk journal, continue to the reference end."""
        reference = _run_reference()
        store = JsonlRunStore(str(tmp_path / "run"))
        cluster = build_cluster(store=store)
        submit_batch(cluster, 8)
        for _ in range(12):
            cluster.engine.step()
        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        assert report.identical
        cluster.engine.run()
        assert state_digest(cluster) == reference

    def test_torn_tail_recovery_not_fatal(self, tmp_path):
        """A crash mid-append leaves a torn final record; recovery drops
        it and rebuilds from the intact prefix."""
        store = JsonlRunStore(str(tmp_path / "run"))
        cluster = build_cluster(store=store)
        submit_batch(cluster, 8)
        for _ in range(12):
            cluster.engine.step()
        with open(tmp_path / "run" / "journal.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write('{"v":1,"seq":999,"op":"disp')   # torn write
        crash_control_plane(cluster)
        report = cluster.recover()      # digest may legitimately differ:
        assert report.journal_seq >= 0  # the torn record was post-digest
        assert store.dropped_tails.get("journal", 0) >= 0


class TestForensicContinuity:
    def _crashed_recovered(self):
        cluster = build_cluster()
        attach_forensics(cluster)
        submit_batch(cluster, 6)
        for _ in range(9):
            cluster.engine.step()
        cluster.chaos().crash_scheduler()
        report = cluster.recover()
        return cluster, report

    def test_recovery_markers_in_audit_trail(self):
        cluster, report = self._crashed_recovered()
        marks = cluster.forensics.audit.query(mechanism="recovery")
        assert [m.action for m in marks] == ["crash", "restore"]
        assert "digest intact" in marks[1].detail
        assert str(report.replayed) in marks[1].detail

    def test_flight_dumps_on_both_sides(self):
        cluster, _ = self._crashed_recovered()
        flight = cluster.forensics.flight
        assert len(flight.dumps_for("sched-crash")) == 1
        assert len(flight.dumps_for("recovery")) == 1

    def test_chain_attribution_unbroken_across_restart(self):
        """A job's causal chain queried *after* recovery still reaches
        back to its pre-crash submit record."""
        cluster, _ = self._crashed_recovered()
        cluster.engine.run()
        trail = cluster.forensics.audit
        finished = [r for r in trail.query(job_id=1)
                    if r.action in ("finish", "complete", "end")]
        anchor = (finished or trail.by_job(1))[-1]
        chain = trail.chain(anchor)
        assert any(r.action == "submit" for r in chain), \
            "recovery broke the causal chain to the pre-crash submit"


class TestQueueIndexRebuild:
    """Recovery rebuilds the pending-queue index (FIFO sequence numbers and
    the per-uid lookup) that whole-node-per-user dispatch wakes from."""

    @staticmethod
    def _llsc_run(crash_at: float | None):
        from repro import LLSC
        from repro.core.cluster import Cluster
        cluster = Cluster.build(LLSC, n_compute=3, cores=8,
                                users=("alice", "bob", "carol"))
        cluster.scheduler.config.requeue_on_node_fail = True
        attach_persistence(cluster, snapshot_every=16)
        users = ("alice", "bob", "carol")
        for i in range(18):
            # later submissions arrive earlier: queue order != job-id order
            cluster.submit(users[i % 3], name=f"j{i}", ntasks=2 + i % 3,
                           duration=6.0 + (i * 7) % 11,
                           at=(17 - i) * 0.25)
        sched = cluster.scheduler
        cluster.engine.at(3.0, lambda: sched.fail_node("c3"))
        cluster.engine.at(9.0, lambda: sched.resume("c3"))
        queued_uids = None
        if crash_at is not None:
            cluster.run(until=crash_at)
            pending = sched.pending()
            queued_uids = {j.uid for j in pending}
            assert [j.job_id for j in pending] != sorted(
                j.job_id for j in pending)
            cluster.chaos().crash_scheduler()
            report = cluster.recover()
            assert report.identical and report.replayed > 0
            assert [j.job_id for j in sched.pending()] == [
                j.job_id for j in pending]
        cluster.run()
        outcome = {jid: (j.state, j.start_time, j.end_time, j.attempt,
                         [(a.node, a.tasks, a.cores) for a in j.allocations])
                   for jid, j in sched.jobs.items()}
        return outcome, queued_uids, sched

    def test_mixed_queue_crash_matches_uncrashed_run(self):
        reference, _, _ = self._llsc_run(None)
        outcome, queued_uids, sched = self._llsc_run(crash_at=10.5)
        assert len(queued_uids) >= 2
        assert outcome == reference
        assert any(attempt > 1 for *_, attempt, _ in outcome.values())
        assert all(state is JobState.COMPLETED
                   for state, *_ in outcome.values())
        assert sched._enq_seq == {} and sched._queued_by_uid == {}
