"""Control-plane crash, journal replay, and oracle-verified recovery.

The crash model is Slurm-realistic: ``slurmctld`` dying does not power
off the fleet.  :func:`crash_control_plane` therefore wipes **only** the
control plane — scheduler tables, accounting, health lifecycle, pending
control-plane timers — while the data plane (node allocation tables and
flags, processes, fabric/conntrack, UBF daemons, GPU devices, fault
injector and its RNG) and the observability plane (metrics, audit trail,
flight recorder) keep running.

:func:`recover_cluster` is the other half: load the latest snapshot,
replay the journal suffix, re-link live allocations, re-arm the timers
the crash cancelled, bump ``UserDB.generation`` past every value any UBF
verdict cache ever saw, and :meth:`~repro.net.ubf.UBFDaemon.resync` every
daemon so no pre-crash verdict survives into the recovered world.  Replay
rebuilds **tables, not effects**: it never calls ``node.allocate``,
prolog/epilog hooks, or audit/oracle/attribution callbacks — those ran
(and were recorded) before the crash, and re-running them would corrupt
the surviving data plane and double-count the evidence.

Recovery is measured, attributed, and checked: every crash/recover cycle
leaves an audit RECOVERY marker plus a flight-recorder dump on each side
(so ``chain()`` causal attribution crosses the restart), returns a
:class:`RecoveryReport` with before/after state digests, and — when the
separation oracle is armed — runs invariant I8 ("recovery preserves
separation") over the report and the journal itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.kernel.users import Group, User
from repro.persist.journal import Journal
from repro.persist.snapshot import (
    SNAPSHOT_KEY,
    capture,
    link_allocation,
    restore,
    state_digest,
)
from repro.persist.store import MemoryRunStore, RunStore
from repro.sched.jobs import Job, JobSpec, JobState


@dataclass(frozen=True)
class RecoveryReport:
    """What one crash→recover cycle did, for the oracle and the E30 gate."""

    digest_before: str      #: state digest captured at the crash
    digest_after: str       #: state digest after replay + re-arm
    snapshot_seq: int       #: journal seq the snapshot was taken at
    journal_seq: int        #: journal length at recovery time
    replayed: int           #: suffix records replayed
    purged_verdicts: int    #: UBF cache entries dropped by the resync
    generation: int         #: post-bump UserDB generation
    duration_s: float       #: wall-clock recovery time (perf_counter)

    @property
    def identical(self) -> bool:
        """True when recovery rebuilt the exact pre-crash control plane."""
        return self.digest_before == self.digest_after


# -- persistence spine -----------------------------------------------------

class PersistSpine:
    """Wires a :class:`Journal` into every mutating control-plane object.

    One per cluster (``cluster.persist``).  :meth:`wire` is idempotent and
    re-runnable — recovery calls it again after rebuilding the control
    plane, and re-wraps nothing twice (the GPU prolog/epilog wrappers
    carry a ``_persist_wrapped`` flag, the same guard idiom the oracle's
    hook wrappers use).  The health monitor needs no wiring at all: it
    reads the journal through its scheduler reference.
    """

    #: adaptive cadence floor, and the multiplier on the state-item count
    SNAPSHOT_FLOOR = 256
    SNAPSHOT_FACTOR = 8

    def __init__(self, cluster, store: RunStore, *,
                 snapshot_every: int | None = None):
        self.cluster = cluster
        self.store = store
        #: None = adaptive cadence: the interval tracks the state size,
        #: so the amortised capture cost per journal append stays O(1)
        #: (a capture walks the whole control plane — a *fixed* cadence
        #: makes its amortised cost grow linearly with the job table).
        self.adaptive = snapshot_every is None
        self.journal = Journal(
            store, clock=lambda: cluster.engine.now,
            snapshot_every=self.SNAPSHOT_FLOOR if self.adaptive
            else snapshot_every)
        self.journal.on_snapshot = self.snapshot
        #: digest captured by the most recent crash (None before any)
        self.last_crash_digest: str | None = None
        #: RecoveryReport of the most recent recovery (dashboard row)
        self.last_report: RecoveryReport | None = None
        #: memoised finished-job / accounting rows (see snapshot.capture)
        self._capture_cache: dict = {}

    def _state_items(self) -> int:
        """Rough capture-cost proxy: rows a snapshot serialises."""
        sched = self.cluster.scheduler
        return (len(sched.jobs) + len(sched.nodes)
                + len(sched.accounting._records))

    def snapshot(self) -> dict:
        """Capture + persist a snapshot at the current journal seq."""
        snap = capture(self.cluster, seq=self.journal.seq,
                       cache=self._capture_cache)
        self.store.put(SNAPSHOT_KEY, snap)
        if self.adaptive:
            self.journal.snapshot_every = max(
                self.SNAPSHOT_FLOOR,
                self.SNAPSHOT_FACTOR * self._state_items())
        return snap

    def wire(self) -> None:
        """(Re-)attach the journal to scheduler, UserDB, health, and the
        GPU custody hooks."""
        cluster = self.cluster
        cluster.scheduler.journal = self.journal
        cluster.userdb.journal = self.journal
        # the health monitor reads the journal through its scheduler
        # reference (a property), so it needs no wiring of its own
        self._wrap_gpu_hooks(cluster.scheduler)

    def _wrap_gpu_hooks(self, sched) -> None:
        """Journal GPU grants/scrubs around the existing prolog/epilog."""
        journal = self.journal

        if sched.prolog is not None \
                and not getattr(sched.prolog, "_persist_wrapped", False):
            orig_prolog = sched.prolog

            def prolog(job, node):
                orig_prolog(job, node)
                alloc = node.allocations.get(job.job_id)
                if alloc is not None and alloc.gpu_indices:
                    journal.gpu_granted(job, node.name, alloc.gpu_indices)

            prolog._persist_wrapped = True
            sched.prolog = prolog

        if sched.epilog is not None \
                and not getattr(sched.epilog, "_persist_wrapped", False):
            orig_epilog = sched.epilog

            def epilog(job, node):
                alloc = node.allocations.get(job.job_id)
                gpus = list(alloc.gpu_indices) if alloc is not None else []
                orig_epilog(job, node)
                if gpus:
                    journal.gpu_scrubbed(job, node.name, gpus)

            epilog._persist_wrapped = True
            sched.epilog = epilog


def attach_persistence(cluster, store: RunStore | None = None, *,
                       snapshot_every: int | None = None) -> PersistSpine:
    """Arm the write-ahead journal + snapshots on a built cluster.

    Idempotent: a cluster already carrying a spine keeps it.  With no
    *store* the in-memory backend is used (the E30 overhead reference).
    With no *snapshot_every* the cadence is adaptive — it scales with
    the state-item count so the amortised capture cost per append stays
    constant; pass an int to pin an exact cadence (tests do).  A genesis
    snapshot is captured immediately so ``recover()`` always has a
    restore point.
    """
    existing = getattr(cluster, "persist", None)
    if existing is not None:
        return existing
    spine = PersistSpine(cluster, store if store is not None
                         else MemoryRunStore(),
                         snapshot_every=snapshot_every)
    cluster.persist = spine
    spine.wire()
    spine.snapshot()
    return spine


# -- crash -----------------------------------------------------------------

def crash_control_plane(cluster) -> str:
    """Kill the control plane mid-flight; returns the at-crash digest.

    Scheduler tables, accounting, and health lifecycle state vanish;
    every pending control-plane timer (job completion/OOM, queued
    arrivals, the health tick) is cancelled so the dead scheduler cannot
    act from beyond the grave.  The data plane and the observability
    plane survive untouched.  ``scheduler.crashed`` gates submissions and
    health re-arms until :func:`recover_cluster` runs.
    """
    spine = getattr(cluster, "persist", None)
    if spine is None:
        raise RuntimeError(
            "attach_persistence(cluster) before crashing the control "
            "plane — recovery needs a journal to replay")
    sched = cluster.scheduler
    if getattr(sched, "crashed", False):
        raise RuntimeError("control plane is already crashed")

    forensics = getattr(cluster, "forensics", None)
    if forensics is not None:
        forensics.flight.snapshot("sched-crash",
                                  detail="control plane crashed")
        forensics.audit.record(
            mechanism="recovery", action="crash", uid=0, target="scheduler",
            detail=f"control plane crashed at seq {spine.journal.seq}")

    digest = state_digest(cluster)
    spine.last_crash_digest = digest
    engine = cluster.engine

    for timers in sched._job_events.values():
        for ev in timers:
            engine.cancel(ev)
    sched._job_events = {}
    for ev in sched._arrival_events.values():
        engine.cancel(ev)
    sched._arrival_events = {}

    from repro.sim.metrics import TimeWeighted
    sched.jobs = {}
    sched._reset_queue(())
    sched._running = {}
    sched._core_charge = {}
    sched._job_spans = {}
    sched._fresh_jobs = set()
    sched._dirty_parts = set()
    sched._dirty_uids = set()
    sched._next_jid = 1
    sched._busy_cores = TimeWeighted()
    sched._useful_cores = TimeWeighted()
    acct = sched.accounting
    acct._records = []
    acct.records_total = 0
    acct.core_seconds_total = 0.0

    health = getattr(cluster, "health", None)
    if health is not None:
        ev = getattr(health, "_tick_event", None)
        if ev is not None:
            engine.cancel(ev)
        health._tick_event = None
        health._tick_armed = False
        health._tick_due = None
        from repro.sched.health import NodeLifecycle
        health.nodes = {name: NodeLifecycle(name) for name in sched.nodes}
        health._unreachable_since = {}
        health._purged_hosts = set()

    sched.crashed = True
    cluster.metrics.counter("sched_crashes_total").inc()
    return digest


# -- recovery --------------------------------------------------------------

def recover_cluster(cluster) -> RecoveryReport:
    """Snapshot + journal-suffix replay; the inverse of the crash.

    Returns a :class:`RecoveryReport`; when the separation oracle is
    attached, invariant I8 is checked before returning (fail-fast oracles
    raise on any discrepancy).
    """
    t_start = time.perf_counter()
    spine = getattr(cluster, "persist", None)
    if spine is None:
        raise RuntimeError("no persistence spine: nothing to recover from")
    sched = cluster.scheduler
    if not getattr(sched, "crashed", False):
        raise RuntimeError("control plane is not crashed")
    engine = cluster.engine
    now = engine.now

    snap = spine.store.get(SNAPSHOT_KEY)
    if snap is None:
        raise RuntimeError("no snapshot in the run store")
    suffix = spine.journal.records(start=snap["seq"])

    live_gen = cluster.userdb.generation
    restore(cluster, snap)
    for rec in suffix:
        _replay(cluster, rec)

    # Replay kept only the queue index current (O(1) membership per
    # record); lay the queue list out again in enqueue (FIFO) order.
    seq = sched._enq_seq
    sched._reset_queue(sorted((sched.jobs[jid] for jid in seq),
                              key=lambda j: seq[j.job_id]))

    # Rebuild the free-capacity index from the *live* node state (the
    # PartitionIndex constructor reads every node), and clear the dispatch
    # memos — both drain to empty between engine events anyway.
    from repro.sched.dispatch_index import PartitionIndex
    sched._pindex = {p.name: PartitionIndex(p, sched.nodes)
                     for p in sched.partitions.values()}
    sched._dirty_parts.clear()
    sched._dirty_uids.clear()
    sched._fresh_jobs.clear()
    sched.crashed = False
    sched._note_queue_depth()

    _rearm_timers(cluster, now)

    # Generation bump: strictly above every value any verdict cache ever
    # keyed on.  Replay lands the rebuilt generation numerically *equal*
    # to the pre-crash one, and `_revalidate_generation` early-returns on
    # equality — without the bump, stale pre-crash verdicts would read as
    # current.
    db = cluster.userdb
    gens = [db.generation, live_gen]
    for daemon in cluster.ubf_daemons.values():
        gens.append(daemon._cache_gen)
        gens.append(daemon._allow_gen)
    db.generation = max(gens) + 1
    purged = 0
    for daemon in cluster.ubf_daemons.values():
        purged += daemon.resync(reason="recovery")

    # Re-wire (idempotent — a health monitor attached after the original
    # wiring starts journaling here) and clear the crash fault so posture
    # reporting shows a healthy control plane again.
    spine.wire()
    from repro.faults.injector import FaultKind
    injector = cluster.fabric.faults
    for fault in injector.active(FaultKind.SCHED_CRASH):
        injector.clear(fault)

    report = RecoveryReport(
        digest_before=spine.last_crash_digest or "",
        digest_after=state_digest(cluster),
        snapshot_seq=snap["seq"],
        journal_seq=spine.journal.seq,
        replayed=len(suffix),
        purged_verdicts=purged,
        generation=db.generation,
        duration_s=time.perf_counter() - t_start,
    )
    spine.last_report = report
    cluster.metrics.counter("sched_recoveries_total").inc()

    forensics = getattr(cluster, "forensics", None)
    if forensics is not None:
        forensics.audit.record(
            mechanism="recovery", action="restore", uid=0,
            target="scheduler",
            detail=(f"replayed {report.replayed} records from seq "
                    f"{report.snapshot_seq}; generation "
                    f"{report.generation}; digest "
                    f"{'intact' if report.identical else 'DIVERGED'}"))
        forensics.flight.snapshot(
            "recovery", detail=f"recovered at seq {report.journal_seq}")

    oracle = getattr(cluster, "oracle", None)
    if oracle is not None:
        oracle.check_recovery(cluster, report)

    spine.snapshot()  # fresh restore point: bounds the next replay
    return report


def _rearm_timers(cluster, now: float) -> None:
    """Re-create the control-plane timers the crash cancelled.

    Immediate recovery re-arms every timer at its original due time
    (digest identity with the uncrashed run); a *delayed* recovery clamps
    overdue timers to fire at ``now`` — late, but never dropped.
    """
    sched = cluster.scheduler
    engine = cluster.engine
    queued = sched._enq_seq
    for job in sched.jobs.values():
        if job.state is JobState.PENDING and job.job_id not in queued:
            sched._arm_arrival(job, max(now, job.submit_time))
    for job in sched._running.values():
        timers = [engine.at(max(now, job.start_time + job.duration),
                            _completer(sched, job))]
        if job.spec.oom_bomb:
            timers.append(engine.at(
                max(now, job.start_time + job.duration / 2),
                _oom_trigger(sched, job)))
        sched._job_events[job.job_id] = timers
    health = getattr(cluster, "health", None)
    if health is not None and health.started and health._tick_armed:
        health._tick_event = engine.at(max(now, health._tick_due),
                                       health._tick)


def _completer(sched, job):
    return lambda: sched._complete(job)


def _oom_trigger(sched, job):
    return lambda: sched._trigger_oom(job)


# -- journal replay --------------------------------------------------------

def _replay(cluster, rec: dict) -> None:
    """Apply one journal record to the control-plane tables.

    Node-administration and GPU-custody ops replay as no-ops: the node
    flags and devices they describe live on the surviving data plane (the
    records stay in the journal as I8 evidence).
    """
    handler = _REPLAY.get(rec["op"])
    if handler is None:
        raise ValueError(f"unknown journal op {rec['op']!r} "
                         f"(seq {rec.get('seq')})")
    handler(cluster, rec)


def _rp_submit(cluster, rec):
    sched = cluster.scheduler
    spec = JobSpec(
        user=cluster.userdb.user(rec["user"]), name=rec["name"],
        ntasks=rec["ntasks"], cores_per_task=rec["cores_per_task"],
        mem_mb_per_task=rec["mem_mb_per_task"],
        gpus_per_task=rec["gpus_per_task"], command=rec["command"],
        workdir=rec["workdir"], exclusive=rec["exclusive"],
        oom_bomb=rec["oom_bomb"], partition=rec["partition"])
    job = Job(job_id=rec["job_id"], spec=spec, duration=rec["duration"],
              submit_time=rec["submit_time"], array_id=rec["array_id"],
              array_index=rec["array_index"])
    sched.jobs[job.job_id] = job
    sched._next_jid = max(sched._next_jid, job.job_id + 1)


def _rp_arrive(cluster, rec):
    sched = cluster.scheduler
    job = sched.jobs[rec["job_id"]]
    if job.state is JobState.PENDING and job.job_id not in sched._enq_seq:
        sched._enqueue(job)


def _rp_cancel(cluster, rec):
    sched = cluster.scheduler
    job = sched.jobs[rec["job_id"]]
    sched._dequeue(job)
    job.state = JobState.CANCELLED
    job.end_time = rec["t"]


def _rp_dispatch(cluster, rec):
    sched = cluster.scheduler
    job = sched.jobs[rec["job_id"]]
    job.state = JobState.RUNNING
    job.start_time = rec["t"]
    job.allocations = [link_allocation(sched.nodes, job.job_id, row)
                       for row in rec["rows"]]
    sched._dequeue(job)
    sched._running[job.job_id] = job
    sched._core_charge[job.job_id] = (rec["charged"], rec["useful"])
    sched._busy_cores.add(rec["t"], rec["charged"])
    sched._useful_cores.add(rec["t"], rec["useful"])


def _rp_finish(cluster, rec):
    sched = cluster.scheduler
    job = sched.jobs[rec["job_id"]]
    job.state = JobState(rec["state"])
    job.end_time = rec["t"]
    sched._running.pop(job.job_id, None)
    charged, useful = sched._core_charge.pop(
        job.job_id,
        (sum(a.cores for a in job.allocations),
         sum(a.tasks * job.spec.cores_per_task for a in job.allocations)))
    sched._busy_cores.add(rec["t"], -charged)
    sched._useful_cores.add(rec["t"], -useful)
    sched.accounting.record(job)


def _rp_requeue(cluster, rec):
    sched = cluster.scheduler
    job = sched.jobs[rec["job_id"]]
    job.attempt = rec["attempt"]
    job.state = JobState.PENDING
    job.start_time = None
    job.end_time = None
    job.allocations = []
    job.reason = "requeued after node failure"
    if job.job_id not in sched._enq_seq:
        sched._enqueue(job)


def _rp_noop(cluster, rec):
    pass


def _rp_user(cluster, rec):
    db = cluster.userdb
    user = User(rec["name"], rec["uid"], rec["gid"],
                is_support_staff=rec["staff"])
    if db.upg:
        db._register_group(Group(rec["name"], rec["gid"],
                                 members={rec["uid"]},
                                 private_for=rec["uid"]))
    else:
        db._groups_by_gid[rec["gid"]].members.add(rec["uid"])
    db._users[user.name] = user
    db._users_by_uid[user.uid] = user
    db._next_uid = max(db._next_uid, rec["uid"] + 1)
    if db.upg:
        db._next_gid = max(db._next_gid, rec["gid"] + 1, db._next_uid)
    db.generation = rec["gen"]


def _rp_pgroup(cluster, rec):
    db = cluster.userdb
    db._register_group(Group(rec["name"], rec["gid"],
                             members=set(rec["members"]),
                             stewards=set(rec["stewards"])))
    db._next_gid = max(db._next_gid, rec["gid"] + 1)
    db.generation = rec["gen"]


def _rp_member_add(cluster, rec):
    db = cluster.userdb
    db._groups_by_gid[rec["gid"]].members.add(rec["uid"])
    db.generation = rec["gen"]


def _rp_member_del(cluster, rec):
    db = cluster.userdb
    db._groups_by_gid[rec["gid"]].members.discard(rec["uid"])
    db.generation = rec["gen"]


def _rp_sgroup(cluster, rec):
    db = cluster.userdb
    db._register_group(Group(rec["name"], rec["gid"],
                             members=set(rec["members"])))
    db._next_gid = max(db._next_gid, rec["gid"] + 1)
    db.generation = rec["gen"]


def _rp_hb(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is None:
        return
    from repro.sched.health import NodeHealth
    lc = health.nodes[rec["node"]]
    lc.state = NodeHealth(rec["state"])
    lc.missed = rec["missed"]
    lc.quarantined_until = rec["quarantined_until"]
    lc.rejoin_times = list(rec["rejoin_times"])
    lc.purged = rec["purged"]


def _rp_residue(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is None:
        return
    from repro.sched.health import NodeResidue
    health.nodes[rec["node"]].residue = NodeResidue(
        node=rec["node"], recorded_at=rec["recorded_at"],
        jobs=tuple(rec["jobs"]), orphan_pids=tuple(rec["orphan_pids"]),
        dirty_gpus=tuple(rec["dirty_gpus"]),
        assigned_devices=tuple(rec["assigned_devices"]),
        peer_conntrack_flows=rec["peer_conntrack_flows"])


def _rp_tick(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        health._tick_armed = True
        health._tick_due = rec["fire_t"]


def _rp_tick_fired(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        health._tick_armed = False
        health._tick_due = None


def _rp_unreach(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        health._unreachable_since[rec["host"]] = rec["since"]


def _rp_unreach_clear(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        health._unreachable_since.pop(rec["host"], None)


def _rp_ttl_purge(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        health._purged_hosts.add(rec["host"])


def _rp_residue_clear(cluster, rec):
    health = getattr(cluster, "health", None)
    if health is not None:
        lc = health.nodes.get(rec["node"])
        if lc is not None:
            lc.residue = None


_REPLAY = {
    "submit": _rp_submit, "arrive": _rp_arrive, "cancel": _rp_cancel,
    "dispatch": _rp_dispatch, "finish": _rp_finish, "requeue": _rp_requeue,
    "fence": _rp_noop, "drain": _rp_noop, "resume": _rp_noop,
    "remediate": _rp_noop, "gpu_grant": _rp_noop, "gpu_scrub": _rp_noop,
    "user": _rp_user, "pgroup": _rp_pgroup, "member_add": _rp_member_add,
    "member_del": _rp_member_del, "sgroup": _rp_sgroup,
    "hb": _rp_hb, "residue": _rp_residue,
    "residue_clear": _rp_residue_clear, "tick": _rp_tick,
    "tick_fired": _rp_tick_fired, "unreach": _rp_unreach,
    "unreach_clear": _rp_unreach_clear, "ttl_purge": _rp_ttl_purge,
}
