"""The cluster scheduler: FIFO + simple backfill over a node-sharing policy.

This is the Slurm stand-in of Section IV-B.  It owns:

* the pending queue and the dispatch loop (FIFO order, with an optional
  backfill pass that lets later jobs start when the head job cannot);
* policy-driven placement (:mod:`repro.sched.policies`);
* prolog/epilog hooks — where GPU ``/dev`` permission changes and memory
  scrubs happen (:mod:`repro.sched.prolog_epilog`);
* the job-presence registry pam_slurm consults (ssh gating);
* utilization/wait-time metrics (time-weighted, exact);
* failure semantics for experiment E16: an ``oom_bomb`` job exhausts its
  node's memory halfway through its run, killing every job on that node —
  the "blast radius" the paper's whole-node policy contains.

Backfill here is the reservation-less kind (scan past a blocked head job);
that can delay very wide jobs under sustained small-job load, which is
acceptable for the policy experiments this reproduces and is called out in
DESIGN.md.

Two dispatch implementations coexist (DESIGN.md "Performance architecture"):

* the **indexed** default — a per-partition free-capacity index
  (:mod:`repro.sched.dispatch_index`) supplies first-fit candidates, and
  dispatch passes run only when something could have become placeable:
  a job arrived or was requeued, a partition got resources back (dirty),
  or — under WHOLE_NODE_USER, where a node its owner still holds accepts
  only that owner's jobs — a finish woke one ``(partition, uid)``.  A
  pass without a dirty partition looks its jobs up in a pending-queue
  index (per-uid lists plus enqueue sequence numbers, i.e. FIFO order)
  instead of walking the queue; running/pending sets are maintained
  incrementally;
* the **naive reference** (``SchedulerConfig(naive=True)``) — the original
  full pending x nodes rescan on every event, kept verbatim for
  differential testing: both paths must produce byte-identical placements
  (asserted by ``tests/prop/test_prop_dispatch.py`` and benchmark E24).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.kernel.errors import NoSuchEntity, PermissionError_
from repro.kernel.users import User
from repro.sched.accounting import AccountingDB
from repro.sched.dispatch_index import PartitionIndex
from repro.sched.jobs import Job, JobSpec, JobState
from repro.sched.nodes import ComputeNode
from repro.sched.partitions import DEFAULT_PARTITION, Partition
from repro.sched.policies import NodeSharing, tasks_placeable
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet, TimeWeighted

PrologHook = Callable[[Job, ComputeNode], None]
EpilogHook = Callable[[Job, ComputeNode], None]


@dataclass
class SchedulerConfig:
    """Tunable scheduler behaviour (sharing policy, backfill, dispatch)."""

    policy: NodeSharing = NodeSharing.SHARED
    backfill: bool = True
    #: resubmit NODE_FAIL victims automatically (Slurm's JobRequeue)
    requeue_on_node_fail: bool = False
    #: extra attempts a requeued job may get before it stays NODE_FAIL for
    #: good (a job runs at most ``1 + max_requeues`` times)
    max_requeues: int = 3
    #: use the reference O(pending x nodes) dispatch instead of the
    #: free-capacity index — for differential testing only (E24)
    naive: bool = False


class Scheduler:
    """Event-driven scheduler over a set of :class:`ComputeNode`."""

    def __init__(self, engine: Engine, nodes: list[ComputeNode],
                 config: SchedulerConfig | None = None,
                 metrics: MetricSet | None = None,
                 prolog: PrologHook | None = None,
                 epilog: EpilogHook | None = None,
                 partitions: list[Partition] | None = None):
        self.engine = engine
        self.nodes = {n.name: n for n in nodes}
        self.config = config or SchedulerConfig()
        if partitions is None:
            partitions = [Partition(DEFAULT_PARTITION,
                                    tuple(self.nodes))]
        self.partitions = {p.name: p for p in partitions}
        self.metrics = metrics or MetricSet()
        self.prolog = prolog
        self.epilog = epilog
        self.accounting = AccountingDB()
        #: optional span source (repro.obs.trace.Tracer); when set, every
        #: job's submit → queue → prolog → run → epilog lifecycle becomes
        #: one trace.  None (the default) costs nothing on the hot path.
        self.tracer = None
        #: separation oracle (repro.oracle); None = zero-cost hooks
        self.oracle = None
        #: optional remediation hook run by :meth:`remediate` before a
        #: fenced node rejoins (GPU scrub + /dev perm reset; see
        #: :func:`repro.sched.prolog_epilog.make_remediator`).  None means
        #: only orphan-process reaping happens on remediation.
        self.remediator = None
        #: optional SecurityEventLog; node-lifecycle transitions (fencing,
        #: remediation, hook failures) are emitted here when wired
        #: (``instrument_cluster`` does).  None = no event cost.
        self.events = None
        #: optional AttributionRegistry (repro.obs.context); when wired
        #: (``attach_forensics`` does), every job lifecycle step opens/
        #: updates a causal context so enforcement verdicts resolve back
        #: to the submitting uid+job.  None = zero-cost hooks.
        self.attribution = None
        #: optional callable ``(job, state) -> None`` invoked at the very
        #: end of every job finish (after accounting, before the dispatch
        #: wakeup).  Long-horizon drivers (repro.sched.multizone) use it to
        #: prune finished jobs from :attr:`jobs` so memory stays
        #: proportional to *live* jobs over 1e7-event runs.  None = no cost.
        self.on_finish = None
        self._job_spans: dict[int, dict[str, object]] = {}
        #: per-job pending engine events (completion, oom) — cancelled at
        #: finish so a requeued job's stale timers cannot fire into its
        #: next attempt
        self._job_events: dict[int, list[object]] = {}
        #: per-job pending *arrival* events (submitted, not yet queued) —
        #: cancelled on a control-plane crash, re-armed by recovery
        self._arrival_events: dict[int, object] = {}
        #: optional write-ahead journal (repro.persist); every mutating
        #: operation appends a record when set.  None = zero-cost hooks.
        self.journal = None
        #: True between a control-plane crash and its recovery; submission
        #: is refused while the scheduler is dead.
        self.crashed = False
        # explicit counter (not itertools.count) so snapshots can capture
        # and recovery can restore the next job id
        self._next_jid = 1
        self.jobs: dict[int, Job] = {}
        self._queue: list[Job] = []
        self._running: dict[int, Job] = {}
        self._busy_cores = TimeWeighted()    # cores *charged* (occupancy)
        self._useful_cores = TimeWeighted()  # cores running actual tasks
        #: per-job (charged, useful) core counts captured at start so the
        #: finish path never re-derives them from the allocation list
        self._core_charge: dict[int, tuple[int, int]] = {}
        self.total_cores = sum(n.total_cores for n in nodes)
        # -- free-capacity index (see module docstring) -------------------
        self._pindex: dict[str, PartitionIndex] = {
            p.name: PartitionIndex(p, self.nodes)
            for p in self.partitions.values()}
        self._node_parts: dict[str, list[str]] = {}
        for p in self.partitions.values():
            for name in p.node_names:
                self._node_parts.setdefault(name, []).append(p.name)
        #: partitions where resources were freed since the last dispatch
        self._dirty_parts: set[str] = set()
        #: (partition, uid) pairs woken by a free only that uid can use
        #: (a whole-node-per-user node still held by that uid)
        self._dirty_uids: set[tuple[str, int]] = set()
        #: jobs that arrived/requeued since their partition was last scanned
        self._fresh_jobs: set[int] = set()
        # -- pending-queue index, kept at every enqueue (_arrive, _requeue)
        # and dequeue (_start, cancel); _reset_queue rebuilds it
        #: queued job id -> enqueue sequence number: O(1) membership, and
        #: sorting by it is the queue's FIFO order
        self._enq_seq: dict[int, int] = {}
        #: (partition, uid) -> that user's queued jobs in that partition
        self._queued_by_uid: dict[tuple[str, int], dict[int, Job]] = {}
        self._next_enq = 0
        self._scan_counter = self.metrics.counter("sched_dispatch_scan")

    # -- submission -----------------------------------------------------------

    def submit(self, spec: JobSpec, duration: float, *,
               at: float | None = None, array_id: int | None = None,
               array_index: int | None = None) -> Job:
        """Submit a job; it arrives at time *at* (default: now).

        Raises on an unknown partition or a duration over the partition's
        time limit (sbatch's ``--time`` rejection)."""
        if self.crashed:
            raise RuntimeError(
                "control plane is crashed; recover() before submitting")
        try:
            partition = self.partitions[spec.partition]
        except KeyError:
            raise NoSuchEntity(f"partition {spec.partition!r}") from None
        if not partition.accepts_duration(duration):
            from repro.kernel.errors import InvalidArgument
            raise InvalidArgument(
                f"duration {duration} exceeds partition "
                f"{partition.name!r} limit {partition.max_duration}")
        job = Job(job_id=self._next_id(), spec=spec, duration=duration,
                  array_id=array_id, array_index=array_index)
        self.jobs[job.job_id] = job
        arrival = self.engine.now if at is None else at
        job.submit_time = arrival
        if self.attribution is not None:
            self.attribution.job_submitted(job)
        if self.journal is not None:
            self.journal.job_submitted(job)
        self._arm_arrival(job, arrival)
        return job

    def _next_id(self) -> int:
        jid = self._next_jid
        self._next_jid += 1
        return jid

    def _arm_arrival(self, job: Job, at: float) -> None:
        """Schedule the job's queue arrival, tracking the pending event so
        a control-plane crash can cancel it and recovery can re-arm it."""
        def fire() -> None:
            self._arrival_events.pop(job.job_id, None)
            self._arrive(job)
        self._arrival_events[job.job_id] = self.engine.at(at, fire)

    def submit_array(self, spec: JobSpec, durations: list[float], *,
                     at: float | None = None) -> list[Job]:
        """sbatch --array: one job per element, common array id."""
        array_id = self._next_id()
        return [self.submit(spec, d, at=at, array_id=array_id,
                            array_index=i)
                for i, d in enumerate(durations)]

    def array_jobs(self, array_id: int) -> list[Job]:
        return sorted((j for j in self.jobs.values()
                       if j.array_id == array_id),
                      key=lambda j: j.array_index or 0)

    def _note_queue_depth(self) -> None:
        self.metrics.gauge("sched_queue_depth").set(len(self._queue))

    def _open_job_trace(self, job: Job, *, attempt: int = 1) -> None:
        """Root span + queue child for one (re)submission attempt."""
        root = self.tracer.start_span(
            "job", job_id=job.job_id, user=job.spec.user.name,
            partition=job.spec.partition, ntasks=job.spec.ntasks,
            attempt=attempt)
        queue = self.tracer.start_span("sched.queue", parent=root)
        self._job_spans[job.job_id] = {"root": root, "queue": queue,
                                       "attempt": attempt}

    def _close_job_trace(self, job: Job, state: JobState) -> None:
        spans = self._job_spans.pop(job.job_id, None)
        if spans is None:
            return
        for key in ("queue", "run"):
            span = spans.get(key)
            if span is not None and span.end is None:
                self.tracer.finish(span, state=state.name.lower())
        self.tracer.finish(spans["root"], state=state.name.lower())

    def _enqueue(self, job: Job) -> None:
        """Append *job* to the queue tail, index it, and mark it fresh."""
        jid = job.job_id
        self._queue.append(job)
        self._enq_seq[jid] = self._next_enq
        self._next_enq += 1
        self._queued_by_uid.setdefault(
            (job.spec.partition, job.uid), {})[jid] = job
        self._fresh_jobs.add(jid)

    def _dequeue(self, job: Job) -> bool:
        """Drop *job* from the queue index; False if it was not queued.
        The queue list itself is purged by the caller."""
        if self._enq_seq.pop(job.job_id, None) is None:
            return False
        key = (job.spec.partition, job.uid)
        queued = self._queued_by_uid[key]
        del queued[job.job_id]
        if not queued:
            del self._queued_by_uid[key]
        return True

    def _reset_queue(self, jobs: Iterable[Job]) -> None:
        """Replace the queue with the still-pending *jobs*, in the given
        order, rebuilding the queue index.  Recovery and snapshot restore
        reassign the queue wholesale this way (a snapshot can land
        mid-pass, while a just-started job still sits in the queue list);
        recovery then clears the fresh marks with the other dispatch
        memos."""
        self._queue = []
        self._enq_seq = {}
        self._queued_by_uid = {}
        self._next_enq = 0
        for job in jobs:
            if job.state is JobState.PENDING:
                self._enqueue(job)

    def _arrive(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            return  # cancelled before its arrival event fired
        self._enqueue(job)
        self.metrics.counter("jobs_submitted").inc()
        if self.tracer is not None:
            self._open_job_trace(job)
        if self.journal is not None:
            self.journal.job_arrived(job)
        self._note_queue_depth()
        self._try_dispatch()

    def cancel(self, job: Job, by: User) -> None:
        """scancel: the owner or root only."""
        if not by.is_root and by.uid != job.uid:
            raise PermissionError_(f"{by.name} may not cancel job {job.job_id}")
        if job.state is JobState.PENDING:
            if self._dequeue(job):
                self._queue = [j for j in self._queue if j is not job]
            pending_arrival = self._arrival_events.pop(job.job_id, None)
            if pending_arrival is not None:
                self.engine.cancel(pending_arrival)
            self._fresh_jobs.discard(job.job_id)
            job.state = JobState.CANCELLED
            job.end_time = self.engine.now
            if self.tracer is not None:
                self._close_job_trace(job, JobState.CANCELLED)
            if self.journal is not None:
                self.journal.job_cancelled(job)
            self._note_queue_depth()
        elif job.state is JobState.RUNNING:
            self._finish(job, JobState.CANCELLED)

    # -- placement --------------------------------------------------------------

    def _policy_for(self, job: Job) -> NodeSharing:
        override = self.partitions[job.spec.partition].policy_override
        return override if override is not None else self.config.policy

    def _nodes_for(self, job: Job):
        for name in self.partitions[job.spec.partition].node_names:
            yield self.nodes[name]

    def _plan_over(self, job: Job, nodes: Iterable[ComputeNode],
                   ) -> list[tuple[ComputeNode, int]] | None:
        """Greedy first-fit plan: [(node, tasks)] covering all tasks, or
        None if the job cannot start now under the active policy.  The
        caller chooses the node stream (full partition scan, or index
        candidates); both streams are in partition declaration order, so
        the plan is identical either way."""
        spec = job.spec
        policy = self._policy_for(job)
        remaining = spec.ntasks
        plan: list[tuple[ComputeNode, int]] = []
        examined = 0
        for node in nodes:
            if node.failed or node.drained:
                continue
            examined += 1
            n = tasks_placeable(
                policy,
                free_cores=node.free_cores,
                free_mem_mb=node.free_mem_mb,
                free_gpus=len(node.free_gpu_indices),
                cores_per_task=spec.cores_per_task,
                mem_mb_per_task=spec.mem_mb_per_task,
                gpus_per_task=spec.gpus_per_task,
                node_idle=node.idle,
                node_uids=node.running_uids(self.jobs),
                job_uid=job.uid,
                job_exclusive=spec.exclusive,
            )
            if n <= 0:
                continue
            take = min(n, remaining)
            plan.append((node, take))
            remaining -= take
            if remaining == 0:
                break
        self._scan_counter.inc(examined)
        return plan if remaining == 0 else None

    def _placement_for(self, job: Job) -> list[tuple[ComputeNode, int]] | None:
        """Reference placement: scan every node of the job's partition."""
        return self._plan_over(job, self._nodes_for(job))

    def _placement_indexed(self, job: Job
                           ) -> list[tuple[ComputeNode, int]] | None:
        """Indexed placement: only nodes the free-capacity index says could
        accept this job are examined, in the same first-fit order."""
        index = self._pindex[job.spec.partition]
        policy = self._policy_for(job)
        whole = policy is NodeSharing.EXCLUSIVE or job.spec.exclusive
        names = index.candidates(policy=policy, whole=whole, uid=job.uid,
                                 cores_per_task=job.spec.cores_per_task)
        if not names:
            return None
        return self._plan_over(job, (self.nodes[n] for n in names))

    def _any_node_open(self) -> bool:
        """Cheap pre-check: could *any* pending job conceivably start?
        Avoids O(queue) scans when the machine is saturated."""
        policies = {p.policy_override or self.config.policy
                    for p in self.partitions.values()}
        if policies == {NodeSharing.EXCLUSIVE}:
            return any(n.idle and not n.failed for n in self.nodes.values())
        return any(not n.failed and n.free_cores > 0 and n.free_mem_mb > 0
                   for n in self.nodes.values())

    def _node_changed(self, node: ComputeNode, *, freed: bool,
                      resumed: bool = False) -> None:
        """Re-index one node; a *freed* change wakes the jobs it can help.

        Allocations only consume resources — they can never make a
        previously unplaceable job placeable — so only frees (job finish,
        node resume) wake the event-driven dispatch.  Under
        WHOLE_NODE_USER a finish that leaves the node held by one uid can
        only help that uid's jobs, so it wakes just ``(partition, uid)``;
        every other free (the node goes idle, mixed occupants, SHARED or
        EXCLUSIVE partitions, a resume) marks the whole partition dirty.
        """
        sole = node.sole_uid if freed and not resumed else None
        for pname in self._node_parts.get(node.name, ()):
            self._pindex[pname].update(node)
            if not freed:
                continue
            if sole is not None and (
                    self.partitions[pname].policy_override
                    or self.config.policy) is NodeSharing.WHOLE_NODE_USER:
                self._dirty_uids.add((pname, sole))
            else:
                self._dirty_parts.add(pname)

    def _try_dispatch(self) -> None:
        if self.config.naive:
            self._dispatch_naive()
        else:
            self._dispatch_indexed()

    def _dispatch_naive(self) -> None:
        """Reference FIFO scan (the seed implementation, kept verbatim for
        differential testing): rescans the whole queue against all nodes on
        every event.  With backfill, blocked jobs are skipped (not starved
        forever in our workloads; see module docstring).  One pass per call
        suffices: placements only consume resources, so a job that was
        unplaceable earlier in the pass stays unplaceable."""
        self._dirty_parts.clear()
        self._dirty_uids.clear()
        self._fresh_jobs.clear()
        if not self._any_node_open():
            return
        placed_ids: set[int] = set()
        for job in self._queue:
            if job.state is not JobState.PENDING:
                # already started (or failed during its batch step) in a
                # re-entrant dispatch triggered mid-scan: purge, don't
                # re-place
                placed_ids.add(job.job_id)
                continue
            plan = self._placement_for(job)
            if plan is None:
                if not self.config.backfill:
                    break
                continue
            self._start(job, plan)
            placed_ids.add(job.job_id)
            if not self._any_node_open():
                break
        if placed_ids:
            self._queue = [j for j in self._queue
                           if j.job_id not in placed_ids]
            self._note_queue_depth()

    def _dispatch_indexed(self) -> None:
        """Event-driven dispatch: a pass runs only when a partition got
        resources back (dirty), a whole-node-per-user free woke one uid in
        a partition, or a job arrived/requeued (fresh).  Within a pass a
        pending job is only examined if it is fresh, its partition is
        dirty, or its uid was woken in its partition — anything else was
        unplaceable at its last scan and nothing that could help it has
        freed since, so it still is."""
        while self._dirty_parts or self._fresh_jobs or self._dirty_uids:
            dirty, self._dirty_parts = self._dirty_parts, set()
            fresh, self._fresh_jobs = self._fresh_jobs, set()
            woken, self._dirty_uids = self._dirty_uids, set()
            self._dispatch_pass(dirty, fresh, woken)

    def _dispatch_pass(self, dirty: set[str], fresh: set[int],
                       woken: set[tuple[str, int]]) -> None:
        """One FIFO pass over the jobs a change may have made placeable.

        With a dirty partition (or backfill off) the pass walks the whole
        queue.  Otherwise — arrivals, requeues and uid-only wakeups — it
        looks the jobs up: the fresh ones plus the woken uids' queued jobs,
        sorted by enqueue sequence, which is the queue's FIFO order.  The
        loop body is the same either way.
        """
        # Every policy needs at least one open node, so a dirty partition
        # (or woken uid) with none can place nothing — drop it up front; a
        # pass with nothing dirty, woken or fresh has nothing to do at all.
        pindex = self._pindex
        dirty = {p for p in dirty if pindex[p].any_open}
        if woken:
            woken = {k for k in woken
                     if k[0] not in dirty and pindex[k[0]].any_open}
        backfill = self.config.backfill
        if not dirty and not fresh and not woken and backfill:
            return
        if dirty or not backfill:
            jobs = list(self._queue)
        else:
            seq = self._enq_seq
            picked = {jid: self.jobs[jid] for jid in fresh if jid in seq}
            for key in woken:
                picked.update(self._queued_by_uid.get(key, ()))
            jobs = sorted(picked.values(), key=lambda j: seq[j.job_id])
        purge = False
        # Within one pass capacity only shrinks (starts consume; frees
        # schedule a new pass), so once a placement shape fails, identical
        # later jobs — array campaigns, mostly — must fail too.  Any
        # mid-pass free (a batch step failing at start) repopulates
        # self._dirty_parts or self._dirty_uids; that invalidates the
        # memo, so drop it.
        failed: set[tuple] = set()
        for job in jobs:
            if job.state is not JobState.PENDING:
                purge = True  # started (or batch-failed) re-entrantly
                continue
            plan = None
            # Without backfill the head job gates everyone (including other
            # partitions), so jobs behind it may never have been examined —
            # the clean-partition skip is only sound with backfill on.
            if (not backfill or job.job_id in fresh
                    or job.spec.partition in dirty
                    or (job.spec.partition, job.uid) in woken):
                if self._dirty_parts or self._dirty_uids:
                    failed.clear()
                spec = job.spec
                sig = (spec.partition, job.uid, spec.ntasks,
                       spec.cores_per_task, spec.mem_mb_per_task,
                       spec.gpus_per_task, spec.exclusive)
                # O(1) guards: a partition with no open node, or a shape
                # that already failed this pass, cannot place
                if sig not in failed \
                        and self._pindex[spec.partition].any_open:
                    plan = self._placement_indexed(job)
                    if plan is None:
                        failed.add(sig)
            if plan is None:
                if not self.config.backfill:
                    break
                continue
            self._start(job, plan)
            purge = True
        if purge:
            self._queue = [j for j in self._queue
                           if j.state is JobState.PENDING]
            self._note_queue_depth()

    def _start(self, job: Job, plan: list[tuple[ComputeNode, int]]) -> None:
        if self.oracle is not None:
            # before any allocation mutates node state, so the oracle sees
            # exactly the co-residence/capacity facts the dispatcher did
            self.oracle.check_sched_start(self, job, plan)
        now = self.engine.now
        job.state = JobState.RUNNING
        job.start_time = now
        self._running[job.job_id] = job
        self._fresh_jobs.discard(job.job_id)
        self._dequeue(job)
        spans = self._job_spans.get(job.job_id) if self.tracer else None
        if spans is not None:
            self.tracer.finish(spans["queue"],
                               waited=now - job.submit_time)
        whole = (self._policy_for(job) is NodeSharing.EXCLUSIVE
                 or job.spec.exclusive)
        for node, tasks in plan:
            node.allocate(job, tasks, whole_node=whole)
            self._node_changed(node, freed=False)
            if self.prolog is not None and not self._run_hook(
                    "prolog", self.prolog, job, node, spans):
                # The node can't be prepared (separation setup failed): the
                # job fails rather than run without its controls, and
                # _finish unwinds whatever was already allocated/spawned.
                self._core_charge[job.job_id] = (0, 0)
                if self.journal is not None:
                    # zero-charge dispatch: replay rebuilds the same
                    # started-then-immediately-failed accounting row
                    self.journal.job_dispatched(job, 0, 0)
                self._finish(job, JobState.FAILED)
                return
            creds = node.node.userdb.credentials_for(job.spec.user)
            for _ in range(tasks):
                node.node.procs.spawn(
                    creds, [job.spec.command], job_id=job.job_id,
                    cwd=job.spec.workdir, rss_mb=job.spec.mem_mb_per_task)
        if spans is not None:
            spans["run"] = self.tracer.start_span(
                "job.run", parent=spans["root"],
                nodes=",".join(sorted({n.name for n, _ in plan})))
        charged = sum(a.cores for a in job.allocations)
        useful = sum(a.tasks * job.spec.cores_per_task
                     for a in job.allocations)
        self._core_charge[job.job_id] = (charged, useful)
        self._busy_cores.add(now, charged)
        self._useful_cores.add(now, useful)
        wait = now - job.submit_time
        self.metrics.samples("wait_time").add(wait)
        self.metrics.histogram("sched_wait_seconds").observe(wait)
        self.metrics.counter("jobs_started").inc()
        if self.attribution is not None:
            self.attribution.job_started(job)
        if self.journal is not None:
            # after the core-charge/time-weighted updates, so a snapshot
            # triggered by this append sees them consistently applied
            self.journal.job_dispatched(job, charged, useful)
        if job.spec.script is not None:
            self._run_batch_script(job, plan[0][0])
            if job.state is not JobState.RUNNING:
                return  # batch step failed; _finish already ran
        timers = [self.engine.at(now + job.duration,
                                 lambda: self._complete(job))]
        if job.spec.oom_bomb:
            timers.append(self.engine.at(now + job.duration / 2,
                                         lambda: self._trigger_oom(job)))
        self._job_events[job.job_id] = timers

    def _run_batch_script(self, job: Job, head: ComputeNode) -> None:
        """Execute the job's batch script on the head node, as the user.

        A raised exception fails the job immediately (non-zero exit of the
        batch step), with the error recorded in the job's stdout.
        """
        from repro.kernel.syscalls import SyscallInterface
        from repro.sched.jobs import JobContext
        creds = head.node.userdb.credentials_for(job.spec.user)
        proc = head.node.procs.spawn(creds, ["batch", job.spec.command],
                                     job_id=job.job_id,
                                     cwd=job.spec.workdir)
        ctx = JobContext(job=job, node=head.node,
                         sys=SyscallInterface(head.node, proc),
                         now=self.engine.now)
        try:
            job.spec.script(ctx)
        except Exception as exc:  # batch step failed
            job.stdout_lines.append(f"batch step failed: {exc}")
            self.metrics.counter("script_failures").inc()
            self._finish(job, JobState.FAILED)

    def _write_stdout_file(self, job: Job) -> None:
        """Materialise slurm-<id>.out in the workdir, as the user."""
        if not job.stdout_lines:
            return
        node = self.nodes[job.allocations[0].node].node if job.allocations \
            else next(iter(self.nodes.values())).node
        creds = node.userdb.credentials_for(job.spec.user)
        body = ("\n".join(job.stdout_lines) + "\n").encode()
        try:
            node.vfs.create(job.stdout_path, creds, mode=0o640, data=body)
        except Exception:
            try:
                node.vfs.write(job.stdout_path, creds, body)
            except Exception:  # pragma: no cover - unwritable workdir
                pass

    # -- completion ----------------------------------------------------------------

    def _complete(self, job: Job) -> None:
        if job.state is JobState.RUNNING:
            self._finish(job, JobState.COMPLETED)

    def _finish(self, job: Job, state: JobState) -> None:
        now = self.engine.now
        job.state = state
        job.end_time = now
        self._running.pop(job.job_id, None)
        for timer in self._job_events.pop(job.job_id, ()):
            self.engine.cancel(timer)
        self._write_stdout_file(job)
        charged, useful = self._core_charge.pop(
            job.job_id,
            (sum(a.cores for a in job.allocations),
             sum(a.tasks * job.spec.cores_per_task
                 for a in job.allocations)))
        self._busy_cores.add(now, -charged)
        self._useful_cores.add(now, -useful)
        spans = self._job_spans.get(job.job_id) if self.tracer else None
        for alloc in job.allocations:
            node = self.nodes[alloc.node]
            if node.fenced:
                # A dead node executes nothing: no process kill, no epilog.
                # Its residue (orphan processes, dirty GPUs, assigned /dev
                # perms) stays put until :meth:`remediate`; the allocation
                # is still released so accounting and requeue see the job
                # off the node.
                self.metrics.counter("epilog_skipped_fenced").inc()
                node.release(job.job_id)
                self._node_changed(node, freed=False)
                continue
            node.node.procs.kill_job(job.job_id)
            if self.epilog is not None:
                self._run_hook("epilog", self.epilog, job, node, spans)
            node.release(job.job_id)
            self._node_changed(node, freed=True)
        if self.tracer is not None:
            self._close_job_trace(job, state)
        if self.attribution is not None:
            self.attribution.job_finished(job, state)
        self.accounting.record(job)
        self.metrics.counter(f"jobs_{state.name.lower()}").inc()
        if self.journal is not None:
            self.journal.job_finished(job, state)
        if self.on_finish is not None:
            self.on_finish(job, state)
        self._try_dispatch()

    def _run_hook(self, which: str, hook, job: Job, node: ComputeNode,
                  spans) -> bool:
        """Run a prolog/epilog hook, tracing when armed; True on success.

        A hook exception is a *node* problem (separation setup or cleanup
        did not happen), so it drains the node for remediation via
        :meth:`_hook_failed` instead of propagating into — and wedging —
        the dispatch loop.  Oracle verdicts are exempt: a
        ``SeparationViolation`` raised by a fail-fast oracle wrapper must
        stay fatal to the run that caused it.
        """
        try:
            if spans is not None:
                s = self.tracer.start_span(f"sched.{which}",
                                           parent=spans["root"],
                                           node=node.name)
                try:
                    hook(job, node)
                finally:
                    self.tracer.finish(s)
            else:
                hook(job, node)
            return True
        except Exception as exc:
            from repro.oracle.oracle import SeparationViolation
            if isinstance(exc, SeparationViolation):
                raise
            self._hook_failed(which, job, node, exc)
            return False

    def _hook_failed(self, which: str, job: Job, node: ComputeNode,
                     exc: Exception) -> None:
        """A prolog/epilog raised: suspect separation residue on the node.

        The node is drained (nothing new lands there) and flagged for
        remediation — :meth:`resume` will reap orphans and re-run the GPU
        scrub/perm reset before the node takes work again.
        """
        node.drained = True
        node.needs_remediation = True
        self._node_changed(node, freed=False)
        self.metrics.counter("hook_failures_total", hook=which).inc()
        if self.events is not None:
            from repro.monitor.events import EventKind
            self.events.emit(
                self.engine.now, EventKind.NODE_LIFECYCLE, -1, node.name,
                f"{which} failed for job {job.job_id}: {exc!r}; "
                f"node drained pending remediation",
                job_id=job.job_id, node=node.name)

    def _trigger_oom(self, job: Job) -> None:
        """The misbehaving job exhausts memory on each of its nodes; the
        kernel OOM-kills *everything* there.  Innocent victims die with
        NODE_FAIL — unless separation policy kept them off those nodes."""
        if job.state is not JobState.RUNNING:
            return
        victim_nodes = set(job.nodes)
        casualties = [
            other for other in self.jobs.values()
            if other.state is JobState.RUNNING and other is not job
            and victim_nodes & set(other.nodes)
        ]
        self._finish(job, JobState.FAILED)
        for other in casualties:
            self.metrics.counter("innocent_job_failures").inc()
            self._finish(other, JobState.NODE_FAIL)

    # -- node administration --------------------------------------------------------

    def drain(self, node_name: str) -> None:
        """scontrol update state=DRAIN: running jobs finish, nothing new."""
        node = self.nodes[node_name]
        node.drained = True
        self._node_changed(node, freed=False)
        if self.journal is not None:
            self.journal.node_drained(node_name)

    def resume(self, node_name: str) -> None:
        """scontrol update state=RESUME; a fenced node remediates first.

        Separation-safe rejoin: a node flagged ``needs_remediation`` (it
        was fenced, or a cleanup hook failed there) goes through
        :meth:`remediate` *before* it becomes schedulable, so the next
        tenant can never see the previous tenant's residue.
        """
        node = self.nodes[node_name]
        if node.needs_remediation:
            self.remediate(node_name)
        node.drained = False
        node.failed = False
        self._node_changed(node, freed=True, resumed=True)
        if self.journal is not None:
            self.journal.node_resumed(node_name)
        self._try_dispatch()

    def remediate(self, node_name: str) -> dict[str, int]:
        """Separation-safe remediation of a fenced or suspect node.

        Orphan processes of no-longer-allocated jobs are reaped (which
        resyncs the per-uid/per-job procfs indexes), the optional
        ``remediator`` hook scrubs GPUs and resets ``/dev`` permissions,
        and the dispatch index entry is refreshed.  Idempotent: a node not
        flagged ``needs_remediation`` is left untouched and an empty
        summary is returned — remediation runs exactly once per reboot.
        """
        node = self.nodes[node_name]
        if not node.needs_remediation:
            return {}
        summary = {"processes_reaped": len(
            node.node.procs.reap_orphans(set(node.allocations)))}
        if self.remediator is not None:
            summary.update(self.remediator(node) or {})
        node.fenced = False
        node.needs_remediation = False
        node.remediations += 1
        self._node_changed(node, freed=False)
        self.metrics.counter("node_remediations_total").inc()
        if self.journal is not None:
            self.journal.node_remediated(node_name)
        if self.events is not None:
            from repro.monitor.events import EventKind
            self.events.emit(
                self.engine.now, EventKind.NODE_LIFECYCLE, -1, node_name,
                "remediated: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(summary.items())),
                node=node_name)
        if self.oracle is not None:
            self.oracle.check_node_rejoin(self, node)
        return summary

    def fail_node(self, node_name: str) -> list[Job]:
        """Hardware failure: the node is *fenced* — a dead node cannot run
        its epilog or kill its processes, so every running job there dies
        NODE_FAIL leaving its residue in place (cleaned by
        :meth:`remediate` before the node rejoins).  With
        ``requeue_on_node_fail`` victims are resubmitted, each up to
        ``max_requeues`` extra attempts.  Returns the affected jobs."""
        node = self.nodes[node_name]
        node.failed = True
        node.fenced = True
        node.needs_remediation = True
        self._node_changed(node, freed=False)
        self.metrics.counter("node_fencings_total").inc()
        if self.journal is not None:
            self.journal.node_fenced(node_name)
        victims = [self.jobs[jid] for jid in list(node.allocations)]
        if self.events is not None:
            from repro.monitor.events import EventKind
            self.events.emit(
                self.engine.now, EventKind.NODE_LIFECYCLE, -1, node_name,
                f"fenced: {len(victims)} running job(s) lost",
                node=node_name)
        for job in victims:
            self._finish(job, JobState.NODE_FAIL)
            self._maybe_requeue(job)
        return victims

    def _maybe_requeue(self, job: Job) -> bool:
        """Requeue a NODE_FAIL victim if configured and within budget.

        A job whose attempt count already exceeds ``max_requeues`` stays
        NODE_FAIL permanently, with the exhaustion recorded in its reason
        and the ``jobs_requeue_exhausted`` counter.
        """
        if not self.config.requeue_on_node_fail:
            return False
        if job.attempt > self.config.max_requeues:
            job.reason = (f"requeue limit exhausted after "
                          f"{job.attempt} attempts")
            self.metrics.counter("jobs_requeue_exhausted").inc()
            if self.events is not None:
                from repro.monitor.events import EventKind
                self.events.emit(
                    self.engine.now, EventKind.NODE_LIFECYCLE, -1,
                    f"job{job.job_id}", job.reason, job_id=job.job_id)
            return False
        self._requeue(job)
        return True

    def _requeue(self, job: Job) -> None:
        """Return a NODE_FAIL job to PENDING (same job id, next attempt)."""
        job.attempt += 1
        job.state = JobState.PENDING
        job.start_time = None
        job.end_time = None
        job.allocations = []
        job.reason = "requeued after node failure"
        self.metrics.counter("jobs_requeued").inc()
        if self.attribution is not None:
            self.attribution.job_requeued(job)
        self._enqueue(job)
        if self.tracer is not None:
            # the failed attempt's trace closed with NODE_FAIL; the retry
            # gets a fresh trace so every attempt stays inspectable
            self._open_job_trace(job, attempt=job.attempt)
        if self.journal is not None:
            self.journal.job_requeued(job)
        self._note_queue_depth()
        self._try_dispatch()

    # -- queries ------------------------------------------------------------------

    def user_has_job_on(self, uid: int, node_name: str) -> bool:
        """pam_slurm's question: does *uid* have a running job on the node?
        O(1) via the node's running-uid multiset."""
        try:
            node = self.nodes[node_name]
        except KeyError:
            raise NoSuchEntity(f"node {node_name!r}") from None
        return node.uid_present(uid)

    def pending(self) -> list[Job]:
        return list(self._queue)

    def running(self) -> list[Job]:
        """Running jobs in submission order — maintained incrementally at
        start/finish instead of re-filtering the whole job table."""
        return sorted(self._running.values(), key=lambda j: j.job_id)

    def utilization(self, t_end: float | None = None) -> float:
        """Time-averaged fraction of cores doing *useful* work since t=0.
        Under EXCLUSIVE a 1-core task on a 48-core node contributes 1 core
        here (the paper's 'poor utilization'), not 48."""
        t = self.engine.now if t_end is None else t_end
        if self.total_cores == 0:
            return 0.0
        return self._useful_cores.mean(t) / self.total_cores

    def occupancy(self, t_end: float | None = None) -> float:
        """Time-averaged fraction of cores *charged* (allocated)."""
        t = self.engine.now if t_end is None else t_end
        if self.total_cores == 0:
            return 0.0
        return self._busy_cores.mean(t) / self.total_cores

    def run(self, until: float | None = None) -> float:
        return self.engine.run(until)
