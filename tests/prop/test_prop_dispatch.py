"""Differential property test: indexed dispatch ≡ the naive reference.

The free-capacity index (``repro.sched.dispatch_index``) is a superset
filter over the naive full-partition scan, and the event-driven wakeups
skip only jobs that provably cannot have become placeable.  If either
claim is off by one node or one event, placements diverge.  This suite
runs random job streams — mixed sizes, policies, backfill settings, GPU
demands, node failures and drains — through both implementations and
requires byte-identical outcomes: per-job allocations, start/end times,
final states, and the accounting record sequence (completion order).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import LinuxNode, NodeSpec, UserDB
from repro.sched import (
    ComputeNode,
    JobSpec,
    NodeSharing,
    Partition,
    Scheduler,
    SchedulerConfig,
)
from repro.sim import Engine

policies = st.sampled_from([NodeSharing.SHARED, NodeSharing.EXCLUSIVE,
                            NodeSharing.WHOLE_NODE_USER])

jobs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),        # user index
        st.integers(min_value=1, max_value=6),        # ntasks
        st.integers(min_value=1, max_value=4),        # cores_per_task
        st.sampled_from([0, 500, 2000]),              # mem_mb_per_task
        st.integers(min_value=0, max_value=1),        # gpus_per_task
        st.booleans(),                                # --exclusive
        st.integers(min_value=1, max_value=40),       # duration
        st.integers(min_value=0, max_value=20),       # arrival offset
    ),
    min_size=1, max_size=25,
)

#: many small jobs of two users on few nodes: under WHOLE_NODE_USER most
#: finishes leave a node its owner still holds, so the per-uid wakeups
#: (not the whole-partition ones) decide who starts next
packed_jobs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),        # user index
        st.integers(min_value=1, max_value=3),        # ntasks
        st.integers(min_value=1, max_value=2),        # cores_per_task
        st.sampled_from([0, 500]),                    # mem_mb_per_task
        st.just(0),                                   # gpus_per_task
        st.booleans(),                                # --exclusive
        st.integers(min_value=1, max_value=30),       # duration
        st.integers(min_value=0, max_value=10),       # arrival offset
    ),
    min_size=4, max_size=30,
)

admin_strategy = st.lists(
    st.tuples(
        st.sampled_from(["fail", "drain", "resume"]),
        st.integers(min_value=0, max_value=5),        # node index
        st.integers(min_value=1, max_value=30),       # event time
    ),
    max_size=4,
)


def _run_side(*, naive, jobs, admin, n_nodes, cores, mem_mb, gpus,
              policy, backfill, requeue):
    userdb = UserDB()
    users = [userdb.add_user(f"user{i}") for i in range(4)]
    engine = Engine()
    cnodes = [
        ComputeNode.create(
            LinuxNode(f"n{i}", userdb,
                      spec=NodeSpec(cores=cores, mem_mb=mem_mb, gpus=gpus)))
        for i in range(n_nodes)
    ]
    names = tuple(n.name for n in cnodes)
    partitions = [Partition("normal", names),
                  Partition("debug", names[:max(1, n_nodes // 2)],
                            policy_override=NodeSharing.SHARED)]
    sched = Scheduler(engine, cnodes,
                      SchedulerConfig(policy=policy, backfill=backfill,
                                      requeue_on_node_fail=requeue,
                                      naive=naive),
                      partitions=partitions)
    for i, (u, ntasks, cpt, mpt, gpt, excl, dur, at) in enumerate(jobs):
        spec = JobSpec(user=users[u], name=f"j{i}", ntasks=ntasks,
                       cores_per_task=cpt, mem_mb_per_task=mpt,
                       gpus_per_task=gpt, exclusive=excl,
                       partition="debug" if i % 3 == 2 else "normal")
        sched.submit(spec, float(dur), at=float(at))
    for kind, idx, t in admin:
        name = f"n{idx % n_nodes}"
        if kind == "fail":
            engine.at(float(t), lambda n=name: sched.fail_node(n))
        elif kind == "drain":
            engine.at(float(t), lambda n=name: sched.drain(n))
        else:
            engine.at(float(t), lambda n=name: sched.resume(n))
    engine.run()
    outcome = {
        job_id: (job.state, job.start_time, job.end_time,
                 [(a.node, a.tasks, a.cores, a.mem_mb, tuple(a.gpu_indices))
                  for a in job.allocations])
        for job_id, job in sched.jobs.items()
    }
    completions = [(r.job_id, r.state, r.end_time)
                   for r in sched.accounting.all_records()]
    return outcome, completions, sched


@settings(max_examples=50)
@given(jobs=jobs_strategy, admin=admin_strategy,
       n_nodes=st.integers(min_value=1, max_value=6),
       cores=st.integers(min_value=2, max_value=8),
       mem_mb=st.sampled_from([4000, 16000]),
       gpus=st.integers(min_value=0, max_value=2),
       policy=policies, backfill=st.booleans(), requeue=st.booleans())
def test_indexed_dispatch_identical_to_naive(jobs, admin, n_nodes, cores,
                                             mem_mb, gpus, policy, backfill,
                                             requeue):
    kw = dict(jobs=jobs, admin=admin, n_nodes=n_nodes, cores=cores,
              mem_mb=mem_mb, gpus=gpus, policy=policy, backfill=backfill,
              requeue=requeue)
    naive_out, naive_seq, _ = _run_side(naive=True, **kw)
    fast_out, fast_seq, fast_sched = _run_side(naive=False, **kw)
    assert fast_out == naive_out
    assert fast_seq == naive_seq
    # the indexed run's incremental queues must agree with ground truth
    from repro.sched import JobState
    assert {j.job_id for j in fast_sched.running()} == {
        j.job_id for j in fast_sched.jobs.values()
        if j.state is JobState.RUNNING}
    assert {j.job_id for j in fast_sched.pending()} == {
        j.job_id for j in fast_sched.jobs.values()
        if j.state is JobState.PENDING}
    # ... and so must the queue index the looked-up passes read
    pending = fast_sched.pending()
    assert list(fast_sched._enq_seq) == [j.job_id for j in pending]
    assert sorted(jid for queued in fast_sched._queued_by_uid.values()
                  for jid in queued) == sorted(j.job_id for j in pending)


@settings(max_examples=50)
@given(jobs=packed_jobs_strategy, admin=admin_strategy,
       n_nodes=st.integers(min_value=1, max_value=3),
       cores=st.integers(min_value=4, max_value=8),
       requeue=st.booleans())
def test_per_uid_wakeups_identical_to_naive(jobs, admin, n_nodes, cores,
                                            requeue):
    """Whole-node-per-user under packing pressure: a finish on a node its
    owner still holds wakes only that owner's queued jobs, looked up in
    FIFO order — placements must still equal the naive rescan's."""
    kw = dict(jobs=jobs, admin=admin, n_nodes=n_nodes, cores=cores,
              mem_mb=16000, gpus=0, policy=NodeSharing.WHOLE_NODE_USER,
              backfill=True, requeue=requeue)
    naive_out, naive_seq, _ = _run_side(naive=True, **kw)
    fast_out, fast_seq, _ = _run_side(naive=False, **kw)
    assert fast_out == naive_out
    assert fast_seq == naive_seq


@settings(max_examples=25)
@given(jobs=jobs_strategy,
       n_nodes=st.integers(min_value=2, max_value=6),
       policy=policies, backfill=st.booleans())
def test_indexed_utilization_matches_naive(jobs, n_nodes, policy, backfill):
    """utilization()/occupancy() come from incrementally accumulated
    core-seconds; they must equal the naive run's at every horizon."""
    kw = dict(jobs=jobs, admin=[], n_nodes=n_nodes, cores=8, mem_mb=16000,
              gpus=0, policy=policy, backfill=backfill, requeue=False)
    _, _, naive_sched = _run_side(naive=True, **kw)
    _, _, fast_sched = _run_side(naive=False, **kw)
    horizon = max(naive_sched.engine.now, 1.0)
    assert fast_sched.utilization(horizon) == naive_sched.utilization(horizon)
    assert fast_sched.occupancy(horizon) == naive_sched.occupancy(horizon)
