"""Deterministic control-plane snapshots and the recovery state digest.

A snapshot is a plain JSON-able dict capturing everything
:func:`restore` needs to rebuild the *control-plane* tables in place:
scheduler job/queue/running/charge state, exact accounting totals, the
full account database, and the health monitor's lifecycle records.  It
deliberately excludes the data plane (node allocation tables, processes,
conntrack, GPU devices) — those survive a control-plane crash — and the
observability plane (metrics, traces, audit), which is durable evidence,
not state to rebuild.

:func:`state_digest` is the differential-replay fingerprint (oracle
invariant I8 and the E30 benchmark compare it): a blake2b hash over a
``repr`` of sorted scalar tuples, so it is stable under any
``PYTHONHASHSEED`` — the same determinism bar the E28 ShardReport set.
The digest covers control-plane facts a recovery must preserve exactly
(job lifecycle state, queue order, node flags and allocations, account
membership, accounting totals, health state) and excludes by design:
``UserDB.generation`` (recovery bumps it on purpose), metrics and
time-weighted integrals (observability), job ``reason`` strings and
transition histories (append-only commentary), engine sequence numbers
(re-armed events get fresh ones), and the engine clock itself — a
*delayed* recovery rebuilds the crash-time tables perfectly at a later
instant, and that is preservation, not divergence (job start/end times
already pin every timing fact that matters).
"""

from __future__ import annotations

import hashlib

from repro.persist.journal import PERSIST_SCHEMA_VERSION
from repro.sched.jobs import Allocation, Job, JobSpec, JobState

#: store key the latest snapshot lives under.
SNAPSHOT_KEY = "snapshot"


# -- capture ---------------------------------------------------------------

def capture(cluster, *, seq: int, cache: dict | None = None) -> dict:
    """Capture a snapshot of *cluster*'s control plane at journal *seq*.

    *cache* (the persistence spine passes its own dict) memoises rows
    that can no longer change — finished jobs and the append-only
    accounting records — so repeated captures cost O(live state), not
    O(everything that ever ran).  Without it every row is rebuilt.
    """
    sched = cluster.scheduler
    snap = {
        "v": PERSIST_SCHEMA_VERSION,
        "seq": seq,
        "t": cluster.engine.now,
        "userdb": _capture_userdb(cluster.userdb),
        "scheduler": _capture_scheduler(sched, cache),
        "accounting": _capture_accounting(sched.accounting, cache),
        "health": _capture_health(getattr(cluster, "health", None)),
    }
    snap["digest"] = state_digest(cluster)
    return snap


def _capture_userdb(db) -> dict:
    return {
        "upg": db.upg,
        "generation": db.generation,
        "next_uid": db._next_uid,
        "next_gid": db._next_gid,
        "users": [[u.name, u.uid, u.primary_gid, u.is_support_staff]
                  for u in db._users.values()],
        "groups": [[g.name, g.gid, sorted(g.members), g.private_for,
                    sorted(g.stewards)]
                   for g in db._groups.values()],
    }


def _capture_job(job) -> dict:
    spec = job.spec
    return {
        "id": job.job_id, "user": spec.user.name, "name": spec.name,
        "ntasks": spec.ntasks, "cores_per_task": spec.cores_per_task,
        "mem_mb_per_task": spec.mem_mb_per_task,
        "gpus_per_task": spec.gpus_per_task, "command": spec.command,
        "workdir": spec.workdir, "exclusive": spec.exclusive,
        "oom_bomb": spec.oom_bomb, "partition": spec.partition,
        "duration": job.duration, "submit_time": job.submit_time,
        "state": job.state.value, "start_time": job.start_time,
        "end_time": job.end_time, "attempt": job.attempt,
        "array_id": job.array_id, "array_index": job.array_index,
        "reason": job.reason,
        "allocs": [[a.node, a.tasks, a.cores, a.mem_mb,
                    list(a.gpu_indices)] for a in job.allocations],
    }


def _capture_scheduler(sched, cache: dict | None = None) -> dict:
    jobs = []
    job_cache = None if cache is None else cache.setdefault("jobs", {})
    for j in sched.jobs.values():
        if job_cache is not None and j.state.finished:
            # a finished attempt never changes again; key on the facts
            # that would differ if this id were requeued and re-finished
            key = (j.state.value, j.attempt, j.end_time)
            hit = job_cache.get(j.job_id)
            if hit is not None and hit[0] == key:
                jobs.append(hit[1])
                continue
            row = _capture_job(j)
            job_cache[j.job_id] = (key, row)
            jobs.append(row)
        else:
            jobs.append(_capture_job(j))
    return {
        "jobs": jobs,
        "queue": [j.job_id for j in sched._queue],
        "running": list(sched._running),
        "next_job_id": sched._next_jid,
        "core_charge": [[jid, c, u]
                        for jid, (c, u) in sched._core_charge.items()],
        "busy_cores": _capture_tw(sched._busy_cores),
        "useful_cores": _capture_tw(sched._useful_cores),
    }


def _capture_tw(tw) -> list:
    return [tw._t0, tw._last_t, tw._value, tw._area]


def _capture_record(r) -> list:
    return [r.job_id, r.uid, r.user_name, r.job_name, r.command,
            r.state.value, r.submit_time, r.start_time, r.end_time,
            r.core_seconds, list(r.nodes)]


def _capture_accounting(db, cache: dict | None = None) -> dict:
    if cache is None:
        rows = [_capture_record(r) for r in db._records]
    else:
        # _records is append-only between restores; serialise only the
        # suffix.  A restore can shrink the list — detected by length,
        # which forces a full rebuild.
        kept = cache.get("acct")
        if kept is None or len(kept) > len(db._records):
            kept = cache["acct"] = []
        for r in db._records[len(kept):]:
            kept.append(_capture_record(r))
        rows = list(kept)
    return {
        "records_total": db.records_total,
        "core_seconds_total": db.core_seconds_total,
        "records": rows,
    }


def _capture_health(health) -> dict | None:
    if health is None:
        return None
    return {
        "nodes": [_capture_lifecycle(lc) for lc in health.nodes.values()],
        "unreachable_since": sorted(health._unreachable_since.items()),
        "purged_hosts": sorted(health._purged_hosts),
        "tick_armed": health._tick_armed,
        "tick_due": health._tick_due,
    }


def _capture_lifecycle(lc) -> dict:
    row = {"name": lc.name, "state": lc.state.value, "missed": lc.missed,
           "quarantined_until": lc.quarantined_until,
           "rejoin_times": list(lc.rejoin_times), "purged": lc.purged,
           "residue": None}
    if lc.residue is not None:
        r = lc.residue
        row["residue"] = [r.node, r.recorded_at, list(r.jobs),
                          list(r.orphan_pids), list(r.dirty_gpus),
                          list(r.assigned_devices), r.peer_conntrack_flows]
    return row


# -- restore ---------------------------------------------------------------

def restore(cluster, snap: dict) -> None:
    """Rebuild *cluster*'s control-plane tables in place from *snap*.

    The account database is restored first so job specs resolve users;
    engine time, pending events, the dispatch index, and the UBF caches
    are **not** touched here — re-arming them is
    :func:`repro.persist.recovery.recover_cluster`'s job.
    """
    if snap.get("v") != PERSIST_SCHEMA_VERSION:
        raise ValueError(
            f"snapshot schema v{snap.get('v')} != v{PERSIST_SCHEMA_VERSION}")
    _restore_userdb(cluster.userdb, snap["userdb"])
    _restore_scheduler(cluster.scheduler, cluster.userdb, snap["scheduler"])
    _restore_accounting(cluster.scheduler.accounting, snap["accounting"])
    health = getattr(cluster, "health", None)
    if health is not None and snap["health"] is not None:
        _restore_health(health, snap["health"])


def _restore_userdb(db, data: dict) -> None:
    from repro.kernel.users import Group, User
    db._users.clear()
    db._users_by_uid.clear()
    db._groups.clear()
    db._groups_by_gid.clear()
    for name, gid, members, private_for, stewards in data["groups"]:
        db._register_group(Group(name, gid, members=set(members),
                                 private_for=private_for,
                                 stewards=set(stewards)))
    for name, uid, gid, staff in data["users"]:
        user = User(name, uid, gid, is_support_staff=staff)
        db._users[name] = user
        db._users_by_uid[uid] = user
    db._next_uid = data["next_uid"]
    db._next_gid = data["next_gid"]
    db.generation = data["generation"]


def _restore_job(row: dict, userdb, nodes) -> Job:
    spec = JobSpec(
        user=userdb.user(row["user"]), name=row["name"],
        ntasks=row["ntasks"], cores_per_task=row["cores_per_task"],
        mem_mb_per_task=row["mem_mb_per_task"],
        gpus_per_task=row["gpus_per_task"], command=row["command"],
        workdir=row["workdir"], exclusive=row["exclusive"],
        oom_bomb=row["oom_bomb"], partition=row["partition"])
    job = Job(job_id=row["id"], spec=spec, duration=row["duration"],
              submit_time=row["submit_time"],
              state=JobState(row["state"]), start_time=row["start_time"],
              end_time=row["end_time"], attempt=row["attempt"],
              array_id=row["array_id"], array_index=row["array_index"])
    job.reason = row["reason"]
    job.allocations = [link_allocation(nodes, job.job_id, r)
                       for r in row["allocs"]]
    return job


def link_allocation(nodes, job_id: int, row: list) -> Allocation:
    """Resolve one serialised allocation row against the live data plane.

    The node's allocation table survived the crash; when it still holds
    this job's entry the *live object* is linked (so a post-recovery
    finish releases exactly what the node accounts), otherwise a detached
    row is rebuilt — the historical record of an already-released hold.
    """
    node_name, tasks, cores, mem_mb, gpus = row
    node = nodes.get(node_name)
    if node is not None:
        live = node.allocations.get(job_id)
        if live is not None:
            return live
    return Allocation(node=node_name, tasks=tasks, cores=cores,
                      mem_mb=mem_mb, gpu_indices=list(gpus))


def _restore_scheduler(sched, userdb, data: dict) -> None:
    sched.jobs = {row["id"]: _restore_job(row, userdb, sched.nodes)
                  for row in data["jobs"]}
    sched._reset_queue(sched.jobs[jid] for jid in data["queue"])
    sched._running = {jid: sched.jobs[jid] for jid in data["running"]}
    sched._next_jid = data["next_job_id"]
    sched._core_charge = {jid: (c, u)
                          for jid, c, u in data["core_charge"]}
    _restore_tw(sched._busy_cores, data["busy_cores"])
    _restore_tw(sched._useful_cores, data["useful_cores"])


def _restore_tw(tw, row: list) -> None:
    tw._t0, tw._last_t, tw._value, tw._area = row


def _restore_accounting(db, data: dict) -> None:
    from repro.sched.accounting import UsageRecord
    db._records = [
        UsageRecord(job_id=jid, uid=uid, user_name=un, job_name=jn,
                    command=cmd, state=JobState(st), submit_time=sub,
                    start_time=start, end_time=end, core_seconds=cs,
                    nodes=tuple(nodes))
        for jid, uid, un, jn, cmd, st, sub, start, end, cs, nodes
        in data["records"]]
    db.records_total = data["records_total"]
    db.core_seconds_total = data["core_seconds_total"]


def _restore_health(health, data: dict) -> None:
    from repro.sched.health import NodeHealth, NodeLifecycle, NodeResidue
    health.nodes = {}
    for row in data["nodes"]:
        lc = NodeLifecycle(row["name"], state=NodeHealth(row["state"]),
                           missed=row["missed"],
                           quarantined_until=row["quarantined_until"],
                           rejoin_times=list(row["rejoin_times"]),
                           purged=row["purged"])
        if row["residue"] is not None:
            node, at, jobs, pids, gpus, devs, flows = row["residue"]
            lc.residue = NodeResidue(
                node=node, recorded_at=at, jobs=tuple(jobs),
                orphan_pids=tuple(pids), dirty_gpus=tuple(gpus),
                assigned_devices=tuple(devs), peer_conntrack_flows=flows)
        health.nodes[lc.name] = lc
    health._unreachable_since = dict(data["unreachable_since"])
    health._purged_hosts = set(data["purged_hosts"])
    health._tick_armed = data["tick_armed"]
    health._tick_due = data["tick_due"]


# -- digest ----------------------------------------------------------------

def state_digest(cluster) -> str:
    """PYTHONHASHSEED-stable fingerprint of the separation-relevant state.

    See the module docstring for exactly what is covered and what is
    excluded (and why).  Equal digests mean a crashed-and-recovered run
    and its uncrashed reference agree on every fact invariants I1–I8
    depend on.
    """
    sched = cluster.scheduler
    jobs = []
    for jid in sorted(sched.jobs):
        j = sched.jobs[jid]
        allocs = ()
        if j.state is JobState.RUNNING:
            allocs = tuple((a.node, a.tasks, a.cores, a.mem_mb,
                            tuple(a.gpu_indices)) for a in j.allocations)
        jobs.append((jid, j.state.value, j.submit_time, j.start_time,
                     j.end_time, j.attempt, j.uid, j.spec.name,
                     j.spec.ntasks, j.spec.partition, j.duration, allocs))
    nodes = tuple(
        (name, n.failed, n.drained, n.fenced, n.needs_remediation,
         n.remediations, tuple(sorted(n.allocations)))
        for name, n in sorted(sched.nodes.items()))
    db = cluster.userdb
    users = tuple(sorted((u.name, u.uid, u.primary_gid, u.is_support_staff)
                         for u in db._users.values()))
    groups = tuple(sorted(
        (g.name, g.gid, tuple(sorted(g.members)), g.private_for,
         tuple(sorted(g.stewards))) for g in db._groups.values()))
    health = getattr(cluster, "health", None)
    health_rows = ()
    if health is not None:
        health_rows = tuple(
            (name, lc.state.value, lc.missed, lc.quarantined_until,
             tuple(lc.rejoin_times), lc.purged)
            for name, lc in sorted(health.nodes.items()))
    acct = sched.accounting
    parts = (tuple(jobs),
             tuple(j.job_id for j in sched._queue),
             tuple(sched._running), nodes, users, groups,
             (acct.records_total, round(acct.core_seconds_total, 6)),
             health_rows)
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()
