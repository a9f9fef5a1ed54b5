"""job-stream: a loaded batch cluster under the production posture.

256 compute nodes x 16 cores x 2 GPUs, 64 users in 4 project groups, the
LLSC preset with the journal, health monitor, forensic plane and a 1%
fail-fast oracle armed.  Arrivals are an open loop in *virtual* time:
Poisson at ``load`` x the nominal core capacity, same-instant
``submit_array`` campaigns and ~10% GPU jobs, so a queue forms.  In wall
time the benchmark is one closed loop: ``Cluster.run(until=t)``, then
``Cluster.submit``/``submit_array`` for the arrival due at ``t``.

A round is a fresh cluster: set-up is build + arm + a warm-up of
``warm`` arrivals (cluster full, queue formed); the measured region is
the next ``steady`` arrivals, with ``crashes`` seeded control-plane
crashes (``crash_scheduler`` then ``recover``) whose time is excluded.

``ops_per_s`` is engine events per wall second; ``op_p50_us`` /
``op_p90_us`` time each ``Cluster.submit`` call (sbatch against a live
queue).
"""

from __future__ import annotations

import statistics
import time

from repro import LLSC, Cluster
from repro.obs import attach_forensics
from repro.oracle import attach_oracle
from repro.oracle.oracle import SeparationViolation
from repro.persist import attach_persistence
from repro.sched.health import attach_health
from repro.sched.jobs import JobState

from common import (WALL_CAP_S, HostClock, PassResult, SetupClock, Slicer,
                    count, rng_for, run_rounds)
from layers import patch_cluster
from spans import percentile, recording

NAME = "job-stream"
#: arrivals per host-clock slice
SLICE_ARRIVALS = 25

SIZES = {
    "full": dict(nodes=256, cores=16, gpus=2, users=64, projects=4,
                 load=0.75, warm=1000, steady=3000, crashes=1,
                 array_p=1 / 150, array_size=48, check_every=500,
                 oracle_rate=0.01),
    "smoke": dict(nodes=16, cores=16, gpus=2, users=8, projects=2,
                  load=0.85, warm=100, steady=200, crashes=1,
                  array_p=1 / 50, array_size=8, check_every=50,
                  oracle_rate=1.0),
}

#: mean job duration (uniform 5..50 s) and GPU-job share
_MEAN_DURATION = 27.5
_GPU_P = 0.1


def _arrivals(sz: dict, rng) -> list[tuple]:
    """``(t, user_index, kind, payload)`` arrivals for one round."""
    n = sz["warm"] + sz["steady"]
    # mean core-seconds one arrival brings: plain jobs (ntasks 2 x
    # cores/task 1.5 on average), GPU jobs (2 cores), arrays (1 core each)
    plain_p = 1.0 - sz["array_p"] - _GPU_P
    core_s = _MEAN_DURATION * (plain_p * 2.0 * 1.5 + _GPU_P * 2.0
                               + sz["array_p"] * sz["array_size"])
    rate = sz["nodes"] * sz["cores"] * sz["load"] / core_s
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        user = rng.randrange(sz["users"])
        r = rng.random()
        if r < sz["array_p"]:
            out.append((t, user, "array",
                        [rng.uniform(5.0, 50.0)
                         for _ in range(sz["array_size"])]))
        elif r < sz["array_p"] + _GPU_P:
            out.append((t, user, "gpu", rng.uniform(5.0, 50.0)))
        else:
            out.append((t, user, "cpu", (rng.choice((1, 1, 2, 4)),
                                         rng.choice((1, 2)),
                                         rng.uniform(5.0, 50.0))))
    return out


def _build(sz: dict, tracer):
    users = tuple(f"u{i:02d}" for i in range(sz["users"]))
    projects = {f"proj{p}": users[p::sz["projects"]]
                for p in range(sz["projects"])}
    cluster = Cluster.build(LLSC, n_compute=sz["nodes"], cores=sz["cores"],
                            gpus_per_node=sz["gpus"], users=users,
                            staff=("ops",), projects=projects)
    attach_persistence(cluster)
    attach_health(cluster).start()
    attach_forensics(cluster)
    attach_oracle(cluster, sampling_rate=sz["oracle_rate"], fail_fast=True)
    if tracer is not None:
        patch_cluster(tracer, cluster)
    return cluster, users


class _Round:
    """One fresh cluster driven through warm-up, steady region, crashes."""

    def __init__(self, res: PassResult, sz: dict, seed, index, tracer,
                 acc: dict, clock: HostClock):
        self.res, self.sz, self.tracer, self.acc = res, sz, tracer, acc
        self.clock = clock
        self.rng = rng_for(NAME, seed, index)
        self.owner: dict[int, int] = {}   # job id -> submitting uid
        self.gpu_jobs = 0
        self.sentinels = 0

    # -- driving the engine -------------------------------------------------

    def advance(self, t: float) -> None:
        """``Cluster.run(until=t)``; the traced pass steps event by event
        (through a no-op sentinel at ``t``) so each ``Engine.step`` is one
        span."""
        tracer = self.tracer
        if tracer is None:
            self.cluster.run(until=t)
            return
        eng = self.cluster.engine
        fired: list[int] = []
        eng.at(t, lambda: fired.append(1))
        self.sentinels += 1
        heap_max = self.acc["heap_max"]
        while not fired:
            tracer.rid = eng.events_processed
            with tracer.span("sim.step"):
                stepped = eng.step()
            if eng.pending > heap_max:
                heap_max = eng.pending
            if not stepped:
                break
        self.acc["heap_max"] = heap_max

    def submit(self, arrival) -> int:
        """Submit one arrival; returns the submit-call latency in ns."""
        _, u, kind, payload = arrival
        c, name = self.cluster, self.users[u]
        if self.tracer is not None:
            self.tracer.rid = len(self.owner)
        t0 = time.perf_counter_ns()
        if kind == "array":
            jobs = c.submit_array(name, durations=payload)
        elif kind == "gpu":
            jobs = [c.submit(name, duration=payload, cores_per_task=2,
                             gpus_per_task=1)]
        else:
            ntasks, cpt, dur = payload
            jobs = [c.submit(name, duration=dur, ntasks=ntasks,
                             cores_per_task=cpt)]
        lat = time.perf_counter_ns() - t0
        uid = c.user(name).uid
        for job in jobs:
            self.owner[job.job_id] = uid
        if kind == "gpu":
            self.gpu_jobs += 1
        return lat if kind != "array" else -1

    # -- checks ---------------------------------------------------------------

    def check_coresidence(self) -> None:
        """Whole-node-per-user: no node ever hosts two users' jobs."""
        for cn in self.cluster.compute_nodes:
            owners = {self.owner[jid] for jid in cn.allocations}
            if len(owners) > 1:
                self.res.breach(f"{NAME}: node {cn.name} hosts jobs of "
                                f"uids {sorted(owners)}")

    def check_history(self, when: str) -> None:
        jobs = self.cluster.scheduler.jobs
        if len(jobs) != len(self.owner):
            self.res.breach(f"{NAME}: job table holds {len(jobs)} jobs "
                            f"{when}, {len(self.owner)} were submitted")

    def crash_and_recover(self) -> None:
        c, tracer, res = self.cluster, self.tracer, self.res
        self.check_history("before the crash")
        self.acc["history"].append(len(c.scheduler.jobs))
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("persist.crash"):
                c.chaos().crash_scheduler()
            with tracer.span("persist.recover"):
                report = c.recover()
        else:
            c.chaos().crash_scheduler()
            report = c.recover()
        self.acc["recover_s"].append(time.perf_counter() - t0)
        self.acc["replayed"].append(report.replayed)
        res.attempted += 1
        res.digest.add("recover", report.digest_after)
        if not report.identical:
            res.breach(f"{NAME}: recovery not identical "
                       f"({report.digest_before} != {report.digest_after})")
        self.check_history("after recovery")
        self.check_coresidence()

    def finish(self) -> None:
        """Count finished jobs (COMPLETED is the only success) and check
        every finished job still belongs to its submitter."""
        res = self.res
        for jid, job in self.cluster.scheduler.jobs.items():
            if not job.state.finished:
                continue
            if job.spec.user.uid != self.owner.get(jid):
                res.breach(f"{NAME}: job {jid} finished as uid "
                           f"{job.spec.user.uid}, submitted by "
                           f"{self.owner.get(jid)}")
            if job.state is not JobState.COMPLETED:
                res.failed += 1
            res.digest.add(jid, job.state.name)

    # -- the round ------------------------------------------------------------

    def run(self) -> None:
        sz, res, clock = self.sz, self.res, self.clock
        setup = SetupClock(res, clock)
        self.cluster, self.users = _build(sz, self.tracer)
        arrivals = _arrivals(sz, self.rng)
        setup.lap()
        warm, steady = arrivals[:sz["warm"]], arrivals[sz["warm"]:]
        for k, arrival in enumerate(warm, 1):
            self.advance(arrival[0])
            self.submit(arrival)
            if k % SLICE_ARRIVALS == 0:
                setup.lap()
        setup.done()

        c = self.cluster
        eng = c.engine
        lo, hi = int(len(steady) * 0.2), int(len(steady) * 0.8)
        crash_at = set(self.rng.sample(range(lo, hi), sz["crashes"]))
        queue_gauge = c.metrics.gauge("sched_queue_depth")
        base = count(c.metrics)
        ev0, sent0 = eng.events_processed, self.sentinels
        jobs0, gpu0 = len(self.owner), self.gpu_jobs
        slicer = Slicer(res, clock, SLICE_ARRIVALS)
        with recording(self.tracer):
            for i, arrival in enumerate(steady):
                t0 = time.perf_counter()
                self.advance(arrival[0])
                ns = self.submit(arrival)
                slicer.add(time.perf_counter() - t0, ns if ns >= 0 else None)
                self.acc["queue"].append(queue_gauge.value)
                if i in crash_at:
                    slicer.close()
                    self.crash_and_recover()
                    clock.mark()
                if i % sz["check_every"] == 0:
                    self.check_coresidence()
        slicer.close()
        events = eng.events_processed - ev0 - (self.sentinels - sent0)
        res.work += events
        res.attempted += len(self.owner)
        self.acc["jobs"] += len(self.owner) - jobs0
        self.acc["gpu"] += self.gpu_jobs - gpu0
        self.check_coresidence()
        self.finish()
        oracle = c.oracle
        res.oracle_checks += oracle.total_checks
        res.oracle_violations += len(oracle.violations)
        self.acc["wait"].extend(c.metrics.samples("wait_time").values)
        self.acc["audit"].append(len(c.forensics.audit))
        res.add_counters(c.metrics, base)


def run(seed: int, seconds: float, *, tracer=None, size: str = "full",
        rounds: int | None = None, wall_cap: float = WALL_CAP_S
        ) -> PassResult:
    sz = SIZES[size]
    res = PassResult(NAME)
    acc = {"history": [], "recover_s": [], "replayed": [], "queue": [],
           "wait": [], "audit": [], "heap_max": 0, "jobs": 0, "gpu": 0}

    clock = HostClock()

    def one_round(index: int) -> None:
        try:
            _Round(res, sz, seed, index, tracer, acc, clock).run()
        except SeparationViolation as exc:
            res.oracle_violations += 1
            res.breach(f"{NAME}: oracle violation: {exc}")

    run_rounds(res, seconds, one_round, rounds=rounds, wall_cap=wall_cap)
    recover_ms = [s * 1e3 for s in acc["recover_s"]]
    res.props = {
        "gpu_job_share": acc["gpu"] / acc["jobs"] if acc["jobs"] else 0.0,
        "history_at_crash": acc["history"],
        "queue_depth_p50": percentile(acc["queue"], 50)
        if acc["queue"] else 0.0,
    }
    res.layer = {
        "sim.heap_live_max": acc["heap_max"],
        "sched.queue_depth_p50": res.props["queue_depth_p50"],
        "sched.sim_wait_p50_s": percentile(acc["wait"], 50)
        if acc["wait"] else 0.0,
        "sched.sim_wait_mean_s": statistics.mean(acc["wait"])
        if acc["wait"] else 0.0,
        "persist.replayed_records": statistics.mean(acc["replayed"])
        if acc["replayed"] else 0.0,
        "persist.history_jobs": statistics.mean(acc["history"])
        if acc["history"] else 0.0,
        "persist.recover_p50_ms": statistics.median(recover_ms)
        if recover_ms else 0.0,
        "obs.audit_records": statistics.mean(acc["audit"])
        if acc["audit"] else 0.0,
        "props.gpu_job_share": res.props["gpu_job_share"],
    }
    e2e = res.end_to_end()
    res.named = {
        "events_per_s": (e2e["ops_per_s"], "1/s"),
        "submit_p50_us": (e2e["op_p50_us"], "us"),
        "submit_p99_us": (res.pct_us(99), "us"),
        "recover_p50_ms": (res.layer["persist.recover_p50_ms"], "ms"),
    }
    return res
