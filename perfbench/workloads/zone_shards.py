"""zone-shards: the sharded engine over the multi-zone cluster.

``ShardedEngine(make_zone_factories(8 zones x 256 nodes, 1% fail-fast
oracle, node churn), n_shards=8)``: the only workload that runs
``repro.sim.shard`` and ``repro.sched.multizone``.  Each round simulates
a fresh seeded campaign of ``jobs`` jobs per zone up to a virtual
``horizon`` (40 s: the arrival phase, before the zones drain), then
re-runs it on the single-engine reference (``n_shards=1``) and requires
the two digests to be identical.

The measured run uses the serial backend: on a shared two-CPU host the
multiprocessing backend's wall time swings by a third from run to run,
too much to bound.  The traced pass also runs every round on
``workers=min(2, CPUs)`` processes and reports that backend's speedup
over serial, and its barrier waits, in the ledger — the figure that
decides whether the backend earns its keep.

Set-up runs from the call to ``ShardedEngine.run`` to the first epoch
barrier: zone construction plus the first epoch.  The measured region is
every later epoch.  ``ops_per_s`` is engine events per second of it;
``op_p50_us`` / ``op_p90_us`` time each epoch, barrier to barrier.  The
host clock is sampled every ``SLICE_EPOCHS`` epochs at a barrier, and
the sample's own time is left out of the epoch it falls in.
"""

from __future__ import annotations

import os
import time

from repro.sched import make_zone_factories
from repro.sim import ShardedEngine
from repro.sim.metrics import MetricSet

from common import (WALL_CAP_S, HostClock, PassResult, SetupClock, Slicer,
                    ratio, rng_for, run_rounds)
from spans import percentile

NAME = "zone-shards"

SIZES = {
    "full": dict(zones=8, nodes=256, jobs=1000, shards=8, window=0.25,
                 churn=0.1, oracle_rate=0.01, horizon=40.0),
    "smoke": dict(zones=4, nodes=16, jobs=100, shards=4, window=1.0,
                  churn=0.1, oracle_rate=1.0, horizon=None),
}

#: epochs per host-clock slice
SLICE_EPOCHS = 5


def workers() -> int:
    """Worker processes: never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class BarrierMarks(MetricSet):
    """The sharded engine's metric registry, calling *on_barrier* at every
    epoch barrier.

    The coordinator folds each epoch's per-shard stats into the metric
    set after all shards reported, shard by shard; the pending-events
    gauge lookup of the last shard is the last step, and is taken as the
    barrier crossing.  :func:`run` checks that the hook fired exactly once
    per epoch.
    """

    def __init__(self, last_shard: int, on_barrier):
        super().__init__()
        self.last_shard = last_shard
        self.on_barrier = on_barrier
        self.crossings = 0

    def gauge(self, name: str, **labels):
        if name == "shard_pending_events" \
                and labels.get("shard") == self.last_shard:
            self.crossings += 1
            self.on_barrier(self)
        return super().gauge(name, **labels)

    def events_so_far(self) -> int:
        """Engine events processed by every shard up to this barrier
        (each shard's events/s gauge times its busy-seconds gauge)."""
        rate = {g.labels: g.value for g in self.all_gauges()
                if g.name == "shard_events_per_sec"}
        return sum(round(rate[g.labels] * g.value)
                   for g in self.all_gauges()
                   if g.name == "shard_busy_wall_seconds")


def _busy(metrics: MetricSet) -> float:
    """Busy wall seconds summed over every shard."""
    return sum(g.value for g in metrics.all_gauges()
               if g.name == "shard_busy_wall_seconds")


def _factories(sz: dict, zone_seed: int) -> list:
    return make_zone_factories(
        sz["zones"], seed=zone_seed, nodes_per_zone=sz["nodes"],
        jobs_per_zone=sz["jobs"], chunk_jobs=2000, transfer_frac=0.03,
        probe_frac=0.01, churn_per_chunk=sz["churn"],
        oracle_rate=sz["oracle_rate"])


def run(seed: int, seconds: float, *, tracer=None, size: str = "full",
        rounds: int | None = None, wall_cap: float = WALL_CAP_S
        ) -> PassResult:
    """*tracer* is accepted for symmetry; the per-layer ledger of this
    workload comes from the engine's own metrics (layer spans would be
    recorded inside the worker processes and lost)."""
    sz = SIZES[size]
    res = PassResult(NAME)
    acc = {"waits": [], "busy": 0.0, "mp_wall": 0.0, "mp_serial_wall": 0.0,
           "worker_wall": 0.0, "serial_waits": 0.0, "serial_busy": 0.0,
           "epochs": 0, "msgs": 0}
    n_workers = workers()
    clock = HostClock()

    def check(rep, backend: str) -> None:
        if rep.fenced_shards:
            res.failed += len(rep.fenced_shards)
            res.breach(f"{NAME}: {backend} shards {rep.fenced_shards} "
                       f"fenced")

    def one_round(index: int) -> None:
        zone_seed = rng_for(NAME, seed, index).getrandbits(31)
        factories = _factories(sz, zone_seed)
        slicer = Slicer(res, clock, SLICE_EPOCHS)
        state = {"first_events": 0, "probe_ns": 0}

        def on_barrier(marks: BarrierMarks) -> None:
            now = time.perf_counter_ns()
            if marks.crossings == 1:
                # set-up ends at the first barrier: zone construction
                # (inside run) plus the first epoch
                setup.done()
                state["first_events"] = marks.events_so_far()
            else:
                ns = now - state["last"]
                slicer.add(ns / 1e9, ns)
            # read after a slice boundary's clock sample, which is
            # thereby left out of the measured time
            state["last"] = time.perf_counter_ns()
            state["probe_ns"] += state["last"] - now

        barrier = BarrierMarks(sz["shards"] - 1, on_barrier)
        eng = ShardedEngine(factories, n_shards=sz["shards"],
                            window=sz["window"], metrics=barrier)
        setup = SetupClock(res, clock)
        state["start"] = time.perf_counter_ns()
        rep = eng.run(until=sz["horizon"])
        slicer.close()
        if barrier.crossings != rep.epochs or rep.epochs < 2:
            raise RuntimeError(f"{NAME}: {barrier.crossings} barrier "
                               f"crossings for {rep.epochs} epochs")
        # run wall time without the clock samples (for the speedup)
        wall = (time.perf_counter_ns() - state["start"]
                - state["probe_ns"]) / 1e9
        res.work += rep.total_events - state["first_events"]
        res.attempted += sum(z["finished"] for z in rep.zone_stats)
        res.oracle_checks += sum(z["oracle_checks"] for z in rep.zone_stats)
        res.oracle_violations += sum(z["oracle_violations"]
                                     for z in rep.zone_stats)
        acc["epochs"] += rep.epochs
        acc["msgs"] += rep.msgs_routed
        acc["serial_waits"] += sum(
            barrier.samples("shard_barrier_wait").values)
        acc["serial_busy"] += _busy(barrier)
        res.digest.add(index, rep.digest)
        check(rep, "serial")

        ref = ShardedEngine(factories, n_shards=1,
                            window=sz["window"]).run(until=sz["horizon"])
        if ref.digest != rep.digest or ref.zones != rep.zones:
            res.breach(f"{NAME}: digest {rep.digest} differs from the "
                       f"single-engine reference {ref.digest}")

        if tracer is not None:
            # the multiprocessing backend, same campaign, for the ledger
            mp_metrics = MetricSet()
            t0 = time.perf_counter()
            mp = ShardedEngine(factories, n_shards=sz["shards"],
                               window=sz["window"], workers=n_workers,
                               metrics=mp_metrics
                               ).run(until=sz["horizon"])
            mp_wall = time.perf_counter() - t0
            check(mp, "multiprocessing")
            if mp.digest != rep.digest:
                res.breach(f"{NAME}: multiprocessing digest {mp.digest} "
                           f"differs from serial {rep.digest}")
            acc["mp_wall"] += mp_wall
            acc["mp_serial_wall"] += wall
            acc["worker_wall"] += mp_wall * n_workers
            acc["waits"].extend(
                mp_metrics.samples("shard_barrier_wait").values)
            acc["busy"] += _busy(mp_metrics)

    run_rounds(res, seconds, one_round, rounds=rounds, wall_cap=wall_cap)
    waits = acc["waits"]
    worker_wall = acc["worker_wall"]
    res.props = {
        "shard.epochs": acc["epochs"], "shard.msgs_routed": acc["msgs"],
        # serial backend: the share of an ideal n-way parallel epoch each
        # shard would spend waiting for the slowest (barrier imbalance)
        "barrier_wait_share_serial": ratio(
            acc["serial_waits"], acc["serial_waits"] + acc["serial_busy"]),
    }
    res.layer = {"shard.epochs": acc["epochs"],
                 "shard.msgs_routed": acc["msgs"]}
    if worker_wall:
        res.layer.update({
            "shard.barrier_wait_p50_s": percentile(waits, 50),
            "shard.barrier_wait_p95_s": percentile(waits, 95),
            "shard.busy_frac": acc["busy"] / worker_wall,
            "shard.barrier_wait_share": sum(waits) / worker_wall,
            "shard.mp_speedup": acc["mp_serial_wall"] / acc["mp_wall"],
        })
        res.props.update(
            {"barrier_wait_share_mp": res.layer["shard.barrier_wait_share"],
             "workers": n_workers})
    e2e = res.end_to_end()
    res.named = {
        "events_per_s": (e2e["ops_per_s"], "1/s"),
        "epoch_p50_us": (e2e["op_p50_us"], "us"),
        "epoch_p99_us": (res.pct_us(99), "us"),
    }
    return res
