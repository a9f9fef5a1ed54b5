"""What every workload shares: the round loop, the pass result, and the
end-to-end metric set computed from it.

A workload pass is a sequence of *rounds*.  Each round builds a fresh
world from a sub-seed (set-up, timed), then runs a fixed amount of
seeded work on it (measured).  Rounds repeat until the measured time
reaches the requested seconds.  Fixed-size rounds keep per-round state —
job history, audit trail, decision logs — the same on fast and slow
hosts, so neither memory nor recovery time depends on how fast the
program ran.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

from spans import percentile

#: end-to-end metric name -> unit (the same set on every workload)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "peak_rss_mb": "MB",
}

#: wall-time cap of one invocation, whatever its measured time (a round
#: in progress still finishes, so the cap leaves room below 180 s)
WALL_CAP_S = 120.0


#: program counters folded into the ledger, summed over a pass's worlds
COUNTERS = (
    "sched_dispatch_scan", "jobs_started", "ubf_cache_hits",
    "conntrack_fastpath_packets", "ident_round_trips",
    "ubf_cache_evictions_total", "nfqueue_decisions", "rule_walks",
)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def count(metrics) -> dict[str, int]:
    """Current totals of :data:`COUNTERS`, every labeled series summed."""
    totals = dict.fromkeys(COUNTERS, 0)
    for c in metrics.all_counters():
        if c.name in totals:
            totals[c.name] += c.value
    return totals


def _kernel(n: int = 1500) -> int:
    """Fixed interpreter work (dict, heap, str) used to gauge host speed."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        if not i & 7:
            heapq.heappush(heap, (key, i))
        acc += len(str(i))
    while heap:
        heapq.heappop(heap)
    return acc + len(table)


class HostClock:
    """Re-expresses wall time on a reference host.

    Shared virtual machines change speed by tens of percent over seconds
    to minutes.  The clock times a fixed calibration kernel at every
    slice boundary (best of three runs) and scales the wall time of the
    slice between two samples by ``REF_S`` over their mean: the time the
    slice would have taken on a host where the kernel takes exactly
    ``REF_S``.  The program never runs inside the kernel, so a change to
    the program moves the scaled times exactly as it moves the raw ones.
    """

    REF_S = 1e-3

    def __init__(self):
        self.last = self._sample()

    @staticmethod
    def _sample() -> float:
        # the collector off: a collection of the program's heap landing in
        # the kernel would time the heap, not the host
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                _kernel()
                best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return best

    def mark(self) -> None:
        """Start a new interval here (after time that is not measured)."""
        self.last = self._sample()

    def factor(self) -> float:
        """Scale for the interval since the previous call (or mark)."""
        now = self._sample()
        f = 2.0 * self.REF_S / (self.last + now)
        self.last = now
        return f


class Slicer:
    """Measured requests, folded into a :class:`PassResult` in slices of
    *every* requests, each scaled by its own :class:`HostClock` factor."""

    def __init__(self, res: "PassResult", clock: HostClock, every: int):
        self.res, self.clock, self.every = res, clock, every
        self.wall = 0.0
        self.lat: list[int] = []
        self.n = 0

    def add(self, wall_s: float, lat_ns: int | None = None) -> None:
        self.wall += wall_s
        if lat_ns is not None:
            self.lat.append(lat_ns)
        self.n += 1
        if self.n >= self.every:
            self.close()

    def close(self) -> None:
        if self.n:
            self.res.add_slice(self.wall, self.lat, self.clock.factor())
        self.wall, self.lat, self.n = 0.0, [], 0


class SetupClock:
    """One round's set-up time, scaled slice by slice as :class:`Slicer`
    scales measured time: :meth:`lap` closes a slice (call it inside long
    set-up loops), :meth:`done` closes the last one and files the round's
    set-up time in *res*."""

    def __init__(self, res: "PassResult", clock: HostClock):
        self.res, self.clock = res, clock
        self.raw = self.scaled = 0.0
        clock.mark()
        self.t0 = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self.t0
        self.raw += wall
        self.scaled += wall * self.clock.factor()
        self.t0 = time.perf_counter()

    def done(self) -> None:
        self.lap()
        self.res.raw_setup_s.append(self.raw)
        self.res.setup_s.append(self.scaled)


class Broken(Exception):
    """A separation breach or wrong output: the run fails outright."""


def rng_for(*parts) -> random.Random:
    """A seeded RNG keyed by *parts* (string seeding is hash-seed stable)."""
    return random.Random(":".join(map(str, parts)))


class Digest:
    """Running blake2b over the op/outcome sequence of a pass."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)

    def add(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class PassResult:
    """Everything one pass measured and checked."""

    workload: str
    setup_s: list[float] = field(default_factory=list)
    #: units of work done in the measured region (the ``ops_per_s``
    #: numerator: engine events, tenant ops or UBF decisions)
    work: int = 0
    wall_s: float = 0.0
    #: per-request latency samples, ns (host-scaled, see HostClock)
    latencies_ns: array = field(default_factory=lambda: array("q"))
    #: the same figures before host scaling, for the human report
    raw_setup_s: list[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    raw_latencies_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failed: int = 0
    breaches: list[str] = field(default_factory=list)
    digest: Digest = field(default_factory=Digest)
    counters: dict[str, int] = field(default_factory=dict)
    oracle_checks: int = 0
    oracle_violations: int = 0
    rounds: int = 0
    #: workload property shares (reported every run)
    props: dict[str, float] = field(default_factory=dict)
    #: per-layer values the workload computes itself (trace ledger)
    layer: dict[str, float] = field(default_factory=dict)
    #: the workload's own named end-to-end figures, printed for humans
    named: dict[str, tuple[float, str]] = field(default_factory=dict)

    def add_slice(self, raw_wall_s: float, lat_ns, scale: float) -> None:
        """Fold one measured slice in: its wall time and the latency
        samples taken in it, scaled by the slice's host factor."""
        self.raw_wall_s += raw_wall_s
        self.wall_s += raw_wall_s * scale
        self.raw_latencies_ns.extend(lat_ns)
        self.latencies_ns.extend(int(x * scale) for x in lat_ns)

    def breach(self, msg: str) -> None:
        self.breaches.append(msg)
        raise Broken(msg)

    def add_counters(self, metrics, base: dict[str, int]) -> None:
        """Add the growth of every ledger counter since *base* (a
        :func:`count` snapshot taken where the measured region began)."""
        for name, value in count(metrics).items():
            self.counters[name] = (self.counters.get(name, 0) + value
                                   - base[name])

    @property
    def correct(self) -> bool:
        return not self.breaches and self.oracle_violations == 0

    def pct_us(self, q: float, raw: bool = False) -> float:
        """The *q*-th percentile request latency, us."""
        lat = self.raw_latencies_ns if raw else self.latencies_ns
        return percentile(lat, q) / 1e3 if lat else 0.0

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """The end-to-end metrics; host-scaled unless *raw*."""
        setup = self.raw_setup_s if raw else self.setup_s
        wall = self.raw_wall_s if raw else self.wall_s
        return {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "ops_per_s": self.work / wall if wall else 0.0,
            "op_p50_us": self.pct_us(50, raw),
            "op_p90_us": self.pct_us(90, raw),
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(res: PassResult, seconds: float, round_fn, *,
               rounds: int | None = None,
               wall_cap: float = WALL_CAP_S) -> PassResult:
    """Call ``round_fn(index)`` until *seconds* of measured time, or
    *wall_cap* seconds of wall time, have passed (exactly *rounds* rounds
    when given); a :class:`Broken` ends the pass.

    ``round_fn`` appends its set-up time and adds its measured wall time
    to *res* itself; this loop only decides when to stop.
    """
    start = time.perf_counter()
    index = 0
    try:
        while True:
            round_fn(index)
            index += 1
            res.rounds = index
            gc.collect()  # free the finished world outside any timing
            if rounds is not None:
                if index >= rounds:
                    break
            elif res.raw_wall_s >= seconds \
                    or time.perf_counter() - start > wall_cap:
                break
    except Broken:
        pass
    return res
