"""iptables-style firewall: rule chains, conntrack, and NFQUEUE.

Section IV-D: "Our UBF uses the IPTables NetFilter Queue module (nfqueue) to
send new connection requests to a userspace daemon for decision.  Only 'new'
connections are sent; IPTables connection tracking (conntrack) handles
established connections."

The model keeps exactly the pieces that matter for that data path:

* a **conntrack table** keyed by five-tuple; hits bypass the rule walk
  entirely (the zero-per-packet-cost property the paper relies on);
* an **INPUT chain** of :class:`Rule` objects matched on protocol, dport
  range and connection state, each yielding ACCEPT, DROP, or NFQUEUE;
* an **nfqueue binding**: a userspace callback (the UBF daemon) that returns
  the final verdict for NEW connections.

Costs are recorded in a :class:`~repro.sim.metrics.MetricSet` so experiment
E8 can price the fast and slow paths.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.metrics import MetricSet


class Proto(enum.Enum):
    """Transport protocol of a flow."""

    TCP = "tcp"
    UDP = "udp"


class Verdict(enum.Enum):
    """Firewall decision for a packet."""

    ACCEPT = "accept"
    DROP = "drop"
    NFQUEUE = "nfqueue"


class ConnState(enum.Enum):
    """Conntrack state of a tracked connection."""

    NEW = "new"
    ESTABLISHED = "established"


@dataclass(frozen=True)
class FiveTuple:
    """Flow identity: (proto, src host/port, dst host/port)."""

    proto: Proto
    src_host: str
    src_port: int
    dst_host: str
    dst_port: int

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.proto, self.dst_host, self.dst_port,
                         self.src_host, self.src_port)


@dataclass(frozen=True)
class Packet:
    """The firewall-visible part of a segment/datagram.

    ``src_uid`` is the uid of the process that owns the sending socket,
    stamped by the *initiating* host's kernel.  Cluster hosts run the same
    root-administered system image (the paper's trust model — the same
    assumption that makes the identd responder trustworthy), so the UBF
    daemon may use it as a **cache key**: a hit on a previously-decided
    principal triple skips the ident round trip entirely.  It is never used
    as the authoritative identity — a cache miss still pays the ident RTT,
    which returns uid *and* group membership.  ``None`` models a packet
    whose origin offers no credential (e.g. hand-crafted test traffic); the
    daemon then always runs the full query.
    """

    flow: FiveTuple
    state: ConnState
    payload_len: int = 0
    src_uid: int | None = None


@dataclass(frozen=True)
class Rule:
    """One INPUT-chain rule: match → verdict.

    ``dport_min``/``dport_max`` bound the destination port (the appendix:
    the UBF "would normally be configured ... to inspect connections on
    ports numbered 1024 and above"); ``state`` restricts to NEW or
    ESTABLISHED; None fields match everything.
    """

    verdict: Verdict
    proto: Proto | None = None
    dport_min: int | None = None
    dport_max: int | None = None
    state: ConnState | None = None
    comment: str = ""

    def matches(self, pkt: Packet) -> bool:
        if self.proto is not None and pkt.flow.proto is not self.proto:
            return False
        if self.dport_min is not None and pkt.flow.dst_port < self.dport_min:
            return False
        if self.dport_max is not None and pkt.flow.dst_port > self.dport_max:
            return False
        if self.state is not None and pkt.state is not self.state:
            return False
        return True


@dataclass
class ConntrackEntry:
    """One tracked connection and the verdict stamped on its flow."""

    flow: FiveTuple
    packets: int = 0
    bytes: int = 0


class ConntrackTable:
    """Established-flow table; both directions of a flow share one entry.

    Like the kernel's, the table is **bounded**: ``capacity`` (None =
    unbounded, matching ``nf_conntrack_max`` left at default) caps the
    number of live entries, and commits beyond it evict the least recently
    used flow.  An evicted flow is not broken — its next packet is simply
    NEW again and re-runs the full decision path (the nfqueue/UBF slow
    path), which is exactly the real system's degradation mode under
    conntrack pressure.  Evictions are counted per reason
    (``conntrack_evictions_total{reason=lru|close|refused|pressure}``) when
    a metrics registry is attached.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None,
                 metrics: MetricSet | None = None):
        self.enabled = enabled
        self.capacity = capacity
        #: registry evictions/size are reported to; wired by the owning
        #: Firewall / HostStack (may stay None in unit scenarios)
        self.metrics = metrics
        self._table: OrderedDict[FiveTuple, ConntrackEntry] = OrderedDict()

    # -- accounting ---------------------------------------------------------

    def _count_eviction(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("conntrack_evictions_total",
                                 reason=reason).inc()
            self.metrics.gauge("conntrack_table_size").set(len(self._table))

    def _note_size(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("conntrack_table_size").set(len(self._table))

    # -- data path ----------------------------------------------------------

    def lookup(self, flow: FiveTuple) -> ConntrackEntry | None:
        if not self.enabled:
            return None
        entry = self._table.get(flow)
        key = flow
        if entry is None:
            key = flow.reversed()
            entry = self._table.get(key)
        if entry is not None:
            self._table.move_to_end(key)  # LRU touch
        return entry

    def commit(self, flow: FiveTuple) -> ConntrackEntry:
        """Track *flow*, returning the live entry if either direction is
        already tracked.

        Re-committing must not build a fresh :class:`ConntrackEntry`: that
        would zero the packet/byte counters of a live flow, and a commit of
        the reverse direction would insert a second entry for the same
        connection — doubling occupancy, skewing LRU eviction, and
        double-counting in :meth:`purge_host`.  A commit of a tracked flow
        is just an LRU touch.
        """
        if not self.enabled:
            return ConntrackEntry(flow)
        key, entry = flow, self._table.get(flow)
        if entry is None:
            rev = flow.reversed()
            entry = self._table.get(rev)
            if entry is not None:
                key = rev
        if entry is None:
            entry = ConntrackEntry(flow)
            self._table[key] = entry
        self._table.move_to_end(key)
        if self.capacity is not None:
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)
                self._count_eviction("lru")
        self._note_size()
        return entry

    def evict(self, flow: FiveTuple, reason: str = "close") -> None:
        fwd = self._table.pop(flow, None)
        rev = self._table.pop(flow.reversed(), None)
        if fwd is not None or rev is not None:
            self._count_eviction(reason)

    def purge_host(self, host: str, reason: str = "dead-host") -> int:
        """Evict every flow touching *host*; returns the eviction count.

        Conntrack state referencing a dead peer is worse than useless: it
        would keep admitting packets "from" a host that can no longer be
        ident-verified once something else answers to its name.  Surviving
        hosts call this when a peer's crash/partition persists past the
        health monitor's TTL.
        """
        doomed = [f for f in self._table
                  if host in (f.src_host, f.dst_host)]
        for flow in doomed:
            del self._table[flow]
            self._count_eviction(reason)
        if doomed:
            self._note_size()
        return len(doomed)

    def set_capacity(self, capacity: int | None,
                     reason: str = "pressure") -> int:
        """Re-bound the table, trimming LRU-first; returns evicted count."""
        self.capacity = capacity
        evicted = 0
        if capacity is not None:
            while len(self._table) > capacity:
                self._table.popitem(last=False)
                self._count_eviction(reason)
                evicted += 1
        return evicted

    def flows(self) -> list[FiveTuple]:
        """Live flow keys, LRU-first (what a restarted daemon re-syncs on)."""
        return list(self._table)

    def __len__(self) -> int:
        return len(self._table)


NfqueueHandler = Callable[[Packet], Verdict]
NfqueueBatchHandler = Callable[[list[Packet]], list[Verdict]]


@dataclass
class Firewall:
    """Per-host INPUT chain + conntrack + one nfqueue binding.

    ``default_policy`` applies when no rule matches (stock hosts ship
    ACCEPT).  Metrics are shared with the owning fabric when provided.
    """

    rules: list[Rule] = field(default_factory=list)
    default_policy: Verdict = Verdict.ACCEPT
    conntrack: ConntrackTable = field(default_factory=ConntrackTable)
    metrics: MetricSet = field(default_factory=MetricSet)
    _nfqueue: NfqueueHandler | None = None
    _nfqueue_batch: NfqueueBatchHandler | None = None

    def __post_init__(self) -> None:
        if self.conntrack.metrics is None:
            self.conntrack.metrics = self.metrics

    def bind_nfqueue(self, handler: NfqueueHandler) -> None:
        self._nfqueue = handler

    def bind_nfqueue_batch(self, handler: NfqueueBatchHandler) -> None:
        """Attach the daemon's burst entry point used by
        :meth:`evaluate_batch`; packets queued in one burst reach the
        daemon as a single list instead of one callback each."""
        self._nfqueue_batch = handler

    def unbind_nfqueue(self) -> NfqueueHandler | None:
        """Detach the userspace daemon (it crashed or was stopped).

        With no handler bound, NFQUEUE rules fail **closed**: the kernel
        drops NEW connections while conntrack keeps established flows
        alive — the degradation contract of the real nfqueue data path.
        Returns the detached handler so a restart can rebind the exact
        callable (including any monitoring wrappers around it).  The batch
        handler is detached alongside it — a crashed daemon must not keep
        serving bursts.
        """
        handler, self._nfqueue = self._nfqueue, None
        self._nfqueue_batch = None
        return handler

    def _first_match(self, pkt: Packet) -> Rule | None:
        """The first INPUT-chain rule matching *pkt*, or None."""
        for rule in self.rules:
            if rule.matches(pkt):
                return rule
        return None

    def evaluate(self, pkt: Packet) -> Verdict:
        """Run a packet through conntrack then the INPUT chain.

        ESTABLISHED fast path: a conntrack hit accepts immediately without
        touching the rules or the userspace daemon — this is what keeps the
        UBF's cost off the per-packet path.
        """
        entry = self.conntrack.lookup(pkt.flow)
        if entry is not None:
            entry.packets += 1
            entry.bytes += pkt.payload_len
            self.metrics.counter("conntrack_fastpath_packets").inc()
            return Verdict.ACCEPT
        self.metrics.counter("rule_walks").inc()
        rule = self._first_match(pkt)
        if rule is None:
            verdict = self.default_policy
        elif rule.verdict is Verdict.NFQUEUE:
            self.metrics.counter("nfqueue_decisions").inc()
            if self._nfqueue is None:
                # queue with no daemon: kernel drops (fail closed)
                return Verdict.DROP
            verdict = self._nfqueue(pkt)
        else:
            verdict = rule.verdict
        if verdict is Verdict.ACCEPT:
            self.conntrack.commit(pkt.flow)
        return verdict

    def evaluate_batch(self, pkts: list[Packet]) -> list[Verdict]:
        """Run a burst through conntrack/rules with one daemon callback.

        Each packet takes the same conntrack-then-chain walk as
        :meth:`evaluate`, but every packet that lands on an NFQUEUE rule is
        parked and handed to the bound batch handler (or, failing that, the
        per-packet handler) in a single call — the kernel analogue of
        nfqueue's range verdicts.  The burst is treated as arriving
        together: a queued packet does not see conntrack entries created by
        later verdicts in the same burst, which mirrors
        :meth:`UBFDaemon.decide_batch`'s coalescing semantics.

        The ``conntrack_fastpath_packets``/``rule_walks``/
        ``nfqueue_decisions`` counters are incremented once per burst, with
        the same totals :meth:`evaluate` reaches packet by packet.
        """
        out: list[Verdict | None] = [None] * len(pkts)
        queued: list[int] = []
        lookup, commit = self.conntrack.lookup, self.conntrack.commit
        first_match = self._first_match
        fastpath = 0
        for i, pkt in enumerate(pkts):
            flow = pkt.flow
            entry = lookup(flow)
            if entry is not None:
                entry.packets += 1
                entry.bytes += pkt.payload_len
                fastpath += 1
                out[i] = Verdict.ACCEPT
                continue
            rule = first_match(pkt)
            if rule is None:
                verdict = self.default_policy
            elif rule.verdict is Verdict.NFQUEUE:
                queued.append(i)
                continue
            else:
                verdict = rule.verdict
            if verdict is Verdict.ACCEPT:
                commit(flow)
            out[i] = verdict
        if fastpath:
            self.metrics.counter("conntrack_fastpath_packets").inc(fastpath)
        if len(pkts) > fastpath:
            self.metrics.counter("rule_walks").inc(len(pkts) - fastpath)
        if not queued:
            return out
        self.metrics.counter("nfqueue_decisions").inc(len(queued))
        burst = [pkts[i] for i in queued]
        if self._nfqueue_batch is not None:
            verdicts = self._nfqueue_batch(burst)
        elif self._nfqueue is not None:
            verdicts = [self._nfqueue(p) for p in burst]
        else:
            verdicts = [Verdict.DROP] * len(burst)  # no daemon: fail closed
        for i, verdict in zip(queued, verdicts):
            if verdict is Verdict.ACCEPT:
                commit(pkts[i].flow)
            out[i] = verdict
        return out


def ubf_ruleset(low_port_policy: Verdict = Verdict.ACCEPT) -> list[Rule]:
    """The appendix ruleset: NEW connections to ports ≥1024 go to the UBF
    daemon via nfqueue; privileged ports (root-run system services such as
    sshd, identd, the scheduler) follow *low_port_policy*; everything
    ESTABLISHED is conntrack's business and never reaches these rules."""
    return [
        Rule(Verdict.NFQUEUE, dport_min=1024, state=ConnState.NEW,
             comment="UBF: user-port NEW connections to userspace daemon"),
        Rule(low_port_policy, dport_max=1023, state=ConnState.NEW,
             comment="system services on privileged ports"),
    ]
