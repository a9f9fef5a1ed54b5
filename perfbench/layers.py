"""Per-layer instrumentation: which public calls become which spans, and
how spans and program counters turn into the per-layer metrics.

Class-level patches (:func:`patch_classes`) go in before a traced pass
builds its worlds, so references the program captures at build time —
event-log sinks, the journal's snapshot callback, bound hook methods —
already point at the traced callables.  Per-world hooks
(:func:`patch_cluster`) wrap what lives only on instances: the
scheduler's prolog/epilog attributes and each host's nfqueue bindings,
re-bound through the public ``Firewall.bind_nfqueue`` /
``bind_nfqueue_batch`` calls.
"""

from __future__ import annotations

import repro.persist.recovery as recovery_mod
from repro.kernel.node import LinuxNode
from repro.kernel.procfs import ProcFS
from repro.kernel.process import ProcessTable
from repro.kernel.vfs import VFS
from repro.monitor.events import SecurityEventLog
from repro.net.firewall import Firewall
from repro.net.stack import HostStack
from repro.obs.audit import AuditTrail
from repro.obs.context import AttributionRegistry
from repro.obs.flight import FlightRecorder
from repro.oracle.oracle import SeparationOracle
from repro.persist.journal import Journal
from repro.persist.recovery import PersistSpine
from repro.portal.gateway import Portal
from repro.sched.accounting import AccountingDB
from repro.sched.dispatch_index import PartitionIndex
from repro.sched.nodes import ComputeNode
from repro.sched.scheduler import Scheduler

from common import ratio
from spans import Tracer

#: (owner, attribute, span name) for every class-level patch
CLASS_SPANS = [
    (PartitionIndex, "candidates", "sched.candidates"),
    (PartitionIndex, "update", "sched.index_update"),
    (ComputeNode, "allocate", "sched.allocate"),
    (ComputeNode, "release", "sched.release"),
    (AccountingDB, "record", "sched.accounting"),
    (Scheduler, "submit", "sched.submit"),
    (ProcessTable, "spawn", "kernel.spawn"),
    (ProcessTable, "kill_job", "kernel.kill_job"),
    (LinuxNode, "open_session", "kernel.pam_session"),
    (VFS, "create", "kernel.vfs_create"),
    (VFS, "read", "kernel.vfs_read"),
    (VFS, "setfacl", "kernel.vfs_setfacl"),
    (ProcFS, "ps", "kernel.procfs_ps"),
    (HostStack, "connect", "net.connect"),
    (Firewall, "evaluate_batch", "net.evaluate_batch"),
    (Portal, "connect", "portal.connect"),
    (PersistSpine, "snapshot", "persist.snapshot"),
    (recovery_mod, "restore", "persist.restore"),
    (recovery_mod, "state_digest", "persist.digest"),
    (SecurityEventLog, "emit", "monitor.emit"),
    (AuditTrail, "record", "obs.audit"),
    (AuditTrail, "observe_event", "obs.audit"),
    (AuditTrail, "ubf_verdict", "obs.audit"),
    (FlightRecorder, "observe_event", "obs.flight"),
    (FlightRecorder, "on_fault", "obs.flight"),
]
CLASS_SPANS += [(Journal, name, "persist.journal") for name in (
    "job_submitted", "job_arrived", "job_cancelled", "job_dispatched",
    "job_finished", "job_requeued", "node_fenced", "node_drained",
    "node_resumed", "node_remediated", "gpu_granted", "gpu_scrubbed",
    "user_added", "project_group_added", "member_added", "member_removed",
    "system_group_added", "heartbeat_state", "residue_recorded",
    "residue_cleared", "tick_armed", "tick_fired", "host_unreachable",
    "host_reachable", "dead_host_purged")]
CLASS_SPANS += [(AttributionRegistry, name, "obs.attribution") for name in (
    "job_submitted", "job_started", "job_finished", "job_requeued",
    "session_opened")]
CLASS_SPANS += [(SeparationOracle, name, "oracle.check")
                for name in sorted(vars(SeparationOracle))
                if name.startswith("check_")]


def patch_classes(tracer: Tracer) -> None:
    """Arm every class/module-level span; undone by ``tracer.restore()``."""
    for owner, attr, name in CLASS_SPANS:
        tracer.patch(owner, attr, name)


def patch_cluster(tracer: Tracer, cluster) -> None:
    """Arm the per-world spans on a freshly built, fully armed cluster."""
    sched = cluster.scheduler
    if sched.prolog is not None:
        tracer.patch(sched, "prolog", "sched.prolog")
    if sched.epilog is not None:
        tracer.patch(sched, "epilog", "sched.epilog")
    for daemon in cluster.ubf_daemons.values():
        fw = daemon.stack.firewall
        handler = fw.unbind_nfqueue()
        fw.bind_nfqueue(tracer.wrap(handler, "net.ubf_decide"))
        fw.bind_nfqueue_batch(tracer.wrap(daemon.decide_batch,
                                          "net.ubf_batch"))


#: per-layer metric name -> unit, in ledger order
PER_LAYER = {
    "sim.step_p50_us": "us", "sim.step_p99_us": "us",
    "sim.heap_live_max": "count",
    "sched.candidates_us": "us", "sched.candidates_calls": "count",
    "sched.index_update_us": "us", "sched.allocate_us": "us",
    "sched.release_us": "us", "sched.prolog_us": "us",
    "sched.epilog_us": "us", "sched.accounting_us": "us",
    "sched.nodes_examined_per_start": "ratio",
    "sched.queue_depth_p50": "count", "sched.submit_self_us": "us",
    "sched.sim_wait_p50_s": "s", "sched.sim_wait_mean_s": "s",
    "kernel.spawn_us": "us", "kernel.kill_job_us": "us",
    "kernel.pam_session_us": "us", "kernel.vfs_create_us": "us",
    "kernel.vfs_read_us": "us", "kernel.vfs_setfacl_us": "us",
    "kernel.procfs_ps_us": "us",
    "net.connect_us": "us", "net.ubf_decide_us": "us",
    "net.evaluate_batch_self_us": "us", "net.ubf_batch_us": "us",
    "net.ubf_cache_hit_ratio": "ratio",
    "net.conntrack_fastpath_ratio": "ratio",
    "net.ident_rtt_per_decision": "ratio", "net.cache_evictions": "count",
    "portal.connect_us": "us",
    "persist.journal_write_us_per_event": "us",
    "persist.snapshot_us": "us", "persist.snapshots": "count",
    "persist.crash_us": "us", "persist.restore_us": "us",
    "persist.digest_us": "us", "persist.replayed_records": "count",
    "persist.history_jobs": "count", "persist.recover_p50_ms": "ms",
    "oracle.checks_per_op": "ratio", "oracle.check_us": "us",
    "monitor.emit_us": "us", "obs.audit_us": "us",
    "obs.audit_records": "count", "obs.flight_us": "us",
    "obs.attribution_us": "us",
    "shard.barrier_wait_p50_s": "s", "shard.barrier_wait_p95_s": "s",
    "shard.busy_frac": "ratio", "shard.barrier_wait_share": "ratio",
    "shard.mp_speedup": "ratio", "shard.epochs": "count",
    "shard.msgs_routed": "count",
    "props.denial_share": "ratio", "props.gpu_job_share": "ratio",
    "trace.overhead_ops_pct": "%", "trace.overhead_p50_pct": "%",
}

#: span-mean metrics: metric -> (span name, self time?)
_SPAN_MEANS = {
    "sched.candidates_us": ("sched.candidates", True),
    "sched.index_update_us": ("sched.index_update", True),
    "sched.allocate_us": ("sched.allocate", True),
    "sched.release_us": ("sched.release", True),
    "sched.prolog_us": ("sched.prolog", False),
    "sched.epilog_us": ("sched.epilog", False),
    "sched.accounting_us": ("sched.accounting", True),
    "sched.submit_self_us": ("sched.submit", True),
    "kernel.spawn_us": ("kernel.spawn", True),
    "kernel.kill_job_us": ("kernel.kill_job", True),
    "kernel.pam_session_us": ("kernel.pam_session", True),
    "kernel.vfs_create_us": ("kernel.vfs_create", True),
    "kernel.vfs_read_us": ("kernel.vfs_read", True),
    "kernel.vfs_setfacl_us": ("kernel.vfs_setfacl", True),
    "kernel.procfs_ps_us": ("kernel.procfs_ps", True),
    "net.connect_us": ("net.connect", False),
    "net.ubf_decide_us": ("net.ubf_decide", False),
    "net.evaluate_batch_self_us": ("net.evaluate_batch", True),
    "net.ubf_batch_us": ("net.ubf_batch", False),
    "portal.connect_us": ("portal.connect", False),
    "persist.snapshot_us": ("persist.snapshot", False),
    "persist.crash_us": ("persist.crash", False),
    "persist.restore_us": ("persist.restore", False),
    "persist.digest_us": ("persist.digest", False),
    "oracle.check_us": ("oracle.check", True),
    "monitor.emit_us": ("monitor.emit", True),
    "obs.audit_us": ("obs.audit", True),
    "obs.flight_us": ("obs.flight", True),
    "obs.attribution_us": ("obs.attribution", True),
}


def layer_metrics(tracer: Tracer, res) -> dict[str, float]:
    """The per-layer ledger of one traced pass (*res* is its PassResult).

    A layer the workload leaves idle reads 0 — itself a measured fact
    (e.g. the scheduler on ``flow-flood``).
    """
    out = {name: 0.0 for name in PER_LAYER}
    for metric, (span, self_only) in _SPAN_MEANS.items():
        out[metric] = (tracer.mean_self_us(span) if self_only
                       else tracer.mean_total_us(span))
    out["sim.step_p50_us"] = tracer.total_pct_us("sim.step", 50)
    out["sim.step_p99_us"] = tracer.total_pct_us("sim.step", 99)
    out["sched.candidates_calls"] = tracer.calls("sched.candidates")
    out["persist.snapshots"] = tracer.calls("persist.snapshot")
    c = res.counters
    out["sched.nodes_examined_per_start"] = ratio(
        c.get("sched_dispatch_scan", 0), c.get("jobs_started", 0))
    decided = c.get("nfqueue_decisions", 0)
    out["net.ubf_cache_hit_ratio"] = ratio(c.get("ubf_cache_hits", 0),
                                            decided)
    out["net.conntrack_fastpath_ratio"] = ratio(
        c.get("conntrack_fastpath_packets", 0),
        c.get("conntrack_fastpath_packets", 0) + c.get("rule_walks", 0))
    out["net.ident_rtt_per_decision"] = ratio(
        c.get("ident_round_trips", 0), decided)
    out["net.cache_evictions"] = c.get("ubf_cache_evictions_total", 0)
    out["persist.journal_write_us_per_event"] = ratio(
        tracer.self_ns("persist.journal") / 1e3, res.work)
    out["oracle.checks_per_op"] = ratio(res.oracle_checks, res.work)
    for key, value in res.layer.items():
        out[key] = value
    return out
