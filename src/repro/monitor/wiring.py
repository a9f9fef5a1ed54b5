"""Wiring the security event log into a built cluster.

``instrument_cluster`` attaches a :class:`SecurityEventLog` to an existing
:class:`~repro.core.cluster.Cluster`:

* every UBF daemon's ``on_decision`` hook emits :data:`EventKind.NET_DENY`
  for a per-packet DROP and :data:`EventKind.DEGRADED` for a verdict taken
  under an identity-infrastructure fault;
* every compute node's pam_slurm deny hook emits
  :data:`EventKind.PAM_DENY`;
* an :class:`AuditedSyscalls` wrapper (handed out by
  :func:`audited_session`) emits FS/PROC denials for the calls user code
  makes through it;
* the seepid/smask_relax tools emit ADMIN escalation records when invoked
  through :func:`audited_seepid` / :func:`audited_smask_relax`;
* every GPU device's deny hook emits :data:`EventKind.GPU_DENY` when the
  VFS refuses an open of its ``/dev`` character file;
* the portal emits :data:`EventKind.PORTAL_DENY` on refused requests.

Each enforcement point reports its own refusals through a hook field it
owns; this module only assigns the hooks.  It binds no nfqueue handler and
overrides no method, so it cannot change what an enforcement point decides
— a daemon that is crashed when the log is attached stays fail-closed, and
its hook survives ``restart()``.  ``instrument_cluster`` is idempotent:
calling it again returns the already-attached log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernel.errors import AccessDenied, KernelError, NoSuchProcess, PermissionError_
from repro.kernel.pam import PamSlurm
from repro.monitor.events import EventKind, SecurityEventLog
from repro.net.ubf import DecisionReason

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle (the
    # portal, which core.cluster builds, reports events through this layer)
    from repro.core.cluster import Cluster, Session


def instrument_cluster(cluster: Cluster) -> SecurityEventLog:
    """Attach a log; returns it (also stored as ``cluster.security_log``).

    Idempotent: a second call returns the existing log unchanged, so no
    enforcement point reports a refusal twice.
    """
    existing = getattr(cluster, "security_log", None)
    if existing is not None:
        return existing
    log = SecurityEventLog()
    cluster.security_log = log  # type: ignore[attr-defined]

    # An already-attached separation oracle starts emitting ORACLE events
    # here (attach order is free, as with the telemetry spine).
    oracle = getattr(cluster, "oracle", None)
    if oracle is not None and oracle.events is None:
        oracle.events = log

    # Node-lifecycle transitions (fencing, hook failures, remediation,
    # health-monitor state changes) share the same audit trail.
    if cluster.scheduler.events is None:
        cluster.scheduler.events = log
    health = getattr(cluster, "health", None)
    if health is not None and health.events is None:
        health.events = log

    # UBF denials: the daemon hands each DROP / degraded verdict of
    # decide() to its on_decision hook
    def ubf_decision(pkt, decision):
        verdict, iu, reason, code = decision
        flow = pkt.flow
        if code is DecisionReason.DEGRADED:
            # Infrastructure fault, not a principal's denial: record it
            # distinctly so posture/probe views don't blame the user.
            kind, detail = EventKind.DEGRADED, f"{verdict.value}: {reason}"
        else:
            kind, detail = EventKind.NET_DENY, reason
        log.emit(cluster.engine.now, kind, -1 if iu is None else iu,
                 f"{flow.dst_host}:{flow.dst_port}", detail,
                 node=flow.src_host)

    for daemon in cluster.ubf_daemons.values():
        daemon.on_decision = ubf_decision

    # pam_slurm denials: arm each compute node's PamSlurm deny hook
    def pam_deny(user, node_name):
        log.emit(cluster.engine.now, EventKind.PAM_DENY, user.uid,
                 node_name, "pam_slurm refusal", node=node_name)

    for cn in cluster.compute_nodes:
        for module in cn.node.pam.modules:
            if isinstance(module, PamSlurm):
                module.deny_hook = pam_deny

    # GPU /dev denials: arm each device's deny hook (the VFS calls it when
    # DAC refuses an open; see GPUDevice.on_access_denied)
    for cn in cluster.compute_nodes:
        for gpu in cn.gpus:
            def gpu_deny(creds, path, _node=cn.node.name):
                log.emit(cluster.engine.now, EventKind.GPU_DENY,
                         creds.uid, f"{_node}:{path}",
                         "gpu device open refused", node=_node)
            gpu.deny_hook = gpu_deny

    # portal denials: the gateway emits PORTAL_DENY through this log
    cluster.portal.event_log = log

    # an already-attached Telemetry gets the event stream too
    telemetry = getattr(cluster, "telemetry", None)
    if telemetry is not None and telemetry.events is None:
        telemetry.events = log
    return log


@dataclass
class AuditedSyscalls:
    """Pass-through syscall wrapper that records FS/PROC denials."""

    session: Session
    log: SecurityEventLog

    def _emit(self, kind: EventKind, target: str, err: KernelError) -> None:
        self.log.emit(self.session.cluster.engine.now, kind,
                      self.session.creds.uid, target, err.errname,
                      node=self.session.node.name)

    def __getattr__(self, name):
        inner = getattr(self.session.sys, name)
        if not callable(inner):
            return inner

        def call(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except (AccessDenied, PermissionError_, NoSuchProcess) as e:
                target = str(args[0]) if args else name
                kind = (EventKind.PROC_DENY
                        if name.startswith(("read_proc", "kill", "ps",
                                            "list_proc"))
                        else EventKind.FS_DENY)
                self._emit(kind, target, e)
                raise

        return call


def audited_session(session: Session,
                    log: SecurityEventLog) -> AuditedSyscalls:
    """Wrap *session*'s syscalls so denials are recorded in *log*."""
    return AuditedSyscalls(session, log)


def audited_seepid(cluster: Cluster, session: Session) -> Session:
    """seepid with an ADMIN escalation audit record."""
    from repro.core import tools as _tools
    result = _tools.seepid(cluster, session)
    getattr(cluster, "security_log").emit(
        cluster.engine.now, EventKind.ADMIN, session.creds.uid,
        session.node.name, "seepid exemption added",
        node=session.node.name)
    return result


def audited_smask_relax(cluster: Cluster, session: Session,
                        **kw) -> Session:
    """smask_relax with an ADMIN escalation audit record."""
    from repro.core import tools as _tools
    result = _tools.smask_relax(cluster, session, **kw)
    getattr(cluster, "security_log").emit(
        cluster.engine.now, EventKind.ADMIN, session.creds.uid,
        session.node.name, "smask_relax shell opened",
        node=session.node.name)
    return result
