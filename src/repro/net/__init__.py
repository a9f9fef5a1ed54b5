"""Simulated network substrate: IP fabric, firewall/conntrack/nfqueue,
ident, the User-Based Firewall daemon, and RDMA queue pairs."""

from repro.net.firewall import (
    ConnState,
    ConntrackTable,
    Firewall,
    FiveTuple,
    Packet,
    Proto,
    Rule,
    Verdict,
    ubf_ruleset,
)
from repro.net.ident import (
    IdentReply,
    IdentService,
    IdentUnavailable,
    remote_ident_query,
)
from repro.net.pps import FirewallScore, PPSPolicy, ServiceEntry
from repro.net.rdma import MemoryRegion, QueuePair, RDMAFabric
from repro.net.stack import (
    BoundSocket,
    Connection,
    ConnectionEnd,
    Datagram,
    Fabric,
    HostStack,
    SocketAPI,
)
from repro.net.ubf import (
    COST_US,
    DecisionReason,
    UBFDaemon,
    UBFDecisionLog,
    firewall_cost_us,
)
from repro.net.zones import (
    POSTURES,
    UBFPosture,
    ZoneTier,
    apply_tier,
    apply_zone_tiers,
)

__all__ = [
    "ConnState", "ConntrackTable", "Firewall", "FiveTuple", "Packet",
    "Proto", "Rule", "Verdict", "ubf_ruleset",
    "IdentReply", "IdentService", "IdentUnavailable", "remote_ident_query",
    "FirewallScore", "PPSPolicy", "ServiceEntry",
    "MemoryRegion", "QueuePair", "RDMAFabric",
    "BoundSocket", "Connection", "ConnectionEnd", "Datagram", "Fabric",
    "HostStack", "SocketAPI",
    "COST_US", "DecisionReason", "UBFDaemon",
    "UBFDecisionLog", "firewall_cost_us",
    "POSTURES", "UBFPosture", "ZoneTier", "apply_tier", "apply_zone_tiers",
]
