"""Unit tests: the fault injector's registry and data-path predicates."""

import pytest

from repro.faults import Fault, FaultInjector, FaultKind
from repro.kernel.errors import ConnectionRefused, TimedOut
from repro.net import Proto

from tests.net.conftest import build_fabric, proc_on


@pytest.fixture
def injector():
    from repro.sim.metrics import MetricSet
    return FaultInjector(MetricSet(), seed=7)


class TestRegistry:
    def test_inject_and_clear(self, injector):
        fault = injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        assert fault.active
        assert injector.active() == [fault]
        assert injector.metrics.gauge("faults_active").value == 1
        injector.clear(fault)
        assert not fault.active
        assert injector.active() == []
        assert injector.metrics.gauge("faults_active").value == 0

    def test_clear_is_idempotent(self, injector):
        fault = injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        injector.clear(fault)
        injector.clear(fault)
        assert injector.metrics.counter(
            "faults_cleared_total", kind=fault.kind.value).value == 1

    def test_active_filters(self, injector):
        a = injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        b = injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c2")
        assert injector.active(FaultKind.HOST_UNREACHABLE) == [a]
        assert injector.active(host="c2") == [b]
        assert set(injector.active()) == {a, b}

    def test_clear_all(self, injector):
        injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        injector.inject(FaultKind.PACKET_LOSS, "c2", loss_rate=0.5)
        injector.clear_all()
        assert injector.active() == []

    def test_describe_hides_private_params(self):
        fault = Fault(1, FaultKind.CONNTRACK_PRESSURE, "c1",
                      {"capacity": 4, "_prev_capacity": None})
        assert fault.describe() == "conntrack-pressure on c1 (capacity=4)"


class TestPredicates:
    def test_unreachable_blocks_ident_too(self, injector):
        injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        assert injector.host_unreachable("c1")
        assert not injector.ident_attempt_ok("c1")
        assert not injector.host_unreachable("c2")
        assert injector.ident_attempt_ok("c2")

    def test_identd_down_host_still_reachable(self, injector):
        injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        assert not injector.ident_attempt_ok("c1")
        assert not injector.host_unreachable("c1")

    def test_slow_identd_consumes_attempt_budget(self, injector):
        injector.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=2)
        assert not injector.ident_attempt_ok("c1")
        assert not injector.ident_attempt_ok("c1")
        assert injector.ident_attempt_ok("c1")  # budget spent: recovers

    def test_packet_loss_is_seeded(self):
        from repro.sim.metrics import MetricSet

        def draws(seed):
            inj = FaultInjector(MetricSet(), seed=seed)
            inj.inject(FaultKind.PACKET_LOSS, "c1", loss_rate=0.5)
            return [inj.drop_packet("c1") for _ in range(50)]

        assert draws(7) == draws(7)  # deterministic
        assert any(draws(7)) and not all(draws(7))  # rate actually partial
        assert draws(7) != draws(8)  # seed actually matters

    def test_zero_loss_never_drops(self, injector):
        injector.inject(FaultKind.PACKET_LOSS, "c1", loss_rate=0.0)
        assert not any(injector.drop_packet("c1") for _ in range(20))


#: each data-path predicate's answer for a host with no fault on it
NO_FAULT = {"host_unreachable": False, "node_crashed": False,
            "drop_packet": False, "ident_attempt_ok": True,
            "heartbeat_ok": True, "spoofed_reply": None}


def inject_elsewhere(inj):
    """One fault of every data-path kind, none of them on c1."""
    inj.inject(FaultKind.HOST_UNREACHABLE, "c2")
    inj.inject(FaultKind.NODE_CRASH, "c3")
    inj.inject(FaultKind.PACKET_LOSS, "c4", loss_rate=1.0)
    inj.inject(FaultKind.IDENTD_UNRESPONSIVE, "c5")
    inj.inject(FaultKind.IDENTD_SLOW, "c6", fail_attempts=3)
    inj.inject(FaultKind.NODE_FLAP, "c7", flake_rate=1.0)
    inj.inject(FaultKind.IDENT_SPOOF, "c8", uid=0)


class TestHealthyPath:
    def test_no_fault_answers_without_scanning(self, injector, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("active() scanned with nothing injected")

        monkeypatch.setattr(injector, "active", scan)
        state = injector._rng.bit_generator.state
        for name, expected in NO_FAULT.items():
            assert getattr(injector, name)("c1") == expected, name
        assert injector._rng.bit_generator.state == state  # no loss/flap draw

    def test_faults_on_other_hosts_change_no_answer(self):
        from repro.sim.metrics import MetricSet
        healthy = FaultInjector(MetricSet(), seed=7)
        faulted = FaultInjector(MetricSet(), seed=7)
        inject_elsewhere(faulted)
        for _ in range(3):
            for name, expected in NO_FAULT.items():
                assert getattr(faulted, name)("c1") == expected, name
                assert getattr(healthy, name)("c1") == expected, name
        assert faulted._rng.bit_generator.state == \
            healthy._rng.bit_generator.state
        # ...while every injected fault still bites on its own host
        assert faulted.host_unreachable("c2")
        assert faulted.node_crashed("c3") and not faulted.heartbeat_ok("c3")
        assert faulted.drop_packet("c4")
        assert not faulted.ident_attempt_ok("c5")
        assert not faulted.ident_attempt_ok("c6")
        assert not faulted.heartbeat_ok("c7")
        assert faulted.spoofed_reply("c8").uid == 0


class TestTransit:
    def test_unreachable_host_times_out_connect(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c2")
        alice = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(alice, "c2", 5000)
        assert fabric.metrics.report()["fault_unreachable_drops"] == 1

    def test_local_delivery_exempt_from_transit(self, userdb):
        """A host partitioned off the fabric can still talk to itself."""
        fabric, nodes, _ = build_fabric(userdb, ["c1"], ubf=False)
        fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c1")
        alice = proc_on(nodes, "c1", userdb, "alice")
        inbox = nodes["c1"].net.bind(alice, 6000, Proto.UDP)
        nodes["c1"].net.sendto(alice, "c1", 6000, b"loop")
        assert nodes["c1"].net.recvfrom(inbox).data == b"loop"

    def test_established_flow_killed_by_partition(self, userdb):
        """Partition severs even conntrack-established traffic — conntrack
        survives *daemon* faults, not the wire itself."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        alice_srv = proc_on(nodes, "c2", userdb, "alice")
        nodes["c2"].net.listen(nodes["c2"].net.bind(alice_srv, 5000))
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        fault = fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c2")
        with pytest.raises(TimedOut):
            conn.send(b"x")
        fabric.faults.clear(fault)
        conn.send(b"x")  # flow was never evicted; heals instantly

    def test_refused_send_not_counted_as_fault(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        alice = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.connect(alice, "c2", 5000)
        assert "fault_unreachable_drops" not in fabric.metrics.report()
