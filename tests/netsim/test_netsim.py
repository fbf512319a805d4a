import pytest

from repro.netsim.asn import AsRegistry, AutonomousSystem
from repro.netsim.blocklist import Blocklist
from repro.netsim.net import ConnectionRefused, HostDown, SimHost, SimNetwork
from repro.netsim.tcpscan import sweep_port
from repro.util.ipaddr import CidrBlock, parse_ipv4
from repro.util.rng import DeterministicRng
from repro.util.simtime import SimClock, parse_utc


class EchoConnection:
    closed = False

    def receive(self, data: bytes) -> bytes:
        return data


class StallingConnection:
    """Answers nothing at once; each ``poll`` stalls 5 s, then sends."""

    closed = False

    def receive(self, data: bytes) -> bytes:
        return b""

    def poll(self) -> tuple[float, bytes]:
        return (5.0, b"late")


def make_network():
    network = SimNetwork(SimClock(parse_utc("2020-02-09")))
    host = SimHost(address=parse_ipv4("10.0.0.1"), asn=64500)
    host.listen(4840, EchoConnection)
    network.add_host(host)
    return network


class TestSimNetwork:
    def test_connect_and_echo(self):
        network = make_network()
        socket = network.connect(parse_ipv4("10.0.0.1"), 4840)
        socket.write(b"ping")
        assert socket.read() == b"ping"

    def test_read_drains(self):
        network = make_network()
        socket = network.connect(parse_ipv4("10.0.0.1"), 4840)
        socket.write(b"x")
        assert socket.read() == b"x"
        assert socket.read() == b""

    def test_byte_accounting(self):
        network = make_network()
        socket = network.connect(parse_ipv4("10.0.0.1"), 4840)
        socket.write(b"12345")
        assert socket.bytes_sent == 5
        assert socket.bytes_received == 5

    def test_connection_refused(self):
        network = make_network()
        with pytest.raises(ConnectionRefused):
            network.connect(parse_ipv4("10.0.0.1"), 80)

    def test_host_down(self):
        network = make_network()
        with pytest.raises(HostDown):
            network.connect(parse_ipv4("10.0.0.2"), 4840)

    def test_syn(self):
        network = make_network()
        assert network.syn(parse_ipv4("10.0.0.1"), 4840)
        assert not network.syn(parse_ipv4("10.0.0.1"), 80)
        assert not network.syn(parse_ipv4("10.9.9.9"), 4840)

    def test_duplicate_host_rejected(self):
        network = make_network()
        with pytest.raises(ValueError):
            network.add_host(SimHost(address=parse_ipv4("10.0.0.1")))

    def test_duplicate_port_rejected(self):
        host = SimHost(address=1)
        host.listen(4840, EchoConnection)
        with pytest.raises(ValueError):
            host.listen(4840, EchoConnection)

    def test_zero_latency_does_not_advance(self):
        network = make_network()
        before = network.clock.now()
        socket = network.connect(parse_ipv4("10.0.0.1"), 4840)
        socket.write(b"x")
        assert network.clock.now() == before


class TestNetworkView:
    def test_view_clock_is_isolated(self):
        network = SimNetwork(SimClock(parse_utc("2020-02-09")))
        host = SimHost(address=1, asn=64500)
        host.listen(4840, StallingConnection)
        network.add_host(host)

        view = network.task_view()
        before = network.clock.now()
        socket = view.connect(1, 4840)
        socket.write(b"x")
        assert socket.read() == b"late"
        # The stall moved the view's clock; the sweep clock stood still.
        assert (view.clock.now() - before).total_seconds() == 5.0
        assert network.clock.now() == before

    def test_view_sees_shared_hosts(self):
        network = make_network()
        view = network.task_view()
        assert view.syn(parse_ipv4("10.0.0.1"), 4840)
        assert view.host(parse_ipv4("10.0.0.1")) is not None
        assert len(view.hosts()) == 1
        with pytest.raises(HostDown):
            view.connect(parse_ipv4("10.9.9.9"), 4840)
        with pytest.raises(ConnectionRefused):
            view.connect(parse_ipv4("10.0.0.1"), 80)


class TestAsRegistry:
    def make_registry(self):
        registry = AsRegistry()
        registry.register(
            AutonomousSystem(
                64500, "IIoT ISP", [CidrBlock.parse("10.1.0.0/16")]
            )
        )
        registry.register(
            AutonomousSystem(
                64501, "Regional ISP", [CidrBlock.parse("10.2.0.0/16")]
            )
        )
        return registry

    def test_lookup(self):
        registry = self.make_registry()
        assert registry.lookup(parse_ipv4("10.1.2.3")).asn == 64500
        assert registry.lookup(parse_ipv4("10.2.2.3")).asn == 64501
        assert registry.lookup(parse_ipv4("192.168.0.1")) is None

    def test_duplicate_asn_rejected(self):
        registry = self.make_registry()
        with pytest.raises(ValueError):
            registry.register(AutonomousSystem(64500, "dup", []))

    def test_overlapping_blocks_rejected(self):
        registry = self.make_registry()
        with pytest.raises(ValueError):
            registry.register(
                AutonomousSystem(
                    64502, "overlap", [CidrBlock.parse("10.1.128.0/17")]
                )
            )

    def test_allocation_unique_and_inside_as(self):
        registry = self.make_registry()
        rng = DeterministicRng(7, "alloc")
        addresses = [registry.allocate_address(64500, rng) for _ in range(500)]
        assert len(set(addresses)) == 500
        system = registry.get(64500)
        assert all(system.contains(a) for a in addresses)

    def test_allocation_deterministic(self):
        a = self.make_registry()
        b = self.make_registry()
        rng_a = DeterministicRng(7, "alloc")
        rng_b = DeterministicRng(7, "alloc")
        assert [a.allocate_address(64500, rng_a) for _ in range(10)] == [
            b.allocate_address(64500, rng_b) for _ in range(10)
        ]

    def test_describe(self):
        registry = self.make_registry()
        text = registry.describe(parse_ipv4("10.1.0.5"))
        assert "AS64500" in text


class TestBlocklist:
    def test_membership(self):
        blocklist = Blocklist()
        blocklist.add("10.5.0.0/16")
        assert parse_ipv4("10.5.1.1") in blocklist
        assert parse_ipv4("10.6.1.1") not in blocklist

    def test_excluded_count(self):
        blocklist = Blocklist()
        blocklist.add("10.5.0.0/16")
        blocklist.add("10.6.0.0/24")
        assert blocklist.excluded_address_count == 65536 + 256


class TestSweep:
    def test_finds_open_hosts(self):
        network = make_network()
        result = sweep_port(network, 4840, DeterministicRng(1, "s"))
        assert result.open_addresses == [parse_ipv4("10.0.0.1")]

    def test_respects_blocklist(self):
        network = make_network()
        blocklist = Blocklist()
        blocklist.add("10.0.0.0/24")
        result = sweep_port(network, 4840, DeterministicRng(1, "s"), blocklist)
        assert result.open_addresses == []
        assert result.excluded == 1

    def test_counts_noise_probes(self):
        network = make_network()
        result = sweep_port(
            network, 4840, DeterministicRng(1, "s"), extra_candidates=100
        )
        assert result.probed > 90
        assert result.open_count == 1

    def test_wrong_port_finds_nothing(self):
        network = make_network()
        result = sweep_port(network, 80, DeterministicRng(1, "s"))
        assert result.open_count == 0
