"""ICMP backend: wire parsing and whole radar rounds over socket doubles
that need no privileges; a live test only with raw socket privileges
(excluded from the default run)."""
from __future__ import annotations

import math
import os
import socket
import struct
from ipaddress import IPv4Address

import pytest

from conftest import CHAIN_DOC, fig1_analog_doc
from netradar.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    IcmpTransport,
    _checksum,
)
from netradar.model import Ip
from netradar.radar import RadarConfig, run_radar
from netradar.simnet import ECHO_REPLY, TIME_EXCEEDED, SimState, load_topology
from netradar.tracetree import TracetreeConfig
from netradar.transport import DEFAULT_RATE_CAP, ProbeToken, SimTransport, TransportError, WallClock

from test_acceptance import fan_doc


def test_checksum_matches_reference():
    # RFC 1071 example bytes
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert _checksum(data) == 0x220D


def test_checksum_odd_length_padded():
    assert _checksum(b"\x01") == _checksum(b"\x01\x00")


def bare_transport() -> IcmpTransport:
    transport = IcmpTransport.__new__(IcmpTransport)
    transport.clock = WallClock()
    from netradar.transport import TransportStats

    transport.stats = TransportStats()
    transport._nonce = 0x1234
    transport._tokens = {}
    transport._expired = set()
    transport._closed = False
    return transport


def ip_header(src="192.0.2.1", dst="198.51.100.1", proto=1) -> bytes:
    return struct.pack(
        "!BBHHHBBH4s4s",
        0x45, 0, 20, 0, 0, 64, proto, 0,
        socket.inet_aton(src), socket.inet_aton(dst),
    )


def test_decode_echo_reply():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 3, 0.0, 1)
    wire_seq = 1
    transport._tokens[wire_seq] = token
    icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, wire_seq) + b"payload"
    reply = transport._decode(ip_header() + icmp, "10.0.0.4")
    assert reply is not None
    assert reply.kind == "echo_reply"
    assert reply.token == token
    assert not reply.late


def test_decode_time_exceeded_recovers_quoted_header():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 2, 0.0, 2)
    wire_seq = 2
    transport._tokens[wire_seq] = token
    quoted = ip_header("198.51.100.1", "10.0.0.4") + struct.pack(
        "!BBHHH", 8, 0, 0, 0x1234, wire_seq
    )
    icmp = struct.pack("!BBHHH", ICMP_TIME_EXCEEDED, 0, 0, 0, 0) + quoted
    reply = transport._decode(ip_header("10.0.0.2") + icmp, "10.0.0.2")
    assert reply is not None
    assert reply.kind == "time_exceeded"
    assert reply.source == IPv4Address("10.0.0.2")


def test_decode_unmatched_dropped_and_counted():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 3, 0.0, 7)
    transport._tokens[7] = token
    foreign = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x9999, 7)  # live seq
    assert transport._decode(ip_header() + foreign, "10.0.0.4") is None
    unknown = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, 8)  # our id
    assert transport._decode(ip_header() + unknown, "10.0.0.4") is None
    assert transport.stats.dropped_unmatched == 2
    assert transport._tokens == {7: token}


def test_decode_expired_token_flagged_late():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 3, 0.0, 5)
    wire_seq = 5
    transport._tokens[wire_seq] = token
    transport._expired.add(5)
    icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, wire_seq)
    reply = transport._decode(ip_header() + icmp, "10.0.0.4")
    assert reply is not None and reply.late
    assert transport.stats.late == 1


class StubSocket:
    """Accepts what `IcmpTransport.send` does to a socket; sends nothing."""

    def __init__(self):
        self.sent = []
        self.closes = 0

    def setsockopt(self, *args):
        pass

    def sendto(self, packet, address):
        self.sent.append((packet, address))

    def close(self):
        self.closes += 1


def stub_transport(monkeypatch, rate_cap: float = 0.0) -> IcmpTransport:
    monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: StubSocket())
    transport = IcmpTransport(rate_cap=rate_cap)
    transport._nonce = 0x1234
    return transport


def echo_reply_to(packet: bytes) -> bytes:
    """An echo reply quoting the identifier and sequence of a sent request."""
    _type, _code, _cksum, ident, seq = struct.unpack("!BBHHH", packet[:8])
    return struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, ident, seq)


class WireDouble(StubSocket):
    """A socket double `poll` can select on: one end of a datagram
    socketpair, its peer fed with raw packets by `deliver`.  `recvfrom`
    returns each packet with its source, as a raw socket does.  It needs
    no privileges and reaches no network."""

    def __init__(self):
        super().__init__()
        self._end, self._peer = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        self._sources = []

    def fileno(self):
        return self._end.fileno()

    def deliver(self, packet: bytes, source: str) -> None:
        self._sources.append(source)
        self._peer.send(packet)

    def recvfrom(self, size):
        return self._end.recv(size), (self._sources.pop(0), 0)

    def close(self):
        super().close()
        self._end.close()
        self._peer.close()


@pytest.fixture
def wire(monkeypatch):
    monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: WireDouble())
    transport = IcmpTransport(rate_cap=0.0)
    transport._nonce = 0x1234
    yield transport
    transport.close()


class TestPoll:
    def test_matched_replies_in_arrival_order(self, wire):
        destination = IPv4Address("10.0.0.4")
        near, far = wire.send(destination, 1), wire.send(destination, 3)
        near_request, far_request = (packet for packet, _ in wire._sock.sent)
        # a time-exceeded quotes the request's IP header and first 8 bytes
        quoted = ip_header("10.9.0.1", "10.0.0.4") + near_request
        quoting = struct.pack("!BBHHH", ICMP_TIME_EXCEEDED, 0, 0, 0, 0) + quoted
        foreign = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x9999, 1)
        wire._sock.deliver(ip_header("10.0.0.4") + echo_reply_to(far_request), "10.0.0.4")
        wire._sock.deliver(ip_header("10.0.0.2") + quoting, "10.0.0.2")
        wire._sock.deliver(ip_header("10.0.0.4") + foreign, "10.0.0.4")
        wire._sock.deliver(b"\x45" * 10, "10.0.0.3")  # a runt: no header to read
        replies = wire.poll(wire.clock.now() + 1.0)
        assert [(r.token, r.kind, str(r.source)) for r in replies] == [
            (far, "echo_reply", "10.0.0.4"),
            (near, "time_exceeded", "10.0.0.2"),
        ]
        assert wire.stats.dropped_unmatched == 1
        assert wire.stats.delivered == 2 and wire._tokens == {}

    def test_nothing_queued_returns_empty_at_the_deadline(self, wire):
        deadline = wire.clock.now() + 0.05
        assert wire.poll(deadline) == []
        assert wire.clock.now() >= deadline


class SimulatedWire(WireDouble):
    """A wire double that answers from a simulated topology: `sendto`
    routes the request through a `SimState` at the last `IP_TTL` set and
    queues what a raw socket would receive.  An echo reply is a 20-byte
    IPv4 header and the reply; a time-exceeded is a header, the ICMP
    header and the quoted request (its IPv4 header and first 8 bytes).
    Silence and unreachable queue nothing."""

    def __init__(self, state: SimState):
        super().__init__()
        self._peer.setblocking(False)  # a full queue fails the test, not hangs it
        self.state = state
        self.ttl = None

    def setsockopt(self, level, option, value):
        if (level, option) == (socket.IPPROTO_IP, socket.IP_TTL):
            self.ttl = value

    def sendto(self, packet, address):
        super().sendto(packet, address)
        destination = address[0]
        # the topologies here have no events or rate limits: time is moot
        reply = self.state.route_probe(IPv4Address(destination), self.ttl, 0.0)
        source = str(reply.source)
        if reply.kind == ECHO_REPLY:
            self.deliver(ip_header(source) + echo_reply_to(packet), source)
        elif reply.kind == TIME_EXCEEDED:
            quoted = ip_header(dst=destination) + packet[:8]
            self.deliver(ip_header(source) + struct.pack("!BBHHH", ICMP_TIME_EXCEEDED, 0, 0, 0, 0) + quoted, source)


FIG1_DESTINATIONS = [IPv4Address(d) for d in ("10.0.1.14", "10.0.1.15", "10.0.1.16")]


@pytest.mark.parametrize(
    "doc, destinations",
    [fan_doc(chains=50, depth=5), (CHAIN_DOC, [IPv4Address("10.0.0.4")]), (fig1_analog_doc(), FIG1_DESTINATIONS)],
    ids=["fan", "chain", "fig1"],
)
def test_radar_rounds_over_the_wire_match_the_simulator(monkeypatch, doc, destinations):
    # fig1 adds a silent router, whose probes time out on the wall clock,
    # and both balancer kinds; the simulator's replies take 20 ms a hop,
    # well inside the timeout
    topology = load_topology(doc)
    monitor = Ip(topology.addresses[topology.monitor])
    # the real monitor_hop connects a UDP socket, which needs a route
    monkeypatch.setattr(IcmpTransport, "monitor_hop", property(lambda self: monitor))
    monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: SimulatedWire(SimState(topology)))
    config = RadarConfig(destinations, inter_round_delay=0.0, rounds=3, tracetree=TracetreeConfig(timeout=0.2))
    wire = IcmpTransport(rate_cap=0.0)
    wire._nonce = 0x1234
    try:
        over_wire = run_radar(config, wire).rounds
    finally:
        wire.close()
    simulated = run_radar(config, SimTransport(topology)).rounds
    assert len(over_wire) == len(simulated) == 3
    for got, want in zip(over_wire, simulated):
        assert got.complete and set(destinations) < got.tree.observed_ips() == want.tree.observed_ips()
        assert got.tree.edges == want.tree.edges
    # round 1 probes from the distances round 0 cached, over the wire too
    assert over_wire[1].probes_sent == simulated[1].probes_sent < simulated[0].probes_sent
    assert wire.stats.dropped_unmatched == wire.stats.late == 0


class TestExpiredBookkeeping:
    def test_reused_wire_seq_drops_the_old_expired_seq(self, monkeypatch):
        transport = stub_transport(monkeypatch)
        destination = IPv4Address("10.0.0.4")
        for _ in range(70_000):  # unanswered probes, past one wrap of the sequence
            transport.expire(transport.send(destination, 3))
        assert len(transport._sock.sent) == 70_000
        assert len(transport._tokens) == 65_536
        assert len(transport._expired) == 65_536
        assert min(transport._expired) == 70_000 - 65_536 + 1

    def test_latest_expired_probe_still_flagged_late(self, monkeypatch):
        transport = stub_transport(monkeypatch)
        destination = IPv4Address("10.0.0.4")
        first = transport.send(destination, 3)
        transport.expire(first)
        token = transport.send(destination, 3)
        transport.expire(token)
        icmp = echo_reply_to(transport._sock.sent[1][0])
        reply = transport._decode(ip_header() + icmp, "10.0.0.4")
        assert reply is not None and reply.late and reply.token == token
        assert transport._expired == {first.seq}

    def test_answered_probe_not_remembered_as_expired(self, monkeypatch):
        transport = stub_transport(monkeypatch)
        token = transport.send(IPv4Address("10.0.0.4"), 3)
        icmp = echo_reply_to(transport._sock.sent[0][0])
        assert transport._decode(ip_header() + icmp, "10.0.0.4").token == token
        transport.expire(token)  # the reply was still buffered at the timeout
        assert transport._expired == set()


def test_late_reply_from_previous_round_never_takes_a_new_token(monkeypatch):
    transport = stub_transport(monkeypatch)
    destination = IPv4Address("10.0.0.4")
    old = transport.send(destination, 3)  # round N-1, timed out
    transport.expire(old)
    new = transport.send(destination, 3)  # round N, same destination and ttl
    icmp = echo_reply_to(transport._sock.sent[0][0])
    reply = transport._decode(ip_header() + icmp, "10.0.0.4")
    assert reply is not None and reply.late and reply.token == old
    assert list(transport._tokens.values()) == [new]
    assert transport.stats.late == 1 and transport.stats.delivered == 0


def test_five_thousand_destinations_round_trip(monkeypatch):
    transport = stub_transport(monkeypatch)
    destinations = [IPv4Address("10.0.0.0") + i for i in range(1, 5001)]
    tokens = [transport.send(d, 3) for d in destinations]
    for token, (packet, (address, _)) in zip(tokens, transport._sock.sent):
        assert len(packet) == 10 and _checksum(packet) == 0
        reply = transport._decode(ip_header() + echo_reply_to(packet), address)
        assert reply is not None and reply.token == token and not reply.late
    assert transport.stats.delivered == 5000
    assert transport._tokens == {}


@pytest.mark.parametrize("nonce", [0x1234, 0x0000, 0xF7FF, 0xFFFF])
def test_every_request_carries_one_checksum(monkeypatch, nonce):
    # a per-flow balancer that hashes the first ICMP words sees one flow,
    # across the wrap of the sequence too (Paris traceroute)
    transport = stub_transport(monkeypatch)
    transport._nonce = nonce
    for _ in range(70_000):
        transport.send(IPv4Address("10.0.0.4"), 3)
    packets = [packet for packet, _ in transport._sock.sent]
    assert all(_checksum(packet) == 0 for packet in packets)
    assert len({packet[2:4] for packet in packets}) == 1
    # the identifier and sequence still come first, where replies quote them
    assert struct.unpack("!HH", packets[-1][4:8]) == (nonce, 70_000 & 0xFFFF)


def test_radar_rounds_over_the_wire_keep_one_flow(monkeypatch):
    doc, destinations = fan_doc(chains=50, depth=5)
    topology = load_topology(doc)
    monitor = Ip(topology.addresses[topology.monitor])
    monkeypatch.setattr(IcmpTransport, "monitor_hop", property(lambda self: monitor))
    monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: SimulatedWire(SimState(topology)))
    config = RadarConfig(destinations, inter_round_delay=0.0, rounds=3, tracetree=TracetreeConfig(timeout=0.2))
    wire = IcmpTransport(rate_cap=0.0)
    try:
        rounds = run_radar(config, wire).rounds
    finally:
        wire.close()
    sent = [packet for packet, _ in wire._sock.sent]
    assert len(sent) == sum(r.probes_sent for r in rounds) > 0
    assert {packet[2:4] for packet in sent} == {sent[0][2:4]}


def test_second_close_leaves_the_socket_alone(monkeypatch):
    transport = stub_transport(monkeypatch)
    transport.close()
    transport.close()
    assert transport._sock.closes == 1


def test_socket_fault_is_a_transport_error(monkeypatch):
    # a transport error marks the round incomplete; a bare OSError would
    # end the radar
    transport = stub_transport(monkeypatch)

    def fail(*args):
        raise OSError("socket fault")

    transport._sock.setsockopt = fail
    with pytest.raises(TransportError):
        transport.send(IPv4Address("10.0.0.4"), 1)


class FakeClock:
    """A wall clock stand-in that records sleeps instead of sleeping."""

    def __init__(self):
        self.sleeps = []

    def now(self) -> float:
        return 0.0

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)


@pytest.mark.parametrize("cap, sleeps", [(50.0, [0.02, 0.02, 0.02]), (0.0, [])])
def test_send_paces_itself(monkeypatch, cap, sleeps):
    transport = stub_transport(monkeypatch, rate_cap=cap)
    transport.clock = FakeClock()
    for ttl in (1, 2, 3):
        transport.send(IPv4Address("10.0.0.4"), ttl)
    assert len(transport._sock.sent) == 3
    assert transport.clock.sleeps == sleeps


@pytest.mark.parametrize("cap", [-5.0, math.nan, math.inf])
def test_bad_rate_cap_rejected_before_the_socket_opens(monkeypatch, cap):
    def no_socket(self):
        raise AssertionError("socket opened")

    monkeypatch.setattr(IcmpTransport, "_open_socket", no_socket)
    with pytest.raises(ValueError, match="rate_cap"):
        IcmpTransport(rate_cap=cap)


def _can_open_raw_socket() -> bool:
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
    except (PermissionError, OSError):
        return False
    sock.close()
    return True


@pytest.mark.skipif(
    not (os.environ.get("NETRADAR_LIVE_ICMP") == "1" and _can_open_raw_socket()),
    reason="live ICMP needs NETRADAR_LIVE_ICMP=1 and raw socket privileges",
)
def test_live_loopback_probe():
    transport = IcmpTransport(rate_cap=DEFAULT_RATE_CAP)
    try:
        token = transport.send(IPv4Address("127.0.0.1"), 1)
        replies = transport.poll(transport.clock.now() + 2.0)
        assert any(r.token.seq == token.seq and r.kind == "echo_reply" for r in replies)
    finally:
        transport.close()
