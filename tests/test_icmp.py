"""ICMP backend: wire parsing without sockets; live test only with raw
socket privileges (excluded from the default run)."""
from __future__ import annotations

import os
import socket
import struct
from ipaddress import IPv4Address

import pytest

from netradar.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    IcmpTransport,
    _checksum,
)
from netradar.transport import ProbeToken, TransportBackpressureError, WallClock


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
    wire_seq = (0 << 6) | 3
    transport._tokens[(0x1234, wire_seq)] = token
    icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, wire_seq) + b"payload"
    reply = transport._decode(ip_header() + icmp, "10.0.0.4")
    assert reply is not None
    assert reply.kind == "echo_reply"
    assert reply.token == token
    assert not reply.late


def test_decode_time_exceeded_recovers_quoted_header():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 2, 0.0, 2)
    wire_seq = (0 << 6) | 2
    transport._tokens[(0x1234, wire_seq)] = token
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
    icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x9999, 7)
    assert transport._decode(ip_header() + icmp, "10.0.0.4") is None
    assert transport.stats.dropped_unmatched == 1


def test_decode_expired_token_flagged_late():
    transport = bare_transport()
    token = ProbeToken(IPv4Address("10.0.0.4"), 3, 0.0, 5)
    wire_seq = 3
    transport._tokens[(0x1234, wire_seq)] = token
    transport._expired.add(5)
    icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, wire_seq)
    reply = transport._decode(ip_header() + icmp, "10.0.0.4")
    assert reply is not None and reply.late
    assert transport.stats.late == 1


class StubSocket:
    """Accepts what `IcmpTransport.send` does to a socket; sends nothing."""

    def __init__(self):
        self.sent = []

    def setsockopt(self, *args):
        pass

    def sendto(self, packet, address):
        self.sent.append((packet, address))

    def close(self):
        pass


def stub_transport(monkeypatch, rate_cap: float = 0.0) -> IcmpTransport:
    monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: StubSocket())
    return IcmpTransport(rate_cap=rate_cap, nonce=0x1234)


class TestExpiredBookkeeping:
    def test_reused_wire_seq_drops_the_old_expired_seq(self, monkeypatch):
        transport = stub_transport(monkeypatch)
        destination = IPv4Address("10.0.0.4")
        for _ in range(100):  # one unanswered probe per round
            transport.expire(transport.send(destination, 3))
        assert len(transport._sock.sent) == 100
        assert len(transport._tokens) == 1
        assert len(transport._expired) == 1

    def test_latest_expired_probe_still_flagged_late(self, monkeypatch):
        transport = stub_transport(monkeypatch)
        destination = IPv4Address("10.0.0.4")
        transport.expire(transport.send(destination, 3))
        token = transport.send(destination, 3)
        transport.expire(token)
        icmp = struct.pack("!BBHHH", ICMP_ECHO_REPLY, 0, 0, 0x1234, 3)
        reply = transport._decode(ip_header() + icmp, "10.0.0.4")
        assert reply is not None and reply.late and reply.token == token
        assert transport._expired == set()


def test_rate_cap_backpressure(monkeypatch):
    transport = stub_transport(monkeypatch, rate_cap=1.0)
    transport.send(IPv4Address("10.0.0.4"), 1)
    with pytest.raises(TransportBackpressureError):
        transport.send(IPv4Address("10.0.0.4"), 2)
    assert transport.stats.backpressure_events == 1
    assert len(transport._sock.sent) == 1


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
    transport = IcmpTransport()
    try:
        token = transport.send(IPv4Address("127.0.0.1"), 1)
        replies = transport.poll(transport.clock.now() + 2.0)
        assert any(r.token.seq == token.seq and r.kind == "echo_reply" for r in replies)
    finally:
        transport.close()
