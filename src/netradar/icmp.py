"""Real ICMP probe transport (optional; requires raw-socket privileges).

`IcmpTransport` takes sequencing, pacing, late-reply counting and closing
from `netradar.transport.Transport`, and adds the raw socket, packet
build and decode, and the table that matches a wire sequence back to its
probe.

Echo requests carry the measurement identity: the ICMP identifier holds a
per-measurement nonce and the sequence field a rolling 16-bit counter of
sends, so replies match back to their probe.  Time-exceeded answers quote
the original header, from which the same fields are recovered.  A 2-byte
payload holds the checksum constant, so a per-flow load balancer sends
every probe one way, as Paris traceroute does.

A sequence is reused after 65,536 sends, and the probe it replaces is
forgotten: a reply to that probe arriving later still would match the newer
one.  Every send is paced, so a sequence is reused no sooner than 65,536 /
rate cap seconds after its first use (327 s at the default 200 probes/s),
and this is safe while the probe timeout is below that.

Needs CAP_NET_RAW (or root).  The test suite runs it over socket doubles
instead, whole radar rounds included.
"""
from __future__ import annotations

import os
import select
import socket
import struct
from ipaddress import IPv4Address

from .model import Ip, parse_address
from .transport import ProbeToken, Transport, TransportError, TransportReply, WallClock

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_TIME_EXCEEDED = 11

SEQ_MASK = 0xFFFF  # the wire sequence is the send counter modulo 2**16


def _checksum(data: bytes) -> int:
    if len(data) & 1:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class IcmpTransport(Transport):
    """Probe transport over raw ICMP sockets, same contract as the
    simulator backend but on the wall clock."""

    def __init__(self, *, rate_cap: float):
        super().__init__(WallClock(), rate_cap)  # checks the cap before the socket opens
        self._nonce = os.getpid() & 0xFFFF
        self._tokens: dict[int, ProbeToken] = {}  # wire seq -> token
        self._sock = self._open_socket()

    def _open_socket(self):
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        except PermissionError as exc:
            raise TransportError("raw ICMP needs CAP_NET_RAW or root") from exc
        sock.setblocking(False)
        return sock

    @property
    def monitor_hop(self) -> Ip:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            probe.connect(("192.0.2.1", 9))  # no packet sent; picks the route
            local = probe.getsockname()[0]
        finally:
            probe.close()
        return Ip(parse_address(local))

    def _build_packet(self, seq: int) -> bytes:
        # seq + ~seq is 0xFFFF, a one's-complement zero, so with ~seq as the
        # payload every request's checksum is that of its bare header
        checksum = _checksum(struct.pack("!BBHH", ICMP_ECHO_REQUEST, 0, 0, self._nonce))
        return struct.pack("!BBHHHH", ICMP_ECHO_REQUEST, 0, checksum, self._nonce, seq, ~seq & 0xFFFF)

    def send(self, destination: IPv4Address, ttl: int) -> ProbeToken:
        self._check_open()
        now = self.clock.now()
        wire_seq = (self._seq + 1) & SEQ_MASK  # the seq _emitted() takes next
        try:
            self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
            self._sock.sendto(self._build_packet(wire_seq), (str(destination), 0))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        token = self._emitted(destination, ttl, now)
        # a reused wire seq can no longer match the probe it replaces, so
        # that probe need not be remembered as expired either
        replaced = self._tokens.get(wire_seq)
        if replaced is not None:
            self._expired.discard(replaced.seq)
        self._tokens[wire_seq] = token
        return token

    def _decode(self, packet: bytes, source: str) -> TransportReply | None:
        if len(packet) < 28:
            return None
        header_len = (packet[0] & 0x0F) * 4
        icmp = packet[header_len:]
        if len(icmp) < 8:
            return None
        icmp_type, _code, _cksum, ident, seq = struct.unpack("!BBHHH", icmp[:8])
        if icmp_type == ICMP_ECHO_REPLY:
            kind = "echo_reply"
        elif icmp_type in (ICMP_TIME_EXCEEDED, ICMP_DEST_UNREACHABLE):
            # quoted original: inner IP header + first 8 bytes of our echo
            inner_ip = icmp[8:]
            if len(inner_ip) < 20:
                return None
            inner_len = (inner_ip[0] & 0x0F) * 4
            quoted = inner_ip[inner_len : inner_len + 8]
            if len(quoted) < 8:
                return None
            _t, _c, _ck, ident, seq = struct.unpack("!BBHHH", quoted)
            kind = "time_exceeded" if icmp_type == ICMP_TIME_EXCEEDED else "unreachable"
        else:
            return None
        token = self._tokens.pop(seq, None) if ident == self._nonce else None
        if token is None:
            self.stats.dropped_unmatched += 1
            return None
        return self._matched(TransportReply(token, parse_address(source), kind, self.clock.now()))

    def poll(self, deadline: float) -> list[TransportReply]:
        self._check_open()
        replies: list[TransportReply] = []
        while True:
            now = self.clock.now()
            wait = max(0.0, deadline - now)
            try:
                readable, _, _ = select.select([self._sock], [], [], wait if not replies else 0.0)
            except OSError as exc:
                raise TransportError(f"poll failed: {exc}") from exc
            if not readable:
                return replies
            try:
                packet, (source, _) = self._sock.recvfrom(2048)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            reply = self._decode(packet, source)
            if reply is not None:
                replies.append(reply)

    def expire(self, token: ProbeToken) -> None:
        """The caller timed this token out; a later reply is flagged late.
        A token already answered or replaced is not remembered."""
        held = self._tokens.get(token.seq & SEQ_MASK)
        if held is not None and held.seq == token.seq:
            self._expired.add(token.seq)

    def close(self) -> None:
        if not self._closed:
            self._sock.close()
        super().close()
