"""Real ICMP probe transport (optional; requires raw-socket privileges).

Echo requests carry the measurement identity: the ICMP identifier holds a
per-measurement nonce and the sequence field packs (destination index,
ttl), so replies match back to their probe.  Time-exceeded answers quote
the original header, from which the same fields are recovered.

Needs CAP_NET_RAW (or root).  With NETRADAR_ICMP_DGRAM=1 an unprivileged
SOCK_DGRAM ICMP socket is attempted instead (Linux ping sockets; the
kernel rewrites the identifier, so matching relies on the sequence field
alone).  Excluded from the default test suite.
"""
from __future__ import annotations

import os
import select
import socket
import struct
import time
from ipaddress import IPv4Address

from .transport import (
    ProbeToken,
    TransportClosedError,
    TransportError,
    TransportReply,
    TransportStats,
    WallClock,
    check_rate_cap,
)

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_TIME_EXCEEDED = 11

_TTL_BITS = 6  # sequence = destination_index << 6 | ttl; ttl <= 63


def _checksum(data: bytes) -> int:
    if len(data) & 1:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class IcmpTransport:
    """Probe transport over raw ICMP sockets, same contract as the
    simulator backend but on the wall clock."""

    def __init__(self, *, rate_cap: float = 200.0, nonce: int | None = None):
        self.clock = WallClock()
        self.rate_cap = rate_cap
        self.stats = TransportStats()
        self._nonce = (nonce if nonce is not None else os.getpid()) & 0xFFFF
        self._dest_index: dict[IPv4Address, int] = {}
        self._tokens: dict[tuple[int, int], ProbeToken] = {}  # (id, seq) -> token
        self._expired: set[int] = set()
        self._last_send: float | None = None
        self._seq = 0
        self._closed = False
        self._sock = self._open_socket()

    def _open_socket(self):
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        except PermissionError as exc:
            if os.environ.get("NETRADAR_ICMP_DGRAM") == "1":
                try:
                    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_ICMP)
                except OSError as dgram_exc:
                    raise TransportError(
                        f"cannot open ICMP socket even via NETRADAR_ICMP_DGRAM: {dgram_exc}"
                    ) from dgram_exc
            else:
                raise TransportError(
                    "raw ICMP needs CAP_NET_RAW/root; set NETRADAR_ICMP_DGRAM=1 "
                    "to try an unprivileged ping socket"
                ) from exc
        sock.setblocking(False)
        return sock

    @property
    def monitor_hop(self):
        from .model import Ip

        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            probe.connect(("192.0.2.1", 9))  # no packet sent; picks the route
            local = probe.getsockname()[0]
        finally:
            probe.close()
        return Ip(IPv4Address(local))

    def _check_open(self):
        if self._closed:
            raise TransportClosedError("transport is closed")

    def _build_packet(self, seq: int) -> bytes:
        header = struct.pack("!BBHHH", ICMP_ECHO_REQUEST, 0, 0, self._nonce, seq)
        payload = struct.pack("!d", time.time())
        checksum = _checksum(header + payload)
        return struct.pack("!BBHHH", ICMP_ECHO_REQUEST, 0, checksum, self._nonce, seq) + payload

    def send(self, destination, ttl: int) -> ProbeToken:
        self._check_open()
        destination = (
            destination if isinstance(destination, IPv4Address) else IPv4Address(destination)
        )
        now = self.clock.now()
        check_rate_cap(self, now)
        index = self._dest_index.setdefault(destination, len(self._dest_index))
        if index >= (1 << (16 - _TTL_BITS)):
            raise TransportError("too many destinations for the sequence encoding")
        if not 1 <= ttl < (1 << _TTL_BITS):
            raise TransportError(f"ttl {ttl} not encodable")
        wire_seq = (index << _TTL_BITS) | ttl
        self._seq += 1
        token = ProbeToken(destination, ttl, now, self._seq)
        self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
        try:
            self._sock.sendto(self._build_packet(wire_seq), (str(destination), 0))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        # the wire seq repeats every round: the probe it replaces can no
        # longer be matched, so it need not be remembered as expired either
        key = (self._nonce, wire_seq)
        replaced = self._tokens.get(key)
        if replaced is not None:
            self._expired.discard(replaced.seq)
        self._tokens[key] = token
        self._last_send = now
        self.stats.sent += 1
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
            key = (ident, seq)
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
        token = self._tokens.pop((ident, seq), None)
        if token is None:
            self.stats.dropped_unmatched += 1
            return None
        late = token.seq in self._expired
        if late:
            self._expired.discard(token.seq)
            self.stats.late += 1
        else:
            self.stats.delivered += 1
        return TransportReply(
            token=token,
            source=IPv4Address(source),
            kind=kind,
            received_at=self.clock.now(),
            late=late,
        )

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
        self._expired.add(token.seq)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()
