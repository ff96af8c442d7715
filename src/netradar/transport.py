"""Probe transports: the send/poll contract, the rules every backend
shares, and the simulator backend.

A prober calls prepare(destinations) once before a round's first send,
so a backend can warm its per-destination state.  A transport issues one
ProbeToken per emitted probe and later surfaces matched replies through
poll().  Replies to tokens the caller already expired are still
delivered, flagged late.  send() paces itself: after each probe it sleeps
1/rate_cap on its own clock (not at all with rate_cap 0: uncapped), so
the cap holds for every caller and callers never sleep for it.

`Transport` holds these rules once: the clock and the rate cap, the
stats, the sequence and tokens, pacing, late-reply counting and closing.
`SimTransport` adds the simulator and its pending replies; `IcmpTransport`
in `netradar.icmp` adds the raw socket and the wire.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import NamedTuple

from .model import Ip, finite
from .simnet import ECHO_REPLY, TIME_EXCEEDED, SimState, Topology

DEFAULT_RATE_CAP = 200.0  # probes per second
DEFAULT_PER_HOP_DELAY = 0.01  # simulated one-way latency per hop, seconds


class TransportError(RuntimeError):
    """Transport failure, distinct from 'no replies arrived'."""


class TransportClosedError(TransportError):
    """The transport was used after close()."""


class ProbeToken(NamedTuple):
    """Identifies one in-flight probe within a measurement."""

    destination: IPv4Address
    ttl: int
    sent_at: float
    seq: int


class TransportReply(NamedTuple):
    """A wire answer matched back to its probe token."""

    token: ProbeToken
    source: IPv4Address
    kind: str  # time_exceeded | echo_reply | unreachable
    received_at: float
    late: bool = False


@dataclass
class TransportStats:
    sent: int = 0
    delivered: int = 0
    late: int = 0
    unanswered: int = 0  # silent or dead-end outcomes: nothing will arrive
    dropped_unmatched: int = 0
    backpressure_events: int = 0  # always 0: send() waits out the cap itself


class SimClock:
    """Virtual clock owned by a simulator transport; sleeping advances it."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t


class WallClock:
    """Wall time, read once at construction and advanced by the monotonic
    clock: timestamps stay wall-clock, and intervals measured on it (probe
    timeouts, round pacing) never run backwards when the system clock is
    set."""

    def __init__(self):
        self._wall = time.time()
        self._monotonic = time.monotonic()

    def now(self) -> float:
        return self._wall + (time.monotonic() - self._monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class Transport:
    """The contract's shared rules.  A backend adds send(), poll(), expire()
    and monitor_hop: send() calls _check_open() first and _emitted() once the
    probe is out, and poll() passes each matched reply through _matched()."""

    def __init__(self, clock, rate_cap: float):
        self.clock = clock
        # a negative, NaN or infinite cap would pace as uncapped (0)
        self.rate_cap = finite("rate_cap", rate_cap)
        self.stats = TransportStats()
        self._expired: set[int] = set()  # seqs timed out whose reply may still come
        self._seq = 0
        self._closed = False

    def prepare(self, destinations) -> None:
        """Nothing to warm unless the backend keeps per-destination state."""

    def _check_open(self) -> None:
        if self._closed:
            raise TransportClosedError("transport is closed")

    def _emitted(self, destination: IPv4Address, ttl: int, sent_at: float) -> ProbeToken:
        """Number and count a probe just emitted, then pace."""
        self._seq += 1
        self.stats.sent += 1
        if self.rate_cap:
            self.clock.sleep(1.0 / self.rate_cap)
        return ProbeToken(destination, ttl, sent_at, self._seq)

    def _matched(self, reply: TransportReply) -> TransportReply:
        """Count a reply matched to its token: late if the caller expired
        the token, delivered otherwise."""
        seq = reply.token.seq
        if seq in self._expired:
            self._expired.discard(seq)
            self.stats.late += 1
            return reply._replace(late=True)
        self.stats.delivered += 1
        return reply

    def close(self) -> None:
        self._closed = True


class SimTransport(Transport):
    """Transport backed by the deterministic simulator.

    Replies are synthesized at send time and delivered through poll()
    after a round trip of 2 * per_hop_delay * hops on the virtual clock.
    Silent and dead-end probes deliver nothing, so the caller's timeout
    logic fires, exactly as on the wire.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        per_hop_delay: float = DEFAULT_PER_HOP_DELAY,
        rate_cap: float = DEFAULT_RATE_CAP,
    ):
        self.state = SimState(topology)
        # at NaN or inf no reply would ever come due, and a negative delay
        # would deliver replies before their probes are sent
        self.per_hop_delay = finite("per_hop_delay", per_hop_delay)
        super().__init__(SimClock(), rate_cap)
        self._pending: list[tuple[float, int]] = []  # (arrival, seq) heap
        self._replies: dict[int, TransportReply] = {}  # seq -> reply not yet delivered

    @property
    def monitor_hop(self) -> Ip:
        return Ip(self.state.addresses[self.state.monitor])

    def prepare(self, destinations) -> None:
        self.state.prepare_destinations(destinations)

    def send(self, destination: IPv4Address, ttl: int) -> ProbeToken:
        """Emit one probe, then pace; returns its token."""
        self._check_open()
        now = self.clock.now()
        self.state.apply_events(now)
        outcome = self.state.route_probe(destination, ttl, now)
        token = self._emitted(destination, ttl, now)
        if outcome.kind in (TIME_EXCEEDED, ECHO_REPLY):
            arrival = now + 2.0 * self.per_hop_delay * outcome.hops
            self._replies[token.seq] = TransportReply(token, outcome.source, outcome.kind, arrival)
            heapq.heappush(self._pending, (arrival, token.seq))
        else:
            self.stats.unanswered += 1
        return token

    def poll(self, deadline: float) -> list[TransportReply]:
        """Deliver replies.  Advances the virtual clock no further than the
        earliest pending arrival, or to the deadline when nothing is due."""
        self._check_open()
        self.clock.advance_to(min(self._pending[0][0], deadline) if self._pending else deadline)
        now = self.clock.now()
        out = []
        while self._pending and self._pending[0][0] <= now:
            _, seq = heapq.heappop(self._pending)
            out.append(self._matched(self._replies.pop(seq)))
        return out

    def expire(self, token: ProbeToken) -> None:
        """The caller timed this token out; a later arrival is flagged late."""
        if token.seq in self._replies:
            self._expired.add(token.seq)
