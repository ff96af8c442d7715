"""Probe transports: the uniform send/poll contract and the simulator
backend.

A prober calls prepare(destinations) once before a round's first send,
so a backend can warm its per-destination state.  A transport issues one
ProbeToken per emitted probe and later surfaces matched replies through
poll().  Replies to tokens the caller already expired are still
delivered, flagged late.  The real ICMP backend in `netradar.icmp`
follows the same contract.

send() paces itself: after each probe it sleeps 1/rate_cap on its own
clock (not at all with rate_cap 0: uncapped), so the cap holds for every
caller and callers never sleep for it.
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


class SimTransport:
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
        self.clock = SimClock()
        # at NaN or inf no reply would ever come due, and a negative delay
        # would deliver replies before their probes are sent
        self.per_hop_delay = finite("per_hop_delay", per_hop_delay)
        # a negative, NaN or infinite cap would pace as uncapped (0)
        self.rate_cap = finite("rate_cap", rate_cap)
        self.stats = TransportStats()
        self._pending: list[tuple[float, int]] = []  # (arrival, seq) heap
        self._replies: dict[int, TransportReply] = {}  # seq -> reply not yet delivered
        # seqs the caller timed out whose reply is still pending; an
        # unanswered probe has nothing pending, so it is never recorded
        self._expired: set[int] = set()
        self._seq = 0
        self._closed = False

    @property
    def monitor_hop(self) -> Ip:
        return Ip(self.state.addresses[self.state.monitor])

    def prepare(self, destinations) -> None:
        self.state.prepare_destinations(destinations)

    def _check_open(self) -> None:
        if self._closed:
            raise TransportClosedError("transport is closed")

    def send(self, destination: IPv4Address, ttl: int) -> ProbeToken:
        """Emit one probe, then pace; returns its token."""
        self._check_open()
        now = self.clock.now()
        self.state.apply_events(now)
        outcome = self.state.route_probe(destination, ttl, now)
        self._seq += 1
        token = ProbeToken(destination, ttl, now, self._seq)
        self.stats.sent += 1
        if outcome.kind in (TIME_EXCEEDED, ECHO_REPLY):
            arrival = now + 2.0 * self.per_hop_delay * outcome.hops
            self._replies[self._seq] = TransportReply(token, outcome.source, outcome.kind, arrival)
            heapq.heappush(self._pending, (arrival, self._seq))
        else:
            self.stats.unanswered += 1
        if self.rate_cap:
            self.clock.sleep(1.0 / self.rate_cap)
        return token

    def poll(self, deadline: float) -> list[TransportReply]:
        """Deliver replies.  Advances the virtual clock no further than the
        earliest pending arrival, or to the deadline when nothing is due."""
        self._check_open()
        now = self.clock.now()
        deadline = max(deadline, now)
        if self._pending and self._pending[0][0] <= deadline:
            self.clock.advance_to(self._pending[0][0])
        else:
            self.clock.advance_to(deadline)
        now = self.clock.now()
        out = []
        while self._pending and self._pending[0][0] <= now:
            _, seq = heapq.heappop(self._pending)
            reply = self._replies.pop(seq)
            if seq in self._expired:
                self._expired.discard(seq)
                self.stats.late += 1
                reply = reply._replace(late=True)
            else:
                self.stats.delivered += 1
            out.append(reply)
        return out

    def expire(self, token: ProbeToken) -> None:
        """The caller timed this token out; a later arrival is flagged late."""
        if token.seq in self._replies:
            self._expired.add(token.seq)

    def close(self) -> None:
        self._closed = True
