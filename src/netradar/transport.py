"""Probe transports: the send/poll contract, the rules every backend
shares, and the simulator backend.

A prober calls prepare(destinations) once before a round's first send,
so a backend can warm its per-destination state.  A transport issues one
ProbeToken per emitted probe and later surfaces matched replies through
poll(); a reply carries the very token object send() returned.  Replies
to tokens the caller already expired are still delivered, flagged late.
send() paces itself: after each probe it sleeps 1/rate_cap on its own
clock (not at all with rate_cap 0: uncapped), so the cap holds for every
caller and callers never sleep for it.  That pause is computed once, at
construction; a cap so small that the pause overflows to inf is refused.

`Transport` holds these rules once: the clock and the rate cap, the
stats, the sequence and tokens, pacing, late-reply counting and closing.
`SimTransport` adds the simulator and its pending replies; `IcmpTransport`
in `netradar.icmp` adds the raw socket and the wire.

The simulator's send and poll are on every probe's path, so they spend
few Python calls.  send() applies the scheduled topology events due by
its send time before it routes the probe, and calls
`SimState.apply_events` only once the clock has reached
`SimState.next_event_time`: a round between events makes no such call.
It reads and advances its `SimClock` in place, as poll() does.  Tokens
and the simulator's replies are built by `tuple.__new__`, which skips the
named tuples' generated `__new__`, a Python function; they are the same
`ProbeToken` and `TransportReply` values.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from ipaddress import IPv4Address
from math import isfinite
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
    and monitor_hop: send() and poll() first call _check_open() (the
    simulator only once `_closed` is set, so an open one pays no call),
    send() calls _emitted() once the probe is out, and poll() passes each
    matched reply through _matched()."""

    def __init__(self, clock, rate_cap: float):
        self.clock = clock
        # a negative, NaN or infinite cap would pace as uncapped (0)
        finite("rate_cap", rate_cap)
        # the pause after each send, computed once; a cap so small that
        # 1/rate_cap overflows would move the clock to inf
        self._interval = 1.0 / rate_cap if rate_cap else 0.0
        if not isfinite(self._interval):
            raise ValueError(f"rate_cap {rate_cap} is too small: 1/rate_cap overflows")
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
        seq = self._seq = self._seq + 1
        self.stats.sent += 1
        if self._interval:
            self.clock.sleep(self._interval)
        # tuple.__new__ skips the named tuple's generated __new__, a Python call
        return tuple.__new__(ProbeToken, (destination, ttl, sent_at, seq))

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
        """Emit one probe, then pace; returns its token.  The events due
        by the send time apply first."""
        if self._closed:
            self._check_open()
        state = self.state
        now = self.clock._now
        if now >= state.next_event_time:
            state.apply_events(now)
        outcome = state.route_probe(destination, ttl, now)
        token = self._emitted(destination, ttl, now)
        kind = outcome.kind
        if kind == TIME_EXCEEDED or kind == ECHO_REPLY:
            arrival = now + 2.0 * self.per_hop_delay * outcome.hops
            seq = token.seq
            self._replies[seq] = tuple.__new__(TransportReply, (token, outcome.source, kind, arrival, False))
            heappush(self._pending, (arrival, seq))
        else:
            self.stats.unanswered += 1
        return token

    def poll(self, deadline: float) -> list[TransportReply]:
        """Deliver replies.  Advances the virtual clock no further than the
        earliest pending arrival, or to the deadline when nothing is due."""
        if self._closed:
            self._check_open()
        clock = self.clock
        pending = self._pending
        now = min(pending[0][0], deadline) if pending else deadline
        if now > clock._now:
            clock._now = now
        else:
            now = clock._now
        out = []
        replies, matched = self._replies, self._matched
        while pending and pending[0][0] <= now:
            out.append(matched(replies.pop(heappop(pending)[1])))
        return out

    def expire(self, token: ProbeToken) -> None:
        """The caller timed this token out; a later arrival is flagged late."""
        if token.seq in self._replies:
            self._expired.add(token.seq)
