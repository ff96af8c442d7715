"""Backward tree measurement over a probe transport.

Probing starts at each destination's assumed distance and walks ttl
downward, stopping a branch as soon as the reply source at that ttl has
already been seen in this round.  Every probe yields exactly one record
(the reply source, or a star on timeout), so the probe count equals the
record count and the view over (hop, ttl) pairs is a tree.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from ipaddress import IPv4Address

from .model import MAX_TTL_DEFAULT, TTL_LIMIT, Ip, ProbeRecord, RawTraceTree, Star, dotted_quad
from .transport import TransportError

DEFAULT_TIMEOUT = 2.0  # seconds a probe waits for its reply


@dataclass
class TracetreeConfig:
    max_ttl: int = MAX_TTL_DEFAULT
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not 1 <= self.max_ttl <= TTL_LIMIT:
            raise ValueError(f"max_ttl must be in [1, {TTL_LIMIT}], got {self.max_ttl}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout}")


@dataclass(frozen=True)
class DestinationTask:
    destination: IPv4Address
    assumed_distance: int


@dataclass
class TracetreeStats:
    probes_sent: int = 0
    late_replies: int = 0
    duration: float = 0.0
    complete: bool = True


@dataclass
class TracetreeResult:
    raw: RawTraceTree
    distances: dict[IPv4Address, int | None]  # None: destination not seen
    stats: TracetreeStats


def tracetree(tasks, transport, config: TracetreeConfig | None = None, restart_from: int | None = None) -> TracetreeResult:
    """Run one backward tree measurement round.

    `restart_from` enables the distance-recovery rule the radar scheduler
    relies on: when the probe at a destination's assumed distance comes
    back without an echo from that destination (the distance was
    under-estimated), a fresh backward chain starts at `restart_from`
    within the same round.  Records from both chains are kept; the filter
    merges them.
    """
    config = config if config is not None else TracetreeConfig()
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no destination tasks")
    destinations = [t.destination for t in tasks]
    # the probe state is keyed by (address int, ttl); records and tokens
    # carry the caller's IPv4Address objects, so nothing is built per probe
    by_int = {d._ip: d for d in destinations}
    if len(by_int) != len(destinations):
        raise ValueError("duplicate destinations in task list")
    for task in tasks:
        if not 1 <= task.assumed_distance <= config.max_ttl:
            raise ValueError(
                f"assumed distance {task.assumed_distance} for {task.destination} "
                f"outside [1, {config.max_ttl}]"
            )
    if restart_from is not None and not 1 <= restart_from <= config.max_ttl:
        raise ValueError(f"restart_from {restart_from} outside [1, {config.max_ttl}]")

    transport.prepare(destinations)

    clock = transport.clock
    to_probe: deque[tuple[int, int]] = deque()
    queued: set[tuple[int, int]] = set()
    inflight: dict[tuple[int, int], object] = {}
    seen: set[tuple[int, int]] = set()
    records: list[ProbeRecord] = []
    hops: dict[int, Ip] = {}  # one Ip per replying address this round
    echo_at: dict[int, int] = {}
    assumed = {t.destination._ip: t.assumed_distance for t in tasks}
    reply_buffer: deque = deque()
    stats = TracetreeStats()
    started = clock.now()

    def push(d: int, ttl: int) -> None:
        # one probe per (destination, ttl) per round
        if ttl >= 1 and (d, ttl) not in queued:
            queued.add((d, ttl))
            to_probe.append((d, ttl))

    for d, distance in assumed.items():
        push(d, distance)

    def emit(source, ttl: int, d: int, echo_from_dest: bool) -> None:
        records.append(ProbeRecord(source, ttl, by_int[d]))
        if restart_from is not None and ttl == assumed[d] and not echo_from_dest:
            push(d, restart_from)

    def handle_reply(reply) -> None:
        key = (reply.token.destination._ip, reply.token.ttl)
        token = inflight.get(key)
        if token is None or token.seq != reply.token.seq or reply.late:
            # answer after the timeout (or a stray): ignored, counted
            stats.late_replies += 1
            return
        del inflight[key]
        d, ttl = key
        s = reply.source._ip
        source = hops.get(s)
        if source is None:
            source = hops[s] = Ip(reply.source)
        echo = s == d and reply.kind == "echo_reply"
        if echo:
            echo_at[d] = min(echo_at.get(d, ttl), ttl)
        emit(source, ttl, d, echo)
        if (s, ttl) not in seen:
            seen.add((s, ttl))
            if ttl > 1:
                push(d, ttl - 1)

    try:
        while to_probe or inflight:
            # each pass sends at most one probe and handles at most one reply
            if to_probe:
                key = to_probe.popleft()
                inflight[key] = transport.send(by_int[key[0]], key[1])
                stats.probes_sent += 1
            if not reply_buffer and inflight:
                if to_probe:
                    deadline = clock.now()
                else:
                    # tokens sit in send order, so the first one expires first
                    deadline = next(iter(inflight.values())).sent_at + config.timeout
                reply_buffer.extend(transport.poll(deadline))
            if reply_buffer:
                handle_reply(reply_buffer.popleft())
            now = clock.now()
            # tokens sit in send order and each key is sent once a round, so
            # the expired tokens are a prefix: sweep it and stop.  Same float
            # expression as the poll deadline (sent_at + timeout): a
            # subtraction here can disagree by one ulp and stall the sweep
            while inflight:
                key, token = next(iter(inflight.items()))
                if now < token.sent_at + config.timeout:
                    break
                del inflight[key]
                transport.expire(token)
                d, ttl = key
                emit(Star(dotted_quad(d)), ttl, d, False)
                if ttl > 1:
                    push(d, ttl - 1)
    except TransportError:
        stats.complete = False

    stats.duration = clock.now() - started
    raw = RawTraceTree.from_records(records)
    distances = {dest: echo_at.get(d) for d, dest in by_int.items()}
    return TracetreeResult(raw=raw, distances=distances, stats=stats)
