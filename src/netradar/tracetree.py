"""Backward tree measurement over a probe transport.

Probing starts at each destination's assumed distance and walks ttl
downward, stopping a branch as soon as the reply source at that ttl has
already been seen in this round.  Every probe yields exactly one record
(the reply source, or a star on timeout), so the probe count equals the
record count and the view over (hop, ttl) pairs is a tree.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from ipaddress import IPv4Address

from .model import MAX_TTL_DEFAULT, TTL_LIMIT, Ip, RawTraceTree, Star, dotted_quad, finite
from .transport import ProbeToken, TransportError

DEFAULT_TIMEOUT = 2.0  # seconds a probe waits for its reply


@dataclass
class TracetreeConfig:
    max_ttl: int = MAX_TTL_DEFAULT
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not 1 <= self.max_ttl <= TTL_LIMIT:
            raise ValueError(f"max_ttl must be in [1, {TTL_LIMIT}], got {self.max_ttl}")
        finite("timeout", self.timeout, positive=True)


@dataclass(frozen=True)
class DestinationTask:
    destination: IPv4Address
    assumed_distance: int


@dataclass
class TracetreeStats:
    probes_sent: int = 0
    late_replies: int = 0
    complete: bool = True


@dataclass
class TracetreeResult:
    raw: RawTraceTree
    distances: dict[IPv4Address, int | None]  # None: destination not seen
    stats: TracetreeStats
    hops: dict[int, Ip]  # address int -> Ip, for every address that answered


def tracetree(
    tasks,
    transport,
    config: TracetreeConfig,
    *,
    restart_from: int | None,
    hops: dict[int, Ip] | None,
) -> TracetreeResult:
    """Run one backward tree measurement round.

    `restart_from`, unless None, enables the distance-recovery rule the
    radar scheduler relies on: when the probe at a destination's assumed
    distance comes back without an echo from that destination (the
    distance was under-estimated), a fresh backward chain starts at
    `restart_from` within the same round.  Records from both chains are
    kept; the filter merges them.

    `hops` is the previous round's address table (`TracetreeResult.hops`,
    or None): a reply from an address in it is recorded with that table's
    `Ip`, so the rounds of a run share one `Ip` per address.  The returned
    table holds only the addresses that answered this round.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no destination tasks")
    destinations = [t.destination for t in tasks]
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

    # One int per probe: the destination integer << 7 | ttl (ttl <= TTL_LIMIT
    # < 128); `seen` packs the reply source the same way.  A record is two
    # appends, its hop to `sources` and `index << 7 | ttl` to `keys`, where
    # `index` numbers its destination in first-record order.  Records carry
    # the caller's IPv4Address objects and the Ips of the carried `hops`
    # table, so consecutive rounds share one Ip per address and a steady
    # round builds no address object.
    clock = transport.clock
    send = transport.send
    timeout = config.timeout
    first = [t.destination._ip << 7 | t.assumed_distance for t in tasks]
    to_probe: deque[int] = deque(first)
    queued: set[int] = set(first)
    # a non-echo outcome at one of these keys (a destination's assumed
    # distance) restarts its chain at restart_from
    restart_keys = set(first) if restart_from is not None else set()
    inflight: dict[int, ProbeToken] = {}
    expiry: deque[tuple[float, int]] = deque()  # (deadline, key), in send order
    seen: set[int] = set()
    sources: list = []
    keys = array("I")
    add_source, add_key = sources.append, keys.append
    index_of: dict[int, int] = {}  # destination integer -> its index, in first-record order
    previous = hops if hops is not None else {}
    hops = {}
    echo_at: dict[int, int] = {}
    reply_buffer: deque = deque()
    stats = TracetreeStats()
    probes = 0

    try:
        while to_probe or inflight:
            # each pass sends at most one probe and handles at most one reply
            if to_probe:
                key = to_probe.popleft()
                token = inflight[key] = send(by_int[key >> 7], key & 127)
                # the poll deadline and the sweep read this one float, so
                # they cannot disagree by an ulp and stall the round
                expiry.append((token.sent_at + timeout, key))
                probes += 1
            if not reply_buffer and inflight:
                if to_probe:
                    deadline = clock.now()
                else:
                    # the first live entry expires first; answered ones drop out
                    while expiry[0][1] not in inflight:
                        expiry.popleft()
                    deadline = expiry[0][0]
                reply_buffer.extend(transport.poll(deadline))
            reply = reply_buffer.popleft() if reply_buffer else None
            now = clock.now()
            # outcomes in order: the reply, then every probe whose deadline
            # has passed (a prefix of `expiry`) as a star
            while True:
                if reply is not None:
                    token = reply.token
                    key = token.destination._ip << 7 | token.ttl
                    # a transport hands back the token send() returned; a token
                    # leaves `inflight` before it expires, so a late one is not in it
                    if inflight.get(key) is not token:
                        # answer after the timeout (or a stray): ignored, counted
                        stats.late_replies += 1
                        reply = None
                        continue
                    del inflight[key]
                    d = key >> 7
                    ttl = key & 127
                    s = reply.source._ip
                    source = hops.get(s)
                    if source is None:
                        source = previous.get(s) or Ip(reply.source)
                        hops[s] = source
                    echo = s == d and reply.kind == "echo_reply"
                    if echo and ttl < echo_at.get(d, TTL_LIMIT + 1):
                        echo_at[d] = ttl
                    sighting = s << 7 | ttl
                    fresh = sighting not in seen
                    if fresh:
                        seen.add(sighting)
                    reply = None
                elif expiry and expiry[0][0] <= now:
                    key = expiry.popleft()[1]
                    token = inflight.pop(key, None)
                    if token is None:
                        continue  # answered before its deadline
                    transport.expire(token)
                    d = key >> 7
                    ttl = key & 127
                    source = Star(dotted_quad(d))
                    echo = False
                    fresh = True
                else:
                    break
                index = index_of.get(d)
                if index is None:
                    index = index_of[d] = len(index_of)
                add_source(source)
                add_key(index << 7 | ttl)
                # the restart chain is queued first, then the next hop down
                # below a fresh sighting or a star
                pushes = (key - 1,) if fresh else ()
                if not echo and key in restart_keys:
                    pushes = (key - ttl + restart_from, *pushes)
                for nxt in pushes:
                    # the push rule: one probe per (destination, ttl >= 1) per round
                    if nxt & 127 and nxt not in queued:
                        queued.add(nxt)
                        to_probe.append(nxt)
    except TransportError:
        stats.complete = False

    stats.probes_sent = probes
    # exact-size copies: a kept round holds no growth slack
    raw = RawTraceTree(sources[:], keys[:], [by_int[d] for d in index_of])
    distances = {dest: echo_at.get(d) for d, dest in by_int.items()}
    return TracetreeResult(raw=raw, distances=distances, stats=stats, hops=hops)
