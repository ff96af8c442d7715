"""Deterministic hop-level topology simulator.

Ground truth for probe routing: a directed graph whose nodes carry an
address and a response policy (responsive, silent, or rate-limited),
per-destination and per-packet load balancers, and a schedule of scripted
topology changes, read from a JSON document into plain tables
(`load_topology`): a per-destination balancer is a dict from destination
address integer to next hop, a per-packet one the list of next hops it
cycles through, and an event a `(time, action)` pair.  Default
forwarding follows a deterministic shortest path (BFS with address-ordered
tie-breaks); a balancer overrides it at its node with any choice that is
a current out-link, so a choice whose link an event cut is passed over
until the link is back.  Serves as the default transport backend and as
the oracle in tests.

A probe is answered from a route entry per destination, memoized with
the BFS trees.  The entry holds the monitor's planned path and one
reply slot per hop of its balancer-free prefix, the hops before the
first balancer, filled when first asked for.  A ttl inside that prefix,
or any ttl when the whole path is balancer-free, is answered by one
index; a rate-limited node still spends its bucket.  Only a probe that
reaches the first balancer walks on, hop by hop, from there.

An event drops only what it may change.  An adjacency event (rewire,
island, node removal) recomputes the monitor's BFS tree at once and drops
the route entries whose path crosses a node that gained, lost or changed
its parent, and every entry without a path; trees from other starts,
read only past a balancer, are all dropped.  A policy change drops the
entries whose path holds its node.  Every other entry, and the address
map, are kept: they are what a rebuild would give.
"""
from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass, field
from ipaddress import AddressValueError, IPv4Address
from math import inf
from pathlib import Path
from typing import NamedTuple

from .model import parse_address


class TopologyError(ValueError):
    """A topology description violates the schema or its invariants."""


class ScenarioError(RuntimeError):
    """A scheduled event cannot be applied to the current topology."""


RESPONSIVE = "responsive"
SILENT = "silent"

TIME_EXCEEDED = "time_exceeded"
ECHO_REPLY = "echo_reply"
SILENCE = "silence"
UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class RateLimited:
    """Token-bucket reply limiting: `burst` replies at once, refilled
    continuously at `rate` per second."""

    rate: float
    burst: int = 1

    def __post_init__(self):
        # a NaN or an infinite rate refills the bucket at once: neither limits;
        # an infinite burst is no whole number, as inf % 1 is NaN
        _number(self.rate, lambda rate: 0 < rate < inf, "rate limit rate must be a finite number > 0")
        _number(self.burst, lambda burst: burst >= 1 and burst % 1 == 0, "rate limit burst must be a whole number >= 1")


@dataclass
class RewireLink:
    node: str
    remove: str | None = None
    add: str | None = None


@dataclass
class AddIsland:
    """Nodes and links grafted onto the running topology.  Links may
    reference pre-existing nodes, which is how islands attach."""

    nodes: dict[str, tuple[IPv4Address, object]]
    links: list[tuple[str, str]]


@dataclass
class RemoveNode:
    node: str


@dataclass
class ChangePolicy:
    node: str
    policy: object


@dataclass
class Topology:
    """Immutable loaded topology; run probes against a SimState built from it."""

    monitor: str
    addresses: dict[str, IPv4Address]
    policies: dict[str, object]
    links: dict[str, list[str]]
    # per-destination: destination address integer -> next hop;
    # per-packet: the next hops it cycles through
    balancers: dict[str, dict[int, str] | list[str]] = field(default_factory=dict)
    events: list[tuple[float, object]] = field(default_factory=list)  # (time, action), document order


class SimReply(NamedTuple):
    """Outcome of one probe.  `hops` is the distance of the node that
    answered (or would have answered), which drives the latency model."""

    kind: str
    source: IPv4Address | None
    hops: int


def _number(value, ok, *refusals: str) -> float:
    """A document value as a float, when it is a number the simulator can
    compute with and `ok` holds for it; otherwise TopologyError with the
    value and the first of `refusals`, or its last for a value that is no
    number: a bool, a string, an int past the float range."""
    number = type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    if number and ok(value):
        return float(value)
    raise TopologyError(f"{refusals[0 if number else -1]}, got {value!r}")


def _parse_policy(spec) -> object:
    if spec is None or spec == RESPONSIVE:
        return RESPONSIVE
    if spec == SILENT:
        return SILENT
    if isinstance(spec, dict) and "rate" in spec:
        return RateLimited(rate=spec["rate"], burst=spec.get("burst", 1))
    raise TopologyError(f"unknown response policy {spec!r}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TopologyError(f"{what} must be an object, got {value!r}")
    return value


def _link(pair) -> tuple[str, str]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TopologyError(f"a link must be a list of two node names, got {pair!r}")
    return str(pair[0]), str(pair[1])


def _parse_node(name: str, spec) -> tuple[IPv4Address, object]:
    address, policy = (spec.get("address"), spec.get("policy")) if isinstance(spec, dict) else (spec, None)
    if not isinstance(address, str):
        raise TopologyError(f"node {name!r} needs an address string, got {address!r}")
    try:
        return parse_address(address), _parse_policy(policy)
    except AddressValueError as exc:
        raise TopologyError(f"node {name!r}: {exc}") from None


def _parse_balancer(node: str, spec) -> dict[int, str] | list[str]:
    if isinstance(spec, dict) and "per_destination" in spec:
        table = _object(spec["per_destination"], f"per-destination balancer at {node!r}")
        try:
            return {int(parse_address(a)): str(n) for a, n in table.items()}
        except AddressValueError as exc:
            raise TopologyError(f"per-destination balancer at {node!r}: {exc}") from None
    if isinstance(spec, dict) and isinstance(spec.get("per_packet"), list):
        return [str(n) for n in spec["per_packet"]]
    raise TopologyError(f"bad balancer spec for node {node!r}")


def _parse_event(spec) -> tuple[float, object]:
    if not isinstance(spec, dict) or "at" not in spec:
        raise TopologyError(f"event needs an 'at' time: {spec!r}")
    # an event at NaN that sorted first would block every later event
    at = _number(spec["at"], lambda at: 0 <= at < inf, "event time must be a finite number >= 0", "event time must be a number")
    if "rewire" in spec:
        body = spec["rewire"]
        action = RewireLink(
            node=str(body["node"]),
            remove=str(body["remove"]) if body.get("remove") is not None else None,
            add=str(body["add"]) if body.get("add") is not None else None,
        )
    elif "add_island" in spec:
        body = spec["add_island"]
        island = _object(body.get("nodes", {}), "island nodes")
        nodes = {str(n): _parse_node(str(n), s) for n, s in island.items()}
        links = [_link(pair) for pair in body.get("links", [])]
        action = AddIsland(nodes=nodes, links=links)
    elif "remove_node" in spec:
        action = RemoveNode(node=str(spec["remove_node"]))
    elif "change_policy" in spec:
        body = spec["change_policy"]
        action = ChangePolicy(node=str(body["node"]), policy=_parse_policy(body.get("policy")))
    else:
        raise TopologyError(f"event has no recognised action: {spec!r}")
    return at, action


def load_topology(source) -> Topology:
    """Load and validate a topology from a dict, or from a UTF-8 JSON file
    named by a `str` path or a `Path`; any other source raises
    TopologyError.  A dict takes the same forms as a file:

        {"monitor": "m",
         "nodes": {"m": "10.0.0.1", "d": "10.0.0.5",
                   "a": {"address": "10.0.0.2", "policy": "silent"},
                   "b": {"address": "10.0.0.3", "policy": {"rate": 0.5, "burst": 2}},
                   "c": {"address": "10.0.0.4", "policy": "responsive"}},
         "links": [["m", "a"], ["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
         "balancers": {"a": {"per_destination": {"10.0.0.5": "c"}}, "c": {"per_packet": ["d"]}},
         "events": [{"at": 600, "change_policy": {"node": "a", "policy": "responsive"}},
                    {"at": 1200, "add_island": {"nodes": {"x": "10.0.9.1"}, "links": [["b", "x"]]}},
                    {"at": 1800, "rewire": {"node": "b", "remove": "d", "add": "x"}},
                    {"at": 2400, "remove_node": "x"}]}

    A node is its address, a dotted-quad string, or an object with one;
    a link is a list of two node names.  A policy defaults to
    "responsive", a rate limit's burst to 1.  A per-destination balancer
    sends the destinations it lists to their next hop, the rest along the
    shortest path; a per-packet one cycles through its next hops.  A
    choice whose link an event cut, or whose node it removed, leaves the
    probe on its shortest path.  An event applies one action at simulated
    time `at`, a number of seconds.

    The Topology holds plain tables: each balancer is a dict from
    destination address integer to next hop (per-destination) or the
    list of next hops it cycles through (per-packet), and each event a
    `(time, action)` pair, in document order.
    Raises TopologyError naming the offending element on any violation.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
                raise TopologyError(f"{source}: malformed JSON: {exc}") from None
    elif isinstance(source, dict):
        doc = source
    else:
        raise TopologyError(f"cannot load a topology from {type(source).__name__}")
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a JSON object")
    try:
        addresses, policies = {}, {}
        for name, spec in _object(doc.get("nodes") or {}, "nodes").items():
            addresses[str(name)], policies[str(name)] = _parse_node(str(name), spec)
        links: dict[str, list[str]] = {name: [] for name in addresses}
        for pair in doc.get("links") or []:
            u, v = _link(pair)
            links.setdefault(u, []).append(v)
        balancer_specs = _object(doc.get("balancers") or {}, "balancers")
        balancers = {str(n): _parse_balancer(str(n), s) for n, s in balancer_specs.items()}
        events = [_parse_event(e) for e in doc.get("events") or []]
        topo = Topology(
            monitor=str(doc.get("monitor", "")),
            addresses=addresses,
            policies=policies,
            links=links,
            balancers=balancers,
            events=events,
        )
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, TopologyError):
            raise
        raise TopologyError(f"bad topology document: {exc}") from exc
    _validate(topo)
    return topo


def _address_map(addresses: dict[str, IPv4Address], error: type[Exception]) -> dict[int, str]:
    """Each address, as an integer, to its node; `error` if two nodes share one."""
    nodes: dict[int, str] = {}
    for name, addr in addresses.items():
        other = nodes.setdefault(int(addr), name)
        if other != name:
            raise error(f"duplicate address {addr}: nodes {other!r} and {name!r}")
    return nodes


def _validate(topo: Topology) -> None:
    if topo.monitor not in topo.addresses:
        raise TopologyError(f"monitor {topo.monitor!r} is not a declared node")
    _address_map(topo.addresses, TopologyError)
    for u, targets in topo.links.items():
        if u not in topo.addresses:
            raise TopologyError(f"link endpoint {u!r} is not a declared node")
        for v in targets:
            if v not in topo.addresses:
                raise TopologyError(f"link endpoint {v!r} (from {u!r}) is not a declared node")
    for at, action in topo.events:
        if isinstance(action, RemoveNode) and action.node == topo.monitor:
            raise TopologyError(f"event at {at:g} removes the monitor {topo.monitor!r}")
    for node, balancer in topo.balancers.items():
        if node not in topo.addresses:
            raise TopologyError(f"balancer node {node!r} is not a declared node")
        per_packet = isinstance(balancer, list)
        if per_packet and not balancer:
            raise TopologyError(f"per-packet balancer at {node!r} has an empty cycle")
        neighbours = topo.links.get(node, ())
        for hop in balancer if per_packet else balancer.values():
            if hop not in neighbours:
                raise TopologyError(f"balancer next hop {hop!r} is not a neighbour of {node!r}")


class SimState:
    """Mutable simulation state: adjacency after applied events, balancer
    counters, rate-limit buckets, and memoized routing.  One logical owner
    at a time; the loaded Topology itself is never mutated."""

    def __init__(self, topology: Topology):
        self.monitor = topology.monitor
        self.addresses = dict(topology.addresses)
        self.policies = dict(topology.policies)
        # RemoveNode drops its node's balancer here, never from the topology
        self.balancers = dict(topology.balancers)
        self._adj = {u: self._out_links(vs) for u, vs in topology.links.items()}
        # the schedule in time order (ties in document order), applied from
        # its front; next_event_time is the time of the first event not yet
        # applied, inf once none is left
        self._pending = deque(sorted(topology.events, key=lambda event: event[0]))
        self.next_event_time = self._pending[0][0] if self._pending else inf
        self._applied_time = -inf
        self._pp_counters: dict[str, int] = {}
        self._buckets: dict[str, list[float]] = {}
        # routing is keyed by the address integer, never by IPv4Address
        self._addr_to_node = _address_map(self.addresses, ScenarioError)
        self._parents: dict[str, dict[str, str]] = {}  # BFS parent map per start node
        self._routes: dict[int, tuple] = {}  # route entry per destination (see _route)

    # -- events ------------------------------------------------------------

    def apply_events(self, up_to_time: float) -> None:
        """Apply every scheduled event timed at or before up_to_time, in order.
        Times must be non-decreasing across calls (NaN never is)."""
        if not up_to_time >= self._applied_time:
            raise ScenarioError(
                f"event clock must not go backwards or be NaN: {up_to_time} after {self._applied_time}"
            )
        self._applied_time = up_to_time
        pending = self._pending
        while self.next_event_time <= up_to_time:
            action = pending.popleft()[1]
            self.next_event_time = pending[0][0] if pending else inf
            self._apply(action)

    def _invalidate_routes(self) -> None:
        """Drop what an adjacency event may have moved and keep the rest.

        The monitor's tree is recomputed and compared with the one it
        replaces.  A route entry is dropped when it has no path (it may have
        one now) or when its path holds a node whose parent changed,
        appeared or vanished.  A kept entry's path is the new tree's, and so
        are its prefix and reply slots: an adjacency event changes no
        policy, no address of a kept node and no balancer but a removed
        node's, and the walk reads a balancer's links at probe time.  Its
        destination still maps to its target, since a removed target
        vanishes from the tree and an added address had no path.  Trees
        from every other start are dropped."""
        old = self._parents.get(self.monitor, {})
        self._parents = {}
        new = self._bfs(self.monitor)
        moved = {node for node, _ in old.items() ^ new.items()}
        routes = self._routes
        for d in [d for d, (_, plan, _) in routes.items() if plan is None or not moved.isdisjoint(plan)]:
            del routes[d]

    def _out_links(self, targets) -> list[str]:
        """Out-links: each target once (a link listed twice is one), in address order."""
        return sorted(set(targets), key=lambda v: int(self.addresses[v]))

    def _require_node(self, name: str, action: str) -> None:
        if name not in self.addresses:
            raise ScenarioError(f"{action} references unknown node {name!r}")

    def _apply(self, action) -> None:
        """Apply one event's action, or raise ScenarioError before changing
        anything: every node it names and every address it adds is checked
        first."""
        if isinstance(action, RewireLink):
            node, remove, add = action.node, action.remove, action.add
            self._require_node(node, "rewire")
            targets = self._adj.get(node, [])
            if remove is not None and remove not in targets:
                raise ScenarioError(f"rewire: no link {node!r} -> {remove!r} to remove")
            if add is not None:
                self._require_node(add, "rewire")
            kept = [v for v in targets if v != remove]
            self._adj[node] = kept if add is None else self._out_links([*kept, add])
        elif isinstance(action, AddIsland):
            for name in action.nodes:
                if name in self.addresses:
                    raise ScenarioError(f"island node {name!r} already exists")
            for u, v in action.links:
                for end in (u, v):
                    if end not in action.nodes:
                        self._require_node(end, "island link")
            island = {name: addr for name, (addr, _) in action.nodes.items()}
            owners = _address_map({**self.addresses, **island}, ScenarioError)
            for name, (addr, policy) in action.nodes.items():
                self.addresses[name] = addr
                self.policies[name] = policy
                self._adj[name] = []
            self._addr_to_node = owners
            for u, v in action.links:
                self._adj[u] = self._out_links([*self._adj.get(u, ()), v])
        elif isinstance(action, RemoveNode):
            node = action.node
            self._require_node(node, "remove_node")
            if node == self.monitor:
                raise ScenarioError(f"remove_node: {node!r} is the monitor")
            del self._addr_to_node[int(self.addresses.pop(node))]
            del self.policies[node]
            self._adj.pop(node, None)
            self.balancers.pop(node, None)
            for targets in self._adj.values():
                if node in targets:
                    targets.remove(node)
        elif isinstance(action, ChangePolicy):
            node = action.node
            self._require_node(node, "change_policy")
            self.policies[node] = action.policy
            # a policy moves no path; only the reply slots of a path through it name it
            routes = self._routes
            for d in [d for d, (_, plan, _) in routes.items() if plan is not None and node in plan]:
                del routes[d]
            return
        else:
            raise ScenarioError(f"unknown event action {action!r}")
        self._invalidate_routes()

    # -- routing -----------------------------------------------------------

    def prepare_destinations(self, destinations) -> None:
        """Warm the route table for a batch of destinations."""
        routes = self._routes
        for destination in destinations:
            d = destination._ip
            if d not in routes:
                self._route(d)

    def _bfs(self, start: str) -> dict[str, str]:
        """Parent map of a breadth-first search from `start`, neighbours in
        address order; cached per start until an adjacency event."""
        parents = self._parents.get(start)
        if parents is None:
            parents = {}
            visited = {start}
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for nxt in self._adj.get(node, ()):
                    if nxt not in visited:
                        visited.add(nxt)
                        parents[nxt] = node
                        queue.append(nxt)
            self._parents[start] = parents
        return parents

    def _path_from(self, start: str, dest: int) -> tuple[str, ...] | None:
        """The path to the node of address `dest` in `start`'s BFS tree, or None."""
        target = self._addr_to_node.get(dest)
        parents = self._bfs(start)
        if target != start and target not in parents:
            return None
        chain = [target]
        while chain[-1] != start:
            chain.append(parents[chain[-1]])
        return tuple(reversed(chain))

    def _route(self, d: int) -> tuple:
        """Memoize and return the route entry of destination `d`:
        `(replies, plan, clear)`.

        `plan` is the monitor's planned path (None: no path).  `replies`
        has one slot per hop of the plan's balancer-free prefix, the hops
        before the first node in `self.balancers`, whatever links its
        choices name; `_prefix_reply` fills a slot when a probe first asks
        for it.  `clear` is true when the whole path up to the target is
        balancer-free, so every ttl beyond it draws the target's echo.  A
        path of length 1 (the destination is the monitor) or none has an
        empty prefix and is never clear: the walk answers it.

        An entry outlives an event that leaves its path alone: an adjacency
        event drops it when its path moved or it had none
        (`_invalidate_routes`), a policy change when its path holds the
        node."""
        plan = self._path_from(self.monitor, d)
        last = 0 if plan is None else len(plan) - 1
        free = 0
        while free < last and plan[free] not in self.balancers:
            free += 1
        route = self._routes[d] = ([None] * free, plan, 0 < free == last)
        return route

    def _prefix_reply(self, replies: list, plan: tuple[str, ...], hops: int):
        """Fill and return the slot of `hops` in a route entry's replies:
        the SimReply of a responsive or silent node, which never changes,
        or the `_respond` arguments `(node, kind, hops)` of a rate-limited
        one, whose bucket decides at probe time."""
        node = plan[hops]
        key = (node, ECHO_REPLY if hops == len(plan) - 1 else TIME_EXCEEDED, hops)
        rate_limited = isinstance(self.policies.get(node), RateLimited)
        # without a bucket, at_time plays no part in the reply
        replies[hops - 1] = key if rate_limited else self._respond(*key, 0.0)
        return replies[hops - 1]

    def route_probe(self, destination: IPv4Address, ttl: int, at_time: float) -> SimReply:
        """Send one probe from the monitor towards `destination`, spending
        one ttl per hop.

        A ttl inside the route entry's balancer-free prefix (`_route`) is
        answered by one index, and so is any ttl beyond the target when
        the whole path is balancer-free.  Otherwise the probe walks hop by
        hop from the first balancer on the plan (from the monitor when
        there is no plan or the destination is the monitor), exactly as a
        walk from the monitor would after crossing the prefix, taking a
        balancer's choice only when it is a current out-link.
        Deterministic given the current state; per-packet balancer
        counters advance exactly once per traversal, choice taken or not,
        and a rate-limited node's bucket once per reply it is asked for."""
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        d = destination._ip
        replies, plan, clear = self._routes.get(d) or self._route(d)
        free = len(replies)
        if ttl <= free or clear:
            hops = ttl if ttl <= free else free
            reply = replies[hops - 1] or self._prefix_reply(replies, plan, hops)
            if reply.__class__ is SimReply:
                return reply
            return self._respond(*reply, at_time)
        target = self._addr_to_node.get(d)
        adj = self._adj
        balancers = self.balancers
        node = self.monitor if plan is None else plan[free]
        plan_pos = free
        for hop_index in range(free + 1, ttl + 1):
            planned = None
            if plan is not None and plan_pos + 1 < len(plan):
                planned = plan[plan_pos + 1]
            nxt = planned
            balancer = balancers.get(node)
            if balancer is not None:
                if isinstance(balancer, list):
                    count = self._pp_counters.get(node, 0)
                    self._pp_counters[node] = count + 1
                    choice = balancer[count % len(balancer)]
                else:
                    choice = balancer.get(d)
                if choice in adj[node]:
                    nxt = choice
            if nxt is None:
                return SimReply(UNREACHABLE, None, hop_index)
            if nxt == planned:
                plan_pos += 1
            else:
                plan = self._path_from(nxt, d)
                plan_pos = 0
            node = nxt
            if node == target:
                return self._respond(node, ECHO_REPLY, hop_index, at_time)
        return self._respond(node, TIME_EXCEEDED, ttl, at_time)

    def _respond(self, node: str, kind: str, hops: int, at_time: float) -> SimReply:
        policy = self.policies.get(node, RESPONSIVE)
        if policy == SILENT:
            return SimReply(SILENCE, None, hops)
        if isinstance(policy, RateLimited):
            bucket = self._buckets.get(node)
            if bucket is None:
                bucket = [float(policy.burst), at_time]
                self._buckets[node] = bucket
            tokens, last = bucket
            tokens = min(float(policy.burst), tokens + (at_time - last) * policy.rate)
            bucket[1] = at_time
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                return SimReply(kind, self.addresses[node], hops)
            bucket[0] = tokens
            return SimReply(SILENCE, None, hops)
        return SimReply(kind, self.addresses[node], hops)
