"""Classic per-destination traceroute and the probing-cost comparisons.

Traceroute probes every destination independently, ttl 1 upward, which
re-discovers shared path prefixes once per destination.  The analyses
here quantify that against tree probing over traceroute rounds
(`RawTraceTree`s, as every module passes them): simulated tree
measurements, link-load histograms, destination-subset simulation, and
cumulative discovery curves.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import replace
from ipaddress import IPv4Address

from .model import FilteredTree, Hop, Ip, ProbeRecord, RadarDataset, RawTraceTree, Star, TtlNode, ttl_links
from .tracetree import TracetreeConfig


def record_ips(raw: RawTraceTree) -> set[IPv4Address]:
    """Distinct addresses that answered in round `raw`; stars do not count."""
    return {hop.address for hop in raw.sources if isinstance(hop, Ip)}


def _await_reply(transport, token, timeout):
    """Wait for the reply to one token; None on timeout.  Stray late
    arrivals from earlier probes are discarded: the token itself expires
    only when the wait gives up, so its own reply is never late."""
    clock = transport.clock
    expiry = token.sent_at + timeout
    while True:
        for reply in transport.poll(expiry):
            if reply.token.seq == token.seq:
                return reply
        if clock.now() >= expiry:
            transport.expire(token)
            return None


def traceroute_round(destinations, transport, config: TracetreeConfig) -> RawTraceTree:
    """Probe each destination independently, ttl 1 up to max_ttl, stopping
    at the first echo from the destination.  One probe per (destination,
    ttl), destination by destination, ttl upward; stars mark timeouts.
    A destination listed twice raises ValueError before any probe."""
    destinations = list(destinations)
    if len(set(destinations)) < len(destinations):
        raise ValueError("duplicate destinations")
    transport.prepare(destinations)
    records: list[ProbeRecord] = []
    for destination in destinations:
        for ttl in range(1, config.max_ttl + 1):
            token = transport.send(destination, ttl)
            reply = _await_reply(transport, token, config.timeout)
            hop: Hop = Star(str(destination)) if reply is None else Ip(reply.source)
            records.append(ProbeRecord(hop, ttl, destination))
            if reply is not None and reply.kind == "echo_reply" and reply.source == destination:
                break
    return RawTraceTree.from_records(records)


def simulate_tracetree_from_traceroute(raw: RawTraceTree) -> RawTraceTree:
    """Replay the tree-probing stopping rule over a traceroute round: walk
    each destination's route backward from its terminal, stop at the
    first (hop, ttl) already seen.  Yields the round a tree measurement
    would have produced had routing matched the recorded routes."""
    routes: list[list] = [[] for _ in raw.destinations]  # per destination: (key, hop), ttl upward
    for key, hop in sorted(zip(raw.keys, raw.sources), key=lambda pair: pair[0]):
        routes[key >> 7].append((key, hop))
    seen: set[TtlNode] = set()
    sources: list = []
    keys = array("I")
    for route in routes:
        for key, hop in reversed(route):
            sources.append(hop)
            keys.append(key)
            if isinstance(hop, Ip):
                node = TtlNode(hop, key & 127)
                if node in seen:
                    break
                seen.add(node)
    return RawTraceTree(sources, keys, raw.destinations[:])


def link_load_distribution(raw: RawTraceTree, first_hops: bool) -> dict[int, int]:
    """Histogram of link discovery counts: for each directed (hop, ttl)
    link in round `raw`, how many destinations discovered it, bucketed as
    {times_discovered: number_of_links}.

    `first_hops` counts the monitor's link to each ttl-1 hop too
    (traceroute routes start at the monitor); tree-measurement chains
    pass False, as partial chains do not re-traverse the link into their
    junction.
    """
    nodes = [TtlNode(hop, key & 127) for hop, key in zip(raw.sources, raw.keys)]
    # a (destination, ttl) holds one node, so each link counts once per
    # destination
    graph = ttl_links(raw.keys, nodes)
    loads = Counter(zip(graph.lows, graph.highs))
    if first_hops:
        loads.update((None, node) for node in graph.heads)  # None: the monitor
    return dict(Counter(loads.values()))


def simulate_destination_subset(dataset: RadarDataset, subset) -> RadarDataset:
    """What the dataset would have shown had only `subset` been probed:
    per round, keep exactly the nodes and links on paths towards kept
    destinations.  Probe counts are left untouched (nothing is re-sent).
    A destination is known when some round has a terminal for it."""
    subset = set(subset)
    known = {destination for rec in dataset.rounds for destination in rec.tree.terminals}
    unknown = subset - known
    if unknown:
        raise ValueError(f"subset contains unknown destinations: {sorted(map(str, unknown))}")
    rounds = []
    for rec in dataset.rounds:
        tree = rec.tree
        parents: dict[Hop, Hop] = {}
        terminals = {}
        for destination in sorted(subset):
            terminal = tree.terminals.get(destination)
            if terminal is None:
                continue
            terminals[destination] = terminal
            node = terminal
            while node != tree.root and node not in parents:
                parent = tree.parents[node]
                parents[node] = parent
                node = parent
        rounds.append(replace(rec, tree=FilteredTree(tree.root, parents, terminals), raw=None))
    return RadarDataset(rounds)


def cumulative_discovery_curves(observations):
    """Cumulative distinct-address curves from per-round observations
    [(address_set, packets_sent), ...].

    Returns (rounds_curve, packets_curve): [(rounds_so_far, addresses)]
    and [(packets_so_far, addresses)], both monotone non-decreasing.
    """
    rounds_curve = []
    packets_curve = []
    seen: set = set()
    packets = 0
    for count, (addresses, sent) in enumerate(observations, start=1):
        seen |= set(addresses)
        packets += sent
        rounds_curve.append((count, len(seen)))
        packets_curve.append((packets, len(seen)))
    return rounds_curve, packets_curve

