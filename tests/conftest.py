"""Shared fixtures: canonical topologies, small tree builders, the raw
graph reader, and the hop and curve helpers the tests share."""
from __future__ import annotations

import importlib.util
import json
import sys
from ipaddress import IPv4Address
from pathlib import Path
from typing import NamedTuple

import pytest

from netradar import cli, radar
from netradar.model import (
    FilteredTree,
    Hop,
    Ip,
    ProbeRecord,
    RadarDataset,
    RawTraceTree,
    RoundRecord,
    Star,
    TtlNode,
    ttl_links,
)
from netradar.simnet import Topology, load_topology


def addr(text) -> IPv4Address:
    return IPv4Address(text)


def hop(text: str) -> Hop:
    """'1.2.3.4' -> Ip; '*key' -> Star(key)."""
    if text.startswith("*"):
        return Star(text[1:])
    return Ip(IPv4Address(text))


def ip(address) -> Ip:
    """Build an Ip hop from anything IPv4Address accepts."""
    return Ip(IPv4Address(address))


def hop_sort_key(hop: Hop) -> tuple:
    """Sort key for hops: IPs first, ordered numerically octet by octet;
    stars last, ordered by their disambiguating key."""
    if isinstance(hop, Ip):
        return (0, hop._int, "")
    return (1, 0, hop.key)


def assert_same_columns(a: RawTraceTree, b: RawTraceTree) -> None:
    """`a` and `b` hold equal columns in the same container types, as
    every builder of a round must make them."""
    assert a == b
    assert type(a.sources) is type(b.sources) is list
    assert type(a.destinations) is type(b.destinations) is list
    assert a.keys.typecode == b.keys.typecode == "I"


class RawGraph(NamedTuple):
    """The (hop, ttl) graph a round's records imply."""

    nodes: set[TtlNode]
    edges: set[tuple[TtlNode, TtlNode]]  # (ttl t, ttl t+1)
    terminals: dict[IPv4Address, TtlNode]  # a destination's node at its highest ttl


def raw_graph(raw: RawTraceTree) -> RawGraph:
    """The graph of round `raw` by `ttl_links`, the one edge rule."""
    nodes = list(map(TtlNode, raw.sources, [key & 127 for key in raw.keys]))
    graph = ttl_links(raw.keys, nodes)
    return RawGraph(set(nodes), set(zip(graph.lows, graph.highs)), dict(zip(raw.destinations, graph.terminals)))


def reencode_as_raw(tree: FilteredTree) -> RawTraceTree:
    """Re-encode a filtered tree as probe records: for each destination,
    one record per node on its terminal's root path, at the node's depth
    in the tree.  The result is a valid round; filter_tree on it gives
    back the same tree (idempotence)."""
    records = []
    for destination, node in tree.terminals.items():
        path = []
        while node != tree.root:
            path.append(node)
            node = tree.parents[node]
        # terminal first, walking backward the way tree probing emits them
        for ttl, hop in zip(range(len(path), 0, -1), path):
            records.append(ProbeRecord(hop, ttl, destination))
    return RawTraceTree.from_records(records)


def dataset_observations(dataset: RadarDataset):
    """Adapt a radar dataset for baseline.cumulative_discovery_curves."""
    return [(rec.tree.observed_ips(), rec.probes_sent) for rec in dataset.rounds]


def step_value(curve, x) -> int:
    """Value of a cumulative step curve at coordinate x (0 before the
    first point)."""
    value = 0
    for cx, cy in curve:
        if cx > x:
            break
        value = cy
    return value


def make_tree(root: str, edges, terminals) -> FilteredTree:
    """Hand-build a FilteredTree from string hops.

    edges: [(parent, child), ...]; terminals: {destination: hop}.
    """
    root_hop = hop(root)
    parents = {}
    for p, c in edges:
        assert hop(c) not in parents, f"{c} listed as a child twice"
        parents[hop(c)] = hop(p)
    for p in parents.values():
        assert p == root_hop or p in parents, f"parent {p} is neither the root nor a child"
    terms = {IPv4Address(d): hop(h) for d, h in terminals.items()}
    return FilteredTree(root=root_hop, parents=parents, terminals=terms)


def dataset_from_trees(trees, first_index=0) -> RadarDataset:
    rounds = [
        RoundRecord(
            index=first_index + i,
            start_time=float(i),
            end_time=float(i) + 0.5,
            probes_sent=0,
            tree=tree,
        )
        for i, tree in enumerate(trees)
    ]
    return RadarDataset(rounds)


CHAIN_DOC = {
    "monitor": "mon",
    "nodes": {
        "mon": "10.0.0.1",
        "r1": "10.0.0.2",
        "r2": "10.0.0.3",
        "d": "10.0.0.4",
    },
    "links": [["mon", "r1"], ["r1", "r2"], ["r2", "d"]],
}


# rate-limit policies, as JSON text, that would answer every probe, round a
# burst, overflow or take a string or a bool for a count: a rate must be a
# finite number > 0, a burst a whole number >= 1
RATE_LIMITS_THAT_CANNOT_LIMIT = [
    pytest.param('{"rate": NaN, "burst": 1}', id="nan-rate"),
    pytest.param('{"rate": Infinity, "burst": 1}', id="infinite-rate"),
    pytest.param('{"rate": 1.0, "burst": 2.5}', id="fractional-burst"),
    pytest.param('{"rate": 1.0, "burst": Infinity}', id="infinite-burst"),
    pytest.param('{"rate": 1.0, "burst": "2"}', id="string-burst"),
    pytest.param('{"rate": 1.0, "burst": true}', id="bool-burst"),
    pytest.param('{"rate": "2", "burst": 1}', id="string-rate"),
    pytest.param('{"rate": true, "burst": 1}', id="bool-rate"),
]


def _malformed(id_: str, match: str, **changes) -> pytest.param:
    """A small topology with `changes` made to it that no loader may take."""
    doc = {
        "monitor": "m",
        "nodes": {"m": "10.0.0.1", "a": "10.0.0.2", "b": "10.0.0.3"},
        "links": [["m", "a"], ["m", "b"]],
    }
    nodes = changes.pop("nodes", {})
    doc["nodes"] = nodes if isinstance(nodes, list) else {**doc["nodes"], **nodes}
    return pytest.param({**doc, **changes}, match, id=id_)


# topology documents of the wrong shape or with a bad address, each with a
# part of the message that refuses it: none may load, end in a traceback or
# be coerced
MALFORMED_TOPOLOGIES = [
    _malformed("one-name-link", "a link must be a list of two node names", links=[["m"]]),
    _malformed("string-links", "a link must be a list of two node names", links="mm"),
    _malformed("three-name-link", "a link must be a list of two node names", links=[["m", "a", "b"]]),
    _malformed("node-list", "nodes must be an object", nodes=["m"]),
    _malformed("balancer-list", "balancers must be an object", balancers=["a"]),
    _malformed("string-cycle", "bad balancer spec", balancers={"m": {"per_packet": "ab"}}),
    _malformed("table-list", "must be an object", balancers={"m": {"per_destination": ["a"]}}),
    _malformed("bool-node", "node 'b' needs an address string, got True", nodes={"b": True}),
    _malformed("int-address", "node 'b' needs an address string, got 5", nodes={"b": {"address": 5}}),
    _malformed("string-time", "event time must be a number, got '7'", events=[{"at": "7", "remove_node": "b"}]),
    _malformed("bool-time", "event time must be a number, got True", events=[{"at": True, "remove_node": "b"}]),
    _malformed(
        "island-node-list",
        "island nodes must be an object",
        events=[{"at": 1.0, "add_island": {"nodes": ["x"], "links": []}}],
    ),
    # integers past the float range: no float() or isfinite() may overflow
    _malformed("huge-time", "event time must be a number, got 1000", events=[{"at": 10**400, "remove_node": "b"}]),
    _malformed(
        "huge-rate",
        "rate limit rate must be a finite number > 0",
        nodes={"b": {"address": "10.0.0.3", "policy": {"rate": 10**400}}},
    ),
    _malformed(
        "huge-burst",
        "rate limit burst must be a whole number >= 1",
        nodes={"b": {"address": "10.0.0.3", "policy": {"rate": 1, "burst": 10**400}}},
    ),
    # a bad address names the node, or the balancer, it belongs to
    _malformed("bad-address", "node 'b': Leading zeros are not permitted in '03'", nodes={"b": "10.0.0.03"}),
    _malformed("bad-object-address", "node 'b': Expected 4 octets in '10.0.0'", nodes={"b": {"address": "10.0.0"}}),
    _malformed(
        "bad-island-address",
        "node 'x': Expected 4 octets in '10.0.9'",
        events=[{"at": 1.0, "add_island": {"nodes": {"x": "10.0.9"}, "links": [["a", "x"]]}}],
    ),
    _malformed(
        "bad-balancer-key",
        "per-destination balancer at 'm': Leading zeros are not permitted in '02'",
        balancers={"m": {"per_destination": {"10.0.0.02": "a"}}},
    ),
]


def rate_limited_chain_json(policy: str) -> str:
    """The chain topology as JSON text, its r1 under the given policy."""
    nodes = dict(CHAIN_DOC["nodes"], r1={"address": "10.0.0.2", "policy": json.loads(policy)})
    return json.dumps(dict(CHAIN_DOC, nodes=nodes))


@pytest.fixture
def chain_topology() -> Topology:
    """monitor -> r1 -> r2 -> d, all responsive."""
    return load_topology(dict(CHAIN_DOC))


@pytest.fixture
def filter_calls(monkeypatch) -> list:
    """The raw trees filtered through the names the radar and the CLI
    call `filter_tree` by, in call order."""
    calls = []
    real = radar.filter_tree

    def spy(raw, root):
        calls.append(raw)
        return real(raw, root)

    monkeypatch.setattr(radar, "filter_tree", spy)
    monkeypatch.setattr(cli, "filter_tree", spy)
    return calls


def fig1_analog_doc() -> dict:
    """A topology exhibiting every pathology at once: a silent router, a
    per-destination balancer, a per-packet balancer, three destinations.

    monitor a -> b (per-destination balancer)
      b -> d -> g -> l(silent) -> n        (n at distance 5)
      b -> f -> j -> o                     (o at distance 4)
      b -> c -> e (per-packet: i | h) -> m -> p   (p at distance 6)
    """
    return {
        "monitor": "a",
        "nodes": {
            "a": "10.0.1.1",
            "b": "10.0.1.2",
            "c": "10.0.1.3",
            "d": "10.0.1.4",
            "e": "10.0.1.5",
            "f": "10.0.1.6",
            "g": "10.0.1.7",
            "h": "10.0.1.8",
            "i": "10.0.1.9",
            "j": "10.0.1.10",
            "l": {"address": "10.0.1.12", "policy": "silent"},
            "m": "10.0.1.13",
            "n": "10.0.1.14",
            "o": "10.0.1.15",
            "p": "10.0.1.16",
        },
        "links": [
            ["a", "b"],
            ["b", "c"],
            ["b", "d"],
            ["b", "f"],
            ["c", "e"],
            ["d", "g"],
            ["e", "h"],
            ["e", "i"],
            ["f", "j"],
            ["g", "l"],
            ["h", "m"],
            ["i", "m"],
            ["j", "o"],
            ["l", "n"],
            ["m", "p"],
        ],
        "balancers": {
            "b": {"per_destination": {"10.0.1.14": "d", "10.0.1.15": "f"}},
            "e": {"per_packet": ["i", "h"]},
        },
    }


@pytest.fixture
def fig1_topology() -> Topology:
    return load_topology(fig1_analog_doc())


def star_topology_doc(leaves: int) -> dict:
    """monitor -> hub -> leaf_i: every destination shares the first link."""
    nodes = {"mon": "10.1.0.1", "hub": "10.1.0.2"}
    links = [["mon", "hub"]]
    for i in range(leaves):
        name = f"leaf{i}"
        nodes[name] = str(IPv4Address(int(IPv4Address("10.1.1.0")) + i))
        links.append(["hub", name])
    return {"monitor": "mon", "nodes": nodes, "links": links}


def star_destinations(leaves: int) -> list[IPv4Address]:
    return [IPv4Address(int(IPv4Address("10.1.1.0")) + i) for i in range(leaves)]


def shared_prefix_doc() -> dict:
    """Two destinations behind a shared two-hop prefix.

    monitor -> r1 -> r2 -> {t1 -> d1, t2 -> d2}; both at distance 4.
    """
    return {
        "monitor": "mon",
        "nodes": {
            "mon": "10.2.0.1",
            "r1": "10.2.0.2",
            "r2": "10.2.0.3",
            "t1": "10.2.0.4",
            "t2": "10.2.0.5",
            "d1": "10.2.0.6",
            "d2": "10.2.0.7",
        },
        "links": [
            ["mon", "r1"],
            ["r1", "r2"],
            ["r2", "t1"],
            ["r2", "t2"],
            ["t1", "d1"],
            ["t2", "d2"],
        ],
    }


def perfbench_inet():
    """perfbench's Internet-like topology generator, imported read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inet.py"
    spec = importlib.util.spec_from_file_location("perfbench_inet", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module
