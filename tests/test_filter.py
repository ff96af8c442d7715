"""The six-stage filter: stage semantics, invariants, idempotence."""
from __future__ import annotations

import random
from ipaddress import IPv4Address

import pytest

from netradar.baseline import simulate_tracetree_from_traceroute
from netradar.filtering import filter_tree, reencode_as_raw, tree_to_dot
from netradar.model import (
    Ip,
    ProbeRecord,
    RawTraceTree,
    Star,
    TtlNode,
    hop_sort_key,
    ip,
    parse_round_log,
    serialize_round,
)

MONITOR = ip("10.0.0.1")


def rec(source: str, ttl: int, dest: str) -> ProbeRecord:
    destination = IPv4Address(dest)
    if source == "*":
        return ProbeRecord(Star(str(destination)), ttl, destination)
    return ProbeRecord(ip(source), ttl, destination)


class TestStageByStage:
    def test_plain_chain_is_fixed_point(self):
        # already a tree with distinct addresses: isomorphic output, zero counters
        records = [
            rec("10.0.0.4", 3, "10.0.0.4"),
            rec("10.0.0.3", 2, "10.0.0.4"),
            rec("10.0.0.2", 1, "10.0.0.4"),
        ]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        assert tree.nodes == {MONITOR, ip("10.0.0.2"), ip("10.0.0.3"), ip("10.0.0.4")}
        assert tree.edges == {
            (MONITOR, ip("10.0.0.2")),
            (ip("10.0.0.2"), ip("10.0.0.3")),
            (ip("10.0.0.3"), ip("10.0.0.4")),
        }
        assert (
            report.merged_ip_nodes,
            report.loops_removed,
            report.stars_pruned,
            report.stars_merged,
            report.leaves_pruned,
        ) == (0, 0, 0, 0, 0)

    def test_routing_loop_merges_to_single_node(self):
        # X appears at ttl 2 and 4 on one path: one node X, loop contracted
        records = [
            rec("10.0.0.9", 5, "10.0.0.9"),  # destination echo
            rec("10.0.0.3", 4, "10.0.0.9"),  # X again
            rec("10.0.0.4", 3, "10.0.0.9"),  # Y
            rec("10.0.0.3", 2, "10.0.0.9"),  # X
            rec("10.0.0.2", 1, "10.0.0.9"),  # W
        ]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        x = ip("10.0.0.3")
        assert report.merged_ip_nodes == 1
        assert x in tree.nodes
        # Y became a non-terminal leaf behind the contracted loop and was pruned
        assert ip("10.0.0.4") not in tree.nodes
        assert tree.nodes == {MONITOR, ip("10.0.0.2"), x, ip("10.0.0.9")}
        assert tree.terminals[IPv4Address("10.0.0.9")] == ip("10.0.0.9")

    def test_adjacent_self_loop_removed(self):
        # over-estimated distance: the destination answers at adjacent ttls
        records = [
            rec("10.0.0.9", 4, "10.0.0.9"),
            rec("10.0.0.9", 3, "10.0.0.9"),
            rec("10.0.0.2", 2, "10.0.0.9"),
            rec("10.0.0.3", 1, "10.0.0.9"),
        ]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        assert report.loops_removed == 1
        assert report.merged_ip_nodes == 1
        dest = ip("10.0.0.9")
        assert (dest, dest) not in tree.edges

    def test_sibling_stars_merge_under_one_parent(self):
        # node A with star children from two destinations' timeouts
        records = [
            rec("*", 3, "10.9.0.1"),
            rec("10.0.0.5", 2, "10.9.0.1"),  # A
            rec("10.0.0.2", 1, "10.9.0.1"),
            rec("*", 3, "10.9.0.2"),
            rec("10.0.0.5", 2, "10.9.0.2"),
        ]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        stars = [n for n in tree.nodes if isinstance(n, Star)]
        assert len(stars) == 1
        assert report.stars_merged == 1
        parents = tree.parents
        assert parents[stars[0]] == ip("10.0.0.5")
        # both destinations terminate at the merged star
        assert tree.terminals[IPv4Address("10.9.0.1")] == stars[0]
        assert tree.terminals[IPv4Address("10.9.0.2")] == stars[0]

    def test_dangling_star_pruned_terminal_star_kept(self):
        # d1's chain bridges ttl 5; d2 has a dangling mid-chain star at ttl 3
        # (no ttl-4 record) plus a terminal at ttl 6
        records = [
            rec("10.0.0.2", 1, "10.9.0.1"),
            rec("10.0.0.3", 2, "10.9.0.1"),
            rec("10.0.0.4", 3, "10.9.0.1"),
            rec("10.0.0.5", 4, "10.9.0.1"),
            rec("10.0.0.6", 5, "10.9.0.1"),
            rec("*", 3, "10.9.0.2"),  # dangling: no successor, not a terminal
            rec("10.0.0.6", 5, "10.9.0.2"),
            rec("10.0.0.7", 6, "10.9.0.2"),  # d2's terminal
            rec("10.0.0.3", 2, "10.9.0.2"),
            rec("10.0.0.2", 1, "10.9.0.2"),
        ]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        assert report.stars_pruned == 1
        assert not [n for n in tree.nodes if isinstance(n, Star)]
        assert tree.terminals[IPv4Address("10.9.0.2")] == ip("10.0.0.7")

    def test_all_star_chain_keeps_terminal_star(self):
        # unreachable destination: the chain-top star is the terminal and survives
        records = [rec("*", t, "10.9.0.1") for t in range(4, 0, -1)]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        stars = [n for n in tree.nodes if isinstance(n, Star)]
        assert len(stars) == 4
        assert report.stars_pruned == 0
        terminal = tree.terminals[IPv4Address("10.9.0.1")]
        assert isinstance(terminal, Star)
        children = tree.children_map()
        assert children[terminal] == []

    def test_bfs_prefers_numeric_order_and_ips_before_stars(self):
        # 9.0.0.0 sorts before 10.0.0.0 (numeric octets, not strings);
        # a star child sorts after both
        records = [
            rec("10.0.0.0", 2, "10.9.0.2"),
            rec("10.0.0.5", 1, "10.9.0.2"),
            rec("9.0.0.0", 2, "10.9.0.1"),
            rec("10.0.0.5", 1, "10.9.0.1"),
            rec("*", 2, "10.9.0.3"),
            rec("10.0.0.5", 1, "10.9.0.3"),
        ]
        tree, _ = filter_tree(RawTraceTree.from_records(records), MONITOR)
        tree.validate()
        children = tree.children_map()[ip("10.0.0.5")]
        ordered = sorted(children, key=hop_sort_key)
        assert [str(h) for h in ordered] == ["9.0.0.0", "10.0.0.0", "*"]

    def test_unreachable_input_is_degenerate(self):
        # nothing at ttl 1: nothing attaches to the monitor
        records = [rec("10.0.0.3", 3, "10.9.0.1"), rec("10.0.0.2", 2, "10.9.0.1")]
        tree, report = filter_tree(RawTraceTree.from_records(records), MONITOR)
        assert report.degenerate
        assert tree.nodes == {MONITOR}
        assert tree.edges == set()

    def test_empty_input(self):
        tree, report = filter_tree(RawTraceTree.from_records([]), MONITOR)
        assert tree.nodes == {MONITOR}
        assert not report.degenerate


def random_routes(rng: random.Random, loops=True, stars=True):
    """Random per-destination routes with shared prefixes, repeated
    addresses (routing loops), and stars; replayed through the
    tree-probing stopping rule to get measurement-shaped records."""
    pool = [f"10.20.{i // 200}.{i % 200}" for i in range(60)]
    routes = {}
    n_dest = rng.randint(1, 6)
    shared_prefix = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    for d in range(n_dest):
        dest = IPv4Address(f"10.30.0.{d}")
        length = rng.randint(1, 10)
        hops = []
        for ttl in range(1, length + 1):
            if ttl <= len(shared_prefix) and rng.random() < 0.7:
                address = shared_prefix[ttl - 1]
            else:
                address = rng.choice(pool)
            if stars and rng.random() < 0.15:
                hops.append(TtlNode(Star(str(dest)), ttl))
                continue
            if loops and hops and rng.random() < 0.1:
                prior = [n.hop for n in hops if isinstance(n.hop, Ip)]
                if prior:
                    hops.append(TtlNode(rng.choice(prior), ttl))
                    continue
            hops.append(TtlNode(ip(address), ttl))
        routes[dest] = hops
    return routes


class TestFilterInvariants:
    def test_randomized_inputs_satisfy_tree_invariants(self):
        rng = random.Random(1234)
        for _ in range(300):
            raw = simulate_tracetree_from_traceroute(random_routes(rng))
            tree, _ = filter_tree(raw, MONITOR)
            tree.validate()
            # no invented addresses
            input_ips = {n.hop.address for n in raw.nodes if isinstance(n.hop, Ip)}
            assert tree.observed_ips() <= input_ips
            # destinations with records keep a terminal unless unreachable
            for dest, terminal in raw.terminals.items():
                if dest in tree.terminals:
                    assert tree.terminals[dest] in tree.nodes

    def test_deterministic(self):
        rng = random.Random(77)
        routes = random_routes(rng)
        raw = simulate_tracetree_from_traceroute(routes)
        tree_a, report_a = filter_tree(raw, MONITOR)
        tree_b, report_b = filter_tree(raw, MONITOR)
        assert tree_a == tree_b
        assert report_a == report_b

    def test_idempotent_on_own_output(self):
        rng = random.Random(4242)
        for _ in range(100):
            raw = simulate_tracetree_from_traceroute(random_routes(rng))
            tree, _ = filter_tree(raw, MONITOR)
            # through the round log: the re-encoding is a round like any other
            block = serialize_round(reencode_as_raw(tree), 0, 0.0, 1.0)
            [(_, parsed)] = parse_round_log(block)
            again, report = filter_tree(parsed, MONITOR)
            assert again.nodes == tree.nodes
            assert again.edges == tree.edges
            assert again.terminals == tree.terminals
            assert report.merged_ip_nodes == 0
            assert report.leaves_pruned == 0


def test_dot_export_mentions_every_node():
    records = [
        rec("10.0.0.4", 3, "10.0.0.4"),
        rec("10.0.0.3", 2, "10.0.0.4"),
        rec("*", 1, "10.0.0.4"),
    ]
    tree, _ = filter_tree(RawTraceTree.from_records(records), MONITOR)
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert "10.0.0.3" in dot and '"*"' in dot
