"""The six-stage filter: stage semantics, invariants, idempotence."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netradar
from conftest import hop_sort_key, ip, perfbench_inet, raw_graph, reencode_as_raw
from netradar.baseline import simulate_tracetree_from_traceroute
from netradar.filtering import FilterReport, filter_tree
from netradar.model import (
    FilteredTree,
    Hop,
    Ip,
    ProbeRecord,
    RawTraceTree,
    RoundLogParseError,
    Star,
    TtlNode,
    parse_round_log,
    serialize_round,
)
from netradar.radar import RadarConfig, run_radar
from netradar.simnet import load_topology
from netradar.transport import SimTransport

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
    """A traceroute round of random per-destination routes with shared
    prefixes, repeated addresses (routing loops), and stars; replayed
    through the tree-probing stopping rule to get measurement-shaped
    records."""
    pool = [f"10.20.{i // 200}.{i % 200}" for i in range(60)]
    records = []
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
        records += [ProbeRecord(node.hop, node.ttl, dest) for node in hops]
    return RawTraceTree.from_records(records)


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
            for dest in raw_graph(raw).terminals:
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


# -- the previous filter, kept verbatim as the differential test's oracle ----
# It derived the (hop, ttl) graph as TtlNode sets and merged it with
# string-keyed stars.  The current filter must return equal trees and
# equal reports on every input.


def oracle_graph(raw: RawTraceTree):
    """The raw (hop, ttl) graph as the filter derived it before it worked
    on ints: nodes, edges and terminals."""
    # one TtlNode object per (hop, ttl), shared by the node set, the
    # per-destination buckets and the edges
    nodes: dict[TtlNode, TtlNode] = {}
    # destination int -> (destination, {ttl: nodes in first-sighting order})
    by_dest: dict[int, tuple[IPv4Address, dict[int, list[TtlNode]]]] = {}
    for source, ttl, destination in raw.records:
        node = TtlNode(source, ttl)
        node = nodes.setdefault(node, node)
        entry = by_dest.get(destination._ip)
        if entry is None:
            entry = by_dest[destination._ip] = (destination, {})
        seen_at = entry[1].get(ttl)
        if seen_at is None:
            entry[1][ttl] = [node]
        elif node not in seen_at:
            seen_at.append(node)
    edges: set[tuple[TtlNode, TtlNode]] = set()
    terminals: dict[IPv4Address, TtlNode] = {}
    for destination, buckets in by_dest.values():
        # the terminal is the first record at the highest ttl
        terminals[destination] = buckets[max(buckets)][0]
        for ttl, lows in buckets.items():
            highs = buckets.get(ttl + 1)
            if highs:
                for low in lows:
                    for high in highs:
                        edges.add((low, high))
    return set(nodes), edges, terminals


def _oracle_merged_hop(node: TtlNode) -> Hop:
    # ttl variants of one address collapse; stars keep per-observation identity
    if isinstance(node.hop, Ip):
        return node.hop
    return Star(f"{node.hop.key}/{node.ttl}")


def oracle_filter_tree(raw: RawTraceTree, monitor: Hop) -> tuple[FilteredTree, FilterReport]:
    """`filter_tree` as it was before it worked on ints: the reference
    the differential test holds the current filter to."""
    report = FilterReport()
    root = monitor
    raw_nodes, raw_edges, raw_terminals = oracle_graph(raw)

    # stage 1: merge all nodes carrying the same address
    merged_of = {node: _oracle_merged_hop(node) for node in raw_nodes}
    ip_nodes = [n for n in raw_nodes if isinstance(n.hop, Ip)]
    report.merged_ip_nodes = len(ip_nodes) - len({n.hop for n in ip_nodes})

    out: dict[Hop, set[Hop]] = {}
    inn: dict[Hop, set[Hop]] = {}
    star_ttl: dict[Hop, int] = {}

    def ensure(hop: Hop) -> None:
        out.setdefault(hop, set())
        inn.setdefault(hop, set())

    def add_edge(u: Hop, v: Hop) -> None:
        out[u].add(v)
        inn[v].add(u)

    def drop_node(hop: Hop) -> None:
        for p in inn[hop]:
            out[p].discard(hop)
        for c in out[hop]:
            inn[c].discard(hop)
        del out[hop], inn[hop]

    ensure(root)
    for node, merged in merged_of.items():
        ensure(merged)
        if isinstance(merged, Star):
            star_ttl[merged] = node.ttl

    # stage 2: parallel edges collapse, links from an address to itself go
    loops: set[Hop] = set()
    for u_raw, v_raw in raw_edges:
        u, v = merged_of[u_raw], merged_of[v_raw]
        if u == v:
            loops.add(u)
            continue
        add_edge(u, v)
    report.loops_removed = len(loops)

    for node, merged in merged_of.items():
        if node.ttl == 1 and merged != root:
            add_edge(root, merged)

    terminals: dict = {d: merged_of[n] for d, n in raw_terminals.items()}
    terminal_hops = set(terminals.values())

    # stage 3: iteratively drop stars with no successor, unless some
    # destination's probing ended there
    changed = True
    while changed:
        changed = False
        for hop in [h for h in out if isinstance(h, Star)]:
            if not out[hop] and hop not in terminal_hops:
                drop_node(hop)
                report.stars_pruned += 1
                changed = True

    # stage 4: stars hanging under a same node become a single star
    stars = [h for h in out if isinstance(h, Star)]
    leader = {s: s for s in stars}

    def find(s: Hop) -> Hop:
        while leader[s] != s:
            leader[s] = leader[leader[s]]
            s = leader[s]
        return s

    for succs in list(out.values()):
        group = [s for s in succs if isinstance(s, Star)]
        for other in group[1:]:
            ra, rb = find(group[0]), find(other)
            if ra != rb:
                leader[rb] = ra

    groups: dict[Hop, list[Hop]] = {}
    for s in stars:
        groups.setdefault(find(s), []).append(s)

    def parent_label(p: Hop) -> str:
        return p.key if isinstance(p, Star) else str(p)

    rename: dict[Hop, Hop] = {}
    # parents of deeper stars may themselves be renamed stars: resolve shallow first
    for members in sorted(groups.values(), key=lambda ms: min(star_ttl[m] for m in ms)):
        parents = set()
        for m in members:
            parents.update(inn[m])
        parents -= set(members)
        parents = {rename.get(p, p) for p in parents}
        label = "+".join(sorted(parent_label(p) for p in parents))
        merged_star = Star(f"@{label}")
        report.stars_merged += len(members) - 1
        in_edges: set[Hop] = set()
        out_edges: set[Hop] = set()
        for m in members:
            in_edges.update(inn[m])
            out_edges.update(out[m])
            drop_node(m)
        ensure(merged_star)
        star_ttl[merged_star] = min(star_ttl[m] for m in members)
        for p in in_edges - set(members):
            add_edge(rename.get(p, p) if p in rename else p, merged_star)
        for c in out_edges - set(members):
            if c != merged_star:
                add_edge(merged_star, c)
        for m in members:
            rename[m] = merged_star
    terminals = {d: rename.get(h, h) for d, h in terminals.items()}

    # stage 5: BFS tree from the monitor; neighbours in lexicographic
    # order, stars after addresses, FIFO queue
    parent: dict[Hop, Hop] = {}
    visited = {root}
    order = [root]
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for child in sorted(out.get(node, ()), key=hop_sort_key):
            if child not in visited:
                visited.add(child)
                parent[child] = node
                order.append(child)
                queue.append(child)
    if len(order) == 1 and raw_nodes:
        report.degenerate = True

    terminals = {d: h for d, h in terminals.items() if h in visited}
    protected = set(terminals.values())

    # stage 6: iteratively drop leaves that are nobody's terminal
    child_count = {n: 0 for n in order}
    for node in parent.values():
        child_count[node] += 1
    frontier = [n for n in order if child_count[n] == 0 and n != root]
    while frontier:
        next_frontier = []
        for leaf in frontier:
            if leaf in protected:
                continue
            up = parent.pop(leaf)
            report.leaves_pruned += 1
            child_count[up] -= 1
            if child_count[up] == 0 and up != root:
                next_frontier.append(up)
        frontier = next_frontier

    return FilteredTree(root=root, parents=parent, terminals=terminals), report


ADDRESSES = [ip(f"10.40.0.{i}") for i in range(1, 9)]


@st.composite
def raw_rounds(draw):
    """Random rounds of one record per (destination, ttl), as netradar
    writes them: balancers (destinations that see different sources at
    one ttl), stars and all-star chains, repeated addresses (routing
    loops), the monitor's own address as a source, chains that start
    above ttl 1, the shape of a cut (destinations that share an address
    prefix, then time out up to a high ttl), shuffled record order, and
    the empty round."""
    records = []
    for d in range(draw(st.integers(0, 5))):
        destination = IPv4Address(f"10.50.0.{d}")
        star_share = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
        low = draw(st.integers(1, 3))
        for ttl in range(low, low + draw(st.integers(0, 7))):
            if draw(st.floats(0, 1)) < star_share:
                source = Star(str(destination))
            else:
                source = draw(st.sampled_from(ADDRESSES + [MONITOR]))
            records.append(ProbeRecord(source, ttl, destination))
    if draw(st.booleans()):
        prefix = draw(st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=3))
        top = draw(st.integers(len(prefix) + 1, 30))
        for d in range(draw(st.integers(2, 5))):
            destination = IPv4Address(f"10.51.0.{d}")
            records += [ProbeRecord(source, ttl, destination) for ttl, source in enumerate(prefix, start=1)]
            records += [ProbeRecord(Star(str(destination)), ttl, destination) for ttl in range(len(prefix) + 1, top + 1)]
    draw(st.randoms(use_true_random=False)).shuffle(records)
    return RawTraceTree.from_records(records)


# A second record at (10.70.0.2, 3), on line 9: a round netradar never
# writes, which the round log refuses.
REPEAT_BLOCK = """#round {index} 0.0 1.0
10.60.0.1 1 10.70.0.1
10.60.0.9 2 10.70.0.1
* 3 10.70.0.1
10.60.0.2 4 10.70.0.1
10.60.0.3 1 10.70.0.2
10.60.0.4 2 10.70.0.2
10.60.0.9 3 10.70.0.2
* 3 10.70.0.2
* 4 10.70.0.2
10.60.0.5 5 10.70.0.2
#end
"""

# Two ttl-3 stars under 10.60.0.9 merge, and the ttl-4 star below one of
# them is named after the merged star.
STAR_BLOCK = """#round {index} 0.0 1.0
10.60.0.1 1 10.70.0.1
10.60.0.9 2 10.70.0.1
* 3 10.70.0.1
10.60.0.2 4 10.70.0.1
10.60.0.3 1 10.70.0.2
10.60.0.9 2 10.70.0.2
* 3 10.70.0.2
* 4 10.70.0.2
10.60.0.5 5 10.70.0.2
#end
"""


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw_rounds())
    def test_same_tree_and_report(self, raw):
        assert filter_tree(raw, MONITOR) == oracle_filter_tree(raw, MONITOR)

    @settings(max_examples=200, deadline=None)
    @given(raw_rounds())
    def test_raw_graph_and_nodes_match_the_oracle(self, raw):
        graph = raw_graph(raw)
        assert raw.nodes == graph.nodes
        assert tuple(graph) == oracle_graph(raw)

    def test_a_second_record_at_one_slot_is_refused(self):
        # a star with two parents, the one shape whose merged name
        # depended on record order, needs such a round
        with pytest.raises(RoundLogParseError, match="second record for one destination and ttl") as err:
            parse_round_log(REPEAT_BLOCK.format(index=0))
        assert err.value.line_no == 9
        [(_, raw)] = parse_round_log(STAR_BLOCK.format(index=0))
        tree, report = filter_tree(raw, MONITOR)
        tree.validate()
        assert sorted(n.key for n in tree.parents if isinstance(n, Star)) == ["@10.60.0.9", "@@10.60.0.9"]
        assert report.stars_merged == 1
        assert (tree, report) == oracle_filter_tree(raw, MONITOR)


def test_radar_run_with_a_cut_matches_the_oracle():
    # seven rounds over 200 destinations: an island graft, a lengthened
    # path, then a cut that leaves a third of the destinations timing out
    # up to max_ttl for one round, then a policy change
    inet = perfbench_inet()
    events = inet.EventRounds(island=2, lengthen=3, cut=5, policy=6)
    net = inet.generate(3001, 200, events, cut_share=0.35)
    transport = SimTransport(load_topology(net.doc))
    config = RadarConfig(
        destinations=[IPv4Address(d) for d in net.destinations],
        inter_round_delay=inet.ROUND_DELAY,
        rounds=7,
    )
    dataset = run_radar(config, transport)
    stars = [sum(r.source.__class__ is Star for r in rec.raw.records) for rec in dataset.rounds]
    assert stars[events.cut] > 1000 > 10 * max(stars[: events.cut])
    for rec in dataset.rounds:
        new = filter_tree(rec.raw, transport.monitor_hop)
        assert new == oracle_filter_tree(rec.raw, transport.monitor_hop)
        assert new[0] == rec.tree


HASH_SEED_SCRIPT = """
import sys
from netradar.cli import PLACEHOLDER_MONITOR
from netradar.filtering import filter_tree
from netradar.model import parse_round_log

with open(sys.argv[1], encoding="utf-8") as fh:
    rounds = parse_round_log(fh.read())
for meta, raw in rounds:
    tree, report = filter_tree(raw, PLACEHOLDER_MONITOR)
    print(meta.index, list(tree.parents.items()), list(tree.terminals.items()), report)
"""


def test_output_independent_of_hash_seed(tmp_path):
    from test_cli import _fig1_events_doc, _radar_log

    log = _radar_log(tmp_path, _fig1_events_doc(), ["10.0.1.14", "10.0.1.15", "10.0.1.16"], 12)
    with log.open("a", encoding="utf-8") as fh:
        fh.write(STAR_BLOCK.format(index=12))
    src = Path(netradar.__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(log)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 13
    assert "Star(key=" in outputs[0]
    assert outputs[0] == outputs[1]
