"""Reduction of raw (hop, ttl) trees to routing trees on addresses.

Six stages, in order: merge nodes sharing an address, drop self-loops,
prune dangling stars, merge sibling stars, extract a deterministic BFS
tree, prune leaves no destination terminated at.  The output is a
possible routing tree from the monitor to the destinations.

The filter reads a round's records directly and never derives the raw
(hop, ttl) graph.  It works on integer node ids: an address is its own
integer, and a star is numbered per (key, ttl) in first-record order.
Hop objects are made only for the returned parent map, and a merged
star's key string is built once, when its group is merged.  Nothing
depends on set iteration order, so the output is the same under every
hash seed.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from ipaddress import IPv4Address

from .model import (
    FilteredTree,
    Hop,
    Ip,
    ProbeRecord,
    RawTraceTree,
    Star,
    hop_sort_key,
    ttl_buckets,
    ttl_links,
)


@dataclass
class FilterReport:
    """Per-stage counters, for observability; `degenerate` marks an input
    with nothing reachable from the monitor."""

    merged_ip_nodes: int = 0
    loops_removed: int = 0
    stars_pruned: int = 0
    stars_merged: int = 0
    leaves_pruned: int = 0
    degenerate: bool = False


# node ids: an address is its own integer; stars count up from here
_STAR_BASE = 1 << 32


def filter_tree(raw: RawTraceTree, monitor: Hop) -> tuple[FilteredTree, FilterReport]:
    """Apply the six-stage filter; returns the tree and the stage counters.

    The monitor hop becomes the root and is linked in front of every
    ttl-1 observation.  Destination terminals survive every stage.
    """
    report = FilterReport()
    records = raw.records
    # the root is the monitor's integer, so records carrying the monitor's
    # address merge into it
    root = monitor._int if monitor.__class__ is Ip else -1
    hop_of: dict[int, Hop] = {}  # address id -> an Ip record's hop, for the output

    # stage 1: merge all nodes carrying the same address.  An Ip record's
    # node is its address; a star record's node is one id per (key, ttl),
    # numbered in first-record order.
    star_ids: dict[tuple[str, int], int] = {}
    ip_ttls: set[int] = set()
    nodes = []
    for source, ttl, _ in records:
        if source.__class__ is Ip:
            node = source._int
            hop_of[node] = source
            ip_ttls.add(ttl << 32 | node)
        else:
            node = star_ids.get((source.key, ttl))
            if node is None:
                node = star_ids[source.key, ttl] = _STAR_BASE + len(star_ids)
        nodes.append(node)
    report.merged_ip_nodes = len(ip_ttls) - len(hop_of)
    hop_of[root] = monitor
    star_at = list(star_ids)  # star id - _STAR_BASE -> (key, ttl)

    # stage 2: parallel edges collapse, links from an address to itself go.
    # Only stars are ever looked up by parent, so only stars get an `inn`.
    out: dict[int, set[int]] = defaultdict(set)
    inn: dict[int, set[int]] = defaultdict(set)
    loops: set[int] = set()
    by_destination = ttl_buckets(records, nodes)
    for u, v in ttl_links(by_destination):
        if u == v:
            loops.add(u)
        else:
            out[u].add(v)
            if v >= _STAR_BASE:
                inn[v].add(u)
    report.loops_removed = len(loops)
    terminals: list[tuple[IPv4Address, int]] = []
    for destination, buckets in by_destination:
        terminals.append((destination, buckets[max(buckets)][0]))
        for node in buckets.get(1, ()):
            if node != root:
                out[root].add(node)
                if node >= _STAR_BASE:
                    inn[node].add(root)
    terminal_nodes = {node for _, node in terminals}

    # stage 3: drop stars with no successor, unless some destination's
    # probing ended there; a drop can leave its parent star bare in turn
    star_nodes = range(_STAR_BASE, _STAR_BASE + len(star_at))
    bare = [s for s in star_nodes if not out.get(s) and s not in terminal_nodes]
    pruned: set[int] = set()
    while bare:
        star = bare.pop()
        pruned.add(star)
        out.pop(star, None)
        for p in inn.pop(star, ()):
            succs = out[p]
            succs.discard(star)
            if not succs and p >= _STAR_BASE and p not in terminal_nodes:
                bare.append(p)
    report.stars_pruned = len(pruned)

    # stage 4: stars hanging under a same node become a single star
    leader = {s: s for s in star_nodes if s not in pruned}

    def find(s: int) -> int:
        while leader[s] != s:
            leader[s] = leader[leader[s]]
            s = leader[s]
        return s

    first_star: dict[int, int] = {}  # parent -> its first star child
    for s in leader:
        for p in inn.get(s, ()):
            other = first_star.setdefault(p, s)
            if other != s:
                ra, rb = find(other), find(s)
                if ra != rb:
                    leader[rb] = ra
    groups: dict[int, list[int]] = {}
    for s in leader:
        groups.setdefault(find(s), []).append(s)

    # a merged star is named by its parents' labels; one name is one star.
    # Parents of deeper stars may themselves be merged stars: shallow
    # groups go first, ties in first-record order (members are ids, ids
    # count in first-record order).
    key_of: dict[int, str] = {}  # merged star id -> key
    merged_id: dict[str, int] = {}
    rename: dict[int, int] = {}

    def label(node: int) -> str:
        if node < _STAR_BASE:
            return str(hop_of[node])
        key = key_of.get(node)
        if key is None:  # a star of a group not merged yet
            key, ttl = star_at[node - _STAR_BASE]
            key = f"{key}/{ttl}"
        return key

    def merge_order(members: list[int]) -> tuple[int, int]:
        return min(star_at[m - _STAR_BASE][1] for m in members), min(members)

    for members in sorted(groups.values(), key=merge_order):
        group = set(members)
        parents: set[int] = set()
        children: set[int] = set()
        for m in members:
            parents.update(inn.pop(m, ()))
            children.update(out.pop(m, ()))
        parents -= group
        children -= group
        key = "@" + "+".join(sorted(label(p) for p in parents))
        merged = merged_id.get(key)
        if merged is None:
            merged = merged_id[key] = _STAR_BASE + len(star_at) + len(key_of)
            key_of[merged] = key
        report.stars_merged += len(members) - 1
        for p in parents:
            succs = out[p]
            succs -= group
            succs.add(merged)
            inn[merged].add(p)
        children.discard(merged)
        for c in children:
            if c >= _STAR_BASE:
                preds = inn[c]
                preds -= group
                preds.add(merged)
            out[merged].add(c)
        for m in members:
            rename[m] = merged

    # stage 5: BFS tree from the monitor; neighbours in numeric order,
    # stars after addresses and ordered by key, FIFO queue
    parent: dict[int, int] = {}
    visited = {root}
    order = [root]
    for node in order:  # order grows while it is walked: it is the queue
        succs = out.get(node)
        if not succs:
            continue
        kids = sorted(succs)
        if len(kids) > 1 and kids[-2] >= _STAR_BASE:
            split = next(i for i, k in enumerate(kids) if k >= _STAR_BASE)
            kids[split:] = sorted(kids[split:], key=key_of.__getitem__)
        for child in kids:
            if child not in visited:
                visited.add(child)
                parent[child] = node
                order.append(child)
    if len(order) == 1 and records:
        report.degenerate = True

    terminals = [(d, rename.get(n, n)) for d, n in terminals]
    terminals = [(d, n) for d, n in terminals if n in visited]
    protected = {n for _, n in terminals}

    # stage 6: iteratively drop leaves that are nobody's terminal
    child_count = dict.fromkeys(order, 0)
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

    for merged, key in key_of.items():
        hop_of[merged] = Star(key)
    tree = FilteredTree(
        root=monitor,
        parents={hop_of[c]: hop_of[p] for c, p in parent.items()},
        terminals={d: hop_of[n] for d, n in terminals},
    )
    return tree, report


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


def tree_to_dot(tree: FilteredTree, name: str = "tree") -> str:
    """Graphviz DOT rendering of a filtered tree (stars drawn as points,
    terminals boxed)."""
    terminal_hops = set(tree.terminals.values())
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    ids = {node: f"n{i}" for i, node in enumerate(sorted(tree.nodes, key=hop_sort_key))}
    for node, nid in ids.items():
        attrs = [f'label="{node}"']
        if isinstance(node, Star):
            attrs.append("shape=circle")
        elif node == tree.root:
            attrs.append("shape=doublecircle")
        elif node in terminal_hops:
            attrs.append("shape=box")
        lines.append(f"  {nid} [{', '.join(attrs)}];")
    for parent, child in sorted(tree.edges, key=lambda e: (hop_sort_key(e[0]), hop_sort_key(e[1]))):
        lines.append(f"  {ids[parent]} -> {ids[child]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
