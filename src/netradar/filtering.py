"""Reduction of raw (hop, ttl) trees to routing trees on addresses.

Six stages, in order: merge nodes sharing an address, drop self-loops,
prune dangling stars, merge sibling stars, extract a deterministic BFS
tree, prune leaves no destination terminated at.  The output is a
possible routing tree from the monitor to the destinations.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import FilteredTree, Hop, Ip, ProbeRecord, RawTraceTree, Star, TtlNode, hop_sort_key


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


def _merged_hop(node: TtlNode) -> Hop:
    # ttl variants of one address collapse; stars keep per-observation identity
    if isinstance(node.hop, Ip):
        return node.hop
    return Star(f"{node.hop.key}/{node.ttl}")


def filter_tree(raw: RawTraceTree, monitor: Hop) -> tuple[FilteredTree, FilterReport]:
    """Apply the six-stage filter; returns the tree and the stage counters.

    The monitor hop becomes the root and is linked in front of every
    ttl-1 observation.  Destination terminals survive every stage.
    """
    report = FilterReport()
    root = monitor
    raw_nodes, raw_edges, raw_terminals = raw.graph()

    # stage 1: merge all nodes carrying the same address
    merged_of = {node: _merged_hop(node) for node in raw_nodes}
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
