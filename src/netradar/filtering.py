"""Reduction of raw (hop, ttl) trees to routing trees on addresses.

Six stages, in order: merge nodes sharing an address, drop self-loops,
prune dangling stars, merge sibling stars, extract a deterministic BFS
tree, prune leaves no destination terminated at.  The output is a
possible routing tree from the monitor to the destinations.

The filter reads a round's two record columns, its hops and its packed
(destination index, ttl) keys, and builds no record tuple.  It works on
integer node ids: an address is its own integer, and each star record
is a node of its own, numbered in record order.  Its edges come from
`model.ttl_links`, the one edge rule, over the stored keys; a round
holds one record per (destination, ttl), so a star has at most one
parent, its destination's node one ttl lower.  A node keeps its one
successor inline and gets a set only for a second, and only a node with
several successors sorts them.  A round without stars skips stages 3
and 4.  Stage 4 renames raw stars instead of rewriting their
neighbours' edges, and builds the key string of a merged star once per
parent.  Hop objects are made only for the returned parent map.
Nothing depends on set iteration order, so the output is the same under
every hash seed.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat

from .model import FilteredTree, Hop, Ip, RawTraceTree, Star, ttl_links


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


# node ids: an address is its own integer (below 2^32); a raw star is
# `ttl << 32 | n`, the n-th star record, so raw star ids order by (ttl,
# record); merged stars count up from _MERGED
_STAR_BASE = 1 << 32
_MERGED = 128 << 32  # above every raw star: a packed ttl is below 128


def filter_tree(raw: RawTraceTree, monitor: Ip) -> tuple[FilteredTree, FilterReport]:
    """Apply the six-stage filter; returns the tree and the stage counters.

    The monitor hop becomes the root and is linked in front of every
    ttl-1 observation.  Destination terminals survive every stage.
    """
    report = FilterReport()
    keys = raw.keys
    # the root is the monitor's integer, so records carrying the monitor's
    # address merge into it
    root = monitor._int

    # stage 1: merge all nodes carrying the same address.  An Ip record's
    # node is its address; a star record is a node of its own.
    stars: list[int] = []
    hop_of: dict[int, Hop] = {}  # address id -> an Ip record's hop, for the output
    ip_ttls: set[int] = set()
    add_ip_ttl = ip_ttls.add
    nodes = []
    append = nodes.append
    for source, key in zip(raw.sources, keys):
        ttl = key & 127
        if source.__class__ is Ip:
            node = source._int
            hop_of[node] = source
            add_ip_ttl(ttl << 32 | node)
        else:
            node = ttl << 32 | len(stars)
            stars.append(node)
        append(node)
    report.merged_ip_nodes = len(ip_ttls) - len(hop_of)
    hop_of[root] = monitor

    # stage 2: parallel edges collapse, links from an address to itself go.
    # `out` keeps a node's one successor inline and makes a set only for a
    # second.  Only stars are ever looked up by parent, so only stars get
    # an `inn` entry: their one parent.
    graph = ttl_links(keys, nodes)
    out: dict[int, int | set[int]] = {}
    inn: dict[int, int] = {}
    loops: set[int] = set()
    add = out.setdefault
    heads = [node for node in graph.heads if node != root]
    for u, v in chain(zip(graph.lows, graph.highs), zip(repeat(root), heads)):
        if u == v:
            loops.add(u)
            continue
        succ = add(u, v)
        if succ != v:
            if succ.__class__ is int:
                out[u] = {succ, v}
            else:
                succ.add(v)
        if v >= _STAR_BASE:
            inn[v] = u
    report.loops_removed = len(loops)
    terminals = graph.terminals  # in step with raw.destinations

    if stars:
        rename, key_of = _merge_stars(stars, set(terminals), out, inn, hop_of, report)
        terminals = list(map(rename.get, terminals, terminals))
    else:
        rename, key_of = {}, {}

    # stage 5: BFS tree from the monitor; neighbours in numeric order,
    # stars after addresses and ordered by key, FIFO queue.  `parent`
    # doubles as the visited set.  Only a node with several successors
    # sorts them.  Successor sets still name raw stars: each stands for
    # its merged star.
    parent: dict[int, int] = {root: root}
    order = [root]
    successors = out.get
    append = order.append
    for node in order:  # order grows while it is walked: it is the queue
        succs = successors(node)
        if succs.__class__ is int:
            if succs >= _STAR_BASE:
                succs = rename[succs]
            if succs not in parent:
                parent[succs] = node
                append(succs)
            continue
        if not succs:
            continue
        succs = sorted(succs)
        if succs[-1] >= _STAR_BASE:
            split = next(i for i, k in enumerate(succs) if k >= _STAR_BASE)
            succs[split:] = sorted({rename.get(k, k) for k in succs[split:]}, key=key_of.__getitem__)
        for child in succs:
            if child not in parent:
                parent[child] = node
                append(child)
    if len(order) == 1 and keys:
        report.degenerate = True
    reached = list(map(parent.__contains__, terminals))
    terminals = list(compress(terminals, reached))
    destinations = compress(raw.destinations, reached)
    del parent[root]
    protected = set(terminals)

    # stage 6: iteratively drop leaves that are nobody's terminal; which
    # leaves go does not depend on the order they go in
    frontier = parent.keys() - parent.values() - protected
    if frontier:
        child_count = Counter(parent.values())
        while frontier:
            next_frontier = []
            for leaf in frontier:
                up = parent.pop(leaf)
                report.leaves_pruned += 1
                child_count[up] -= 1
                if not child_count[up] and up != root and up not in protected:
                    next_frontier.append(up)
            frontier = next_frontier

    for merged, key in key_of.items():
        hop_of[merged] = Star(key)
    hop = hop_of.__getitem__
    tree = FilteredTree(
        root=monitor,
        parents=dict(zip(map(hop, parent), map(hop, parent.values()))),
        terminals=dict(zip(destinations, map(hop, terminals))),
    )
    return tree, report


def _merge_stars(stars, terminal_nodes, out, inn, hop_of, report) -> tuple[dict[int, int], dict[int, str]]:
    """Stages 3 and 4 of `filter_tree`, for a round with stars.

    Stage 3 edits `out` and `inn`.  Stage 4 leaves the raw stars in
    place: it gives each merged star, in `out`, the successors of its
    members, and returns `rename` (each remaining raw star -> its merged
    star) and `key_of` (merged star -> key).
    """
    # stage 3: drop stars with no successor, unless some destination's
    # probing ended there; a drop can leave its parent star bare in turn
    bare = [s for s in stars if s not in out and s not in terminal_nodes]
    pruned: set[int] = set()
    while bare:
        star = bare.pop()
        pruned.add(star)
        p = inn.pop(star, None)
        if p is None:
            continue
        succs = out[p]
        if succs.__class__ is int:  # the star was its only successor
            del out[p]
        else:
            succs.discard(star)
            if succs:
                continue
        if p >= _STAR_BASE and p not in terminal_nodes:
            bare.append(p)
    report.stars_pruned = len(pruned)

    # stage 4: the stars hanging under one node become a single star,
    # named after that node ("@" alone: no parent).  Shallow first, so a
    # parent star is merged, and named, before its children, which join
    # the star under the merged parent.
    live = [s for s in stars if s not in pruned]
    parents = [inn[s] for s in live if s in inn]
    report.stars_merged = len(parents) - len(set(parents))  # per raw parent, its star children but one
    rename: dict[int, int] = {}
    key_of: dict[int, str] = {}
    of_parent: dict[int | None, int] = {}  # merged parent (None: none) -> its merged star child
    for star in sorted(live):
        p = inn.get(star)
        p = rename.get(p, p)
        merged = of_parent.get(p)
        if merged is None:
            merged = of_parent[p] = _MERGED + len(key_of)
            if p is None:
                key_of[merged] = "@"
            else:
                key_of[merged] = "@" + (str(hop_of[p]) if p < _STAR_BASE else key_of[p])
        rename[star] = merged
        children = out.pop(star, None)
        if children is not None:
            succs = out.setdefault(merged, children)
            if succs is not children:
                if succs.__class__ is int:
                    succs = out[merged] = {succs}
                if children.__class__ is int:
                    succs.add(children)
                else:
                    succs |= children
    return rename, key_of
