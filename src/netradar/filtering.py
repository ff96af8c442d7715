"""Reduction of raw (hop, ttl) trees to routing trees on addresses.

Six stages, in order: merge nodes sharing an address, drop self-loops,
prune dangling stars, merge sibling stars, extract a deterministic BFS
tree, prune leaves no destination terminated at.  The output is a
possible routing tree from the monitor to the destinations.

The filter reads a round's two record columns, its hops and its packed
(destination index, ttl) keys, and builds no record tuple.  It works on
integer node ids: an address is its own integer, and a star is numbered
per (key, ttl) in first-record order.  Its edges come from
`model.ttl_links`, the one edge rule, over the stored keys.  A node
keeps its one successor inline and gets a set only for a second, and
only a node with several successors sorts them.  A round without stars
skips stages 3 and 4.  Stage 4 merges a star with no sibling without
building sets, renames raw stars instead of rewriting their neighbours'
edges, and builds the key string of a star named after one parent once
per parent.  Hop objects are made only for the returned parent map.
Nothing depends on set iteration order, so the output is the same under
every hash seed.
"""
from __future__ import annotations

from collections import Counter, defaultdict
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
# `ttl << 32 | n`, the n-th (key, ttl) in first-record order, so raw star
# ids order by (ttl, first record); merged stars count up from _MERGED
_STAR_BASE = 1 << 32
_SEQ = _STAR_BASE - 1
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
    # node is its address; a star record's node is one id per (key, ttl).
    star_ids: dict[tuple[str, int], int] = {}
    star_keys: list[str] = []  # n -> the key of raw star n
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
            node = star_ids.get((source.key, ttl))
            if node is None:
                node = star_ids[source.key, ttl] = ttl << 32 | len(star_keys)
                star_keys.append(source.key)
        append(node)
    report.merged_ip_nodes = len(ip_ttls) - len(hop_of)
    hop_of[root] = monitor

    # stage 2: parallel edges collapse, links from an address to itself go.
    # `out` keeps a node's one successor inline and makes a set only for a
    # second; only stars are ever looked up by parent, so only stars get
    # an `inn`.
    graph = ttl_links(keys, nodes)
    out: dict[int, int | set[int]] = {}
    inn: dict[int, set[int]] = defaultdict(set)
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
            inn[v].add(u)
    report.loops_removed = len(loops)
    terminals = graph.terminals  # in step with raw.destinations

    if star_keys:
        rename, key_of = _merge_stars(star_ids.values(), star_keys, set(terminals), out, inn, hop_of, report)
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


def _merge_stars(stars, star_keys, terminal_nodes, out, inn, hop_of, report) -> tuple[dict[int, int], dict[int, str]]:
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
        for p in inn.pop(star, ()):
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

    # stage 4: stars hanging under a same node become a single star.  Only
    # stars that share a parent enter the union-find; a lone star is a
    # group of its own.
    live = [s for s in stars if s not in pruned]
    leader: dict[int, int] = {}

    def find(s: int) -> int:
        while leader[s] != s:
            leader[s] = leader[leader[s]]
            s = leader[s]
        return s

    first_star: dict[int, int] = {}  # parent -> its first star child
    for s in live:
        for p in inn.get(s, ()):
            other = first_star.setdefault(p, s)
            if other != s:
                leader.setdefault(other, other)
                leader.setdefault(s, s)
                ra, rb = find(other), find(s)
                if ra != rb:
                    leader[rb] = ra
    groups: dict[int, list[int]] = {}
    for s in leader:
        groups.setdefault(find(s), []).append(s)
    # groups merge shallow first, ties in first-record order: parents of
    # deeper stars may themselves be merged stars.  A lone star's id is
    # its place, (ttl, first record); a group's place is its least ttl and
    # its members' first record.
    multi = {min(members) & ~_SEQ | min(m & _SEQ for m in members): members for members in groups.values()}
    lone = [s for s in live if s not in leader]

    # a merged star is named by its parents' labels; one name is one star
    rename: dict[int, int] = {}
    key_of: dict[int, str] = {}
    merged_id: dict[str, int] = {}
    of_parent: dict[int, int] = {}  # parent -> the merged star named after it alone

    def label(node: int) -> str:
        if node < _STAR_BASE:
            return str(hop_of[node])
        key = key_of.get(node)
        if key is None:  # a star of a group not merged yet
            key = f"{star_keys[node & _SEQ]}/{node >> 32}"
        return key

    def named(key: str) -> int:
        merged = merged_id.get(key)
        if merged is None:
            merged = merged_id[key] = _MERGED + len(key_of)
            key_of[merged] = key
        return merged

    for place in sorted(lone + list(multi)):
        members = multi.get(place)
        if members is None:  # a lone star: no sets to gather
            parents = inn.get(place, ())
            children = out.pop(place, None)
        else:
            parents = set()
            children = set()
            for m in members:
                parents.update(inn.get(m, ()))
                _join(children, out.pop(m, None))
            parents.difference_update(members)
            report.stars_merged += len(members) - 1
        # a parent merged before is named by its merged star
        if len(parents) == 1:
            [p] = parents
            p = rename.get(p, p)
            merged = of_parent.get(p)
            if merged is None:
                merged = of_parent[p] = named("@" + label(p))
        else:
            merged = named("@" + "+".join(sorted(map(label, {rename.get(p, p) for p in parents}))))
        if children is not None:
            succs = out.setdefault(merged, children)
            if succs is not children:
                if succs.__class__ is int:
                    succs = out[merged] = {succs}
                _join(succs, children)
        if members is None:
            rename[place] = merged
        else:
            for m in members:
                rename[m] = merged
    return rename, key_of


def _join(succs: set[int], more) -> None:
    """Add a value of `out` (None, one successor, or a set of them) to a
    set of successors."""
    if more.__class__ is int:
        succs.add(more)
    elif more:
        succs.update(more)
