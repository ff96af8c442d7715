"""Event detection over round sequences.

Distinct-address series (per round and windowed), robust peak flagging,
new-address connected components with discovery times, and before/after
event graphs.  Stars are non-observations and never count as addresses;
connectivity is undirected.
"""
from __future__ import annotations

import csv
import io
import statistics
from collections import Counter, deque
from dataclasses import dataclass
from ipaddress import IPv4Address

from .model import Ip, RadarDataset, finite

SLIDING = "sliding"
BLOCKED = "blocked"

# a series with zero MAD that is not constant falls back to this fraction
# of its median as the deviation scale
MIN_SCALE_FRAC = 0.05


def _addresses(tree) -> set[int]:
    """The addresses a filtered tree observed, as integers; stars and the
    monitor marker (the root, never a child) do not count."""
    return {n._int for n in tree.parents if n.__class__ is Ip}


def per_round_ip_count(dataset: RadarDataset) -> list[tuple[int, int]]:
    """(round index, distinct addresses observed that round)."""
    return [(rec.index, len(_addresses(rec.tree))) for rec in dataset.rounds]


def windowed_ip_count(dataset: RadarDataset, window: int = 10, mode: str = SLIDING) -> list[tuple[int, int]]:
    """Distinct addresses over `window` consecutive rounds.

    sliding: one value per round from the window-th onward, indexed by the
    window's last round.  blocked: one value per complete disjoint block,
    indexed likewise.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if mode not in (SLIDING, BLOCKED):
        raise ValueError(f"mode must be {SLIDING!r} or {BLOCKED!r}")
    rounds = dataset.rounds
    per_round = [_addresses(rec.tree) for rec in rounds]
    if mode == BLOCKED:
        return [
            (rounds[last].index, len(set().union(*per_round[last - window + 1 : last + 1])))
            for last in range(window - 1, len(per_round), window)
        ]
    # sliding: how many rounds of the window saw each address; the round
    # that enters adds its addresses, the round that leaves drops its own
    seen: Counter[int] = Counter()
    series = []
    for last, addresses in enumerate(per_round):
        seen.update(addresses)
        if last >= window:
            for address in per_round[last - window]:
                if seen[address] == 1:
                    del seen[address]
                else:
                    seen[address] -= 1
        if last >= window - 1:
            series.append((rounds[last].index, len(seen)))
    return series


@dataclass
class PeakDetection:
    indices: list[int]
    degenerate: bool  # zero MAD: scale estimated from the relative floor
    median: float
    threshold: float


def detect_peaks(
    series,
    direction: str = "up",
    k: float = 5.0,
) -> PeakDetection:
    """Flag points deviating from the series median by more than k times
    the median absolute deviation, in one direction.

    A constant series has zero MAD and flags nothing.  A series whose MAD
    is zero without being constant (more than half the points identical)
    falls back to a scale of MIN_SCALE_FRAC * |median|, so only deviations
    beyond that fraction of the typical level count as peaks.
    """
    if len(series) < 10:
        raise ValueError(f"need at least 10 points, got {len(series)}")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    finite("k", k, positive=True)
    values = [float(value) for _, value in series]
    median = statistics.median(values)
    mad = statistics.median([abs(value - median) for value in values])
    degenerate = mad == 0.0
    scale = mad if mad > 0.0 else MIN_SCALE_FRAC * max(abs(median), 1.0)
    threshold = k * scale
    sign = 1.0 if direction == "up" else -1.0
    indices = [
        index for (index, _), value in zip(series, values) if sign * (value - median) > threshold
    ]
    return PeakDetection(indices=indices, degenerate=degenerate, median=median, threshold=threshold)


def value_distribution(series, bin_width: int = 1) -> dict[int, int]:
    """Histogram of series values, optionally bucketed by bin_width."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    counts: Counter = Counter()
    for _, value in series:
        counts[(value // bin_width) * bin_width] += 1
    return dict(counts)


def _union(rounds) -> tuple[dict[int, tuple[int, IPv4Address]], set[tuple[int, int]]]:
    """Fold `rounds` once, keyed by address integer: each address seen
    maps to (index of the first round that saw it, the address), and each
    undirected address link is a (min, max) pair; links through a star or
    from the monitor do not count."""
    seen: dict[int, tuple[int, IPv4Address]] = {}
    links: set[tuple[int, int]] = set()
    for rec in rounds:
        tree = rec.tree
        root = tree.root._int
        for child, parent in tree.parents.items():
            if child.__class__ is not Ip:
                continue
            a = child._int
            if a not in seen:
                seen[a] = (rec.index, child.address)
            if parent.__class__ is Ip and parent._int != root:
                b = parent._int
                links.add((a, b) if a < b else (b, a))
    return seen, links


def _fold(dataset: RadarDataset, name: str, start: int, stop: int):
    """`_union` of the rounds with an index in [start, stop); an empty
    range, or one that holds no round, is a ValueError naming `name`."""
    if stop <= start:
        raise ValueError(f"{name} [{start}, {stop}) is empty")
    rounds = [rec for rec in dataset.rounds if start <= rec.index < stop]
    if not rounds:
        raise ValueError(f"no rounds in {name} [{start}, {stop})")
    return _union(rounds)


def _fold_ranges(dataset: RadarDataset, reference, observation):
    """One fold per range: the observation fold, its links, and the
    integers of the addresses new in it."""
    if reference[1] > observation[0]:
        raise ValueError("reference must end before the observation starts")
    before, _ = _fold(dataset, "reference range", *reference)
    seen, links = _fold(dataset, "observation range", *observation)
    return seen, links, {a for a in seen if a not in before}


@dataclass(frozen=True)
class NewAddressComponent:
    """Maximal set of new addresses mutually connected through new
    addresses only, with the rounds its first and last member were first
    sighted."""

    addresses: frozenset[IPv4Address]
    first_round: int
    last_round: int

    @property
    def size(self) -> int:
        return len(self.addresses)


def discovery_time(component: NewAddressComponent) -> int:
    """Rounds needed to discover the whole component: last first-sighting
    round minus first first-sighting round, plus one."""
    return component.last_round - component.first_round + 1


def new_address_components(dataset: RadarDataset, reference, observation) -> list[NewAddressComponent]:
    """Connected components of the new-address set, in the union graph of
    the observation rounds (undirected, stars excluded)."""
    seen, links, fresh = _fold_ranges(dataset, reference, observation)
    adjacency: dict[int, set[int]] = {a: set() for a in fresh}
    for a, b in links:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    components = []
    remaining = set(fresh)
    for start in sorted(fresh):
        if start not in remaining:
            continue
        queue = deque([start])
        remaining.discard(start)
        members = {start}
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour in remaining:
                    remaining.discard(neighbour)
                    members.add(neighbour)
                    queue.append(neighbour)
        sightings = [seen[m][0] for m in members]
        components.append(
            NewAddressComponent(
                addresses=frozenset(seen[m][1] for m in members),
                first_round=min(sightings),
                last_round=max(sightings),
            )
        )
    components.sort(key=lambda c: (c.first_round, c.last_round, min(c.addresses)))
    return components


@dataclass
class EventGraph:
    """Union of the before-window rounds plus the event round; edges only
    present after the event are flagged new."""

    nodes: set[IPv4Address]
    edges: set[tuple[IPv4Address, IPv4Address]]
    new_edges: set[tuple[IPv4Address, IPv4Address]]

    def to_dot(self) -> str:
        lines = ["graph event {", "  node [shape=point, width=0.08];"]
        ids = {a: f"n{i}" for i, a in enumerate(sorted(self.nodes))}
        for address, node_id in ids.items():
            lines.append(f'  {node_id} [tooltip="{address}"];')
        for a, b in sorted(self.edges):
            style = ' [penwidth=2.5, color=black]' if (a, b) in self.new_edges else ' [color=gray60]'
            lines.append(f"  {ids[a]} -- {ids[b]}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def event_graph(dataset: RadarDataset, event_round: int, before_window: int = 100) -> EventGraph:
    """Merge `before_window` rounds before the event with the single round
    at `event_round`, flagging edges absent from the whole before-window."""
    start = event_round - before_window
    if not {rec.index for rec in dataset.rounds}.issuperset(range(start, event_round)):
        raise ValueError(f"before-window [{start}, {event_round}) is not fully covered by the dataset")
    before_seen, before_links = _fold(dataset, "before-window", start, event_round)
    after_seen, after_links = _fold(dataset, "event round", event_round, event_round + 1)
    address = {a: address for a, (_, address) in {**after_seen, **before_seen}.items()}
    return EventGraph(
        nodes=set(address.values()),
        edges={(address[a], address[b]) for a, b in before_links | after_links},
        new_edges={(address[a], address[b]) for a, b in after_links - before_links},
    )


def size_vs_discovery_correlation(components):
    """(size, discovery_time) pairs plus their Spearman rank correlation.
    All-tied ranks (zero variance) report a coefficient of 0.0."""
    if len(components) < 2:
        raise ValueError("need at least 2 components")
    pairs = [(c.size, discovery_time(c)) for c in components]
    try:
        rho = statistics.correlation(
            _average_ranks([size for size, _ in pairs]), _average_ranks([time for _, time in pairs])
        )
    except statistics.StatisticsError:  # all ranks tied on one side
        rho = 0.0
    return pairs, rho


def _average_ranks(values) -> list[float]:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and values[order[stop]] == values[order[start]]:
            stop += 1
        for position in order[start:stop]:
            ranks[position] = (start + stop + 1) / 2.0
        start = stop
    return ranks


# -- plot-ready emitters -----------------------------------------------------


def rows_to_csv(header, rows) -> str:
    """CSV text: the header row, then one line per row, `\n`-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def series_to_csv(series, value_name: str) -> str:
    """CSV with columns: round,<value_name>."""
    return rows_to_csv(["round", value_name], series)


def histogram_to_csv(histogram: dict, key_name: str, count_name: str) -> str:
    """CSV with columns: <key_name>,<count_name>, keys ascending."""
    return rows_to_csv([key_name, count_name], ((key, histogram[key]) for key in sorted(histogram)))


def components_to_csv(components) -> str:
    """CSV with columns: size,first_round,last_round,discovery_time,addresses
    (addresses joined by `|`)."""
    return rows_to_csv(
        ["size", "first_round", "last_round", "discovery_time", "addresses"],
        (
            (
                comp.size,
                comp.first_round,
                comp.last_round,
                discovery_time(comp),
                "|".join(str(a) for a in sorted(comp.addresses)),
            )
            for comp in components
        ),
    )


def correlation_to_csv(pairs, rho: float) -> str:
    """CSV of (size, discovery_time) pairs; the coefficient rides in a
    leading comment line."""
    return f"# spearman_rho={rho}\n" + rows_to_csv(["size", "discovery_time"], pairs)


def component_neighborhood_dot(dataset: RadarDataset, reference, observation) -> str:
    """DOT rendering of the observation-window union graph with new
    addresses drawn solid black, as in island figures."""
    seen, links, fresh = _fold_ranges(dataset, reference, observation)
    lines = ["graph components {"]
    ids = {a: f"n{i}" for i, a in enumerate(sorted(seen))}
    for a, node_id in ids.items():
        address = seen[a][1]
        if a in fresh:
            lines.append(f'  {node_id} [label="{address}", style=filled, fillcolor=black, fontcolor=white];')
        else:
            lines.append(f'  {node_id} [label="{address}"];')
    for a, b in sorted(links):
        lines.append(f"  {ids[a]} -- {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
