"""Periodic measurement rounds with per-destination distance caching.

`radar_rounds` yields each round as it completes: one tree measurement,
unfiltered: a `RadarRound` filters its routing tree when `tree` is first
read, so `radar run`, which writes only the raw tree, filters nothing.
It keeps no round it has yielded; between rounds it holds the distance
cache and the address table, nothing more.  The cache is the last
round's distances as `tracetree` returns them: destinations probe next
round from the distance they answered at this round; destinations that
were not seen (None) fall back to the maximal distance,
`tracetree.max_ttl`.  The table is the one `tracetree` returns (address
int -> `Ip`, the addresses that answered), carried into the next round,
so consecutive rounds share one `Ip` per address and a steady round
builds none; it holds one round's addresses.

`run_radar` keeps every round in a `RadarDataset`: its raw tree, and its
filtered tree once that was read.  No command calls it; it stays because
the benchmark and the tests read a run's rounds there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address
from itertools import count

from .filtering import filter_tree
from .model import FilteredTree, Ip, RadarDataset, RoundRecord, finite, numbered_lines, parse_address, serialize_round
from .tracetree import DestinationTask, TracetreeConfig, tracetree

DEFAULT_INTER_ROUND_DELAY = 600.0  # ten minutes


@dataclass
class RadarConfig:
    destinations: list[IPv4Address]
    inter_round_delay: float = DEFAULT_INTER_ROUND_DELAY
    rounds: int | None = None  # None: run until interrupted
    tracetree: TracetreeConfig = field(default_factory=TracetreeConfig)

    def __post_init__(self):
        finite("inter_round_delay", self.inter_round_delay)
        if self.rounds is not None and self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")


def load_destinations(path) -> list[IPv4Address]:
    """Read a destination list: one dotted quad per line, `#` comments and
    blank lines ignored.  A list with no destination, or with one twice,
    is a ValueError."""
    destinations: dict[IPv4Address, None] = {}  # a set in file order
    for line_no, text in numbered_lines(path):
        try:
            destination = parse_address(text)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad destination address {text!r}") from None
        if destination in destinations:
            raise ValueError(f"{path}:{line_no}: duplicate destination {destination}")
        destinations[destination] = None
    if not destinations:
        raise ValueError(f"{path}: no destinations")
    return list(destinations)


@dataclass
class RadarRound(RoundRecord):
    """A round as `radar_rounds` yields it, `tree` None: the first read of
    `tree` filters `raw` at `monitor` through this module's `filter_tree`
    and keeps it.  A round given a tree, as `replace` gives one, never filters."""

    monitor: Ip = field(kw_only=True)

    @property
    def tree(self) -> FilteredTree:
        if self._tree is None:
            self._tree = filter_tree(self.raw, self.monitor)[0]
        return self._tree

    @tree.setter
    def tree(self, tree: FilteredTree | None) -> None:
        self._tree = tree


def next_round_tasks(cache: dict, destinations, default_distance: int) -> list[DestinationTask]:
    """Each destination probes from its cached distance, or from
    `default_distance` when the cache has nothing for it or holds None
    (the last round did not see it)."""
    return [DestinationTask(dest, cache.get(dest) or default_distance) for dest in destinations]


class DatasetWriter:
    """Round sink writing serialized round blocks to a file, in order.
    Opening the writer truncates the file: an existing dataset at `path`
    is overwritten, not appended to."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8", newline="")

    def write(self, record: RoundRecord) -> None:
        if record.raw is None:
            raise ValueError("cannot serialize a round without its raw tree")
        self._fh.write(
            serialize_round(record.raw, record.index, record.start_time, record.end_time)
        )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def radar_rounds(config: RadarConfig, transport):
    """Yield each round, a `RadarRound`, as it completes, until
    `config.rounds` have run, or without end when it is None; a round's
    tree is filtered when first read, not while the round runs.

    Round pacing is start-to-start: the next round begins
    inter_round_delay after the previous one began, or immediately when a
    round overruns the delay.  A transport fault marks the round
    incomplete and the radar moves on.  An interrupt propagates out of
    the generator and ends it; the rounds yielded before it are whole.
    """
    if not config.destinations:
        raise ValueError("no destinations configured")
    root = transport.monitor_hop
    clock = transport.clock
    # unseen destinations start, and under-estimates restart, at max_ttl
    max_ttl = config.tracetree.max_ttl
    cache: dict[IPv4Address, int | None] = {}  # the last round's distances
    hops: dict[int, Ip] = {}  # the last round's table: one Ip per address
    next_start = clock.now()
    for index in count() if config.rounds is None else range(config.rounds):
        clock.sleep(next_start - clock.now())  # both clocks sleep no time for a negative wait
        tasks = next_round_tasks(cache, config.destinations, max_ttl)
        started = clock.now()
        result = tracetree(tasks, transport, config.tracetree, restart_from=max_ttl, hops=hops)
        finished = clock.now()
        cache, hops = result.distances, result.hops
        yield RadarRound(  # tree None: filtered when first read
            index, started, finished, result.stats.probes_sent, None, result.raw, result.stats.complete, monitor=root
        )
        del result  # the caller holds what it keeps of the round
        next_start = started + config.inter_round_delay


def run_radar(config: RadarConfig, transport, sink=None) -> RadarDataset:
    """Every round of `radar_rounds`, written to `sink` first when one is
    given, kept in the dataset returned.  A kept round holds its raw tree,
    and its filtered tree from the first read of `tree` on.  An interrupt
    ends the run; the dataset holds the rounds completed before it."""
    dataset = RadarDataset()
    try:
        for record in radar_rounds(config, transport):
            if sink is not None:
                sink.write(record)
            dataset.rounds.append(record)
    except KeyboardInterrupt:
        pass
    return dataset
