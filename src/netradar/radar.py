"""Periodic measurement rounds with per-destination distance caching.

Each round runs one tree measurement, filters it and persists it.  The
distance cache is the last round's distances as `tracetree` returns
them: destinations probe next round from the distance they answered at
this round; destinations that were not seen (None) fall back to the
maximal distance, `tracetree.max_ttl`.

Next to the distance cache the scheduler carries the address table that
`tracetree` returns (address int -> `Ip`, the addresses that answered)
into the next round, so consecutive rounds share one `Ip` per address
and a steady round builds none.  The table holds one round's addresses,
never more.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address

from .filtering import filter_tree
from .model import Ip, RadarDataset, RoundRecord, finite, numbered_lines, parse_address, serialize_round
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


def run_radar(config: RadarConfig, transport, sink=None) -> RadarDataset:
    """Run measurement rounds until `config.rounds` complete or the caller
    interrupts; partial datasets are valid.

    Round pacing is start-to-start: the next round begins
    inter_round_delay after the previous one began, or immediately when a
    round overruns the delay.  A transport fault marks the round
    incomplete and the scheduler moves on.
    """
    if not config.destinations:
        raise ValueError("no destinations configured")
    root = transport.monitor_hop
    clock = transport.clock
    # unseen destinations start, and under-estimates restart, at max_ttl
    max_ttl = config.tracetree.max_ttl
    cache: dict[IPv4Address, int | None] = {}  # the last round's distances
    hops: dict[int, Ip] = {}  # the last round's table: one Ip per address
    dataset = RadarDataset(monitor_id=str(root))
    index = 0
    next_start = clock.now()
    try:
        while config.rounds is None or index < config.rounds:
            wait = next_start - clock.now()
            if wait > 0:
                clock.sleep(wait)
            tasks = next_round_tasks(cache, config.destinations, max_ttl)
            started = clock.now()
            result = tracetree(tasks, transport, config.tracetree, restart_from=max_ttl, hops=hops)
            finished = clock.now()
            tree, _ = filter_tree(result.raw, root)
            record = RoundRecord(
                index=index,
                start_time=started,
                end_time=finished,
                probes_sent=result.stats.probes_sent,
                tree=tree,
                raw=result.raw,
                complete=result.stats.complete,
            )
            if sink is not None:
                sink.write(record)
            dataset.rounds.append(record)
            cache = result.distances
            hops = result.hops
            next_start = started + config.inter_round_delay
            index += 1
    except KeyboardInterrupt:
        pass
    return dataset
