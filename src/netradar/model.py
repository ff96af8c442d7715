"""Shared domain types for ego-centered topology measurements.

Hops, (hop, ttl) observations, probe records, raw and filtered routing
trees, measurement rounds, and the plain-text round-log format that ties
them together on disk; `parse_round_log` alone rules what a malformed or
torn log is, by its error classes.

A raw tree is its probe records, the same records the round log holds,
one line each, kept as two columns in step: `sources`, each record's
hop, and `keys`, an `array('I')` of `index << 7 | ttl`, where `index`
points into `destinations`, the round's distinct destinations in
first-record order.  A record costs one list slot and one 4-byte key,
and no tuple; `records` builds the `ProbeRecord` view on demand.  A
round holds at most one record per (destination, ttl), as both probers
send at most one probe there; the round log refuses a second.  The
filter and the traceroute baseline's link loads read the records'
(hop, ttl) graph through one function, `ttl_links`, the one edge rule:
it maps each key to its one node, then joins consecutive ttls of a
destination, links the monitor to ttl 1 and finds each destination's
terminal.
Likewise a filtered tree is its parent map, child to parent; its node
and edge sets are derived from the map.  A retained radar round
therefore costs its two columns and its destinations, and one parent
map more once its tree has been read: the radar filters a round's tree
when it is first read (`radar.RadarRound`), not while the round runs.

Hop representation.  A hop is an `Ip` or a `Star`, both small immutable
slotted classes.  An `Ip` keeps its `IPv4Address` in `.address` for the
callers that read it, and hashes and compares by the address integer, so
sets and dicts of hops never pay for `IPv4Address.__hash__`; it renders
its dotted quad once, from the integer (`dotted_quad`), and caches it in
`_text` for the round log.  A `Star`'s `_text` is `"*"`, a class
attribute, so `serialize_round` reads every hop's text from `_text` and
calls `__str__` only on an `Ip` not rendered yet.  The rounds of a radar
run share one `Ip` per address, carried from round to round in
tracetree's address table, so an address that keeps answering is
rendered once per run.  Likewise the
rounds parsed from one round-log document share one hop per distinct
source text and one `IPv4Address` per distinct destination, and a
record line repeated round after round is read once.  A `Star` compares
by its key and never equals an `Ip`.  `TtlNode` and `ProbeRecord` are
named tuples over hops; a round stores neither.  Inside the hot loops
(simulator, transport, tracetree, filter, analytics) addresses are keyed
by their integer, read as `IPv4Address._ip` (what `int()` returns,
without the method call) or `Ip._int`; `IPv4Address` objects and dotted
quads appear only at the edges: topology and destination files, the
round log, CSV/DOT output, and the public fields callers read; every
address read from text there goes through `parse_address`.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, field
from ipaddress import IPv4Address
from math import isfinite
from typing import NamedTuple

MAX_TTL_DEFAULT = 30
TTL_LIMIT = 64  # the largest ttl a radar probes with, so the largest a round log holds
_OCTETS = {str(i): i for i in range(256)}  # the canonical text of each octet


class RoundLogParseError(ValueError):
    """A round-log document could not be parsed, at `line_no` (None: no line)."""

    def __init__(self, message: str, line_no: int | None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TornRoundError(RoundLogParseError):
    """The document ends inside a round block or in a partial line, as a crash
    while writing leaves it; `rounds` holds every whole round before the tail."""

    def __init__(self, message: str, line_no: int, rounds: list):
        super().__init__(message, line_no)
        self.rounds = rounds


def finite(name: str, value: float, positive: bool = False, error: type[ValueError] = ValueError) -> float:
    """`value` when it is a finite number >= 0, or > 0 when `positive`;
    anything else (NaN, an infinity, a value below the bound) raises
    `error`, naming `name`."""
    if not (isfinite(value) and (value > 0 if positive else value >= 0)):
        raise error(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value}")
    return value


def read_ttl(text: str, line_no: int | None) -> int:
    """A ttl as a round log writes it: the `str(int)` text of an integer in
    [1, TTL_LIMIT].  Any other text raises RoundLogParseError at `line_no`."""
    try:
        ttl = int(text)
    except ValueError:
        raise RoundLogParseError(f"bad ttl {text!r}", line_no) from None
    if str(ttl) != text:  # int() also reads "+2", "1_0" and " 3", which str() never writes
        raise RoundLogParseError(f"bad ttl {text!r}", line_no)
    if not 1 <= ttl <= TTL_LIMIT:
        raise RoundLogParseError(f"ttl {ttl} outside [1, {TTL_LIMIT}]", line_no)
    return ttl


def numbered_lines(path):
    """Yield (1-based line number, text) for each line of a UTF-8 file that
    holds more than a `#` comment and blanks, the comment and the blanks
    around the text cut off.  Lines end at "\n" only, as in round logs.
    Bytes that are not UTF-8 raise a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield line_no, line


class _Frozen:
    """Base of the hop types: their fields are set once, in __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def dotted_quad(value: int) -> str:
    """The dotted-quad text of an IPv4 address integer, equal to
    `str(IPv4Address(value))` without building the object."""
    return "%d.%d.%d.%d" % (value >> 24, (value >> 16) & 255, (value >> 8) & 255, value & 255)


def parse_address(text: str) -> IPv4Address:
    """`IPv4Address(text)`, value and errors alike; canonical octets read by table."""
    try:
        a, b, c, d = text.split(".")
        return IPv4Address(_OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d])
    except (AttributeError, KeyError, TypeError, ValueError):  # not a str of four canonical octets
        return IPv4Address(text)


class Ip(_Frozen):
    """A concrete IPv4 hop.

    Equal to, and hashed like, every other Ip of the same address;
    immutable.  `address` is the IPv4Address; the dotted quad is rendered
    once and cached.  Consecutive rounds of a radar run record one shared
    Ip per address (`tracetree`'s `hops` table).
    """

    __slots__ = ("address", "_int", "_text")

    def __init__(self, address: IPv4Address):
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "_int", int(address))
        object.__setattr__(self, "_text", None)

    def __eq__(self, other):
        if other.__class__ is Ip:
            return self._int == other._int
        return NotImplemented

    def __hash__(self):
        return self._int  # an IPv4 integer is its own hash

    def __str__(self):
        text = self._text
        if text is None:
            text = dotted_quad(self._int)
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self):
        return f"Ip(address={self.address!r})"

    def __reduce__(self):
        return Ip, (self.address,)


class Star(_Frozen):
    """A timeout marker.

    `key` keeps distinct stars distinct: measurement stars carry the
    destination they were probed towards, merged stars carry the parent
    they hang under.  A star always renders as `*` and never equals an Ip.
    """

    __slots__ = ("key",)
    _text = "*"  # what `serialize_round` writes for every star

    def __init__(self, key: str):
        object.__setattr__(self, "key", key)

    def __eq__(self, other):
        if other.__class__ is Star:
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return "*"

    def __repr__(self):
        return f"Star(key={self.key!r})"

    def __reduce__(self):
        return Star, (self.key,)


Hop = Ip | Star


class TtlNode(NamedTuple):
    """A hop observed at a specific distance: the node type of raw trees."""

    hop: Hop
    ttl: int


class ProbeRecord(NamedTuple):
    """One emitted probe and its outcome: the reply source (or a star on
    timeout) at `ttl` on the way towards `destination`.  One log line per
    record."""

    source: Hop
    ttl: int
    destination: IPv4Address


class TtlLinks(NamedTuple):
    """The graph a round's records imply (`ttl_links`)."""

    # link i joins lows[i], a destination's node at ttl t, to highs[i], its
    # node at ttl t+1; two lists in step, so a link costs no tuple
    lows: list
    highs: list
    heads: list  # per destination with a ttl-1 record, its node there: what the monitor links to
    terminals: list  # per destination index: its node at its highest ttl


def ttl_links(keys, nodes) -> TtlLinks:
    """The graph of records given as their keys and nodes, two sequences
    in step: per destination, its node at ttl t links to its node at ttl
    t+1, and the monitor links to its node at ttl 1; a destination's
    probing ended at its node of the highest ttl.

    This is the one edge rule: the filter and the traceroute baseline's
    link loads both read it.  A key is `index << 7 | ttl` (a ttl is at
    most TTL_LIMIT = 64), as `RawTraceTree.keys` stores it, and the
    indexes of n destinations are 0 to n-1, each with at least one
    record.  A round holds at most one record per key; a second raises
    ValueError.
    """
    at = dict(zip(keys, nodes))
    if len(at) < len(keys):
        raise ValueError("second record for one destination and ttl")
    get = at.get
    lows: list = []
    highs: list = []
    add_low, add_high = lows.append, highs.append
    top: dict[int, int] = {}  # destination index -> its highest key
    highest = top.get
    for key, low in at.items():
        high = get(key + 1)
        if high is None:  # the top of a run of ttls, maybe the highest
            d = key >> 7
            if highest(d, 0) < key:
                top[d] = key
        else:
            add_low(low)
            add_high(high)
    heads = [at[d << 7 | 1] for d in range(len(top)) if d << 7 | 1 in at]
    terminals = [at[top[d]] for d in range(len(top))]
    return TtlLinks(lows, highs, heads, terminals)


@dataclass(slots=True)
class RawTraceTree:
    """Direct tree-measurement output: the probe records of one round.

    The records, in emission order, are stored as two columns in step:
    `sources[i]` is record i's hop and `keys[i]` is `index << 7 | ttl`,
    where `destinations[index]` is its destination.  `destinations`
    holds the round's distinct destinations in first-record order, so a
    round holds fewer than 2^25 of them (a key is 32 bits).  A key occurs
    at most once: `ttl_links`, and so every reader of the graph, raises
    ValueError on a second record at one (destination, ttl).  Every
    builder (`from_records`, `tracetree`, `parse_round_log`) makes the
    same container types, exact in size, so equal rounds compare equal.

    `records` and `nodes` are derived views, built on every call and
    never cached.  The records are what the round log serializes line
    for line; the (hop, ttl) graph's edges follow from them by
    `ttl_links`, which is what makes the text log a lossless
    serialization.
    """

    sources: list  # Hop per record
    keys: array  # array('I'): index << 7 | ttl per record
    destinations: list[IPv4Address]

    @classmethod
    def from_records(cls, records) -> "RawTraceTree":
        """The round of `records`, (source, ttl, destination) triples in
        emission order."""
        sources: list = []
        keys = array("I")
        index_of: dict[int, int] = {}  # destination integer -> its index
        destinations: list[IPv4Address] = []
        add_source, add_key = sources.append, keys.append
        for source, ttl, destination in records:
            index = index_of.get(destination._ip)
            if index is None:
                index = index_of[destination._ip] = len(destinations)
                destinations.append(destination)
            add_source(source)
            add_key(index << 7 | ttl)
        return cls(sources[:], keys[:], destinations[:])

    @property
    def records(self) -> list[ProbeRecord]:
        """The records in emission order, built from the columns."""
        destinations = self.destinations
        return [
            ProbeRecord(source, key & 127, destinations[key >> 7]) for source, key in zip(self.sources, self.keys)
        ]

    @property
    def nodes(self) -> set[TtlNode]:
        """The records' distinct (hop, ttl) pairs."""
        return set(map(TtlNode, self.sources, [key & 127 for key in self.keys]))


@dataclass(frozen=True, slots=True)
class RoundMeta:
    """Header data of one serialized round."""

    index: int
    start_time: float
    end_time: float


def serialize_round(raw: RawTraceTree, index: int, start_time: float, end_time: float) -> str:
    """Serialize one round as a self-delimiting text block.

    `#round <index> <start> <end>`, then one `<source> <ttl> <destination>`
    line per record in emission order (stars as `*`), then `#end`.  Single
    space separators, newline line ends.
    """
    lines = [f"#round {index} {float(start_time)!r} {float(end_time)!r}"]
    texts = [dotted_quad(destination._ip) for destination in raw.destinations]  # once each
    # a hop's cached text; an Ip not rendered yet renders through __str__
    lines += [f"{source._text or source} {key & 127} {texts[key >> 7]}" for source, key in zip(raw.sources, raw.keys)]
    lines.append("#end")
    return "\n".join(lines) + "\n"


def parse_round_log(text: str) -> list[tuple[RoundMeta, RawTraceTree]]:
    """Parse a concatenation of round blocks back into raw trees.

    Inverse of serialize_round.  Lines end at `"\n"` only, the line end
    serialize_round writes.  The header token is exactly `#round`, the
    index must read back as `str(int)`, each ttl as `read_ttl` reads it,
    and both times as `repr(float)`, finite.  Malformed content raises
    RoundLogParseError with the offending line number.

    A torn tail, what a crash while writing leaves, raises TornRoundError
    holding the whole rounds before it, at the open block's `#round` line
    or else at a final line without its line end; such a line may be cut
    short, so it is never read unless it is exactly `#end`.  Any error on a
    whole line comes first.

    A round holds at most one record per (destination, ttl).  A block
    with a second raises RoundLogParseError at the first repeat's line,
    checked when its `#end` is read: an error on a whole line inside the
    same block is reported first, and a torn final block is only torn.

    A document's rounds share one hop per distinct source text and one
    IPv4Address per distinct destination text.  A record line read
    before was valid then, so a repeat costs two dict lookups and two
    appends.
    """
    rounds: list[tuple[RoundMeta, RawTraceTree]] = []
    meta: RoundMeta | None = None
    header_no = 0
    sources: list = []
    keys = array("I")
    index_of: dict[str, int] = {}  # this round's destination text -> its index
    # one object per distinct text across the document: a log repeats its
    # lines, hops and destinations round after round
    known: dict[str, tuple[Hop, int, str]] = {}  # line -> (source, ttl, destination text)
    destinations: dict[str, IPv4Address] = {}
    hops: dict[str, Ip] = {}
    stars: dict[str, Star] = {}
    lines = text.split("\n")
    partial = "" if lines[-1] == "#end" else lines.pop()  # what follows the final line end
    for line_no, line in enumerate(lines, start=1):
        seen = known.get(line)
        # a line read before was valid then; outside a block it is checked
        if seen is None or meta is None:
            if line.startswith("#round"):
                if meta is not None:
                    raise RoundLogParseError("new round before #end", line_no)
                parts = line.split(" ")
                if len(parts) != 4 or parts[0] != "#round":
                    raise RoundLogParseError("malformed round header", line_no)
                try:
                    meta = RoundMeta(int(parts[1]), float(parts[2]), float(parts[3]))
                except ValueError:
                    raise RoundLogParseError("malformed round header", line_no) from None
                if (
                    str(meta.index) != parts[1]
                    or repr(meta.start_time) != parts[2]
                    or repr(meta.end_time) != parts[3]
                    or not (isfinite(meta.start_time) and isfinite(meta.end_time))
                ):
                    raise RoundLogParseError("malformed round header", line_no)
                header_no = line_no
                sources = []
                keys = array("I")
                index_of = {}
                continue
            if line == "#end":
                if meta is None:
                    raise RoundLogParseError("#end without a round header", line_no)
                if len(set(keys)) < len(keys):
                    first_at: dict[int, int] = {}
                    for record_line, key in enumerate(keys, start=header_no + 1):  # records follow the header
                        if first_at.setdefault(key, record_line) != record_line:
                            raise RoundLogParseError("second record for one destination and ttl", record_line)
                # exact-size copies: a kept round holds no growth slack
                raw = RawTraceTree(sources[:], keys[:], [destinations[dest_txt] for dest_txt in index_of])
                rounds.append((meta, raw))
                meta = None
                continue
            if meta is None:
                raise RoundLogParseError("content outside a round block", line_no)
            parts = line.split(" ")
            if len(parts) != 3:
                raise RoundLogParseError("expected 'source ttl destination'", line_no)
            src_txt, ttl_txt, dest_txt = parts
            ttl = read_ttl(ttl_txt, line_no)
            destination = destinations.get(dest_txt)
            if destination is None:
                try:
                    destination = destinations[dest_txt] = parse_address(dest_txt)
                except ValueError:
                    raise RoundLogParseError(f"bad destination address {dest_txt!r}", line_no) from None
            if src_txt == "*":
                source = stars.get(dest_txt)
                if source is None:
                    source = stars[dest_txt] = Star(str(destination))
            else:
                source = hops.get(src_txt)
                if source is None:
                    try:
                        source = hops[src_txt] = Ip(parse_address(src_txt))
                    except ValueError:
                        raise RoundLogParseError(f"bad source address {src_txt!r}", line_no) from None
            seen = known[line] = (source, ttl, dest_txt)
        source, ttl, dest_txt = seen
        # IPv4Address reads one text per address, so a text is a destination
        index = index_of.get(dest_txt)
        if index is None:
            index = index_of[dest_txt] = len(index_of)
        sources.append(source)
        keys.append(index << 7 | ttl)
    if meta is not None:
        raise TornRoundError("missing #end for final round", header_no, rounds)
    if partial:
        raise TornRoundError("unterminated final line", len(lines) + 1, rounds)
    return rounds


@dataclass
class FilteredTree:
    """Analysis-ready routing tree over hops, rooted at the monitor.

    `parents` maps each node but the root to its parent and is the only
    stored view; `nodes`, `edges` and `children_map()` derive from it.
    """

    root: Hop
    parents: dict[Hop, Hop]  # child -> parent
    terminals: dict[IPv4Address, Hop]

    @property
    def nodes(self) -> set[Hop]:
        # parent values too: a malformed map may name a parent that is no child
        return {self.root, *self.parents, *self.parents.values()}

    @property
    def edges(self) -> set[tuple[Hop, Hop]]:
        """(parent, child) pairs."""
        return {(parent, child) for child, parent in self.parents.items()}

    def children_map(self) -> dict[Hop, list[Hop]]:
        children: dict[Hop, list[Hop]] = {n: [] for n in self.nodes}
        for child, parent in self.parents.items():
            children[parent].append(child)
        return children

    def observed_ips(self) -> set[IPv4Address]:
        """Distinct addresses observed by probing; stars and the monitor
        marker (the root, never a child) do not count."""
        return {n.address for n in self.parents if isinstance(n, Ip)}

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation.

        One parent per child and edges = nodes - 1 hold by construction."""
        for child, parent in self.parents.items():
            if parent == child:
                raise ValueError(f"self-loop edge at {parent}")
        if self.root in self.parents:
            raise ValueError("root has a parent")
        children = self.children_map()
        reached = {self.root}
        queue = deque([self.root])
        while queue:
            for child in children[queue.popleft()]:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
        if reached != children.keys():
            raise ValueError("tree is not connected")
        terminal_hops = set(self.terminals.values())
        for node, below in children.items():
            if node != self.root and not below and node not in terminal_hops:
                raise ValueError(f"leaf {node} is not any destination's terminal")


@dataclass
class RoundRecord:
    """One completed measurement round: its filtered `tree`, and its `raw`
    tree while kept; a `radar.RadarRound` holds only `raw` until `tree` is read."""

    index: int
    start_time: float
    end_time: float
    probes_sent: int
    tree: FilteredTree
    raw: RawTraceTree | None = None
    complete: bool = True


@dataclass
class RadarDataset:
    """An ordered sequence of measurement rounds from one monitor."""

    rounds: list[RoundRecord] = field(default_factory=list)
