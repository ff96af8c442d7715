"""Round-log format, raw-tree reconstruction, and the core data types."""
from __future__ import annotations

import ast
import gc
import pickle
import tracemalloc
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netradar
from conftest import assert_same_columns, hop_sort_key, ip, raw_graph
from netradar.model import (
    TTL_LIMIT,
    FilteredTree,
    Ip,
    ProbeRecord,
    RawTraceTree,
    RoundLogParseError,
    RoundMeta,
    TornRoundError,
    Star,
    TtlNode,
    dotted_quad,
    numbered_lines,
    parse_address,
    parse_round_log,
    serialize_round,
)
from netradar.simnet import load_topology
from netradar.tracetree import DestinationTask, TracetreeConfig, tracetree
from netradar.transport import SimTransport


def rec(source: str, ttl: int, dest: str) -> ProbeRecord:
    destination = IPv4Address(dest)
    if source == "*":
        return ProbeRecord(Star(str(destination)), ttl, destination)
    return ProbeRecord(ip(source), ttl, destination)


class TestHop:
    def test_rendering(self):
        assert str(ip("1.2.3.4")) == "1.2.3.4"
        assert str(Star("5.6.7.8")) == "*"

    @given(st.integers(0, 2**32 - 1))
    @example(0)
    @example(2**32 - 1)
    def test_dotted_quad_renders_like_ipv4address(self, value):
        assert dotted_quad(value) == str(IPv4Address(value)) == str(Ip(IPv4Address(value)))

    def test_sort_key_orders_ips_numerically(self):
        # octet-wise numeric order, not string order
        assert hop_sort_key(ip("9.0.0.0")) < hop_sort_key(ip("10.0.0.0"))

    def test_sort_key_puts_stars_after_ips(self):
        assert hop_sort_key(ip("255.255.255.255")) < hop_sort_key(Star("a"))

    def test_sort_key_reflexive(self):
        assert hop_sort_key(ip("1.2.3.4")) == hop_sort_key(ip("1.2.3.4"))
        assert hop_sort_key(Star("x")) == hop_sort_key(Star("x"))


class TestSerializeRound:
    def test_single_record(self):
        raw = RawTraceTree.from_records([rec("1.2.3.4", 3, "5.6.7.8")])
        text = serialize_round(raw, 0, 100.0, 101.0)
        lines = text.splitlines()
        assert lines[0] == "#round 0 100.0 101.0"
        assert lines[1] == "1.2.3.4 3 5.6.7.8"
        assert lines[2] == "#end"

    def test_star_record(self):
        raw = RawTraceTree.from_records([rec("*", 7, "5.6.7.8")])
        assert "* 7 5.6.7.8" in serialize_round(raw, 0, 0.0, 1.0).splitlines()

    def test_empty_round(self):
        raw = RawTraceTree.from_records([])
        assert serialize_round(raw, 2, 5.0, 6.0) == "#round 2 5.0 6.0\n#end\n"


class TestParseRoundLog:
    def test_round_trip_small(self):
        records = [
            rec("10.0.0.4", 3, "10.0.0.4"),
            rec("10.0.0.3", 2, "10.0.0.4"),
            rec("*", 1, "10.0.0.4"),
        ]
        raw = RawTraceTree.from_records(records)
        text = serialize_round(raw, 7, 10.0, 11.5)
        [(meta, parsed)] = parse_round_log(text)
        assert meta.index == 7
        assert meta.start_time == 10.0 and meta.end_time == 11.5
        assert parsed.records == raw.records
        assert raw_graph(parsed) == raw_graph(raw)

    def test_chain_merging_rule(self):
        # two destinations sharing (10.0.0.1, 2): one node, two outgoing edges
        records = [
            rec("10.0.0.3", 3, "9.9.9.1"),
            rec("10.0.0.1", 2, "9.9.9.1"),
            rec("10.0.0.5", 1, "9.9.9.1"),
            rec("10.0.0.4", 3, "9.9.9.2"),
            rec("10.0.0.1", 2, "9.9.9.2"),  # stops at the shared node
        ]
        raw = RawTraceTree.from_records(records)
        text = serialize_round(raw, 0, 0.0, 1.0)
        [(_, parsed)] = parse_round_log(text)
        shared = TtlNode(ip("10.0.0.1"), 2)
        assert shared in parsed.nodes
        assert len(parsed.nodes) == 4  # five records, one shared sighting
        edges = raw_graph(parsed).edges
        outgoing = {e for e in edges if e[0] == shared}
        assert outgoing == {
            (shared, TtlNode(ip("10.0.0.3"), 3)),
            (shared, TtlNode(ip("10.0.0.4"), 3)),
        }
        # the stopped chain is attached through the continuing destination
        assert (TtlNode(ip("10.0.0.5"), 1), shared) in edges

    def test_bad_address_is_parse_error(self):
        text = "#round 0 0.0 1.0\n999.1.1.1 3 5.6.7.8\n#end\n"
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log(text)
        assert err.value.line_no == 2

    def test_ttl_out_of_range(self):
        # any ttl a radar can probe with is read back; 0 and 65 are not
        def block(ttl):
            return f"#round 0 0.0 1.0\n1.2.3.4 {ttl} 5.6.7.8\n#end\n"

        assert parse_round_log(block(64))
        for ttl in (0, 65):
            with pytest.raises(RoundLogParseError, match=rf"^line 2: ttl {ttl} outside \[1, 64\]$"):
                parse_round_log(block(ttl))

    def test_missing_end(self):
        # the error names the header of the unterminated round
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log("#round 0 0.0 1.0\n#end\n#round 1 2.0 3.0\n1.2.3.4 3 5.6.7.8\n")
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "tail, line_no",
        [
            ("#round 1 2.0 3.0\n1.2.3.4 3 5.6.7.8\n1.2.3", 4),
            ("#round 1 2.0 3.0\n1.2.3.4 3 5.6.7.8\n", 4),
            ("#round 1 2.0 3.0\n1.2.3.4 3 5.6.7.8", 4),  # a whole record, but no line end: not read
            ("#round 1 2.0 3.0\n", 4),
            ("#rou", 4),
            ("1.2.3.4 3 5.6.7.8", 4),
        ],
        ids=["cut-record", "cut-at-a-line-end", "record-without-line-end", "header-only", "cut-header", "record-outside"],
    )
    def test_a_torn_tail_holds_the_whole_rounds(self, tail, line_no):
        whole = "#round 0 0.0 1.0\n1.2.3.4 3 5.6.7.8\n#end\n"
        with pytest.raises(TornRoundError) as err:
            parse_round_log(whole + tail)
        assert err.value.line_no == line_no
        want = [(meta, raw.records) for meta, raw in parse_round_log(whole)]
        assert [(meta, raw.records) for meta, raw in err.value.rounds] == want

    @pytest.mark.parametrize(
        "text, message",
        [
            ("#round 0 0.0 1.0\nfoo 3 5.6.7.8\n1.2.3", "line 2: bad source address 'foo'"),
            ("#round 0 0.0 1.0\n#end\n#end\n#end", "line 3: #end without a round header"),
        ],
        ids=["bad-record", "second-end"],
    )
    def test_a_whole_line_error_comes_before_the_tear(self, text, message):
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log(text)
        assert (err.value.__class__, str(err.value)) == (RoundLogParseError, message)

    def test_content_outside_block(self):
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log("1.2.3.4 3 5.6.7.8\n")
        assert err.value.line_no == 1

    def test_malformed_record_line(self):
        with pytest.raises(RoundLogParseError):
            parse_round_log("#round 0 0.0 1.0\n1.2.3.4 3\n#end\n")

    def test_multi_round_document(self):
        raw_a = RawTraceTree.from_records([rec("1.1.1.1", 1, "2.2.2.2")])
        raw_b = RawTraceTree.from_records([rec("*", 2, "3.3.3.3")])
        text = serialize_round(raw_a, 0, 0.0, 1.0) + serialize_round(raw_b, 1, 600.0, 601.0)
        parsed = parse_round_log(text)
        assert [meta.index for meta, _ in parsed] == [0, 1]

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("#rounds 0 0.0 1.0\n#end\n", 1),
            ("#roundabout 0 0.0 1.0\n#end\n", 1),
            ("#round +0_1 0.0 1.0\n#end\n", 1),
            ("#round 0 nan 1.0\n#end\n", 1),
            ("#round 0 0.0 inf\n#end\n", 1),
            ("#round 0 0.0 1.0\n#end\n#round 1 -inf 1.0\n#end\n", 3),
            ("#round 0 0.0 1.0\n1.2.3.4 0_3 5.6.7.8\n#end\n", 2),
            ("#round 0 0.0 1.0\n1.2.3.4 +3 5.6.7.8\n#end\n", 2),
            ("#round 0 0.0 1.0\n1.2.3.4 3\t 5.6.7.8\n#end\n", 2),
            ("#round 0 0.0 1.0\n1.2.3.4 \u0663 5.6.7.8\n#end\n", 2),
        ],
        ids=["rounds", "roundabout", "index", "nan", "inf", "-inf", "ttl-underscore", "ttl-plus", "ttl-tab", "ttl-digit"],
    )
    def test_reads_only_what_serialize_round_writes(self, text, line_no):
        # serialize_round never writes these; read, each would re-serialize to other bytes
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log(text)
        assert (err.value.__class__, err.value.line_no) == (RoundLogParseError, line_no)

    def test_a_line_repeated_in_two_rounds_is_one_record(self):
        # records are a view built on each read: what is shared is the
        # stored hop
        text = "#round 0 0.0 1.0\n1.2.3.4 3 5.6.7.8\n#end\n#round 1 2.0 3.0\n* 2 5.6.7.8\n1.2.3.4 3 5.6.7.8\n#end\n"
        [(_, first), (_, second)] = parse_round_log(text)
        assert first.sources[0] is second.sources[1]
        assert first.records[0] == second.records[1] == rec("1.2.3.4", 3, "5.6.7.8")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("#round 0 1e3 1.0\n#end\n", 1),
            ("#round 0 0 1\n#end\n", 1),
            ("#round 0 0.0 1.0\n#end\n#round 1 0.10000000000000001 1.0\n#end\n", 3),
        ],
        ids=["exponent", "integers", "long-decimal"],
    )
    def test_header_times_read_back_exactly(self, text, line_no):
        # each is a finite float, but serialize_round writes it as other bytes
        with pytest.raises(RoundLogParseError, match="malformed round header") as err:
            parse_round_log(text)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, line_no",
        [
            # a form feed is no line end: the record line runs on into "#end"
            ("#round 0 0.0 1.0\n1.2.3.4 3 5.6.7.8\x0c#end\n", 2),
            ("#round 0 0.0 1.0\n1.2.3.4 3 5.6.7.8\r\n#end\n", 2),
            # str.splitlines would read "#end", "#round 1 2.0 3.0" and fail at "x", line 4
            ("#round 0 0.0 1.0\n#end\u2028#round 1 2.0 3.0\nx\n", 2),
            ("#round 0 0.0 1.0\n#end\n\x1c\n1.2.3.4 3 5.6.7.8\n", 3),
        ],
        ids=["form-feed", "carriage-return", "line-separator", "group-separator"],
    )
    def test_lines_end_at_newline_only(self, text, line_no):
        with pytest.raises(RoundLogParseError) as err:
            parse_round_log(text)
        assert err.value.line_no == line_no

    def test_final_newline_is_optional(self):
        raw_a = RawTraceTree.from_records([rec("1.1.1.1", 1, "2.2.2.2"), rec("*", 2, "2.2.2.2")])
        raw_b = RawTraceTree.from_records([rec("1.1.1.1", 1, "2.2.2.2")])
        text = serialize_round(raw_a, 0, 0.0, 1.0) + serialize_round(raw_b, 1, 600.0, 601.0)
        parsed = parse_round_log(text)
        assert [(meta, raw.records) for meta, raw in parsed] == [
            (meta, raw.records) for meta, raw in parse_round_log(text[:-1])
        ]
        assert [raw.records for _, raw in parsed] == [raw_a.records, raw_b.records]
        assert parse_round_log("") == []


class TestRawTraceTree:
    def test_edges_only_between_adjacent_ttls(self):
        records = [rec("10.0.0.3", 3, "9.9.9.1"), rec("10.0.0.1", 1, "9.9.9.1")]
        raw = RawTraceTree.from_records(records)
        assert raw_graph(raw).edges == set()  # ttl gap: no direct link

    def test_two_records_at_one_key_raise_in_ttl_links(self):
        # a round holds one record per (destination, ttl): the same hop
        # twice is refused too
        for second in ("10.0.0.8", "10.0.0.9"):
            records = [rec("10.0.0.9", 5, "9.9.9.1"), rec(second, 5, "9.9.9.1"), rec("10.0.0.1", 4, "9.9.9.1")]
            with pytest.raises(ValueError, match="second record for one destination and ttl"):
                raw_graph(RawTraceTree.from_records(records))

    def test_node_count_equals_first_occurrences(self):
        records = [
            rec("10.0.0.1", 2, "9.9.9.1"),
            rec("10.0.0.1", 2, "9.9.9.2"),  # duplicate sighting, same node
        ]
        raw = RawTraceTree.from_records(records)
        assert len(raw.nodes) == 1
        assert len(raw.records) == 2


class TestFilteredTreeValidate:
    """validate() on trees built straight from a parents map."""

    ROOT = ip("10.0.0.1")
    DEST = IPv4Address("10.0.0.9")

    def tree(self, parents, terminal="10.0.0.9") -> FilteredTree:
        return FilteredTree(
            root=self.ROOT,
            parents={ip(c): ip(p) for c, p in parents.items()},
            terminals={self.DEST: ip(terminal)},
        )

    def test_well_formed_tree_passes(self):
        tree = self.tree({"10.0.0.2": "10.0.0.1", "10.0.0.9": "10.0.0.2"})
        tree.validate()
        assert tree.nodes == {self.ROOT, ip("10.0.0.2"), ip("10.0.0.9")}
        assert tree.edges == {(self.ROOT, ip("10.0.0.2")), (ip("10.0.0.2"), ip("10.0.0.9"))}
        assert tree.observed_ips() == {IPv4Address("10.0.0.2"), self.DEST}

    @pytest.mark.parametrize(
        "parents, message",
        [
            ({"10.0.0.9": "10.0.0.1", "10.0.0.5": "10.0.0.5"}, "self-loop"),
            ({"10.0.0.9": "10.0.0.1", "10.0.0.1": "10.0.0.9"}, "root has a parent"),
            (
                {"10.0.0.9": "10.0.0.1", "10.0.0.5": "10.0.0.6", "10.0.0.6": "10.0.0.5"},
                "not connected",
            ),
            ({"10.0.0.9": "10.0.0.1", "10.0.0.5": "10.0.0.7"}, "not connected"),
            ({"10.0.0.9": "10.0.0.1", "10.0.0.5": "10.0.0.1"}, "leaf 10.0.0.5 is not"),
        ],
        ids=["self-loop", "root-with-parent", "detached-cycle", "parent-off-tree", "non-terminal-leaf"],
    )
    def test_violation_raises(self, parents, message):
        with pytest.raises(ValueError, match=message):
            self.tree(parents).validate()


_POOL = [f"10.3.{i // 256}.{i % 256}" for i in range(40)]
_DESTS = [f"10.4.0.{i}" for i in range(8)]


@st.composite
def record_lists(draw):
    """Measurement-shaped record lists: per destination a descending chain
    with stars keyed by the destination, as the engine emits them."""
    records = []
    destinations = draw(st.lists(st.sampled_from(_DESTS), min_size=1, max_size=4, unique=True))
    for dest in destinations:
        top = draw(st.integers(min_value=1, max_value=12))
        stop = draw(st.integers(min_value=1, max_value=top))
        for ttl in range(top, stop - 1, -1):
            if draw(st.booleans()):
                records.append(rec("*", ttl, dest))
            else:
                records.append(rec(draw(st.sampled_from(_POOL)), ttl, dest))
    order = draw(st.permutations(records))
    return list(order)


@settings(max_examples=60, deadline=None)
@given(record_lists())
def test_round_trip_property(records):
    raw = RawTraceTree.from_records(records)
    text = serialize_round(raw, 3, 1000.0, 1001.0)
    [(meta, parsed)] = parse_round_log(text)
    assert parsed.records == raw.records  # emission order preserved
    assert raw_graph(parsed) == raw_graph(raw)
    # byte-exact when re-serialized
    assert serialize_round(parsed, 3, meta.start_time, meta.end_time) == text


@st.composite
def column_records(draw):
    """Records in any order towards up to 300 destinations, so indexes run
    past the 7 ttl bits: stars, ttl 1 and TTL_LIMIT drawn often, and now
    and then a second record at a (destination, ttl) drawn before."""
    count = draw(st.integers(1, 300))
    first = draw(st.integers(0, 2**32 - count))
    destinations = [IPv4Address(first + i) for i in range(count)]
    ttls = st.one_of(st.sampled_from([1, TTL_LIMIT]), st.integers(1, TTL_LIMIT))
    sources = st.sampled_from(["*", *_POOL[:6]])
    drawn = draw(st.lists(st.tuples(st.integers(0, count - 1), ttls, sources), max_size=500, unique_by=lambda t: t[:2]))
    if drawn and draw(st.booleans()):
        at = draw(st.integers(0, len(drawn) - 1))
        drawn.insert(draw(st.integers(at + 1, len(drawn))), (*drawn[at][:2], draw(sources)))
    return [rec(source, ttl, str(destinations[d])) for d, ttl, source in drawn]


def first_repeat(records) -> int | None:
    """The index of the first record at a (destination, ttl) taken before."""
    taken = set()
    for i, record in enumerate(records):
        if (record.destination, record.ttl) in taken:
            return i
        taken.add((record.destination, record.ttl))
    return None


@settings(max_examples=100, deadline=None)
@given(column_records())
def test_columns_give_back_their_records(records):
    raw = RawTraceTree.from_records(records)
    assert raw.records == records
    assert len(raw.sources) == len(raw.keys) == len(records)
    assert raw.destinations == list(dict.fromkeys(r.destination for r in records))


@settings(max_examples=100, deadline=None)
@given(column_records())
def test_parsed_round_has_the_serialized_columns(records):
    raw = RawTraceTree.from_records(records)
    text = serialize_round(raw, 0, 0.0, 1.0)
    repeat = first_repeat(records)
    if repeat is None:
        [(_, parsed)] = parse_round_log(text)
        assert_same_columns(parsed, raw)
    else:
        with pytest.raises(RoundLogParseError, match="second record for one destination and ttl") as err:
            parse_round_log(text)
        assert err.value.line_no == repeat + 2  # the header is line 1


@settings(max_examples=60, deadline=None)
@given(record_lists())
def test_reconstruction_invariants(records):
    raw = RawTraceTree.from_records(records)
    assert raw.nodes == {TtlNode(r.source, r.ttl) for r in records}
    for low, high in raw_graph(raw).edges:
        assert high.ttl == low.ttl + 1


# -- value semantics of the hop and record types -------------------------------


def probed_hop(address: IPv4Address, ttl: int):
    """The hop tracetree records for `address` answering at `ttl`, over a
    simulated chain whose other routers take the next addresses up."""
    names = ["mon"] + [f"r{i}" for i in range(1, ttl)] + ["dest"]
    nodes = {name: str(IPv4Address((int(address) + 1 + i) % 2**32)) for i, name in enumerate(names[:-1])}
    nodes["dest"] = str(address)
    doc = {"monitor": "mon", "nodes": nodes, "links": [list(pair) for pair in zip(names, names[1:])]}
    result = tracetree([DestinationTask(address, ttl)], SimTransport(load_topology(doc)), TracetreeConfig(), restart_from=None, hops=None)
    first = result.raw.records[0]
    assert (first.ttl, first.destination) == (ttl, address)
    assert first.destination is address  # the caller's object, not a copy
    return first.source


addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
ttls = st.integers(min_value=1, max_value=30)


@settings(max_examples=40, deadline=None)
@given(addresses, ttls)
def test_ip_equal_and_hashed_alike_from_every_source(address, ttl):
    built = Ip(address)
    [(_, parsed)] = parse_round_log(f"#round 0 0.0 1.0\n{address} {ttl} {address}\n#end\n")
    from_log = parsed.records[0].source
    for other in (from_log, probed_hop(address, ttl), ip(str(address)), pickle.loads(pickle.dumps(built))):
        assert isinstance(other, Ip)
        assert other == built and built == other
        assert hash(other) == hash(built)
        assert other.address == address
    assert len({built, from_log, Ip(IPv4Address(int(address)))}) == 1
    assert parsed.records[0].destination == address


@settings(max_examples=60, deadline=None)
@given(addresses, st.text(max_size=12))
def test_ip_never_equals_a_star(address, key):
    for star in (Star(key), Star(str(address)), Star("")):
        assert Ip(address) != star and star != Ip(address)
        assert len({Ip(address), star}) == 2
    assert Ip(address) != address  # a hop is not its address
    assert Star(key) == Star(key) and hash(Star(key)) == hash(Star(key))


@settings(max_examples=60, deadline=None)
@given(addresses, st.text(max_size=12))
def test_hop_rendering(address, key):
    hop = Ip(address)
    assert str(hop) == str(hop) == str(address)  # rendered, then served from the cache
    assert str(Star(key)) == "*"


@settings(max_examples=100, deadline=None)
@given(addresses, addresses, st.text(max_size=8), st.text(max_size=8))
def test_hop_sort_key_order_is_unchanged(a, b, key_a, key_b):
    # IPs numerically, then stars by key: the order the DOT output and the
    # filter's BFS depend on
    assert hop_sort_key(Ip(a)) == (0, int(a), "")
    assert hop_sort_key(Star(key_a)) == (1, 0, key_a)
    assert (hop_sort_key(Ip(a)) < hop_sort_key(Ip(b))) == (int(a) < int(b))
    assert hop_sort_key(Ip(a)) < hop_sort_key(Star(key_b))
    assert (hop_sort_key(Star(key_a)) < hop_sort_key(Star(key_b))) == (key_a < key_b)


@settings(max_examples=30, deadline=None)
@given(addresses, ttls)
def test_hops_nodes_and_records_are_immutable(address, ttl):
    hop = Ip(address)
    node = TtlNode(hop, ttl)
    record = ProbeRecord(hop, ttl, address)
    fields = [(node, "hop"), (node, "ttl"), (record, "source"), (record, "destination")]
    fields += [(hop, "address"), (Star("k"), "key")]
    for value, field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        del hop.address
    assert node == TtlNode(Ip(address), ttl) and hash(node) == hash(TtlNode(Ip(address), ttl))
    assert record == ProbeRecord(ip(str(address)), ttl, IPv4Address(str(address)))


# -- the previous parser, kept verbatim as the differential test's oracle ----
# It built a new ProbeRecord for every line.  The current parser shares one
# record per distinct line and must return equal rounds, or raise the same
# error class at the same line, on every canonical or singly corrupted
# document.


def oracle_parse_round_log(text: str) -> list[tuple[RoundMeta, RawTraceTree]]:
    """Parse a concatenation of round blocks back into raw trees.

    Inverse of serialize_round on well-formed input.  Malformed content
    raises RoundLogParseError with the offending line number; a block
    with a second record at one (destination, ttl), at its `#end`, with
    the first repeat's line number.
    """
    rounds: list[tuple[RoundMeta, RawTraceTree]] = []
    meta: RoundMeta | None = None
    records: list[ProbeRecord] = []
    header_no = 0
    # one object per distinct text across the document: a log repeats its
    # hops and destinations round after round
    destinations: dict[str, IPv4Address] = {}
    hops: dict[str, Ip] = {}
    stars: dict[str, Star] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#round"):
            if meta is not None:
                raise RoundLogParseError("new round before #end", line_no)
            parts = line.split(" ")
            if len(parts) != 4:
                raise RoundLogParseError("malformed round header", line_no)
            try:
                meta = RoundMeta(int(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError:
                raise RoundLogParseError("malformed round header", line_no) from None
            records = []
            header_no = line_no
        elif line == "#end":
            if meta is None:
                raise RoundLogParseError("#end without a round header", line_no)
            repeat = first_repeat(records)
            if repeat is not None:
                raise RoundLogParseError("second record for one destination and ttl", header_no + 1 + repeat)
            rounds.append((meta, RawTraceTree.from_records(records)))
            meta = None
        else:
            if meta is None:
                raise RoundLogParseError("content outside a round block", line_no)
            parts = line.split(" ")
            if len(parts) != 3:
                raise RoundLogParseError("expected 'source ttl destination'", line_no)
            src_txt, ttl_txt, dest_txt = parts
            try:
                ttl = int(ttl_txt)
            except ValueError:
                raise RoundLogParseError(f"bad ttl {ttl_txt!r}", line_no) from None
            if not 1 <= ttl <= TTL_LIMIT:
                raise RoundLogParseError(f"ttl {ttl} outside [1, {TTL_LIMIT}]", line_no)
            destination = destinations.get(dest_txt)
            if destination is None:
                try:
                    destination = destinations[dest_txt] = IPv4Address(dest_txt)
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
                        source = hops[src_txt] = Ip(IPv4Address(src_txt))
                    except ValueError:
                        raise RoundLogParseError(f"bad source address {src_txt!r}", line_no) from None
            records.append(ProbeRecord(source, ttl, destination))
    if meta is not None:
        raise RoundLogParseError("missing #end for final round", None)
    return rounds


def _outcome(parse, text):
    try:
        return [(meta, raw.records) for meta, raw in parse(text)]
    except RoundLogParseError as err:
        return err.__class__, err.line_no


@st.composite
def round_log_documents(draw):
    """`(text, corruption)`: a serialize_round document of 1-4 rounds drawn
    from a small pool of record lines (so lines repeat across rounds,
    stars included), then at most one corrupted line, or a second record
    at a (destination, ttl) of its block."""
    sources, dests = st.sampled_from(["*", *_POOL[:12]]), st.sampled_from(_DESTS[:4])
    pool = [rec(draw(sources), draw(st.integers(1, TTL_LIMIT)), draw(dests)) for _ in range(draw(st.integers(1, 8)))]
    first = draw(st.integers(0, 10**6))
    times = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
    text = ""
    for i in range(draw(st.integers(1, 4))):
        records = draw(st.lists(st.sampled_from(pool), max_size=12, unique_by=lambda r: (r.destination, r.ttl)))
        text += serialize_round(RawTraceTree.from_records(records), first + i, draw(times), draw(times))
    lines = text.splitlines()
    corruption = draw(st.sampled_from([None, "address", "ttl", "field", "after-end", "repeat"]))
    record_at = [i for i, line in enumerate(lines) if not line.startswith("#")]
    if corruption in ("address", "ttl", "field") and record_at:
        at = draw(st.sampled_from(record_at))
        source, ttl, destination = lines[at].split(" ")
        if corruption == "address":
            bad = draw(st.sampled_from(["999.1.1.1", "10.3.0", "010.3.0.1", "host"]))
            fields = draw(st.sampled_from([[bad, ttl, destination], [source, ttl, bad]]))
        elif corruption == "ttl":
            fields = [source, str(draw(st.sampled_from([0, TTL_LIMIT + 1]))), destination]
        else:
            fields = [source, ttl, destination]
            del fields[draw(st.integers(0, 2))]
        lines[at] = " ".join(fields)
    elif corruption == "after-end" and record_at:
        end_at = draw(st.sampled_from([i for i, line in enumerate(lines) if line == "#end"]))
        lines.insert(end_at + 1, lines[draw(st.sampled_from(record_at))])
    elif corruption == "repeat" and record_at:
        at = draw(st.sampled_from(record_at))
        _, ttl, destination = lines[at].split(" ")
        end_at = lines.index("#end", at)
        lines.insert(draw(st.integers(at + 1, end_at)), f"{draw(sources)} {ttl} {destination}")
    else:
        corruption = None
    return "\n".join(lines) + "\n", corruption


@settings(max_examples=300, deadline=None)
@given(round_log_documents())
def test_parse_round_log_matches_oracle(document):
    text, corruption = document
    new, old = _outcome(parse_round_log, text), _outcome(oracle_parse_round_log, text)
    assert new == old
    assert isinstance(new, list) == (corruption is None)


def _kept_by_parse(text: str) -> int:
    """Bytes allocated by parsing `text` that its result still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_round_log(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed
    return kept


def test_repeated_rounds_cost_a_list_slot_per_record():
    # N distinct rounds, then the same rounds four times over: each added
    # record repeats a line already read, so the parse keeps only its slot
    rounds = []
    for r in range(4):
        records = [
            rec("*" if (d + t + r) % 7 == 0 else f"10.{r}.{d}.{t}", t, f"10.9.0.{d}")
            for d in range(25)
            for t in range(10, 0, -1)
        ]
        rounds.append(RawTraceTree.from_records(records))
    per_round = len(rounds[0].records)

    def document(count):
        return "".join(serialize_round(rounds[i % len(rounds)], i, 600.0 * i, 600.0 * i + 30.0) for i in range(count))

    added = 3 * len(rounds) * per_round
    growth = (_kept_by_parse(document(4 * len(rounds))) - _kept_by_parse(document(len(rounds)))) / added
    assert growth <= 16, f"{growth:.1f} bytes kept per added record"


def test_numbered_lines_end_at_newline_only(tmp_path):
    # what str.splitlines() also breaks at stays inside a line, so every
    # line number is the one an editor counting "\n" shows
    path = tmp_path / "input"
    path.write_bytes("a\f\n\n  # note\nb # tail\r\n\u2028c\x85d\x1c\n".encode())
    assert list(numbered_lines(path)) == [(1, "a"), (4, "b"), (5, "c\x85d")]


# one part of an address text: canonical octets, and the near misses the
# table must send on to IPv4Address
OCTET_TEXT = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 999).map(lambda n: f"0{n}"),
    st.integers(256, 99999).map(str),
    st.sampled_from(["", "+1", "-1", " 1", "1 ", "\u0663", "\uff11", "1/8", "0x1", "1_0", "1e2"]),
    st.text(max_size=4),
)
ADDRESS_TEXT = st.one_of(
    st.lists(st.integers(0, 255).map(str), min_size=4, max_size=4).map(".".join),
    st.lists(OCTET_TEXT, min_size=3, max_size=5).map(".".join),
    st.text(max_size=20),
)


@given(st.one_of(ADDRESS_TEXT, st.integers(-1, 2**32), st.binary(min_size=3, max_size=5)))
@example("10.0.0.1")
@example("255.255.255.255")
@example("10.0.0.01")
@example("10.0.0.256")
@example("1.2.3")
@example("1.2.3.4.5")
@example("1..2.3")
@example("1.2.3.4/32")
@example("")
def test_parse_address_reads_as_ipv4address(value):
    try:
        expected = IPv4Address(value)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_address(value)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        parsed = parse_address(value)
        assert type(parsed) is IPv4Address and parsed == expected


def test_only_parse_address_builds_addresses():
    # address text is read by one function: a second reader could accept,
    # or word an error, differently
    found = []
    for path in sorted(Path(netradar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {
            id(node)
            for function in tree.body
            if path.name == "model.py" and isinstance(function, ast.FunctionDef) and function.name == "parse_address"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "IPv4Address" and a.asname for a in node.names):
                found.append(f"{path.name}:{node.lineno}: IPv4Address imported under another name")
            if isinstance(node, ast.Call) and id(node) not in reader:
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("IPv4Address", "ip_address"):
                    found.append(f"{path.name}:{node.lineno}: {name}(...)")
    assert found == []
