"""The backward tree measurement engine against the simulator."""
from __future__ import annotations

import json
import math
from collections import deque
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_DOC, assert_same_columns, raw_graph, shared_prefix_doc
from netradar.model import Ip, ProbeRecord, RawTraceTree, Star, dotted_quad, serialize_round
from netradar.simnet import load_topology
from netradar.transport import SimTransport, TransportError
from netradar.tracetree import (
    DestinationTask,
    TracetreeConfig,
    TracetreeResult,
    TracetreeStats,
    tracetree,
)

D = IPv4Address("10.0.0.4")
D1 = IPv4Address("10.2.0.6")
D2 = IPv4Address("10.2.0.7")


def run_chain(doc=None, tasks=None, config=None, restart_from=None):
    transport = SimTransport(load_topology(doc or dict(CHAIN_DOC)))
    tasks = tasks or [DestinationTask(D, 3)]
    config = config or TracetreeConfig()
    return tracetree(tasks, transport, config, restart_from=restart_from, hops=None), transport


class TestAlgorithm:
    def test_chain_hand_trace(self):
        # echo from d at 3, then time-exceededs walking back: 3 probes
        result, _ = run_chain()
        assert [(str(r.source), r.ttl) for r in result.raw.records] == [
            ("10.0.0.4", 3),
            ("10.0.0.3", 2),
            ("10.0.0.2", 1),
        ]
        assert result.stats.probes_sent == 3
        assert result.distances[D] == 3

    def test_shared_prefix_stops_second_chain(self):
        # after r2 is seen via d1's chain, d2's probing stops at ttl 2:
        # the record (r2, 2, d2) is emitted but no (d2, 1) probe goes out
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree(
            [DestinationTask(D1, 4), DestinationTask(D2, 4)],
            transport,
            TracetreeConfig(),
            restart_from=None,
            hops=None,
        )
        records = result.raw.records
        assert result.stats.probes_sent == 7 == len(records)
        d2_records = [(str(r.source), r.ttl) for r in records if r.destination == D2]
        assert d2_records == [("10.2.0.7", 4), ("10.2.0.5", 3), ("10.2.0.3", 2)]
        # the shared node carries a record per sighting, but only one chain
        # continued below it
        assert sum(1 for r in records if str(r.source) == "10.2.0.3") == 2
        assert not [r for r in records if r.destination == D2 and r.ttl == 1]

    def test_silent_node_yields_star_and_probing_continues(self):
        doc = dict(CHAIN_DOC)
        doc["nodes"] = dict(doc["nodes"])
        doc["nodes"]["r2"] = {"address": "10.0.0.3", "policy": "silent"}
        result, _ = run_chain(doc)
        assert [(str(r.source), r.ttl) for r in result.raw.records] == [
            ("10.0.0.4", 3),
            ("*", 2),
            ("10.0.0.2", 1),
        ]
        assert isinstance(result.raw.records[1].source, Star)
        assert result.stats.probes_sent == 3

    def test_assumed_distance_one_single_probe(self):
        result, _ = run_chain(tasks=[DestinationTask(D, 1)])
        assert result.stats.probes_sent == 1
        assert len(result.raw.records) == 1

    def test_overestimated_distance_walks_echoes_down(self):
        # probes above the true distance all hit the destination
        result, _ = run_chain(tasks=[DestinationTask(D, 6)])
        echoes = [r for r in result.raw.records if r.source == Ip(D)]
        assert {r.ttl for r in echoes} == {3, 4, 5, 6}
        assert result.distances[D] == 3  # smallest echo ttl

    def test_unreachable_destination_all_stars(self):
        result, _ = run_chain(tasks=[DestinationTask(IPv4Address("192.0.2.1"), 4)])
        assert all(isinstance(r.source, Star) for r in result.raw.records)
        assert result.stats.probes_sent == 4
        assert result.distances[IPv4Address("192.0.2.1")] is None


    def test_stars_follow_send_order(self):
        # every probe is sent at once and none is answered, so every token
        # expires in one sweep: the stars keep the order of the sends
        transport = SimTransport(load_topology(dict(CHAIN_DOC)), rate_cap=0)
        sent = []
        send = transport.send
        transport.send = lambda destination, ttl: sent.append((destination, ttl)) or send(destination, ttl)
        unknown = [IPv4Address(f"192.0.2.{i}") for i in range(1, 6)]
        result = tracetree([DestinationTask(d, 3) for d in unknown], transport, TracetreeConfig(), restart_from=None, hops=None)
        assert all(isinstance(r.source, Star) for r in result.raw.records)
        assert [(r.destination, r.ttl) for r in result.raw.records] == sent
        assert [r.ttl for r in result.raw.records[:5]] == [3] * 5


class TestInvariants:
    def test_one_record_per_probe(self):
        doc = shared_prefix_doc()
        doc["nodes"]["t2"] = {"address": "10.2.0.5", "policy": "silent"}
        transport = SimTransport(load_topology(doc))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport, TracetreeConfig(), restart_from=None, hops=None)
        assert result.stats.probes_sent == len(result.raw.records)
        assert transport.stats.sent == result.stats.probes_sent

    def test_no_duplicate_probe_pairs(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport, TracetreeConfig(), restart_from=None, hops=None)
        pairs = [(r.destination, r.ttl) for r in result.raw.records]
        assert len(pairs) == len(set(pairs))

    def test_seen_node_never_triggers_twice(self):
        # repeat sightings of a non-star (hop, ttl) push no further probing
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport, TracetreeConfig(), restart_from=None, hops=None)
        first_for: dict = {}
        ttls_per_dest: dict = {}
        for rec in result.raw.records:
            ttls_per_dest.setdefault(rec.destination, set()).add(rec.ttl)
        for rec in result.raw.records:
            if isinstance(rec.source, Star):
                continue
            key = (rec.source, rec.ttl)
            if key not in first_for:
                first_for[key] = rec.destination
            elif rec.ttl > 1:
                assert rec.ttl - 1 not in ttls_per_dest[rec.destination]

    def test_termination_bound(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        tasks = [DestinationTask(D1, 4), DestinationTask(D2, 4)]
        result = tracetree(tasks, transport, TracetreeConfig(), restart_from=None, hops=None)
        assert result.stats.probes_sent <= sum(t.assumed_distance for t in tasks)

    def test_stable_topology_reruns_identical(self):
        blocks = []
        for _ in range(2):
            transport = SimTransport(load_topology(shared_prefix_doc()))
            result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport, TracetreeConfig(), restart_from=None, hops=None)
            blocks.append(serialize_round(result.raw, 0, 0.0, 1.0))
        assert blocks[0] == blocks[1]

    def test_tree_covers_every_true_link_once(self):
        # exact distances, stable paths: every link on the routing paths
        # appears exactly once in the (hop, ttl) view
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport, TracetreeConfig(), restart_from=None, hops=None)
        expected_links = {
            ("10.2.0.2", "10.2.0.3"),
            ("10.2.0.3", "10.2.0.4"),
            ("10.2.0.3", "10.2.0.5"),
            ("10.2.0.4", "10.2.0.6"),
            ("10.2.0.5", "10.2.0.7"),
        }
        got = {(str(a.hop), str(b.hop)) for a, b in raw_graph(result.raw).edges}
        assert got == expected_links


class TestRestart:
    def test_underestimate_restarts_within_round(self):
        # true distance 3, assumed 2: probe at 2 hits a router, a fresh
        # chain starts at max_ttl, the destination is found, both chains kept
        config = TracetreeConfig(max_ttl=6)
        result, _ = run_chain(tasks=[DestinationTask(D, 2)], config=config, restart_from=6)
        ttls = sorted(r.ttl for r in result.raw.records if r.destination == D)
        assert ttls == [1, 2, 3, 4, 5, 6]
        assert result.distances[D] == 3

    def test_exact_distance_no_restart(self):
        config = TracetreeConfig(max_ttl=6)
        result, _ = run_chain(config=config, restart_from=6)
        assert result.stats.probes_sent == 3

    def test_restart_equals_assumed_is_noop(self):
        config = TracetreeConfig(max_ttl=6)
        result, _ = run_chain(
            tasks=[DestinationTask(IPv4Address("192.0.2.1"), 6)],
            config=config,
            restart_from=6,
        )
        # all stars; the restart push collides with the already-probed chain
        assert result.stats.probes_sent == 6


class Flaky(SimTransport):
    """A simulator transport whose send fails after `fail_after` sends
    (never, at None)."""

    def __init__(self, topology, fail_after, **kwargs):
        super().__init__(topology, **kwargs)
        self._left = fail_after

    def send(self, destination, ttl):
        if self._left == 0:
            raise TransportError("boom")
        if self._left is not None:
            self._left -= 1
        return super().send(destination, ttl)


class TestFaults:
    def test_transport_fault_marks_partial(self):
        transport = Flaky(load_topology(dict(CHAIN_DOC)), fail_after=2)
        result = tracetree([DestinationTask(D, 3)], transport, TracetreeConfig(), restart_from=None, hops=None)
        assert not result.stats.complete
        assert len(result.raw.records) < 3

    def test_bad_inputs_rejected(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        with pytest.raises(ValueError):
            tracetree([], transport, TracetreeConfig(), restart_from=None, hops=None)
        with pytest.raises(ValueError):
            tracetree([DestinationTask(D, 3), DestinationTask(D, 2)], transport, TracetreeConfig(), restart_from=None, hops=None)
        with pytest.raises(ValueError):
            tracetree([DestinationTask(D, 99)], transport, TracetreeConfig(), restart_from=None, hops=None)


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf])
def test_timeout_must_be_finite_and_positive(timeout):
    # a NaN timeout turned every probe into a star
    with pytest.raises(ValueError, match="timeout"):
        TracetreeConfig(timeout=timeout)


class TestTimeoutInfluence:
    def test_shorter_timeout_faster_rounds_more_ignored_replies(self):
        # deep chain with slow hops: replies from far nodes overrun a short
        # timeout, get ignored, and the round finishes sooner
        doc = {
            "monitor": "mon",
            "nodes": {
                "mon": "10.6.0.1",
                "a": "10.6.0.2",
                "b": "10.6.0.3",
                "c": "10.6.0.4",
                "d": "10.6.0.5",
            },
            "links": [["mon", "a"], ["a", "b"], ["b", "c"], ["c", "d"]],
        }
        dest = IPv4Address("10.6.0.5")

        def run(timeout):
            transport = SimTransport(load_topology(doc), per_hop_delay=0.3)
            config = TracetreeConfig(timeout=timeout)
            result = tracetree([DestinationTask(dest, 4)], transport, config, restart_from=None, hops=None)
            return result, transport

        short, short_transport = run(timeout=2.0)   # rtt at depth 4 is 2.4s
        long, long_transport = run(timeout=4.0)
        # both rounds start at 0 on their transport's clock
        assert long_transport.clock.now() > short_transport.clock.now()
        assert short_transport.stats.late > long_transport.stats.late == 0
        assert short.stats.late_replies > 0


# -- the previous tracetree, kept verbatim as the differential test's oracle --
# It keyed the probe state by (address int, ttl) tuples, handled each reply
# through nested functions and built a new Ip per address every round.  The
# current tracetree must emit equal records, distances and stats, on the
# same virtual clock, with or without a carried address table.


def oracle_tracetree(tasks, transport, config: TracetreeConfig | None = None, restart_from: int | None = None) -> TracetreeResult:
    """`tracetree` as it was before its probe state became one int per
    probe: the reference the differential test holds it to."""
    config = config if config is not None else TracetreeConfig()
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no destination tasks")
    destinations = [t.destination for t in tasks]
    by_int = {d._ip: d for d in destinations}
    if len(by_int) != len(destinations):
        raise ValueError("duplicate destinations in task list")
    for task in tasks:
        if not 1 <= task.assumed_distance <= config.max_ttl:
            raise ValueError(
                f"assumed distance {task.assumed_distance} for {task.destination} "
                f"outside [1, {config.max_ttl}]"
            )
    if restart_from is not None and not 1 <= restart_from <= config.max_ttl:
        raise ValueError(f"restart_from {restart_from} outside [1, {config.max_ttl}]")

    transport.prepare(destinations)

    clock = transport.clock
    to_probe: deque[tuple[int, int]] = deque()
    queued: set[tuple[int, int]] = set()
    inflight: dict[tuple[int, int], object] = {}
    seen: set[tuple[int, int]] = set()
    records: list[ProbeRecord] = []
    hops: dict[int, Ip] = {}  # one Ip per replying address this round
    echo_at: dict[int, int] = {}
    assumed = {t.destination._ip: t.assumed_distance for t in tasks}
    reply_buffer: deque = deque()
    stats = TracetreeStats()

    def push(d: int, ttl: int) -> None:
        # one probe per (destination, ttl) per round
        if ttl >= 1 and (d, ttl) not in queued:
            queued.add((d, ttl))
            to_probe.append((d, ttl))

    for d, distance in assumed.items():
        push(d, distance)

    def emit(source, ttl: int, d: int, echo_from_dest: bool) -> None:
        records.append(ProbeRecord(source, ttl, by_int[d]))
        if restart_from is not None and ttl == assumed[d] and not echo_from_dest:
            push(d, restart_from)

    def handle_reply(reply) -> None:
        key = (reply.token.destination._ip, reply.token.ttl)
        token = inflight.get(key)
        if token is None or token.seq != reply.token.seq or reply.late:
            # answer after the timeout (or a stray): ignored, counted
            stats.late_replies += 1
            return
        del inflight[key]
        d, ttl = key
        s = reply.source._ip
        source = hops.get(s)
        if source is None:
            source = hops[s] = Ip(reply.source)
        echo = s == d and reply.kind == "echo_reply"
        if echo:
            echo_at[d] = min(echo_at.get(d, ttl), ttl)
        emit(source, ttl, d, echo)
        if (s, ttl) not in seen:
            seen.add((s, ttl))
            if ttl > 1:
                push(d, ttl - 1)

    try:
        while to_probe or inflight:
            # each pass sends at most one probe and handles at most one reply
            if to_probe:
                key = to_probe.popleft()
                inflight[key] = transport.send(by_int[key[0]], key[1])
                stats.probes_sent += 1
            if not reply_buffer and inflight:
                if to_probe:
                    deadline = clock.now()
                else:
                    # tokens sit in send order, so the first one expires first
                    deadline = next(iter(inflight.values())).sent_at + config.timeout
                reply_buffer.extend(transport.poll(deadline))
            if reply_buffer:
                handle_reply(reply_buffer.popleft())
            now = clock.now()
            # tokens sit in send order and each key is sent once a round, so
            # the expired tokens are a prefix: sweep it and stop.  Same float
            # expression as the poll deadline (sent_at + timeout): a
            # subtraction here can disagree by one ulp and stall the sweep
            while inflight:
                key, token = next(iter(inflight.items()))
                if now < token.sent_at + config.timeout:
                    break
                del inflight[key]
                transport.expire(token)
                d, ttl = key
                emit(Star(dotted_quad(d)), ttl, d, False)
                if ttl > 1:
                    push(d, ttl - 1)
    except TransportError:
        stats.complete = False

    raw = RawTraceTree.from_records(records)
    distances = {dest: echo_at.get(d) for d, dest in by_int.items()}
    return TracetreeResult(raw=raw, distances=distances, stats=stats, hops=hops)


POLICIES = ["responsive", "silent", {"rate": 2.0}, {"rate": 0.5, "burst": 2}]
UNKNOWN = IPv4Address("10.70.1.250")  # never a node: all stars


@st.composite
def measurement_scenarios(draw):
    """A random topology of up to 10 nodes (n0 the monitor) with every
    policy, per-destination and per-packet balancers and one scheduled
    event, and the settings of two consecutive rounds over it.  The
    document is what a JSON topology file holds."""
    count = draw(st.integers(2, 10))
    names = [f"n{i}" for i in range(count)]
    addresses = [f"10.70.0.{i + 1}" for i in range(count)]
    nodes = {n: {"address": a, "policy": draw(st.sampled_from(POLICIES))} for n, a in zip(names, addresses)}
    nodes["n0"]["policy"] = "responsive"
    links = [(draw(st.sampled_from(names[:i])), names[i]) for i in range(1, count)]
    links += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names[1:])), max_size=count))
    neighbours = {name: sorted({v for u, v in links if u == name}) for name in names}
    balancers = {}
    for name in names:
        if not neighbours[name] or draw(st.integers(0, 2)):
            continue
        if draw(st.booleans()):
            balancers[name] = {"per_packet": draw(st.lists(st.sampled_from(neighbours[name]), min_size=1, max_size=3))}
        else:
            table = draw(st.dictionaries(st.sampled_from(addresses), st.sampled_from(neighbours[name]), max_size=3))
            balancers[name] = {"per_destination": table}
    at = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]))
    victim = draw(st.sampled_from(names[1:]))
    event = draw(
        st.sampled_from(
            [
                {"at": at, "remove_node": victim},
                {"at": at, "change_policy": {"node": victim, "policy": "silent"}},
                {"at": at, "rewire": {"node": "n0", "add": victim}},
            ]
        )
    )
    doc = {
        "monitor": "n0",
        "nodes": nodes,
        "links": links,
        "balancers": balancers,
        "events": [event],
    }
    targets = [IPv4Address(a) for a in addresses[1:]] + [UNKNOWN]
    max_ttl = draw(st.integers(3, 8))
    rounds = []
    for _ in range(2):
        destinations = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=len(targets), unique=True))
        rounds.append([DestinationTask(d, draw(st.integers(1, max_ttl))) for d in destinations])
    knobs = {
        "config": TracetreeConfig(max_ttl=max_ttl, timeout=draw(st.sampled_from([0.03, 0.1, 2.0]))),
        "restart_from": draw(st.sampled_from([None, max_ttl, 1])),
        "per_hop_delay": draw(st.sampled_from([0.01, 0.04])),
        "rate_cap": draw(st.sampled_from([0.0, 200.0])),
        "fail_after": draw(st.sampled_from([None, None, 3, 12])),
    }
    return json.loads(json.dumps(doc)), rounds, knobs


@settings(max_examples=100, deadline=None)
@given(measurement_scenarios())
def test_round_columns_equal_those_built_from_its_records(scenario):
    # stars, restart chains, balancers and a transport fault included
    doc, rounds, s = scenario
    transport = Flaky(load_topology(doc), s["fail_after"], per_hop_delay=s["per_hop_delay"], rate_cap=s["rate_cap"])
    hops = {}
    for tasks in rounds:
        result = tracetree(tasks, transport, s["config"], restart_from=s["restart_from"], hops=hops)
        assert_same_columns(result.raw, RawTraceTree.from_records(result.raw.records))
        if result.stats.complete:  # a fault leaves the probes in flight unrecorded
            assert len(result.raw.keys) == result.stats.probes_sent
        hops = result.hops


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(measurement_scenarios())
    def test_same_rounds_with_a_carried_table(self, scenario):
        doc, rounds, s = scenario
        topology = load_topology(doc)
        transports = [
            Flaky(topology, s["fail_after"], per_hop_delay=s["per_hop_delay"], rate_cap=s["rate_cap"])
            for _ in range(2)
        ]
        hops = {}
        for tasks in rounds:
            new = tracetree(tasks, transports[0], s["config"], restart_from=s["restart_from"], hops=hops)
            old = oracle_tracetree(tasks, transports[1], s["config"], restart_from=s["restart_from"])
            assert new.raw.records == old.raw.records
            assert serialize_round(new.raw, 0, 0.0, 0.0) == serialize_round(old.raw, 0, 0.0, 0.0)
            assert new.distances == old.distances
            assert new.stats == old.stats  # probes_sent, late_replies, complete
            assert transports[0].clock.now() == transports[1].clock.now()
            answered = {r.source._int for r in new.raw.records if isinstance(r.source, Ip)}
            assert set(new.hops) == answered
            for record in new.raw.records:
                if isinstance(record.source, Ip) and record.source._int in hops:
                    assert record.source is hops[record.source._int]
            hops = new.hops
