"""Round scheduling and the distance cache."""
from __future__ import annotations

import gc
import math
import tracemalloc
from ipaddress import IPv4Address

import pytest

from conftest import CHAIN_DOC, assert_same_columns, perfbench_inet
from netradar import radar
from netradar.baseline import traceroute_round
from netradar.icmp import IcmpTransport
from netradar.model import Ip, Star, TtlNode, parse_round_log, serialize_round
from netradar.radar import (
    DatasetWriter,
    RadarConfig,
    load_destinations,
    next_round_tasks,
    run_radar,
)
from netradar.simnet import SimState, load_topology
from netradar.tracetree import TracetreeConfig, tracetree
from netradar.transport import SimTransport, TransportError

from test_acceptance import fan_doc
from test_icmp import SimulatedWire

D = IPv4Address("10.0.0.4")


def small_config(destinations, rounds, max_ttl=8, inter_round=600.0):
    return RadarConfig(
        destinations=destinations,
        inter_round_delay=inter_round,
        rounds=rounds,
        tracetree=TracetreeConfig(max_ttl=max_ttl),
    )


class TestCacheOps:
    def test_empty_cache_uses_default(self):
        tasks = next_round_tasks({}, [D], default_distance=30)
        assert all(t.assumed_distance == 30 for t in tasks)

    def test_cache_hit(self):
        [task] = next_round_tasks({D: 7}, [D], default_distance=30)
        assert task.assumed_distance == 7

    # the cache is the last round's distances: None for a destination the
    # round did not see
    def test_not_seen_evicted(self):
        [task] = next_round_tasks({D: None}, [D], default_distance=30)
        assert task.assumed_distance == 30

    def test_seen_updates(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        config = TracetreeConfig(max_ttl=8)
        result = tracetree(next_round_tasks({}, [D], 8), transport, config, restart_from=8, hops=None)
        assert result.distances == {D: 3}
        [task] = next_round_tasks(result.distances, [D], default_distance=8)
        assert task.assumed_distance == 3

    def test_stable_routing_fixed_point(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        config = TracetreeConfig(max_ttl=8)
        cache = {D: 3}
        for _ in range(2):
            tasks = next_round_tasks(cache, [D], default_distance=8)
            assert [task.assumed_distance for task in tasks] == [3]
            cache = tracetree(tasks, transport, config, restart_from=8, hops=None).distances
        assert cache == {D: 3}


class TestRunRadar:
    def test_stable_rounds_identical_trees(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=3), transport)
        assert len(dataset.rounds) == 3
        trees = [rec.tree for rec in dataset.rounds]
        assert trees[0].nodes == trees[1].nodes == trees[2].nodes
        assert trees[0].edges == trees[1].edges == trees[2].edges
        # cache converged after round 1: round 2 needs fewer probes
        probes = [rec.probes_sent for rec in dataset.rounds]
        assert probes[0] > probes[1] == probes[2]

    def test_round2_equals_round1_tree(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=2), transport)
        assert dataset.rounds[0].tree.edges == dataset.rounds[1].tree.edges

    def test_zero_rounds_empty_dataset(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=0), transport)
        assert dataset.rounds == []

    def test_pacing_start_to_start(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=3, inter_round=600.0), transport)
        starts = [rec.start_time for rec in dataset.rounds]
        assert starts[1] - starts[0] == pytest.approx(600.0)
        assert starts[2] - starts[1] == pytest.approx(600.0)

    def test_overrunning_round_starts_next_immediately(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=2, inter_round=0.0), transport)
        assert dataset.rounds[1].start_time >= dataset.rounds[0].end_time

    def test_indices_strictly_increasing(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        dataset = run_radar(small_config([D], rounds=4), transport)
        indices = [rec.index for rec in dataset.rounds]
        assert indices == sorted(set(indices)) == [0, 1, 2, 3]

    def test_transport_fault_flags_round_and_continues(self):
        class Flaky(SimTransport):
            def __init__(self, topology, fail_range):
                super().__init__(topology)
                self._count = 0
                self._fail_range = fail_range

            def send(self, destination, ttl):
                self._count += 1
                if self._count in self._fail_range:
                    raise TransportError("link down")
                return super().send(destination, ttl)

        transport = Flaky(load_topology(dict(CHAIN_DOC)), fail_range=range(9, 11))
        dataset = run_radar(small_config([D], rounds=3), transport)
        assert len(dataset.rounds) == 3
        flags = [rec.complete for rec in dataset.rounds]
        assert False in flags and True in flags

    def test_kept_rounds_hold_no_raw_graph(self, fig1_topology):
        # a kept round holds its probe records; the (hop, ttl) graph is
        # derived for the filter and dropped, so no TtlNode outlives it
        def alive_ttl_nodes():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is TtlNode)

        destinations = [IPv4Address(a) for a in ("10.0.1.14", "10.0.1.15", "10.0.1.16")]
        before = alive_ttl_nodes()
        dataset = run_radar(small_config(destinations, rounds=6), SimTransport(fig1_topology))
        assert alive_ttl_nodes() == before
        assert len(dataset.rounds) == 6
        assert all(rec.raw.records for rec in dataset.rounds)

    def test_a_kept_round_costs_under_20_bytes_a_record(self):
        # a steady fan round over the carried address table keeps one hop
        # slot and one packed key per record, and no tuple per record
        doc, destinations = fan_doc(chains=200, depth=10)

        class TraceAfterRoundZero:
            def write(self, record):
                if record.index == 0:
                    gc.collect()
                    tracemalloc.start()

        try:
            transport = SimTransport(load_topology(doc))
            dataset = run_radar(small_config(destinations, rounds=2, max_ttl=12), transport, TraceAfterRoundZero())
            record = dataset.rounds[1]
            count = len(record.raw.keys)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            record.raw = None
            gc.collect()
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert count == record.probes_sent == 2000
        assert kept <= 20 * count, f"{kept / count:.1f} bytes kept per record"

    def test_rounds_run_as_they_are_taken(self):
        # no round runs ahead of the caller, and None runs without end
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        rounds = radar.radar_rounds(small_config([D], rounds=None), transport)
        first = next(rounds)
        assert transport.stats.sent == first.probes_sent
        second = next(rounds)
        assert (first.index, second.index) == (0, 1)
        assert transport.stats.sent == first.probes_sent + second.probes_sent

    def test_interrupt_preserves_partial_dataset(self):
        class Interrupting(SimTransport):
            def __init__(self, topology, after):
                super().__init__(topology)
                self._left = after

            def send(self, destination, ttl):
                if self._left == 0:
                    raise KeyboardInterrupt
                self._left -= 1
                return super().send(destination, ttl)

        transport = Interrupting(load_topology(dict(CHAIN_DOC)), after=10)
        dataset = run_radar(small_config([D], rounds=5), transport)
        assert 1 <= len(dataset.rounds) < 5


class TestCarriedTable:
    """`run_radar` hands each round the previous round's address table."""

    def doc(self):
        # mon -> r1 -> {a, b} -> d: d is reached through a (the lower
        # address) until a is removed at t=300, between rounds 0 and 1
        return {
            "monitor": "mon",
            "nodes": {
                "mon": "10.8.0.1",
                "r1": "10.8.0.2",
                "a": "10.8.0.3",
                "b": "10.8.0.4",
                "d": "10.8.0.5",
            },
            "links": [["mon", "r1"], ["r1", "a"], ["r1", "b"], ["a", "d"], ["b", "d"]],
            "events": [{"at": 300.0, "remove_node": "a"}],
        }

    def run(self, monkeypatch, path, carry=True):
        calls = []

        def spy(*args, **kwargs):
            if not carry:
                kwargs["hops"] = {}
            result = tracetree(*args, **kwargs)
            calls.append((kwargs["hops"], result))
            return result

        monkeypatch.setattr(radar, "tracetree", spy)
        transport = SimTransport(load_topology(self.doc()))
        with DatasetWriter(path) as sink:
            run_radar(small_config([IPv4Address("10.8.0.5")], rounds=3), transport, sink)
        return calls

    def test_rounds_share_one_ip_per_address(self, monkeypatch, tmp_path):
        calls = self.run(monkeypatch, tmp_path / "carried.rounds")
        assert calls[0][0] == {}
        answered = []
        for given, result in calls:
            sources = [r.source for r in result.raw.records if isinstance(r.source, Ip)]
            answered.append({ip._int for ip in sources})
            # the table holds exactly the addresses that answered this round
            assert set(result.hops) == answered[-1]
            for ip in sources:
                if ip._int in given:
                    assert ip is given[ip._int]
        # each round is handed exactly the table of the round before it
        for (_, before), (given, _) in zip(calls, calls[1:]):
            assert given is before.hops
        a, b = int(IPv4Address("10.8.0.3")), int(IPv4Address("10.8.0.4"))
        assert a in answered[0] and b not in answered[0]
        # the removed address drops out of the table round 1 hands on
        assert a not in calls[2][0] and b in calls[2][0]
        # round 2 is steady: every source is round 1's object
        steady = calls[2][1].raw.records
        assert all(r.source is calls[1][1].hops[r.source._int] for r in steady)

    def test_round_logs_equal_without_the_table(self, monkeypatch, tmp_path):
        self.run(monkeypatch, tmp_path / "carried.rounds")
        self.run(monkeypatch, tmp_path / "fresh.rounds", carry=False)
        carried = (tmp_path / "carried.rounds").read_text(encoding="utf-8")
        assert carried == (tmp_path / "fresh.rounds").read_text(encoding="utf-8")
        assert carried.count("#round") == 3


class TestDistanceScenarios:
    def shortening_doc(self):
        # mon -> a -> b -> c -> d (distance 4); at t=900 a links straight
        # to c (distance 3)
        return {
            "monitor": "mon",
            "nodes": {
                "mon": "10.7.0.1",
                "a": "10.7.0.2",
                "b": "10.7.0.3",
                "c": "10.7.0.4",
                "d": "10.7.0.5",
            },
            "links": [["mon", "a"], ["a", "b"], ["b", "c"], ["c", "d"]],
            "events": [{"at": 900.0, "rewire": {"node": "a", "remove": "b", "add": "c"}}],
        }

    def lengthening_doc(self):
        # distance 3 initially (a -> c direct), 4 after t=900 (via b)
        doc = self.shortening_doc()
        doc["links"] = [["mon", "a"], ["a", "c"], ["b", "c"], ["c", "d"]]
        doc["events"] = [{"at": 900.0, "rewire": {"node": "a", "remove": "c", "add": "b"}}]
        return doc

    def test_route_shortening_one_round_convergence(self):
        dest = IPv4Address("10.7.0.5")
        transport = SimTransport(load_topology(self.shortening_doc()))
        dataset = run_radar(small_config([dest], rounds=3), transport)
        # round 0: default; round 1 runs before t=900 with cached 4;
        # round 2 (t=1200) probes from 4, an over-estimate, and recovers
        assert dataset.rounds[1].probes_sent == 4
        tree = dataset.rounds[2].tree
        assert tree.terminals[dest].address == dest
        # over-estimated round still converges the cache: round 3 would probe 3
        transport2 = SimTransport(load_topology(self.shortening_doc()))
        dataset2 = run_radar(small_config([dest], rounds=4), transport2)
        assert dataset2.rounds[3].probes_sent == 3

    def test_route_lengthening_recovers_within_round(self):
        dest = IPv4Address("10.7.0.5")
        transport = SimTransport(load_topology(self.lengthening_doc()))
        dataset = run_radar(small_config([dest], rounds=3), transport)
        # round 2 probes from the stale distance 3, hits a router, restarts
        # from the default, and still reaches the destination's terminal link
        lengthened = dataset.rounds[2]
        assert lengthened.tree.terminals[dest].address == dest
        parent = lengthened.tree.parents[lengthened.tree.terminals[dest]]
        assert parent.address == IPv4Address("10.7.0.4")  # c -> d retained
        assert lengthened.probes_sent > dataset.rounds[1].probes_sent

    def test_unreachable_destination_evicted(self):
        doc = dict(CHAIN_DOC)
        doc["events"] = [{"at": 900.0, "rewire": {"node": "r2", "remove": "d"}}]
        transport = SimTransport(load_topology(doc))
        dataset = run_radar(small_config([D], rounds=4), transport)
        # round 2: stale chain (3..1) stars, restart tops up 8..4, no echo
        stale = dataset.rounds[2]
        assert stale.probes_sent == 8
        assert isinstance(stale.tree.terminals[D], type(stale.tree.terminals[D]))
        # cache evicted: round 3 starts from the default for the whole chain
        fresh = dataset.rounds[3]
        ttls = sorted(r.ttl for r in fresh.raw.records)
        assert ttls == list(range(1, 9))
        assert all(str(r.source) == "*" for r in fresh.raw.records)


class TestSinkAndInputs:
    def test_dataset_writer_round_trips(self, tmp_path):
        path = tmp_path / "rounds.log"
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        with DatasetWriter(path) as sink:
            dataset = run_radar(small_config([D], rounds=2), transport, sink)
        parsed = parse_round_log(path.read_text(encoding="utf-8"))
        assert len(parsed) == 2
        assert [meta.index for meta, _ in parsed] == [0, 1]
        assert parsed[0][1].records == dataset.rounds[0].raw.records

    def test_load_destinations(self, tmp_path):
        path = tmp_path / "dests.txt"
        path.write_text("# header\n10.0.0.4\n\n10.0.0.3 # trailing\n", encoding="utf-8")
        assert load_destinations(path) == [IPv4Address("10.0.0.4"), IPv4Address("10.0.0.3")]

    def test_load_destinations_bad_line(self, tmp_path):
        path = tmp_path / "dests.txt"
        path.write_text("not-an-address\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1|:1:"):
            load_destinations(path)

    @pytest.mark.parametrize(
        "text, message",
        [("", "no destinations"), ("# only a comment\n", "no destinations"), ("10.0.0.4\n\n10.0.0.4\n", ":3: duplicate destination 10.0.0.4")],
    )
    def test_load_destinations_empty_or_repeated(self, tmp_path, text, message):
        path = tmp_path / "dests.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_destinations(path)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_inter_round_delay_must_be_finite(self, delay):
        # a NaN delay ran the rounds back to back
        with pytest.raises(ValueError, match="inter_round_delay"):
            small_config([D], rounds=1, inter_round=delay)

    def test_negative_rounds_rejected(self):
        # -1 used to run zero rounds without a word
        with pytest.raises(ValueError, match="rounds"):
            small_config([D], rounds=-1)

    def test_empty_destinations_rejected(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        with pytest.raises(ValueError):
            run_radar(small_config([], rounds=1), transport)


def assert_one_record_per_slot(raw):
    """`raw` holds at most one record per (destination, ttl), and its round
    log block reads back as the same round."""
    assert len(set(raw.keys)) == len(raw.keys)
    [(_, parsed)] = parse_round_log(serialize_round(raw, 0, 0.0, 1.0))
    assert_same_columns(parsed, raw)


class TestOneRecordPerSlot:
    """Every round netradar writes keeps the round log's rule."""

    def test_tracetree_rounds_with_a_restart_chain(self):
        dest = IPv4Address("10.7.0.5")
        transport = SimTransport(load_topology(TestDistanceScenarios().lengthening_doc()))
        dataset = run_radar(small_config([dest], rounds=3), transport)
        # round 2 probes the stale chain from ttl 3 and restarts from 8,
        # which reaches ttl 3 again
        assert {key & 127 for key in dataset.rounds[2].raw.keys} == set(range(1, 9))
        for record in dataset.rounds:
            assert_one_record_per_slot(record.raw)

    def test_a_cut_round(self):
        inet = perfbench_inet()
        net = inet.generate(3001, 200, inet.EventRounds(island=3, lengthen=4, cut=1, policy=5), cut_share=0.35)
        config = RadarConfig([IPv4Address(d) for d in net.destinations], inter_round_delay=inet.ROUND_DELAY, rounds=2)
        cut = run_radar(config, SimTransport(load_topology(net.doc))).rounds[1].raw
        assert sum(source.__class__ is Star for source in cut.sources) > 1000
        assert_one_record_per_slot(cut)

    def test_an_incomplete_round(self):
        class Failing(SimTransport):
            def send(self, destination, ttl):
                if self.stats.sent == 2:
                    raise TransportError("link down")
                return super().send(destination, ttl)

        transport = Failing(load_topology(dict(CHAIN_DOC)))
        [record] = run_radar(small_config([D], rounds=1), transport).rounds
        assert not record.complete and len(record.raw.keys) == 2
        assert_one_record_per_slot(record.raw)

    def test_a_traceroute_round(self, fig1_topology):
        destinations = [IPv4Address(a) for a in ("10.0.1.14", "10.0.1.15", "10.0.1.16")]
        assert_one_record_per_slot(traceroute_round(destinations, SimTransport(fig1_topology), TracetreeConfig()))

    def test_rounds_over_the_wire(self, monkeypatch, fig1_topology):
        monitor = Ip(fig1_topology.addresses[fig1_topology.monitor])
        monkeypatch.setattr(IcmpTransport, "monitor_hop", property(lambda self: monitor))
        monkeypatch.setattr(IcmpTransport, "_open_socket", lambda self: SimulatedWire(SimState(fig1_topology)))
        destinations = [IPv4Address(a) for a in ("10.0.1.14", "10.0.1.15", "10.0.1.16")]
        config = RadarConfig(destinations, inter_round_delay=0.0, rounds=3, tracetree=TracetreeConfig(timeout=0.2))
        wire = IcmpTransport(rate_cap=0.0)
        try:
            rounds = run_radar(config, wire).rounds
        finally:
            wire.close()
        assert len(rounds) == 3
        for record in rounds:
            assert_one_record_per_slot(record.raw)
