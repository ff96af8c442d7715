"""The backward tree measurement engine against the simulator."""
from __future__ import annotations

import math
from ipaddress import IPv4Address

import pytest

from conftest import CHAIN_DOC, shared_prefix_doc
from netradar.model import Ip, Star, serialize_round
from netradar.simnet import load_topology
from netradar.transport import SimTransport, TransportError
from netradar.tracetree import (
    DestinationTask,
    TracetreeConfig,
    tracetree,
)

D = IPv4Address("10.0.0.4")
D1 = IPv4Address("10.2.0.6")
D2 = IPv4Address("10.2.0.7")


def run_chain(doc=None, tasks=None, config=None, **kwargs):
    transport = SimTransport(load_topology(doc or dict(CHAIN_DOC)))
    tasks = tasks or [DestinationTask(D, 3)]
    return tracetree(tasks, transport, config, **kwargs), transport


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
            [DestinationTask(D1, 4), DestinationTask(D2, 4)], transport
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
        result = tracetree([DestinationTask(d, 3) for d in unknown], transport)
        assert all(isinstance(r.source, Star) for r in result.raw.records)
        assert [(r.destination, r.ttl) for r in result.raw.records] == sent
        assert [r.ttl for r in result.raw.records[:5]] == [3] * 5


class TestInvariants:
    def test_one_record_per_probe(self):
        doc = shared_prefix_doc()
        doc["nodes"]["t2"] = {"address": "10.2.0.5", "policy": "silent"}
        transport = SimTransport(load_topology(doc))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
        assert result.stats.probes_sent == len(result.raw.records)
        assert transport.stats.sent == result.stats.probes_sent

    def test_no_duplicate_probe_pairs(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
        pairs = [(r.destination, r.ttl) for r in result.raw.records]
        assert len(pairs) == len(set(pairs))

    def test_seen_node_never_triggers_twice(self):
        # repeat sightings of a non-star (hop, ttl) push no further probing
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
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
        result = tracetree(tasks, transport)
        assert result.stats.probes_sent <= sum(t.assumed_distance for t in tasks)

    def test_stable_topology_reruns_identical(self):
        blocks = []
        for _ in range(2):
            transport = SimTransport(load_topology(shared_prefix_doc()))
            result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
            blocks.append(serialize_round(result.raw, 0, 0.0, 1.0))
        assert blocks[0] == blocks[1]

    def test_tree_covers_every_true_link_once(self):
        # exact distances, stable paths: every link on the routing paths
        # appears exactly once in the (hop, ttl) view
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
        expected_links = {
            ("10.2.0.2", "10.2.0.3"),
            ("10.2.0.3", "10.2.0.4"),
            ("10.2.0.3", "10.2.0.5"),
            ("10.2.0.4", "10.2.0.6"),
            ("10.2.0.5", "10.2.0.7"),
        }
        got = {(str(a.hop), str(b.hop)) for a, b in result.raw.edges}
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


class TestFaults:
    def test_transport_fault_marks_partial(self):
        class Flaky(SimTransport):
            def __init__(self, topology, fail_after):
                super().__init__(topology)
                self._left = fail_after

            def send(self, destination, ttl):
                if self._left == 0:
                    raise TransportError("boom")
                self._left -= 1
                return super().send(destination, ttl)

        transport = Flaky(load_topology(dict(CHAIN_DOC)), fail_after=2)
        result = tracetree([DestinationTask(D, 3)], transport)
        assert not result.stats.complete
        assert len(result.raw.records) < 3

    def test_bad_inputs_rejected(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        with pytest.raises(ValueError):
            tracetree([], transport)
        with pytest.raises(ValueError):
            tracetree([DestinationTask(D, 3), DestinationTask(D, 2)], transport)
        with pytest.raises(ValueError):
            tracetree([DestinationTask(D, 99)], transport)


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
            result = tracetree([DestinationTask(dest, 4)], transport, config)
            return result, transport

        short, short_transport = run(timeout=2.0)   # rtt at depth 4 is 2.4s
        long, long_transport = run(timeout=4.0)
        assert long.stats.duration > short.stats.duration
        assert short_transport.stats.late > long_transport.stats.late == 0
        assert short.stats.late_replies > 0
