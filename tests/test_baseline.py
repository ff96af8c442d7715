"""Traceroute baseline and the probing-cost comparison analyses."""
from __future__ import annotations

from collections import Counter
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHAIN_DOC,
    dataset_observations,
    ip,
    shared_prefix_doc,
    star_destinations,
    star_topology_doc,
    step_value,
)
from netradar.baseline import (
    cumulative_discovery_curves,
    link_load_distribution,
    record_ips,
    simulate_destination_subset,
    simulate_tracetree_from_traceroute,
    traceroute_round,
)
from netradar.cli import _load_dataset
from netradar.model import Hop, Ip, ProbeRecord, RawTraceTree, Star, TtlNode, parse_round_log, serialize_round
from netradar.radar import DatasetWriter, RadarConfig, run_radar
from netradar.simnet import load_topology
from netradar.tracetree import DestinationTask, TracetreeConfig, tracetree
from netradar.transport import SimTransport, TransportError
from test_filter import random_routes

D = IPv4Address("10.0.0.4")
D1 = IPv4Address("10.2.0.6")
D2 = IPv4Address("10.2.0.7")


class TestTracerouteRound:
    def test_textbook_chain(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        round_ = traceroute_round([D], transport)
        assert [(r.source, r.ttl, r.destination) for r in round_.records] == [
            (ip("10.0.0.2"), 1, D),
            (ip("10.0.0.3"), 2, D),
            (ip("10.0.0.4"), 3, D),
        ]

    def test_shared_first_hop_traversed_per_destination(self):
        doc = star_topology_doc(3)
        transport = SimTransport(load_topology(doc))
        round_ = traceroute_round(star_destinations(3), transport)
        hub = ip("10.1.0.2")
        first_hops = [r.source for r in round_.records if r.ttl == 1]
        assert first_hops == [hub, hub, hub]
        loads = link_load_distribution(round_, first_hops=True)
        assert loads[3] == 1  # the monitor's link, once per destination

    def test_silent_node_leaves_star_and_continues(self):
        doc = dict(CHAIN_DOC)
        doc["nodes"] = dict(doc["nodes"])
        doc["nodes"]["r2"] = {"address": "10.0.0.3", "policy": "silent"}
        transport = SimTransport(load_topology(doc))
        round_ = traceroute_round([D], transport)
        hops = round_.records
        assert isinstance(hops[1].source, Star) and hops[1].ttl == 2
        assert hops[2].source == Ip(D)

    def test_packet_count_sums_route_lengths(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        round_ = traceroute_round([D1, D2], transport)
        assert Counter(r.destination for r in round_.records) == {D1: 4, D2: 4}


class TestSimulatedTracetree:
    def test_single_destination_reversed_route(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        round_ = traceroute_round([D], transport)
        simulated = simulate_tracetree_from_traceroute(round_)
        assert [(r.source, r.ttl) for r in simulated.records] == [
            (ip("10.0.0.4"), 3),
            (ip("10.0.0.3"), 2),
            (ip("10.0.0.2"), 1),
        ]

    def test_shared_prefix_probed_once(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        round_ = traceroute_round([D1, D2], transport)
        simulated = simulate_tracetree_from_traceroute(round_)
        # 8 traceroute packets; the second chain stops at the junction
        assert len(simulated.records) == 7
        shared = [r for r in simulated.records if str(r.source) == "10.2.0.3"]
        assert len(shared) == 2  # sighted by both, probed below by one
        assert len({(r.source, r.ttl) for r in simulated.records}) == 6

    def test_disjoint_routes_same_packet_count(self):
        doc = {
            "monitor": "mon",
            "nodes": {
                "mon": "10.8.0.1",
                "a1": "10.8.0.2",
                "a2": "10.8.0.3",
                "b1": "10.8.0.4",
                "b2": "10.8.0.5",
            },
            "links": [["mon", "a1"], ["a1", "a2"], ["mon", "b1"], ["b1", "b2"]],
        }
        transport = SimTransport(load_topology(doc))
        dests = [IPv4Address("10.8.0.3"), IPv4Address("10.8.0.5")]
        round_ = traceroute_round(dests, transport)
        simulated = simulate_tracetree_from_traceroute(round_)
        assert len(simulated.records) == len(round_.records)

    def test_matches_live_tracetree_on_stable_sim(self):
        # same record multiset as an actual tree measurement with exact distances
        transport = SimTransport(load_topology(shared_prefix_doc()))
        round_ = traceroute_round([D1, D2], transport)
        simulated = simulate_tracetree_from_traceroute(round_)
        live_transport = SimTransport(load_topology(shared_prefix_doc()))
        live = tracetree(
            [DestinationTask(D1, 4), DestinationTask(D2, 4)], live_transport
        )
        as_set = lambda raw: {(r.source, r.ttl, r.destination) for r in raw.records}
        assert as_set(simulated) == as_set(live.raw)


class TestLinkLoads:
    def test_star_topology_histogram(self):
        k = 5
        transport = SimTransport(load_topology(star_topology_doc(k)))
        round_ = traceroute_round(star_destinations(k), transport)
        loads = link_load_distribution(round_, first_hops=True)
        assert loads == {1: k, k: 1}

    def test_single_destination_all_ones(self):
        transport = SimTransport(load_topology(dict(CHAIN_DOC)))
        round_ = traceroute_round([D], transport)
        loads = link_load_distribution(round_, first_hops=True)
        assert set(loads) == {1}

    def test_tracetree_loads_all_one(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        result = tracetree([DestinationTask(D1, 4), DestinationTask(D2, 4)], transport)
        loads = link_load_distribution(result.raw)
        assert set(loads) == {1}

    def test_tracetree_loads_all_one_on_star_topology(self):
        k = 5
        transport = SimTransport(load_topology(star_topology_doc(k)))
        tasks = [DestinationTask(d, 2) for d in star_destinations(k)]
        result = tracetree(tasks, transport)
        loads = link_load_distribution(result.raw)
        assert set(loads) == {1}


def oracle_link_load_distribution(routes, root: Hop | None = None) -> dict[int, int]:
    """Histogram of link discovery counts: for each directed (hop, ttl)
    link appearing in the routes, how many destinations discovered it,
    bucketed as {times_discovered: number_of_links}.

    Pass the monitor as `root` to count first-hop links (traceroute
    routes start at the monitor); tree-measurement chains pass None, as
    partial chains do not re-traverse the link into their junction.
    """
    loads: Counter = Counter()
    for hops in routes.values():
        by_ttl: dict[int, list[Hop]] = {}
        for node in hops:
            by_ttl.setdefault(node.ttl, []).append(node.hop)
        links: set[tuple[TtlNode, TtlNode]] = set()
        if root is not None:
            for hop in by_ttl.get(1, ()):
                links.add((TtlNode(root, 0), TtlNode(hop, 1)))
        for ttl, lows in by_ttl.items():
            highs = by_ttl.get(ttl + 1)
            if not highs:
                continue
            for low in lows:
                for high in highs:
                    links.add((TtlNode(low, ttl), TtlNode(high, ttl + 1)))
        for link in links:
            loads[link] += 1
    return dict(Counter(loads.values()))


@st.composite
def messy_routes(draw):
    """The routes of a `random_routes` round with hops listed twice, extra
    hops at a ttl already taken (a balancer), and every route in shuffled
    order."""
    rng = draw(st.randoms(use_true_random=False))
    routes: dict[IPv4Address, list[TtlNode]] = {}
    for rec in random_routes(rng, loops=draw(st.booleans()), stars=draw(st.booleans())).records:
        routes.setdefault(rec.destination, []).append(TtlNode(rec.source, rec.ttl))
    hops_anywhere = [node.hop for hops in routes.values() for node in hops]
    for hops in routes.values():
        hops.extend(rng.choices(hops, k=rng.randint(0, 3)))
        for _ in range(rng.randint(0, 2)):
            hops.append(TtlNode(rng.choice(hops_anywhere), rng.choice(hops).ttl))
        rng.shuffle(hops)
    return routes


class TestLinkLoadsAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(messy_routes(), st.sampled_from([None, ip("10.20.9.1")]))
    def test_same_histogram(self, routes, root):
        round_ = RawTraceTree.from_records(
            ProbeRecord(node.hop, node.ttl, destination) for destination, hops in routes.items() for node in hops
        )
        assert link_load_distribution(round_, first_hops=root is not None) == oracle_link_load_distribution(routes, root)


class TestDestinationSubset:
    def radar_dataset(self, doc, destinations, rounds=2, max_ttl=8):
        transport = SimTransport(load_topology(doc))
        config = RadarConfig(
            destinations=destinations,
            inter_round_delay=600.0,
            rounds=rounds,
            tracetree=TracetreeConfig(max_ttl=max_ttl),
        )
        return run_radar(config, transport)

    def test_full_subset_is_identity(self):
        dataset = self.radar_dataset(shared_prefix_doc(), [D1, D2])
        subset = simulate_destination_subset(dataset, [D1, D2])
        for original, kept in zip(dataset.rounds, subset.rounds):
            assert kept.tree.nodes == original.tree.nodes
            assert kept.tree.edges == original.tree.edges

    def test_empty_subset_empty_trees(self):
        dataset = self.radar_dataset(shared_prefix_doc(), [D1, D2])
        subset = simulate_destination_subset(dataset, [])
        for rec in subset.rounds:
            assert rec.tree.nodes == {rec.tree.root}
            assert rec.tree.observed_ips() == set()

    def test_unknown_destination_rejected(self):
        dataset = self.radar_dataset(shared_prefix_doc(), [D1, D2])
        with pytest.raises(ValueError, match="unknown"):
            simulate_destination_subset(dataset, [IPv4Address("203.0.113.9")])

    def test_same_on_the_reloaded_log(self, tmp_path):
        # a dataset knows a destination from its terminals, in memory and
        # reloaded from its log alike
        path = tmp_path / "data.rounds"
        transport = SimTransport(load_topology(shared_prefix_doc()))
        config = RadarConfig([D1, D2], rounds=3, tracetree=TracetreeConfig(max_ttl=8))
        with DatasetWriter(path) as sink:
            in_memory = run_radar(config, transport, sink)
        reloaded = _load_dataset(str(path), str(transport.monitor_hop))
        for subset in ([D1], [D2], [D1, D2], []):
            kept = [
                [rec.tree.observed_ips() for rec in simulate_destination_subset(dataset, subset).rounds]
                for dataset in (in_memory, reloaded)
            ]
            assert kept[0] == kept[1]
        errors = []
        for dataset in (in_memory, reloaded):
            with pytest.raises(ValueError, match="unknown") as exc:
                simulate_destination_subset(dataset, [D1, IPv4Address("203.0.113.9")])
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_configured_destination_without_terminal_is_unknown(self):
        class Failing(SimTransport):
            def send(self, destination, ttl):
                raise TransportError("link down")

        transport = Failing(load_topology(shared_prefix_doc()))
        dataset = run_radar(RadarConfig([D1], rounds=2), transport)
        assert all(not rec.tree.terminals for rec in dataset.rounds)
        with pytest.raises(ValueError, match="unknown"):
            simulate_destination_subset(dataset, [D1])

    def overload_doc(self, n, rate_limited):
        # every path crosses router R at hop 2: mon -> c1 -> R -> tail_i -> dest_i
        nodes = {
            "mon": "10.9.0.1",
            "c1": "10.9.0.2",
            "R": (
                {"address": "10.9.0.3", "policy": {"rate": 0.1, "burst": 4}}
                if rate_limited
                else "10.9.0.3"
            ),
        }
        links = [["mon", "c1"], ["c1", "R"]]
        dests = []
        for i in range(n):
            tail, dest = f"t{i}", f"d{i}"
            nodes[tail] = f"10.9.1.{i}"
            nodes[dest] = f"10.9.2.{i}"
            links += [["R", tail], [tail, dest]]
            dests.append(IPv4Address(f"10.9.2.{i}"))
        return {"monitor": "mon", "nodes": nodes, "links": links}, dests

    @pytest.mark.parametrize("rate_limited,expect_strict", [(True, True), (False, False)])
    def test_overload_signature(self, rate_limited, expect_strict):
        doc, dests = self.overload_doc(12, rate_limited)
        small = dests[-4:]

        def one_round(destinations):
            transport = SimTransport(load_topology(doc))
            result = tracetree(
                [DestinationTask(d, 4) for d in destinations], transport
            )
            from netradar.filtering import filter_tree

            tree, _ = filter_tree(result.raw, transport.monitor_hop)
            return tree

        from netradar.model import RoundRecord, RadarDataset

        large_tree = one_round(dests)
        large_dataset = RadarDataset([RoundRecord(0, 0.0, 1.0, 0, large_tree)])
        simulated = simulate_destination_subset(large_dataset, small)
        direct_tree = one_round(small)
        simulated_ips = simulated.rounds[0].tree.observed_ips()
        direct_ips = direct_tree.observed_ips()
        if expect_strict:
            assert len(direct_ips) > len(simulated_ips)
        else:
            assert direct_ips == simulated_ips


class TestDiscoveryCurves:
    def test_stable_curve_flat_after_round_one(self):
        transport = SimTransport(load_topology(shared_prefix_doc()))
        config = RadarConfig(
            destinations=[D1, D2],
            rounds=3,
            tracetree=TracetreeConfig(max_ttl=8),
        )
        dataset = run_radar(config, transport)
        rounds_curve, _ = cumulative_discovery_curves(dataset_observations(dataset))
        values = [y for _, y in rounds_curve]
        assert values[0] == values[1] == values[2]

    def test_island_creates_jump(self):
        doc = dict(CHAIN_DOC)
        doc["events"] = [
            {
                "at": 1500.0,
                "add_island": {
                    "nodes": {"x0": "10.5.0.0", "x1": "10.5.0.1"},
                    "links": [["r1", "x0"], ["x0", "x1"], ["x1", "d"]],
                },
            },
            {"at": 1500.0, "rewire": {"node": "r1", "remove": "r2", "add": "x0"}},
        ]
        transport = SimTransport(load_topology(doc))
        config = RadarConfig(
            destinations=[D],
            rounds=5,
            tracetree=TracetreeConfig(max_ttl=8),
        )
        dataset = run_radar(config, transport)
        rounds_curve, _ = cumulative_discovery_curves(dataset_observations(dataset))
        values = [y for _, y in rounds_curve]
        assert values[1] == values[2]
        assert values[3] == values[2] + 2  # the island pops in at round 3
        assert values[4] == values[3]

    def test_ordering_relations_against_traceroute(self):
        # per round traceroute collects at least as much; per packet the
        # tree measurement dominates
        def run_rounds(n=3):
            tr_obs, tt_obs = [], []
            tr_transport = SimTransport(load_topology(shared_prefix_doc()))
            tt_transport = SimTransport(load_topology(shared_prefix_doc()))
            for _ in range(n):
                round_ = traceroute_round([D1, D2], tr_transport)
                tr_obs.append((record_ips(round_), len(round_.records)))
                result = tracetree(
                    [DestinationTask(D1, 4), DestinationTask(D2, 4)], tt_transport
                )
                ips = {
                    n_.hop.address for n_ in result.raw.nodes if isinstance(n_.hop, Ip)
                }
                tt_obs.append((ips, result.stats.probes_sent))
            return tr_obs, tt_obs

        tr_obs, tt_obs = run_rounds()
        tr_rounds, tr_packets = cumulative_discovery_curves(tr_obs)
        tt_rounds, tt_packets = cumulative_discovery_curves(tt_obs)
        for (_, y_tr), (_, y_tt) in zip(tr_rounds, tt_rounds):
            assert y_tr >= y_tt
        # strictly fewer packets for the same coverage
        assert tt_packets[-1][0] < tr_packets[-1][0]
        grid = sorted({x for x, _ in tr_packets} | {x for x, _ in tt_packets})
        for x in grid:
            assert step_value(tt_packets, x) >= step_value(tr_packets, x)


def test_traceroute_round_survives_the_log():
    transport = SimTransport(load_topology(shared_prefix_doc()))
    round_ = traceroute_round([D1, D2], transport)
    # `compare` reads the round back from the stored log
    [(_, stored)] = parse_round_log(serialize_round(round_, 0, 0.0, 1.0))
    assert stored == round_
    assert simulate_tracetree_from_traceroute(stored) == simulate_tracetree_from_traceroute(round_)
    assert link_load_distribution(stored, first_hops=True) == link_load_distribution(round_, first_hops=True)
    assert len(stored.keys) == 8
