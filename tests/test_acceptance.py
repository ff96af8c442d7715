"""Acceptance criteria, one test per criterion.

Each test prints a `[acceptance] C<n> PASS` line (visible with -s or -rP).
All checks are deterministic simulator properties; runtime-bounded
criteria measure wall-clock time around the operation under test.
"""
from __future__ import annotations

import random
import time
from collections import Counter
from ipaddress import IPv4Address

import pytest

from conftest import (
    dataset_observations,
    ip,
    raw_graph,
    reencode_as_raw,
    star_destinations,
    star_topology_doc,
    step_value,
)
from netradar.analytics import (
    detect_peaks,
    discovery_time,
    event_graph,
    new_address_components,
    per_round_ip_count,
    windowed_ip_count,
)
from netradar.baseline import (
    cumulative_discovery_curves,
    link_load_distribution,
    record_ips,
    simulate_destination_subset,
    simulate_tracetree_from_traceroute,
    traceroute_round,
)
from netradar.filtering import filter_tree
from netradar.model import Ip, RadarDataset, RoundRecord, parse_round_log, serialize_round
from netradar.radar import RadarConfig, run_radar
from netradar.simnet import load_topology
from netradar.tracetree import DestinationTask, TracetreeConfig, tracetree
from netradar.transport import SimTransport

from test_analytics import brute_force_components, random_small_dataset
from test_filter import random_routes

ROUND_DELAY = 600.0


def fan_doc(chains: int, depth: int):
    """Disjoint chains from the monitor: chains*depth + 1 nodes."""
    nodes = {"mon": "10.255.0.1"}
    links = []
    destinations = []
    for c in range(chains):
        previous = "mon"
        for d in range(depth):
            name = f"n{c}_{d}"
            nodes[name] = str(IPv4Address((10 << 24) + c * 256 + d + 2))
            links.append([previous, name])
            previous = name
        destinations.append(IPv4Address(nodes[previous]))
    return {"monitor": "mon", "nodes": nodes, "links": links}, destinations


def test_c1_algorithm_fidelity():
    doc, destinations = fan_doc(chains=1000, depth=10)
    assert len(doc["nodes"]) >= 10_000
    topology = load_topology(doc)
    tasks = [DestinationTask(d, 10) for d in destinations]

    started = time.perf_counter()
    transport = SimTransport(topology)
    result = tracetree(tasks, transport, TracetreeConfig(), restart_from=None, hops=None)
    elapsed = time.perf_counter() - started

    probes = result.stats.probes_sent
    assert probes == len(result.raw.records) == len(result.raw.nodes) == 10_000
    assert result.raw.nodes == raw_graph(result.raw).nodes
    rerun = tracetree(tasks, SimTransport(load_topology(doc)), TracetreeConfig(), restart_from=None, hops=None)
    assert serialize_round(result.raw, 0, 0.0, 1.0) == serialize_round(rerun.raw, 0, 0.0, 1.0)
    assert elapsed < 1.0, f"measurement took {elapsed:.3f}s"
    print(f"[acceptance] C1 PASS: fidelity ({probes} probes == records == nodes, {elapsed:.3f}s)")


def comparison_doc():
    """Six destinations behind a shared two-level prefix."""
    nodes = {"mon": "10.40.0.1", "a": "10.40.0.2", "b": "10.40.0.3", "c": "10.40.0.4"}
    links = [["mon", "a"], ["a", "b"], ["a", "c"]]
    destinations = []
    for i in range(6):
        branch = "b" if i < 3 else "c"
        tail, dest = f"t{i}", f"d{i}"
        nodes[tail] = f"10.40.1.{i}"
        nodes[dest] = f"10.40.2.{i}"
        links += [[branch, tail], [tail, dest]]
        destinations.append(IPv4Address(f"10.40.2.{i}"))
    return {"monitor": "mon", "nodes": nodes, "links": links}, destinations


def test_c2_optimality_ordering():
    doc, destinations = comparison_doc()
    tasks = [DestinationTask(d, 4) for d in destinations]
    tr_transport = SimTransport(load_topology(doc))
    tt_transport = SimTransport(load_topology(doc))
    tr_obs, tt_obs = [], []
    for _ in range(5):
        tr = traceroute_round(destinations, tr_transport, TracetreeConfig())
        tt = tracetree(tasks, tt_transport, TracetreeConfig(), restart_from=None, hops=None)
        shared_pairs = len(tt.raw.records) - len(tt.raw.nodes)
        assert shared_pairs > 0  # >= 2 destinations share (hop, ttl) nodes
        assert tt.stats.probes_sent < len(tr.records)  # strict under sharing
        tr_obs.append((record_ips(tr), len(tr.records)))
        tt_obs.append((record_ips(tt.raw), tt.stats.probes_sent))
    tr_rounds, tr_packets = cumulative_discovery_curves(tr_obs)
    tt_rounds, tt_packets = cumulative_discovery_curves(tt_obs)
    for (_, y_tr), (_, y_tt) in zip(tr_rounds, tt_rounds):
        assert y_tr >= y_tt  # per round, traceroute gathers at least as much
    grid = sorted({x for x, _ in tr_packets} | {x for x, _ in tt_packets})
    for x in grid:  # per packet, the tree measurement dominates
        assert step_value(tt_packets, x) >= step_value(tr_packets, x)
    print("[acceptance] C2 PASS: optimality ordering (packets strict, curves ordered)")


def test_c3_load_balancing():
    k = 100
    doc = star_topology_doc(k)
    destinations = star_destinations(k)
    tr_transport = SimTransport(load_topology(doc))
    tr = traceroute_round(destinations, tr_transport, TracetreeConfig())
    tr_loads = link_load_distribution(tr, first_hops=True)
    assert tr_loads == {1: k, k: 1}  # first-hop link probed exactly k times
    tt_transport = SimTransport(load_topology(doc))
    tt = tracetree([DestinationTask(d, 2) for d in destinations], tt_transport, TracetreeConfig(), restart_from=None, hops=None)
    tt_loads = link_load_distribution(tt.raw, first_hops=False)
    assert set(tt_loads) == {1}  # every link discovered exactly once
    print(f"[acceptance] C3 PASS: load balancing (traceroute first hop {k}x, tracetree all 1)")


def test_c4_filter_correctness():
    rng = random.Random(0xF17E)
    monitor = ip("10.0.0.1")
    started = time.perf_counter()
    for _ in range(1000):
        raw = simulate_tracetree_from_traceroute(random_routes(rng))
        tree, _ = filter_tree(raw, monitor)
        tree.validate()
        input_ips = {n.hop.address for n in raw.nodes if isinstance(n.hop, Ip)}
        assert tree.observed_ips() <= input_ips  # no invented addresses
        again, _ = filter_tree(raw, monitor)
        assert again == tree  # deterministic
        rerun, _ = filter_tree(reencode_as_raw(tree), monitor)
        assert (rerun.nodes, rerun.edges, rerun.terminals) == (
            tree.nodes,
            tree.edges,
            tree.terminals,
        )  # idempotent
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"filter batch took {elapsed:.3f}s"
    print(f"[acceptance] C4 PASS: filter correctness on 1000 random trees ({elapsed:.2f}s)")


def test_c5_distance_cache():
    # route shortening: 4 hops down to 3 between rounds 1 and 2
    shorten = {
        "monitor": "mon",
        "nodes": {
            "mon": "10.7.0.1",
            "a": "10.7.0.2",
            "b": "10.7.0.3",
            "c": "10.7.0.4",
            "d": "10.7.0.5",
        },
        "links": [["mon", "a"], ["a", "b"], ["b", "c"], ["c", "d"]],
        "events": [{"at": 2 * ROUND_DELAY - 1, "rewire": {"node": "a", "remove": "b", "add": "c"}}],
    }
    dest = IPv4Address("10.7.0.5")
    config = RadarConfig(destinations=[dest], rounds=4)
    dataset = run_radar(config, SimTransport(load_topology(shorten)))
    assert dataset.rounds[1].probes_sent == 4  # cache converged after round 0
    assert dataset.rounds[2].tree.terminals[dest].address == dest  # over-estimate still lands
    assert dataset.rounds[3].probes_sent == 3  # one-round convergence to the new distance

    # route lengthening: stale under-estimate recovers within the round from 30
    lengthen = {
        "monitor": "mon",
        "nodes": dict(shorten["nodes"]),
        "links": [["mon", "a"], ["a", "c"], ["b", "c"], ["c", "d"]],
        "events": [{"at": 2 * ROUND_DELAY - 1, "rewire": {"node": "a", "remove": "c", "add": "b"}}],
    }
    dataset = run_radar(RadarConfig(destinations=[dest], rounds=4), SimTransport(load_topology(lengthen)))
    stale_round = dataset.rounds[2]
    ttls = {r.ttl for r in stale_round.raw.records}
    assert 30 in ttls  # fresh chain started at the default maximal distance
    terminal = stale_round.tree.terminals[dest]
    assert terminal.address == dest
    parent = stale_round.tree.parents[terminal]
    assert parent.address == IPv4Address("10.7.0.4")  # terminal link recovered in-round
    assert dataset.rounds[3].probes_sent == 4  # cache corrected for the next round
    print("[acceptance] C5 PASS: distance cache (one-round convergence, in-round recovery)")


def overload_doc(n: int, rate_limited: bool):
    nodes = {
        "mon": "10.9.0.1",
        "c1": "10.9.0.2",
        "R": (
            {"address": "10.9.0.3", "policy": {"rate": 0.1, "burst": 10}}
            if rate_limited
            else "10.9.0.3"
        ),
    }
    links = [["mon", "c1"], ["c1", "R"]]
    destinations = []
    for i in range(n):
        nodes[f"t{i}"] = f"10.9.1.{i}"
        nodes[f"d{i}"] = f"10.9.2.{i}"
        links += [["R", f"t{i}"], [f"t{i}", f"d{i}"]]
        destinations.append(IPv4Address(f"10.9.2.{i}"))
    return {"monitor": "mon", "nodes": nodes, "links": links}, destinations


def test_c6_rate_limit_overload_signature():
    def measure(doc, destinations):
        transport = SimTransport(load_topology(doc))
        result = tracetree([DestinationTask(d, 4) for d in destinations], transport, TracetreeConfig(), restart_from=None, hops=None)
        tree, _ = filter_tree(result.raw, transport.monitor_hop)
        return tree

    for rate_limited in (True, False):
        doc, destinations = overload_doc(40, rate_limited)
        small = destinations[-10:]
        large_tree = measure(doc, destinations)
        dataset = RadarDataset([RoundRecord(0, 0.0, 1.0, 0, large_tree)])
        simulated = simulate_destination_subset(dataset, small).rounds[0].tree
        direct = measure(doc, small)
        if rate_limited:
            assert len(direct.observed_ips()) > len(simulated.observed_ips())
        else:
            assert direct.observed_ips() == simulated.observed_ips()
    print("[acceptance] C6 PASS: overload signature (strict under rate limiting, equal without)")


def event_base_doc():
    """Trunk with six branches: mon -> t -> c_i -> e_i -> D_i (distance 4)."""
    nodes = {"mon": "10.70.0.1", "t": "10.70.0.2"}
    links = [["mon", "t"]]
    destinations = []
    for i in range(1, 7):
        nodes[f"c{i}"] = f"10.70.1.{i}"
        nodes[f"e{i}"] = f"10.70.2.{i}"
        nodes[f"D{i}"] = f"10.70.3.{i}"
        links += [["t", f"c{i}"], [f"c{i}", f"e{i}"], [f"e{i}", f"D{i}"]]
        destinations.append(IPv4Address(f"10.70.3.{i}"))
    return nodes, links, destinations


def run_rounds(doc, destinations, rounds):
    config = RadarConfig(destinations=destinations, rounds=rounds)
    return run_radar(config, SimTransport(load_topology(doc)))


def test_c7a_connectivity_cut_flags_exactly_one_round_down():
    nodes, links, destinations = event_base_doc()
    cut_round = 15
    doc = {
        "monitor": "mon",
        "nodes": nodes,
        "links": links,
        "events": [
            {"at": cut_round * ROUND_DELAY - 1, "rewire": {"node": "mon", "remove": "t"}},
            {"at": cut_round * ROUND_DELAY + 400, "rewire": {"node": "mon", "add": "t"}},
        ],
    }
    dataset = run_rounds(doc, destinations, rounds=30)
    series = per_round_ip_count(dataset)
    values = dict(series)
    assert values[cut_round] == 0
    down = detect_peaks(series, direction="down")
    assert down.indices == [cut_round]
    assert detect_peaks(series, direction="up").indices == []
    print("[acceptance] C7a PASS: connectivity cut flagged down at exactly the cut round")


def test_c7b_oscillation_flat_per_round_upward_windowed():
    nodes, links, destinations = event_base_doc()
    # parallel 8-hop branch pair for D1: a-path active initially, b-path idle;
    # the flip must move more than 5% of the typical address count to clear
    # the detector's relative noise floor
    length = 8
    for i in range(1, length + 1):
        nodes[f"a{i}"] = f"10.71.0.{i}"
        nodes[f"b{i}"] = f"10.71.1.{i}"
    links = [l for l in links if l != ["c1", "e1"]]
    links += [["c1", "a1"], [f"a{length}", "e1"], [f"b{length}", "e1"]]
    for i in range(1, length):
        links += [[f"a{i}", f"a{i + 1}"], [f"b{i}", f"b{i + 1}"]]
    events = []
    for k, flip_round in enumerate(range(45, 60)):
        if k % 2 == 0:
            rewire = {"node": "c1", "remove": "a1", "add": "b1"}
        else:
            rewire = {"node": "c1", "remove": "b1", "add": "a1"}
        events.append({"at": flip_round * ROUND_DELAY - 1, "rewire": rewire})
    doc = {"monitor": "mon", "nodes": nodes, "links": links, "events": events}
    dataset = run_rounds(doc, destinations, rounds=60)

    per_round = per_round_ip_count(dataset)
    assert len({v for _, v in per_round}) == 1  # both variants count the same
    assert detect_peaks(per_round, direction="up").indices == []
    windowed = windowed_ip_count(dataset, window=10)
    up = detect_peaks(windowed, direction="up")
    assert up.indices, "windowed series must flag the oscillation"
    assert set(up.indices) == set(range(45, 60))
    print("[acceptance] C7b PASS: oscillation invisible per round, flagged upward windowed")


def island_scenario():
    nodes, links, destinations = event_base_doc()
    x = {f"x{i}": f"10.72.0.{i}" for i in range(1, 10)}
    singles = {f"s{k}": f"10.73.0.{k}" for k in range(1, 5)}
    events = [
        # island part one: five nodes spliced into branch 1 before round 20
        {
            "at": 20 * ROUND_DELAY - 1,
            "add_island": {
                "nodes": {f"x{i}": x[f"x{i}"] for i in range(1, 6)},
                "links": [["e1", "x1"], ["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x5"], ["x5", "D1"]],
            },
        },
        {"at": 20 * ROUND_DELAY - 1, "rewire": {"node": "e1", "remove": "D1"}},
        # island part two: four more nodes stretched in before round 21
        {
            "at": 21 * ROUND_DELAY - 1,
            "add_island": {
                "nodes": {f"x{i}": x[f"x{i}"] for i in range(6, 10)},
                "links": [["x5", "x6"], ["x6", "x7"], ["x7", "x8"], ["x8", "x9"], ["x9", "D1"]],
            },
        },
        {"at": 21 * ROUND_DELAY - 1, "rewire": {"node": "x5", "remove": "D1"}},
    ]
    # four scattered single renumberings in branches 2..5, rounds 22..25
    for k in range(1, 5):
        events += [
            {
                "at": (21 + k) * ROUND_DELAY - 1,
                "add_island": {
                    "nodes": {f"s{k}": singles[f"s{k}"]},
                    "links": [[f"e{k + 1}", f"s{k}"], [f"s{k}", f"D{k + 1}"]],
                },
            },
            {"at": (21 + k) * ROUND_DELAY - 1, "rewire": {"node": f"e{k + 1}", "remove": f"D{k + 1}"}},
        ]
    doc = {"monitor": "mon", "nodes": nodes, "links": links, "events": events}
    return doc, destinations, x


def test_c7c_island_census_and_discovery_time():
    doc, destinations, island_nodes = island_scenario()
    dataset = run_rounds(doc, destinations, rounds=30)
    components = new_address_components(dataset, (0, 20), (20, 30))
    assert Counter(c.size for c in components) == {1: 4, 9: 1}
    [island] = [c for c in components if c.size == 9]
    assert island.addresses == {IPv4Address(a) for a in island_nodes.values()}
    assert discovery_time(island) == 2
    print("[acceptance] C7c PASS: component census {1: 4, 9: 1}, island discovered in 2 rounds")


def test_c7d_event_graph_flags_exactly_injected_edges():
    doc, destinations, island_nodes = island_scenario()
    dataset = run_rounds(doc, destinations, rounds=22)
    graph = event_graph(dataset, event_round=20, before_window=20)
    e1 = IPv4Address("10.70.2.1")
    d1 = IPv4Address("10.70.3.1")
    xs = [IPv4Address(island_nodes[f"x{i}"]) for i in range(1, 6)]
    chain = [e1] + xs + [d1]
    expected = {(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])}
    assert graph.new_edges == expected
    print("[acceptance] C7d PASS: event graph flags exactly the spliced edges")


def test_c8_component_oracle_equivalence():
    rng = random.Random(0xACCE55)
    started = time.perf_counter()
    checked = 0
    while checked < 200:
        dataset = random_small_dataset(rng)
        reference, observation = (0, 2), (2, 5)
        components = new_address_components(dataset, reference, observation)
        got = {c.addresses for c in components}
        assert got == brute_force_components(dataset, reference, observation)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.3f}s"
    print(f"[acceptance] C8 PASS: components match brute force on 200 instances ({elapsed:.2f}s)")


def test_c9_format_round_trip():
    rng = random.Random(0x10C5)
    for index in range(1000):
        raw = simulate_tracetree_from_traceroute(random_routes(rng))
        block = serialize_round(raw, index, 1700000000.0 + index, 1700000300.0 + index)
        [(meta, parsed)] = parse_round_log(block)
        assert parsed.records == raw.records
        assert raw_graph(parsed) == raw_graph(raw)
        assert serialize_round(parsed, meta.index, meta.start_time, meta.end_time) == block
    print("[acceptance] C9 PASS: 1000 rounds serialize/parse byte-exact")
