"""Event-detection analytics: series, peaks, components, event graphs."""
from __future__ import annotations

import math
import random
from collections import Counter
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from_trees, make_tree
from netradar.analytics import (
    component_neighborhood_dot,
    detect_peaks,
    discovery_time,
    event_graph,
    new_address_components,
    per_round_ip_count,
    size_vs_discovery_correlation,
    value_distribution,
    windowed_ip_count,
)
from netradar.model import Ip, RadarDataset


def chain_tree(*hops, terminals=None):
    """A root -> hop1 -> hop2 ... tree from address strings."""
    edges = list(zip(("0.0.0.0",) + hops, hops))
    terminals = terminals or {hops[-1]: hops[-1]}
    return make_tree("0.0.0.0", edges, terminals)


STABLE = chain_tree("10.0.0.2", "10.0.0.3", "10.0.0.4")


class TestSeries:
    def test_per_round_constant_on_stable(self):
        dataset = dataset_from_trees([STABLE] * 5)
        assert per_round_ip_count(dataset) == [(i, 3) for i in range(5)]

    def test_connectivity_cut_shows_sharp_drop(self):
        cut = make_tree("0.0.0.0", [("0.0.0.0", "*x")], {"10.0.0.4": "*x"})
        dataset = dataset_from_trees([STABLE, STABLE, cut, STABLE])
        assert per_round_ip_count(dataset) == [(0, 3), (1, 3), (2, 0), (3, 3)]

    def test_empty_dataset(self):
        assert per_round_ip_count(RadarDataset()) == []

    def test_window_one_equals_per_round(self):
        trees = [STABLE, chain_tree("10.0.0.2", "10.0.0.9"), STABLE]
        dataset = dataset_from_trees(trees)
        assert windowed_ip_count(dataset, window=1) == per_round_ip_count(dataset)

    def test_windowed_constant_on_stable(self):
        dataset = dataset_from_trees([STABLE] * 6)
        assert windowed_ip_count(dataset, window=3) == [(i, 3) for i in range(2, 6)]

    def test_oscillation_hidden_per_round_visible_windowed(self):
        # routes flip between two variants with equal counts: the per-round
        # series is flat, the windowed union is elevated
        variant_a = chain_tree("10.0.0.2", "10.0.0.3", "10.0.0.4")
        variant_b = chain_tree("10.0.0.2", "10.0.0.7", "10.0.0.4")
        trees = [variant_a if i % 2 == 0 else variant_b for i in range(6)]
        dataset = dataset_from_trees(trees)
        per_round = [v for _, v in per_round_ip_count(dataset)]
        assert len(set(per_round)) == 1
        windowed = [v for _, v in windowed_ip_count(dataset, window=2)]
        assert all(v == 4 > per_round[0] for v in windowed)

    def test_blocked_mode_disjoint_blocks(self):
        trees = [STABLE] * 4 + [chain_tree("10.0.0.2", "10.0.0.9")] * 4
        dataset = dataset_from_trees(trees)
        series = windowed_ip_count(dataset, window=4, mode="blocked")
        assert series == [(3, 3), (7, 2)]

    def test_blocked_window_larger_than_dataset(self):
        dataset = dataset_from_trees([STABLE] * 3)
        assert windowed_ip_count(dataset, window=5, mode="blocked") == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sets(st.integers(2, 12), max_size=6), min_size=1, max_size=9), st.data())
    def test_both_modes_are_the_union_of_their_window(self, rounds, data):
        # round i observes the addresses 10.0.0.<n> for n in rounds[i]
        trees = [chain_tree(*(f"10.0.0.{n}" for n in sorted(ns))) if ns else STABLE for ns in rounds]
        dataset = dataset_from_trees(trees)
        observed = [{h.address for h in tree.parents} for tree in trees]
        window = data.draw(st.integers(1, len(rounds) + 1))
        for mode, step in (("sliding", 1), ("blocked", window)):
            expected = [
                (last, len(set().union(*observed[last - window + 1 : last + 1])))
                for last in range(window - 1, len(rounds), step)
            ]
            assert windowed_ip_count(dataset, window=window, mode=mode) == expected


class TestPeaks:
    def test_constant_series_no_peaks_degenerate(self):
        series = [(i, 1000) for i in range(12)]
        found = detect_peaks(series, direction="down")
        assert found.indices == []
        assert found.degenerate

    def test_single_deep_drop_flagged(self):
        # median 1000, MAD 0; fallback scale 50, threshold 250 < 600
        series = [(i, 1000) for i in range(11)] + [(11, 400)]
        found = detect_peaks(series, direction="down", k=5.0)
        assert found.indices == [11]

    def test_small_bump_within_noise(self):
        series = [(i, 1000) for i in range(11)] + [(11, 1050)]
        assert detect_peaks(series, direction="up", k=5.0).indices == []

    def test_direction_is_respected(self):
        series = [(i, 1000) for i in range(11)] + [(11, 400)]
        assert detect_peaks(series, direction="up").indices == []

    def test_mad_based_flagging_with_noise(self):
        rng = random.Random(5)
        values = [100 + rng.choice([-2, -1, 0, 1, 2]) for _ in range(40)]
        values[17] = 160
        series = list(enumerate(values))
        found = detect_peaks(series, direction="up", k=5.0)
        assert not found.degenerate
        assert found.indices == [17]

    @pytest.mark.parametrize("k", [-1.0, 0.0, math.nan, math.inf])
    def test_k_must_be_finite_and_positive(self, k):
        # k=-1 flagged most of a flat series, and k=nan flagged nothing
        with pytest.raises(ValueError, match="k must be"):
            detect_peaks([(i, 100) for i in range(20)], k=k)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            detect_peaks([(0, 1)] * 9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=12, max_size=40),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=1, max_value=9),
    )
    def test_shift_and_scale_invariance(self, values, shift, scale):
        series = list(enumerate(values))
        base = detect_peaks(series, direction="up")
        if base.degenerate:
            return  # invariances promised for a healthy MAD only
        shifted = detect_peaks([(i, v + shift) for i, v in series], direction="up")
        scaled = detect_peaks([(i, v * scale) for i, v in series], direction="up")
        assert shifted.indices == base.indices
        assert scaled.indices == base.indices


class TestValueDistribution:
    def test_small_example(self):
        assert value_distribution([(0, 5), (1, 5), (2, 7)]) == {5: 2, 7: 1}

    def test_constant_single_bar(self):
        assert value_distribution([(i, 9) for i in range(4)]) == {9: 4}

    def test_bimodal_modes_visible(self):
        series = [(i, 10) for i in range(5)] + [(i + 5, 20) for i in range(5)]
        assert value_distribution(series) == {10: 5, 20: 5}

    def test_binned(self):
        assert value_distribution([(0, 5), (1, 14)], bin_width=10) == {0: 1, 10: 1}


NEW_A = "10.50.0.1"
NEW_B = "10.50.0.2"


def new_addresses(dataset, reference, observation):
    """The new-address set, as the union of the components' addresses."""
    return {a for c in new_address_components(dataset, reference, observation) for a in c.addresses}


class TestNewAddresses:
    def test_stable_no_new(self):
        dataset = dataset_from_trees([STABLE] * 6)
        assert new_addresses(dataset, (0, 3), (3, 6)) == set()

    def test_island_members_exactly(self):
        island = make_tree(
            "0.0.0.0",
            [("0.0.0.0", "10.0.0.2"), ("10.0.0.2", NEW_A), (NEW_A, NEW_B)],
            {NEW_B: NEW_B},
        )
        dataset = dataset_from_trees([STABLE, STABLE, island])
        assert new_addresses(dataset, (0, 2), (2, 3)) == {
            IPv4Address(NEW_A),
            IPv4Address(NEW_B),
        }

    def test_reappearing_address_not_new(self):
        variant = chain_tree("10.0.0.2", "10.0.0.9")
        dataset = dataset_from_trees([variant, STABLE, variant])
        assert new_addresses(dataset, (0, 2), (2, 3)) == set()

    def test_empty_reference_rejected(self):
        dataset = dataset_from_trees([STABLE] * 3)
        with pytest.raises(ValueError):
            new_address_components(dataset, (0, 0), (1, 2))
        with pytest.raises(ValueError):
            new_address_components(dataset, (5, 8), (8, 9))

    def test_overlapping_ranges_rejected(self):
        dataset = dataset_from_trees([STABLE] * 6)
        with pytest.raises(ValueError):
            new_address_components(dataset, (0, 4), (3, 6))


class TestComponents:
    def test_island_is_one_component(self):
        half = make_tree(
            "0.0.0.0",
            [("0.0.0.0", "10.0.0.2"), ("10.0.0.2", NEW_A)],
            {NEW_A: NEW_A},
        )
        full = make_tree(
            "0.0.0.0",
            [("0.0.0.0", "10.0.0.2"), ("10.0.0.2", NEW_A), (NEW_A, NEW_B)],
            {NEW_B: NEW_B},
        )
        dataset = dataset_from_trees([STABLE, STABLE, half, full])
        [component] = new_address_components(dataset, (0, 2), (2, 4))
        assert component.addresses == {IPv4Address(NEW_A), IPv4Address(NEW_B)}
        assert component.size == 2
        assert (component.first_round, component.last_round) == (2, 3)
        assert discovery_time(component) == 2

    def test_isolated_single_renumbering(self):
        single = chain_tree("10.0.0.2", NEW_A, "10.0.0.4")
        dataset = dataset_from_trees([STABLE, STABLE, single])
        [component] = new_address_components(dataset, (0, 2), (2, 3))
        assert component.size == 1

    def test_new_addresses_bridged_by_old_stay_separate(self):
        # path between the two new addresses runs through an old one
        bridged = chain_tree(NEW_A, "10.0.0.3", NEW_B)
        dataset = dataset_from_trees([STABLE, STABLE, bridged])
        components = new_address_components(dataset, (0, 2), (2, 3))
        assert sorted(c.size for c in components) == [1, 1]

    def test_components_partition_new_addresses(self):
        bridged = chain_tree(NEW_A, "10.0.0.3", NEW_B, "10.50.0.3")
        dataset = dataset_from_trees([STABLE, bridged])
        fresh = observed_new(dataset, (0, 1), (1, 2))
        components = new_address_components(dataset, (0, 1), (1, 2))
        merged = [a for c in components for a in c.addresses]
        assert len(merged) == len(set(merged)) == len(fresh)
        assert set(merged) == fresh

    def test_star_does_not_connect(self):
        # two new addresses joined only through a star: separate components
        starry = make_tree(
            "0.0.0.0",
            [("0.0.0.0", NEW_A), (NEW_A, "*gap"), ("*gap", NEW_B)],
            {NEW_B: NEW_B},
        )
        dataset = dataset_from_trees([STABLE, starry])
        components = new_address_components(dataset, (0, 1), (1, 2))
        assert sorted(c.size for c in components) == [1, 1]


class TestDiscoveryTime:
    def test_single_round(self):
        c = new_component({NEW_A}, 40, 40)
        assert discovery_time(c) == 1

    def test_formula(self):
        c = new_component({NEW_A, NEW_B}, 10, 21)
        assert discovery_time(c) == 12

    def test_long_window_formula(self):
        c = new_component({NEW_A}, 1306, 1974)
        assert discovery_time(c) == 669


def new_component(addresses, first, last):
    from netradar.analytics import NewAddressComponent

    return NewAddressComponent(
        addresses=frozenset(IPv4Address(a) if isinstance(a, str) else a for a in addresses),
        first_round=first,
        last_round=last,
    )


class TestSizeDistribution:
    def test_small(self):
        comps = [
            new_component({"10.50.0.1"}, 0, 0),
            new_component({"10.50.0.2"}, 0, 0),
            new_component({f"10.50.1.{i}" for i in range(4)}, 0, 1),
        ]
        assert Counter(c.size for c in comps) == {1: 2, 4: 1}

    def test_census_shape(self):
        comps = (
            [new_component({f"10.51.0.{i}"}, 0, 0) for i in range(4)]
            + [new_component({f"10.52.0.{i}" for i in range(4)}, 0, 0)]
            + [new_component({f"10.53.0.{i}" for i in range(5)}, 0, 0)]
            + [new_component({f"10.54.0.{i}" for i in range(9)}, 0, 1)]
        )
        assert Counter(c.size for c in comps) == {1: 4, 4: 1, 5: 1, 9: 1}

    def test_empty(self):
        dataset = dataset_from_trees([STABLE] * 4)
        assert Counter(c.size for c in new_address_components(dataset, (0, 2), (2, 4))) == {}


class TestEventGraph:
    def test_stable_no_flags(self):
        dataset = dataset_from_trees([STABLE] * 6)
        graph = event_graph(dataset, event_round=5, before_window=5)
        assert graph.new_edges == set()

    def test_rewiring_flags_exactly_new_edges(self):
        rewired = chain_tree("10.0.0.2", NEW_A, "10.0.0.4")
        dataset = dataset_from_trees([STABLE] * 5 + [rewired])
        graph = event_graph(dataset, event_round=5, before_window=5)
        a2, a4 = IPv4Address("10.0.0.2"), IPv4Address("10.0.0.4")
        new = IPv4Address(NEW_A)
        assert graph.new_edges == {
            (min(a2, new), max(a2, new)),
            (min(new, a4), max(new, a4)),
        }
        # every flagged edge is genuinely absent from each before round
        for rec in dataset.rounds[:5]:
            edges = {
                (min(p.address, c.address), max(p.address, c.address))
                for p, c in rec.tree.edges
                if p != rec.tree.root
            }
            assert not (graph.new_edges & edges)

    def test_zero_window_rejected(self):
        dataset = dataset_from_trees([STABLE] * 3)
        with pytest.raises(ValueError):
            event_graph(dataset, event_round=2, before_window=0)

    def test_window_beyond_dataset_rejected(self):
        dataset = dataset_from_trees([STABLE] * 3)
        with pytest.raises(ValueError):
            event_graph(dataset, event_round=2, before_window=5)

    def test_dot_output_styles_new_edges(self):
        rewired = chain_tree("10.0.0.2", NEW_A, "10.0.0.4")
        dataset = dataset_from_trees([STABLE] * 3 + [rewired])
        dot = event_graph(dataset, event_round=3, before_window=3).to_dot()
        assert "penwidth" in dot and dot.startswith("graph")


class TestCorrelation:
    def test_two_components_perfect_rank(self):
        comps = [new_component({"10.50.0.1"}, 0, 0), new_component({f"10.52.0.{i}" for i in range(9)}, 0, 1)]
        pairs, rho = size_vs_discovery_correlation(comps)
        assert sorted(pairs) == [(1, 1), (9, 2)]
        assert rho == pytest.approx(1.0)

    def test_tied_times_give_zero(self):
        comps = [
            new_component({"10.50.0.1"}, 0, 0),
            new_component({f"10.52.0.{i}" for i in range(3)}, 2, 2),
        ]
        _, rho = size_vs_discovery_correlation(comps)
        assert rho == 0.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            size_vs_discovery_correlation([new_component({"10.50.0.1"}, 0, 0)])

    @pytest.mark.parametrize(
        "sizes, times, expected",
        [
            # scipy.stats.spearmanr on the same inputs
            ([1, 9], [1, 2], 0.9999999999999999),
            ([1, 2, 2, 5, 7, 7, 7, 3], [1, 1, 2, 2, 3, 1, 4, 2], 0.5549426628886425),
            ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [2, 7, 1, 8, 2, 8, 1, 8, 2, 8], 0.13471506281091267),
            ([5, 4, 3, 2, 1], [1, 2, 3, 4, 5], -0.9999999999999999),
            ([1, 3], [1, 1], 0.0),  # zero variance: scipy gives nan
        ],
    )
    def test_matches_average_rank_spearman(self, sizes, times, expected):
        comps = [
            new_component({f"10.{70 + i}.0.{j}" for j in range(size)}, 0, time - 1)
            for i, (size, time) in enumerate(zip(sizes, times))
        ]
        pairs, rho = size_vs_discovery_correlation(comps)
        assert pairs == list(zip(sizes, times))
        assert rho == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_on_random_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 12)
            sizes = [rng.randint(1, 4) for _ in range(n)]
            times = [rng.randint(1, 4) for _ in range(n)]
            comps = [
                new_component({f"10.{70 + i}.0.{j}" for j in range(size)}, 0, time - 1)
                for i, (size, time) in enumerate(zip(sizes, times))
            ]
            _, rho = size_vs_discovery_correlation(comps)
            if len(set(sizes)) == 1 or len(set(times)) == 1:
                assert rho == 0.0
            else:
                assert rho == pytest.approx(float(stats.spearmanr(sizes, times).statistic), abs=1e-12)


def observed_new(dataset, reference, observation):
    """Oracle: the addresses the observation rounds saw and the reference
    rounds did not, read through `FilteredTree.observed_ips`."""

    def observed(bounds):
        start, stop = bounds
        rounds = [rec for rec in dataset.rounds if start <= rec.index < stop]
        return set().union(*(rec.tree.observed_ips() for rec in rounds))

    return observed(observation) - observed(reference)


def brute_force_components(dataset, reference, observation):
    """Oracle: boolean transitive closure over the induced new-address
    subgraph (matrix powers, no shared code with the implementation)."""
    fresh = sorted(observed_new(dataset, reference, observation))
    index = {a: i for i, a in enumerate(fresh)}
    n = len(fresh)
    reach = [[i == j for j in range(n)] for i in range(n)]
    start, stop = observation
    for rec in dataset.rounds:
        if not start <= rec.index < stop:
            continue
        for parent, child in rec.tree.edges:
            if parent == rec.tree.root:
                continue
            if isinstance(parent, Ip) and isinstance(child, Ip):
                a, b = parent.address, child.address
                if a in index and b in index:
                    reach[index[a]][index[b]] = True
                    reach[index[b]][index[a]] = True
    for _ in range(n.bit_length()):
        # boolean matrix square, or-ed with itself: k squarings reach
        # paths of up to 2**k links
        reach = [
            [reach[i][j] or any(reach[i][m] and reach[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
    groups = set()
    for i in range(n):
        groups.add(frozenset(fresh[j] for j in range(n) if reach[i][j]))
    return groups


def random_small_dataset(rng: random.Random):
    """Random trees over <= 50 addresses; later rounds mix in new ones."""
    old_pool = [f"10.60.0.{i}" for i in range(rng.randint(3, 25))]
    new_pool = [f"10.61.0.{i}" for i in range(rng.randint(1, 25))]

    def random_tree(pool):
        size = rng.randint(1, len(pool))
        chosen = rng.sample(pool, size)
        edges = []
        for i, node in enumerate(chosen):
            parent = "0.0.0.0" if i == 0 else rng.choice(chosen[:i])
            edges.append((parent, node))
        return make_tree("0.0.0.0", edges, {chosen[-1]: chosen[-1]})

    reference_rounds = [random_tree(old_pool) for _ in range(2)]
    observation_rounds = [
        random_tree(old_pool + rng.sample(new_pool, rng.randint(1, len(new_pool))))
        for _ in range(3)
    ]
    return dataset_from_trees(reference_rounds + observation_rounds)


def test_components_match_brute_force_oracle():
    rng = random.Random(20260810)
    for _ in range(50):
        dataset = random_small_dataset(rng)
        reference, observation = (0, 2), (2, 5)
        components = new_address_components(dataset, reference, observation)
        got = {c.addresses for c in components}
        assert got == brute_force_components(dataset, reference, observation)


def test_component_neighborhood_dot_marks_new_nodes():
    island = make_tree(
        "0.0.0.0",
        [("0.0.0.0", "10.0.0.2"), ("10.0.0.2", NEW_A)],
        {NEW_A: NEW_A},
    )
    dataset = dataset_from_trees([STABLE, island])
    dot = component_neighborhood_dot(dataset, (0, 1), (1, 2))
    assert "fillcolor=black" in dot
