"""Tests of the benchmark itself: generator, tracer, and tiny smoke runs."""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inet  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

import netradar.radar  # noqa: E402
from netradar.model import RawTraceTree  # noqa: E402
from netradar.simnet import SimState, load_topology  # noqa: E402
from netradar.transport import SimTransport  # noqa: E402


def test_generator_same_document_for_a_seed():
    first, again, other = inet.generate(7, 200), inet.generate(7, 200), inet.generate(8, 200)
    assert first.doc == again.doc
    assert first.destinations == again.destinations
    assert first.truth == again.truth
    assert first.doc != other.doc
    load_topology(first.doc)  # passes the simulator's validation


def test_generator_plants_its_ground_truth():
    net = inet.generate(3, 3000)
    truth = net.truth
    assert len(truth.island) == inet.ISLAND_SIZE
    assert len(truth.island_edges) == inet.ISLAND_SIZE + 1
    assert truth.lengthened and truth.cut
    assert 0.08 < len(truth.cut) / len(net.destinations) < 0.3
    assert not set(truth.lengthened) & set(truth.cut)
    assert set(truth.island) <= net.addresses
    initial = {v if isinstance(v, str) else v["address"] for v in net.doc["nodes"].values()}
    assert not set(truth.island) & initial  # grafted later
    kinds = {next(iter(spec)) for spec in net.doc["balancers"].values()}
    assert kinds == {"per_packet", "per_destination"}


def test_self_times_on_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 5] and 2 [6, 9]; 1 has child 3 [2, 3];
    # 4 [11, 13] is a second root
    starts = [0.0, 1.0, 6.0, 2.0, 11.0]
    ends = [10.0, 5.0, 9.0, 3.0, 13.0]
    parents = [-1, 0, 0, 1, -1]
    durations = [e - s for s, e in zip(starts, ends)]
    assert self_times(durations, parents) == [3.0, 3.0, 3.0, 1.0, 2.0]

    tracer = Tracer()
    names = ["round", "probe", "probe", "route", "round"]
    for name, s, e, p in zip(names, starts, ends, parents):
        tracer.name.append(tracer._name_id(name))
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
    assert tracer.summary() == {
        "round": (2, 12.0, 5.0),
        "probe": (2, 7.0, 6.0),
        "route": (1, 1.0, 1.0),
    }


def test_timings_scale_and_counts_do_not():
    result = workloads.Result(
        metrics={"a": (2.0, "s"), "b": (3.0, "us"), "c": (100.0, "1/s"), "d": (7.0, "count"), "e": (5.0, "%")}
    )
    workloads.scale_timings(result, 0.5)
    assert result.metrics == {
        "a": (1.0, "s"), "b": (1.5, "us"), "c": (200.0, "1/s"), "d": (7.0, "count"), "e": (5.0, "%")
    }


def test_tracer_records_nested_calls():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda a, k, r: seen.append(r))
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert seen == [2]
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def test_wrappers_are_restored():
    originals = {
        (netradar.radar, "tracetree"): netradar.radar.tracetree,
        (RawTraceTree, "from_records"): RawTraceTree.__dict__["from_records"],
        (SimState, "route_probe"): SimState.__dict__["route_probe"],
        (SimTransport, "send"): SimTransport.__dict__["send"],
        (workloads.analytics, "event_graph"): workloads.analytics.event_graph,
        (workloads.cli, "parse_round_log"): workloads.cli.parse_round_log,
    }
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(workloads.LayerCounts().install):
            for (owner, attr), original in originals.items():
                assert owner.__dict__[attr] is not original
            raise RuntimeError("body fails")
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "COLD_STARTS", 1)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "ANALYZE_SETUPS", 1)
    monkeypatch.setattr(workloads, "REFERENCES", 1)
    monkeypatch.setitem(workloads.SIZES, "fan", {"chains": 20, "depth": 4, "rounds": 3})
    monkeypatch.setitem(workloads.SIZES, "inet", {"destinations": 200, "rounds": 12})
    return tmp_path


@pytest.mark.parametrize("workload", ["fan", "inet"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_radar(tiny, workload, trace):
    result = workloads.run(workload, 5, 0.0, trace, tiny)
    assert result.problems == []
    names = [m["name"] for m in workloads.SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result.metrics) == sorted(names)
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    elif workload == "fan":
        assert result.metrics["radar.cache_exact_ratio"][0] == 1.0
        assert result.metrics["tracetree.novel_ratio"][0] == 1.0
    else:
        assert result.metrics["tracetree.restarts"][0] > 0
        assert result.metrics["tracetree.stars"][0] > 0


def test_smoke_analyze(tiny):
    result = workloads.run("analyze", 5, 0.0, False, tiny)
    assert result.problems == []
    commands = workloads.analyze_commands("10.0.0.1", tiny / "log", tiny / "out")
    assert result.failed == 0 and result.attempted == len(commands)
    assert {m["name"] for m in workloads.SPEC["end_to_end"]} == set(result.metrics)
    assert all(value > 0 for value, _ in result.metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
