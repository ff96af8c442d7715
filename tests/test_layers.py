"""The names the traced benchmark wraps must stay where it looks them up.

`perfbench/tracing.py` patches functions at the names their callers
resolve at call time (modules bind them with `from ... import`).  A
refactor that inlines or renames one of them would silently drop that
layer from a `--trace 1` run; this test makes it fail instead.
"""
from __future__ import annotations

from ipaddress import IPv4Address

import pytest

from conftest import CHAIN_DOC
from netradar import cli, radar
from netradar.model import FilteredTree, RawTraceTree
from netradar.simnet import SimState, load_topology
from netradar.tracetree import DestinationTask
from netradar.transport import SimTransport


@pytest.mark.parametrize("name", ["tracetree", "filter_tree", "serialize_round"])
def test_radar_calls_through_module_names(name):
    assert callable(radar.__dict__.get(name))


@pytest.mark.parametrize("name", ["parse_round_log", "filter_tree"])
def test_cli_calls_through_module_names(name):
    assert callable(cli.__dict__.get(name))


def test_from_records_is_a_classmethod():
    assert isinstance(RawTraceTree.__dict__.get("from_records"), classmethod)


@pytest.mark.parametrize(
    "cls, name",
    [
        (SimState, "route_probe"),
        (SimState, "apply_events"),
        (SimState, "prepare_destinations"),
        (SimTransport, "send"),
        (SimTransport, "poll"),
        (SimTransport, "expire"),
    ],
)
def test_simulator_methods(cls, name):
    assert callable(cls.__dict__.get(name))


@pytest.mark.parametrize("cls, name", [(RawTraceTree, "nodes"), (FilteredTree, "observed_ips")])
def test_what_traced_runs_read(cls, name):
    # the `--trace 1` observers and the workload checks read these
    assert name in cls.__dict__


def test_run_radar_passes_tasks_first_and_restart_from_by_keyword(monkeypatch):
    # the `--trace 1` observer reads a round's tasks as args[0] and its
    # restart distance as kwargs["restart_from"]
    calls = []
    real = radar.tracetree

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(radar, "tracetree", spy)
    destinations = [IPv4Address("10.0.0.4")]
    config = radar.RadarConfig(destinations=destinations, rounds=2)
    radar.run_radar(config, SimTransport(load_topology(dict(CHAIN_DOC))))
    assert len(calls) == 2
    for args, kwargs in calls:
        tasks = args[0]
        assert all(isinstance(task, DestinationTask) for task in tasks)
        assert [task.destination for task in tasks] == destinations
        assert kwargs["restart_from"] == config.tracetree.max_ttl
