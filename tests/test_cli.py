"""End-to-end CLI runs against simulator fixtures."""
from __future__ import annotations

import errno
import gc
import io
import json
import os
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHAIN_DOC,
    MALFORMED_TOPOLOGIES,
    RATE_LIMITS_THAT_CANNOT_LIMIT,
    fig1_analog_doc,
    ip,
    rate_limited_chain_json,
    shared_prefix_doc,
)
from netradar import analytics, cli
from netradar.baseline import traceroute_round
from netradar.cli import main
from netradar.model import parse_round_log, serialize_round
from netradar.simnet import load_topology
from netradar.tracetree import TracetreeConfig
from netradar.transport import SimTransport, TransportError

from test_acceptance import fan_doc


@pytest.fixture
def chain_files(tmp_path):
    topo = tmp_path / "chain.json"
    topo.write_text(json.dumps(CHAIN_DOC), encoding="utf-8")
    dests = tmp_path / "dests.txt"
    dests.write_text("10.0.0.4\n", encoding="utf-8")
    return topo, dests


def _radar_log(directory, doc, destinations, rounds) -> Path:
    """Run `radar run` over a simulated topology; returns the round-log path."""
    topo = directory / "topo.json"
    topo.write_text(json.dumps(doc), encoding="utf-8")
    dests = directory / "dests.txt"
    dests.write_text("".join(f"{d}\n" for d in destinations), encoding="utf-8")
    out = directory / "data.rounds"
    args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--rounds", str(rounds)]
    assert main(["radar", "run", *args, "--max-ttl", "8", "--out", str(out)]) == 0
    return out


def _island_doc() -> dict:
    """The chain with a 2-node island spliced in at round 8."""
    doc = dict(CHAIN_DOC)
    doc["events"] = [
        {
            "at": 8 * 600.0 - 1.0,
            "add_island": {
                "nodes": {"x0": "10.5.0.0", "x1": "10.5.0.1"},
                "links": [["r1", "x0"], ["x0", "x1"], ["x1", "d"]],
            },
        },
        {"at": 8 * 600.0 - 1.0, "rewire": {"node": "r1", "remove": "r2", "add": "x0"}},
    ]
    return doc


def _fig1_events_doc() -> dict:
    """The fig1 analog (silent router, both balancer kinds) growing a
    two-node island over rounds 6 and 7 and one more new hop at round 8."""

    def splice(round_, node, name, address, to):
        # node -> name -> to replaces node -> to before the round starts
        at = round_ * 600.0 - 1.0
        return [
            {"at": at, "add_island": {"nodes": {name: address}, "links": [[node, name], [name, to]]}},
            {"at": at, "rewire": {"node": node, "remove": to}},
        ]

    doc = fig1_analog_doc()
    doc["events"] = (
        splice(6, "j", "y0", "10.0.9.1", "o")
        + splice(7, "y0", "y1", "10.0.9.2", "o")
        + splice(8, "m", "z0", "10.0.9.9", "p")
    )
    return doc


@pytest.fixture
def island_dataset(tmp_path):
    """A 12-round dataset with a 2-node island spliced in at round 8."""
    return _radar_log(tmp_path, _island_doc(), ["10.0.0.4"], 12)


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_components_fold_each_range_once(island_dataset, tmp_path, monkeypatch, dot):
    folds = []
    union = analytics._union

    def counted(rounds):
        folds.append(len(rounds))
        return union(rounds)

    monkeypatch.setattr(analytics, "_union", counted)
    args = ["--in", str(island_dataset), "--ref", "0:8", "--obs", "8:12"]
    assert main(["analyze", "components", *args, *dot, "--out", str(tmp_path / "out")]) == 0
    assert sorted(folds) == [4, 8]  # the observation range once, the reference once


class TestRadarRun:
    def test_two_identical_rounds(self, chain_files, tmp_path, capsys):
        topo, dests = chain_files
        out = tmp_path / "data.rounds"
        code = main(
            [
                "radar",
                "run",
                "--destinations",
                str(dests),
                "--transport",
                f"sim:{topo}",
                "--rounds",
                "2",
                "--max-ttl",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "2 rounds" in capsys.readouterr().out
        parsed = parse_round_log(out.read_text(encoding="utf-8"))
        assert len(parsed) == 2
        # stable topology: same filtered view both rounds (round 1 from the
        # default distance, round 2 from the converged cache)
        from netradar.filtering import filter_tree

        trees = [filter_tree(raw, ip("10.0.0.1"))[0] for _, raw in parsed]
        assert trees[0].nodes == trees[1].nodes
        assert trees[0].edges == trees[1].edges
        assert trees[0].terminals == trees[1].terminals

    def test_memory_stays_flat_over_rounds(self, tmp_path, monkeypatch):
        # `radar run` keeps no round it has written: after a collection,
        # what it holds at round 40's write is what it held at round 10's
        doc, destinations = fan_doc(chains=50, depth=5)
        held = []
        write = cli.DatasetWriter.write

        def measured(writer, record):
            write(writer, record)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(cli.DatasetWriter, "write", measured)
        tracemalloc.start()
        try:
            _radar_log(tmp_path, doc, destinations, 40)
        finally:
            tracemalloc.stop()
        assert len(held) == 40
        assert held[39] - held[9] < 64 * 1024, f"{(held[39] - held[9]) / 1024:.0f} KB more at round 40 than at 10"

    def test_interrupt_keeps_the_rounds_written(self, chain_files, tmp_path, capsys, monkeypatch):
        class Interrupting(SimTransport):
            def send(self, destination, ttl):
                if self.stats.sent == 10:  # inside round 1's probing
                    raise KeyboardInterrupt
                return super().send(destination, ttl)

        monkeypatch.setattr(cli, "SimTransport", Interrupting)
        topo, dests = chain_files
        out = tmp_path / "data.rounds"
        args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--rounds", "5", "--max-ttl", "8"]
        assert main(["radar", "run", *args, "--out", str(out)]) == 0
        parsed = parse_round_log(out.read_text(encoding="utf-8"))  # whole blocks only
        assert [meta.index for meta, _ in parsed] == [0]
        probes = len(parsed[0][1].keys)
        assert capsys.readouterr().out == f"1 rounds written to {out} ({probes} probes, monitor 10.0.0.1)\n"

    def test_missing_destinations_is_usage_error(self, chain_files):
        topo, _ = chain_files
        with pytest.raises(SystemExit) as exc:
            main(["radar", "run", "--transport", f"sim:{topo}", "--out", "x", "--rounds", "1"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["radar", "run", "--frobnicate"])
        assert exc.value.code == 1

    def test_bad_topology_is_validation_error(self, tmp_path, chain_files):
        _, dests = chain_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"monitor": "ghost", "nodes": {"a": "10.0.0.1"}, "links": []}', encoding="utf-8")
        code = main(
            [
                "radar",
                "run",
                "--destinations",
                str(dests),
                "--transport",
                f"sim:{bad}",
                "--rounds",
                "1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3

    def test_topology_removing_the_monitor_is_validation_error(self, tmp_path, chain_files, capsys):
        # refused on load, before a round is written, not by a traceback
        # once the monitor is gone
        _, dests = chain_files
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(dict(CHAIN_DOC, events=[{"at": 5.0, "remove_node": "mon"}])), encoding="utf-8")
        out = tmp_path / "data.rounds"
        args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--rounds", "3", "--out", str(out)]
        assert main(["radar", "run", *args]) == 3
        assert "netradar: event at 5 removes the monitor 'mon'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b'{"nodes": [', b'{"monitor": "\xff"}'], ids=["unclosed", "not-utf8"])
    def test_malformed_topology_json_is_validation_error(self, tmp_path, chain_files, capsys, content):
        _, dests = chain_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        args = ["--destinations", str(dests), "--transport", f"sim:{bad}"]
        assert main(["tracetree", "once", *args]) == 3
        assert f"netradar: {bad}: malformed JSON" in capsys.readouterr().err


class TestBadParameters:
    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--timeout", "nan", "timeout"),
            ("--inter-round", "nan", "inter_round_delay"),
            ("--rounds", "-1", "rounds"),
            ("--rate-cap", "-5", "rate_cap"),
            ("--rate-cap", "1e-310", "rate_cap"),  # 1/rate_cap overflows to inf
            ("--per-hop-delay", "nan", "per_hop_delay"),
            ("--per-hop-delay", "inf", "per_hop_delay"),
            ("--per-hop-delay", "-1", "per_hop_delay"),
        ],
    )
    def test_radar_run_is_validation_error(self, chain_files, tmp_path, capsys, flag, value, name):
        topo, dests = chain_files
        out = tmp_path / "data.rounds"
        flags = {"--rounds": "1", flag: value}
        args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(out)]
        assert main(["radar", "run", *args, *[t for pair in flags.items() for t in pair]]) == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_icmp_rate_cap_checked_before_the_socket(self, chain_files, tmp_path, capsys, monkeypatch):
        from netradar.icmp import IcmpTransport

        def no_socket(self):
            raise AssertionError("socket opened")

        monkeypatch.setattr(IcmpTransport, "_open_socket", no_socket)
        _, dests = chain_files
        args = ["--destinations", str(dests), "--transport", "icmp", "--rate-cap", "-5"]
        assert main(["radar", "run", *args, "--rounds", "1", "--out", str(tmp_path / "x")]) == 3
        assert "rate_cap" in capsys.readouterr().err


    @pytest.mark.parametrize("doc, match", MALFORMED_TOPOLOGIES)
    def test_malformed_topology_document_is_validation_error(self, chain_files, tmp_path, capsys, doc, match):
        _, dests = chain_files
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["tracetree", "once", "--destinations", str(dests), "--transport", f"sim:{topo}"]) == 3
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("policy", RATE_LIMITS_THAT_CANNOT_LIMIT)
    def test_rate_limit_that_cannot_limit_is_validation_error(self, chain_files, tmp_path, capsys, policy):
        _, dests = chain_files
        topo = tmp_path / "topo.json"
        topo.write_text(rate_limited_chain_json(policy), encoding="utf-8")
        assert main(["tracetree", "once", "--destinations", str(dests), "--transport", f"sim:{topo}"]) == 3
        assert "rate limit" in capsys.readouterr().err


class TestOnceCommands:
    def test_tracetree_once_emits_round_log(self, chain_files, tmp_path):
        topo, dests = chain_files
        out = tmp_path / "one.rounds"
        code = main(
            [
                "tracetree",
                "once",
                "--destinations",
                str(dests),
                "--transport",
                f"sim:{topo}",
                "--max-ttl",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        [(meta, raw)] = parse_round_log(out.read_text(encoding="utf-8"))
        assert meta.index == 0
        assert len(raw.records) == 8  # default distance, chain of 3 + echoes

    def test_traceroute_once_emits_round_log(self, chain_files, tmp_path):
        topo, dests = chain_files
        out = tmp_path / "tr.rounds"
        code = main(
            [
                "traceroute",
                "once",
                "--destinations",
                str(dests),
                "--transport",
                f"sim:{topo}",
                "--max-ttl",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        [(_, raw)] = parse_round_log(out.read_text(encoding="utf-8"))
        assert [r.ttl for r in raw.records] == [1, 2, 3]


class ClosingTransport(SimTransport):
    """Records close(); its sends fail when `fail` is set."""

    def __init__(self, topology, fail):
        super().__init__(topology)
        self.fail = fail
        self.closed = 0

    def send(self, destination, ttl):
        if self.fail:
            raise TransportError("link down")
        return super().send(destination, ttl)

    def prepare(self, destinations):
        if self.fail:
            raise TransportError("link down")
        super().prepare(destinations)

    def close(self):
        self.closed += 1
        super().close()


@pytest.mark.parametrize("fail, code", [(False, 0), (True, 2)])
@pytest.mark.parametrize(
    "command",
    [["radar", "run", "--rounds", "2"], ["tracetree", "once"], ["traceroute", "once"]],
    ids=["radar-run", "tracetree-once", "traceroute-once"],
)
def test_measurement_commands_close_their_transport(chain_files, tmp_path, monkeypatch, command, fail, code):
    topo, dests = chain_files
    made = []

    def make(spec, per_hop_delay, rate_cap):
        made.append(ClosingTransport(load_topology(str(topo)), fail))
        return made[-1]

    monkeypatch.setattr(cli, "_make_transport", make)
    args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(tmp_path / "x")]
    assert main([*command, *args]) == code
    assert [t.closed for t in made] == [1]


@pytest.mark.parametrize(
    "command",
    [["radar", "run", "--rounds", "2"], ["tracetree", "once"], ["traceroute", "once"]],
    ids=["radar-run", "tracetree-once", "traceroute-once"],
)
def test_unwritable_out_fails_before_any_probe(chain_files, tmp_path, capsys, monkeypatch, command):
    topo, dests = chain_files
    made = []

    def make(spec, per_hop_delay, rate_cap):
        made.append(SimTransport(load_topology(str(topo))))
        return made[-1]

    monkeypatch.setattr(cli, "_make_transport", make)
    out = tmp_path / "missing" / "data.rounds"
    args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(out)]
    assert main([*command, *args]) == 3
    assert [t.stats.sent for t in made] == [0]
    assert capsys.readouterr().err == f"netradar: {out}: {os.strerror(errno.ENOENT)}\n"


@pytest.mark.parametrize(
    "listing, message",
    [("# nothing\n\n", "no destinations"), ("10.0.0.4\n10.0.0.3\n10.0.0.4\n", ":3: duplicate destination 10.0.0.4")],
    ids=["empty", "repeated"],
)
@pytest.mark.parametrize(
    "command",
    [["radar", "run", "--rounds", "2"], ["tracetree", "once"], ["traceroute", "once"]],
    ids=["radar-run", "tracetree-once", "traceroute-once"],
)
def test_bad_destination_list_fails_before_any_output(chain_files, tmp_path, capsys, monkeypatch, command, listing, message):
    topo, dests = chain_files
    dests.write_text(listing, encoding="utf-8")
    out = tmp_path / "data.rounds"
    out.write_bytes(b"#round 0 0.0 1.0\n#end\n")  # an existing dataset

    def make(spec, per_hop_delay, rate_cap):
        raise AssertionError("transport opened")

    monkeypatch.setattr(cli, "_make_transport", make)
    args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(out)]
    assert main([*command, *args]) == 3
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"#round 0 0.0 1.0\n#end\n"


@pytest.mark.parametrize(
    "args, reported, error",
    [
        ("tracetree once --destinations {dests} --transport sim:{missing}", "{missing}", errno.ENOENT),
        ("tracetree once --destinations {missing} --transport sim:{topo}", "{missing}", errno.ENOENT),
        ("analyze counts --in {missing}", "{missing}", errno.ENOENT),
        ("simulate --topology {topo} --scenario {missing}", "{missing}", errno.ENOENT),
        ("tracetree once --destinations {dests} --transport sim:{directory}", "{directory}", errno.EISDIR),
        ("radar run --destinations {dests} --transport sim:{topo} --rounds 1 --out {missing}/x", "{missing}/x", errno.ENOENT),
    ],
    ids=["sim-topology", "destinations", "analyze-in", "simulate-scenario", "sim-directory", "out-directory"],
)
def test_missing_file_is_validation_error(chain_files, tmp_path, capsys, args, reported, error):
    topo, dests = chain_files
    paths = {"topo": topo, "dests": dests, "missing": tmp_path / "missing", "directory": tmp_path}
    assert main([word.format(**paths) for word in args.split()]) == 3
    assert capsys.readouterr().err == f"netradar: {reported.format(**paths)}: {os.strerror(error)}\n"


@pytest.mark.parametrize(
    "args",
    [
        "tracetree once --destinations {dests} --transport sim:{bad}",
        "tracetree once --destinations {bad} --transport sim:{topo}",
        "analyze counts --in {bad}",
        "compare --in {bad} --out-prefix {prefix}",
        "simulate --topology {bad} --scenario {dests}",
        "simulate --topology {topo} --scenario {bad}",
    ],
    ids=["sim-topology", "destinations", "analyze-in", "compare-in", "simulate-topology", "simulate-scenario"],
)
@pytest.mark.parametrize("error", [errno.ENOTDIR, errno.EACCES], ids=["not-a-directory", "permission"])
def test_unreadable_path_is_validation_error(chain_files, tmp_path, capsys, monkeypatch, args, error):
    topo, dests = chain_files
    if error == errno.ENOTDIR:
        bad = dests / "input"  # a path under a regular file
    else:
        # chmod does not stop root, so the refusal is made by `open`
        bad = tmp_path / "input"
        bad.write_bytes(dests.read_bytes())
        real_open = open

        def refusing_open(file, *rest, **kwargs):
            if str(file) == str(bad):
                raise PermissionError(error, os.strerror(error), str(file))
            return real_open(file, *rest, **kwargs)

        monkeypatch.setattr("builtins.open", refusing_open)
    paths = {"topo": topo, "dests": dests, "bad": bad, "prefix": tmp_path / "cmp"}
    assert main([word.format(**paths) for word in args.split()]) == 3
    assert capsys.readouterr().err == f"netradar: {bad}: {os.strerror(error)}\n"


BAD_LOG = b"#round 0 0.0 1.0\nfoo 1 5.6.7.8\n#end\n"
NOT_UTF8_LOG = b"#round 0 0.0 1.0\n\xff 1 5.6.7.8\n#end\n"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"


@pytest.mark.parametrize(
    "args, content, reason",
    [
        ("analyze counts --in {bad}", BAD_LOG, "line 2: bad source address 'foo'\n"),
        ("compare --in {bad} --out-prefix {prefix}", BAD_LOG, "line 2: bad source address 'foo'\n"),
        ("analyze counts --in {bad}", NOT_UTF8_LOG, NOT_UTF8),
        ("compare --in {bad} --out-prefix {prefix}", NOT_UTF8_LOG, NOT_UTF8),
        ("tracetree once --destinations {bad} --transport sim:{topo}", b"10.0.0.4\n\xff\n", NOT_UTF8),
        ("simulate --topology {topo} --scenario {bad}", b"0.0 10.0.0.4 1\n\xff\n", NOT_UTF8),
    ],
    ids=["analyze-log", "compare-log", "analyze-log-bytes", "compare-log-bytes", "destinations-bytes", "scenario-bytes"],
)
def test_unreadable_input_names_its_file(chain_files, tmp_path, capsys, args, content, reason):
    topo, _ = chain_files
    bad = tmp_path / "input"
    bad.write_bytes(content)
    paths = {"topo": topo, "bad": bad, "prefix": tmp_path / "cmp"}
    assert main([word.format(**paths) for word in args.split()]) == 3
    assert capsys.readouterr().err.startswith(f"netradar: {bad}: {reason}")


# -- a torn final round: what a crash while writing a round leaves ----------


@pytest.fixture(scope="module")
def four_rounds(tmp_path_factory):
    """The bytes of a 4-round log of the fig1 analog (stars and both
    balancer kinds), and a directory to write cut copies into."""
    directory = tmp_path_factory.mktemp("torn")
    log = _radar_log(directory, _fig1_events_doc(), ["10.0.1.14", "10.0.1.15", "10.0.1.16"], 4)
    return log.read_bytes(), directory


def _counts(path) -> tuple[int, str, str]:
    """`analyze counts --in path`: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", "counts", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_log_cut_anywhere_reads_its_whole_rounds(four_rounds, data):
    text, directory = four_rounds
    cut = data.draw(st.integers(0, len(text)), label="cut")
    # the whole rounds end at the last block boundary at or before the cut; a
    # block missing only its final line end is whole, as the parser reads a
    # last line without one
    whole = max((m.end() for m in re.finditer(rb"#end\n", text) if m.end() - 1 <= cut), default=0)
    cut_log, whole_log = directory / "cut.rounds", directory / "whole.rounds"
    cut_log.write_bytes(text[:cut])
    whole_log.write_bytes(text[:whole])
    code, out, err = _counts(cut_log)
    assert (code, out, "") == _counts(whole_log)
    line_no = text[:whole].count(b"\n") + 1
    torn = cut not in (whole, whole - 1)
    assert err == (f"netradar: {cut_log}: line {line_no}: torn final round ignored\n" if torn else "")


@pytest.mark.parametrize(
    "tail",
    [
        "#round 4 2400.0 2400.5\n10.0.1.2 1 10.0.1.14\n10.0.1",
        "#round 4 2400.0 2400.5\n10.0.1.2 1 10.0.1.14\n",
        "#round 4 2400.0 2400.5\n",
        "#rou",
    ],
    ids=["cut-record", "cut-at-a-line-end", "header-only", "cut-header"],
)
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_torn_final_round_is_skipped_with_a_note(four_rounds, tmp_path, capsys, command, tail):
    text, _ = four_rounds
    whole, torn = tmp_path / "whole.rounds", tmp_path / "torn.rounds"
    whole.write_bytes(text)
    torn.write_bytes(text + tail.encode())
    outputs = []
    for log in (whole, torn):
        if command == "analyze":
            argv = ["analyze", "counts", "--in", str(log), "--out", str(tmp_path / f"{log.stem}.csv")]
        else:
            argv = ["compare", "--in", str(log), "--out-prefix", str(tmp_path / log.stem)]
        assert main(argv) == 0
        outputs.append(sorted(p.read_bytes() for p in tmp_path.glob(f"{log.stem}.*csv")))
    assert outputs[0] == outputs[1] and outputs[0]
    line_no = text.count(b"\n") + 1
    assert f"netradar: {torn}: line {line_no}: torn final round ignored\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tail, line, reason",
    [
        ("#round 4 2400.0 2400.5\nfoo 1 10.0.1.14\n10.0", 1, "bad source address 'foo'"),
        ("#round 4 2400.0 2400.5\n10.0.1.2 99 10.0.1.14\n", 1, "ttl 99 outside [1, 64]"),
        ("#round 4 2400.0 2400.5\n#round 5 3000.0 3000.5\n10.0", 1, "new round before #end"),
        ("10.0.1.2 1 10.0.1.14\n10.0", 0, "content outside a round block"),
        ("#round 4 nan 2400.5\n10.0", 0, "malformed round header"),
    ],
    ids=["bad-record", "bad-ttl", "two-headers", "no-header", "bad-header"],
)
def test_only_a_torn_final_round_is_forgiven(four_rounds, tmp_path, capsys, tail, line, reason):
    # a tail whose whole lines are not a round header and records is an
    # error like any other, reported where the parser stops
    text, _ = four_rounds
    bad = tmp_path / "bad.rounds"
    bad.write_bytes(text + tail.encode())
    assert main(["analyze", "counts", "--in", str(bad)]) == 3
    line_no = text.count(b"\n") + 1 + line
    assert capsys.readouterr().err == f"netradar: {bad}: line {line_no}: {reason}\n"


def test_a_torn_tail_does_not_excuse_an_earlier_error(tmp_path, capsys):
    bad = tmp_path / "bad.rounds"
    bad.write_bytes(BAD_LOG + b"#round 1 1.0 2.0\n1.2")
    assert main(["analyze", "counts", "--in", str(bad)]) == 3
    assert capsys.readouterr().err == f"netradar: {bad}: line 2: bad source address 'foo'\n"


# a block with a second record at (10.0.1.14, 1), on its fourth line
SECOND_RECORD_BLOCK = "#round 4 2400.0 2400.5\n10.0.1.2 1 10.0.1.14\n10.0.1.3 2 10.0.1.14\n10.0.1.9 1 10.0.1.14\n"


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_a_second_record_at_one_slot_is_refused(four_rounds, tmp_path, capsys, command):
    text, _ = four_rounds
    header_no = text.count(b"\n") + 1

    def run(log):
        if command == "analyze":
            return main(["analyze", "counts", "--in", str(log), "--out", str(tmp_path / "counts.csv")])
        return main(["compare", "--in", str(log), "--out-prefix", str(tmp_path / "cmp")])

    bad = tmp_path / "bad.rounds"
    bad.write_bytes(text + SECOND_RECORD_BLOCK.encode() + b"#end\n")
    assert run(bad) == 3
    assert capsys.readouterr().err == f"netradar: {bad}: line {header_no + 3}: second record for one destination and ttl\n"
    # a torn final block is only torn: its records are never checked
    torn = tmp_path / "torn.rounds"
    torn.write_bytes(text + SECOND_RECORD_BLOCK.encode())
    assert run(torn) == 0
    assert capsys.readouterr().err == f"netradar: {torn}: line {header_no}: torn final round ignored\n"


@pytest.mark.parametrize("brk", ["\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize(
    "args, text, reported",
    [
        ("simulate --topology {topo} --scenario {bad}", "0 10.0.0.4 1{brk}\n1 10.0.0.4 x\n", ":2: "),
        ("tracetree once --destinations {bad} --transport sim:{topo}", "10.0.0.4{brk}\n10.0.0.4\n", ":2: duplicate"),
    ],
    ids=["scenario", "destinations"],
)
def test_input_line_numbers_count_newlines_only(chain_files, tmp_path, capsys, args, text, reported, brk):
    # both readers end a line at "\n" only, as round logs do, so a line
    # number never drifts from the file
    topo, _ = chain_files
    bad = tmp_path / "input"
    bad.write_bytes(text.format(brk=brk).encode())
    assert main([word.format(topo=topo, bad=bad) for word in args.split()]) == 3
    assert capsys.readouterr().err.startswith(f"netradar: {bad}{reported}")


def test_analyze_reads_a_log_of_any_max_ttl(chain_files, tmp_path):
    # the reader's bound is the radar's, so no --max-ttl is passed again
    topo, dests = chain_files
    log = tmp_path / "data.rounds"
    args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--rounds", "2"]
    assert main(["radar", "run", *args, "--max-ttl", "40", "--out", str(log)]) == 0
    assert " 40 " in log.read_text(encoding="utf-8")  # round 0 starts at ttl 40
    assert main(["analyze", "counts", "--in", str(log), "--out", str(tmp_path / "counts.csv")]) == 0


class TestSimulate:
    def test_replay_is_deterministic(self, chain_files, tmp_path):
        topo, _ = chain_files
        scenario = tmp_path / "probes.txt"
        scenario.write_text(
            "# time destination ttl\n0.0 10.0.0.4 1\n0.5 10.0.0.4 3\n1.0 10.0.0.4 9\n",
            encoding="utf-8",
        )
        outputs = []
        for name in ("a.out", "b.out"):
            out = tmp_path / name
            assert main(["simulate", "--topology", str(topo), "--scenario", str(scenario), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0].endswith("time_exceeded 10.0.0.2")
        assert lines[1].endswith("echo_reply 10.0.0.4")

    def test_nan_time_is_validation_error(self, chain_files, tmp_path, capsys):
        topo, _ = chain_files
        scenario = tmp_path / "probes.txt"
        scenario.write_text("nan 10.0.0.4 1\n-5 10.0.0.4 3\n", encoding="utf-8")
        args = ["--topology", str(topo), "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        assert main(["simulate", *args]) == 3
        # refused as it is read, before the event clock sees it
        assert capsys.readouterr().err == f"netradar: {scenario}:1: bad time 'nan'\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("x 10.0.0.4 2", "bad time 'x'"),
            ("0.5 10.0.0.999 2", "10.0.0.999"),
            ("0.5 10.0.0.4 1x", "bad ttl '1x'"),
            # what float() and int() read but the round log never writes
            ("1_1 10.0.0.4 2", "bad time '1_1'"),
            ("-5 10.0.0.4 2", "bad time '-5'"),
            ("1e3 10.0.0.4 2", "bad time '1e3'"),
            ("inf 10.0.0.4 2", "bad time 'inf'"),
            pytest.param("1" * 400 + " 10.0.0.4 2", "bad time '111", id="time-beyond-float"),
            ("0.5 10.0.0.4 1_0", "bad ttl '1_0'"),
            ("0.5 10.0.0.4 +2", "bad ttl '+2'"),
            ("0.5 10.0.0.4 02", "bad ttl '02'"),
            ("0.5 10.0.0.4 99", "ttl 99 outside [1, 64]"),
            ("0.5 10.0.0.4 0", "ttl 0 outside [1, 64]"),
        ],
    )
    def test_bad_field_names_file_and_line(self, chain_files, tmp_path, capsys, line, message):
        topo, _ = chain_files
        scenario = tmp_path / "probes.txt"
        scenario.write_text(f"0.0 10.0.0.4 1\n{line}\n", encoding="utf-8")
        assert main(["simulate", "--topology", str(topo), "--scenario", str(scenario)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"netradar: {scenario}:2: ")
        assert message in err

    def test_plain_decimal_times_read(self, chain_files, tmp_path):
        topo, _ = chain_files
        scenario = tmp_path / "probes.txt"
        scenario.write_text("0 10.0.0.4 1\n0.5 10.0.0.4 2\n10 10.0.0.4 64\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--topology", str(topo), "--scenario", str(scenario), "--out", str(out)]) == 0
        assert [line.split()[:3] for line in out.read_text(encoding="utf-8").splitlines()] == [
            ["0.0", "10.0.0.4", "1"],
            ["0.5", "10.0.0.4", "2"],
            ["10.0", "10.0.0.4", "64"],
        ]

    def test_nan_event_time_is_validation_error(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        scenario = tmp_path / "probes.txt"
        topo.write_text(json.dumps(dict(CHAIN_DOC, events=[{"at": float("nan"), "remove_node": "r2"}])), encoding="utf-8")
        scenario.write_text("0.0 10.0.0.4 1\n", encoding="utf-8")
        assert main(["simulate", "--topology", str(topo), "--scenario", str(scenario)]) == 3
        assert "event time" in capsys.readouterr().err


class TestAnalyze:
    def test_counts_csv(self, island_dataset, tmp_path):
        out = tmp_path / "counts.csv"
        code = main(
            ["analyze", "counts", "--in", str(island_dataset), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round,distinct_ips"
        assert len(lines) == 13

    def test_components_csv_lists_island(self, island_dataset, tmp_path):
        out = tmp_path / "components.csv"
        code = main(
            [
                "analyze",
                "components",
                "--in",
                str(island_dataset),
                "--ref",
                "0:8",
                "--obs",
                "8:12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("size,first_round")
        assert lines[1].startswith("2,8,8,1,10.5.0.0|10.5.0.1")

    def test_missing_ref_is_usage_error(self, island_dataset, capsys):
        cases = [
            ("components", [], "--ref, --obs"),
            ("correlate", [], "--ref, --obs"),
            ("correlate", ["--ref", "0:8"], "--obs"),
            ("event-graph", [], "--round"),
        ]
        for operation, args, missing in cases:
            with pytest.raises(SystemExit) as exc:
                main(["analyze", operation, "--in", str(island_dataset), *args])
            assert exc.value.code == 1
            assert f"the following arguments are required: {missing}" in capsys.readouterr().err

    def test_bad_range_is_usage_error(self, island_dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "components", "--in", str(island_dataset), "--ref", "a:b", "--obs", "8:12"])
        assert exc.value.code == 1
        assert "bad round range 'a:b', expected START:STOP" in capsys.readouterr().err

    def test_reruns_byte_identical(self, island_dataset, tmp_path):
        blobs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            main(["analyze", "window", "--in", str(island_dataset), "--window", "4", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_event_graph_dot(self, island_dataset, tmp_path):
        out = tmp_path / "event.dot"
        code = main(
            [
                "analyze",
                "event-graph",
                "--in",
                str(island_dataset),
                "--round",
                "8",
                "--before",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "penwidth" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("monitor", ["", "10.0.0", "10.0.0.01"], ids=["empty", "three-octets", "leading-zero"])
    def test_bad_monitor_is_validation_error(self, island_dataset, tmp_path, capsys, monitor):
        # an empty --monitor is no address, not a request for the placeholder root
        out = tmp_path / "counts.csv"
        assert main(["analyze", "counts", "--in", str(island_dataset), "--monitor", monitor, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"netradar: bad --monitor address {monitor!r}\n"
        assert not out.exists()

    def test_parse_error_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.rounds"
        for text in ("not a round log\n", "#round 0 nan 1.0\n#end\n", "#round 0 0.0 1.0\n1.2.3.4 +3 5.6.7.8\n#end\n"):
            bad.write_text(text, encoding="utf-8")
            assert main(["analyze", "counts", "--in", str(bad)]) == 3

    @pytest.mark.parametrize("header", ["#round 0 1e3 1.0", "#round 0 0 1", "#round 0 0.10000000000000001 1.0"])
    def test_header_times_must_read_back_exactly(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.rounds"
        bad.write_text(f"#round 0 0.0 1.0\n#end\n{header}\n#end\n", encoding="utf-8")
        assert main(["analyze", "counts", "--in", str(bad)]) == 3
        assert "line 3: malformed round header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_log_is_read_as_written(self, tmp_path, capsys, command):
        # no newline translation: a carriage return before a line end is
        # part of the line, so the log is not one serialize_round wrote
        bad = tmp_path / "bad.rounds"
        bad.write_bytes(b"#round 0 0.0 1.0\r\n1.2.3.4 1 5.6.7.8\r\n#end\r\n")
        if command == "analyze":
            argv = ["analyze", "counts", "--in", str(bad)]
        else:
            argv = ["compare", "--in", str(bad), "--out-prefix", str(tmp_path / "cmp")]
        assert main(argv) == 3
        assert "line 1: malformed round header" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stored_logs(tmp_path_factory):
    """Two stored round logs: the island chain (event at round 8) and the
    fig1 analog with stars, balancers and two new-address components
    (events at rounds 6 to 8)."""
    fig1 = tmp_path_factory.mktemp("fig1")
    island = tmp_path_factory.mktemp("island")
    return {
        "fig1": (_radar_log(fig1, _fig1_events_doc(), ["10.0.1.14", "10.0.1.15", "10.0.1.16"], 12), 6),
        "island": (_radar_log(island, _island_doc(), ["10.0.0.4"], 12), 8),
    }


def _analyze_args(operation: str, event: int) -> list[str]:
    ranges = ["--ref", f"0:{event}", "--obs", f"{event}:12"]
    return {
        "counts": ["counts"],
        "window_sliding": ["window", "--window", "4"],
        "window_blocked": ["window", "--window", "4", "--mode", "blocked"],
        "peaks": ["peaks", "--window", "1", "--k", "2"],
        "peaks_down_w2": ["peaks", "--window", "2", "--direction", "down", "--k", "1"],
        "distribution": ["distribution", "--window", "1"],
        "distribution_w3": ["distribution", "--window", "3", "--bin-width", "2"],
        "components": ["components", *ranges],
        "components_dot": ["components", *ranges, "--dot"],
        "event_graph": ["event-graph", "--round", str(event), "--before", str(event)],
        "correlate": ["correlate", *ranges],
    }[operation]


# (log, operation) -> the exact output bytes; the island log has a single
# component, so it has no correlate case
ANALYZE_OUTPUTS = {
    ("fig1", "components"): (
        'size,first_round,last_round,discovery_time,addresses\n'
        '2,6,7,2,10.0.9.1|10.0.9.2\n'
        '1,8,8,1,10.0.9.9\n'
    ),
    ("fig1", "components_dot"): (
        'graph components {\n'
        '  n0 [label="10.0.1.2"];\n'
        '  n1 [label="10.0.1.3"];\n'
        '  n2 [label="10.0.1.4"];\n'
        '  n3 [label="10.0.1.5"];\n'
        '  n4 [label="10.0.1.6"];\n'
        '  n5 [label="10.0.1.7"];\n'
        '  n6 [label="10.0.1.8"];\n'
        '  n7 [label="10.0.1.9"];\n'
        '  n8 [label="10.0.1.10"];\n'
        '  n9 [label="10.0.1.13"];\n'
        '  n10 [label="10.0.1.14"];\n'
        '  n11 [label="10.0.1.15"];\n'
        '  n12 [label="10.0.1.16"];\n'
        '  n13 [label="10.0.9.1", style=filled, fillcolor=black, fontcolor=white];\n'
        '  n14 [label="10.0.9.2", style=filled, fillcolor=black, fontcolor=white];\n'
        '  n15 [label="10.0.9.9", style=filled, fillcolor=black, fontcolor=white];\n'
        '  n0 -- n1;\n'
        '  n0 -- n2;\n'
        '  n0 -- n4;\n'
        '  n1 -- n3;\n'
        '  n2 -- n5;\n'
        '  n3 -- n6;\n'
        '  n3 -- n7;\n'
        '  n4 -- n8;\n'
        '  n6 -- n9;\n'
        '  n7 -- n9;\n'
        '  n8 -- n13;\n'
        '  n9 -- n12;\n'
        '  n9 -- n15;\n'
        '  n11 -- n13;\n'
        '  n11 -- n14;\n'
        '  n12 -- n15;\n'
        '  n13 -- n14;\n'
        '}\n'
    ),
    ("fig1", "correlate"): (
        '# spearman_rho=1.0\n'
        'size,discovery_time\n'
        '2,2\n'
        '1,1\n'
    ),
    ("fig1", "counts"): (
        'round,distinct_ips\n'
        '0,12\n'
        '1,12\n'
        '2,12\n'
        '3,12\n'
        '4,12\n'
        '5,12\n'
        '6,13\n'
        '7,14\n'
        '8,15\n'
        '9,15\n'
        '10,15\n'
        '11,15\n'
    ),
    ("fig1", "distribution"): (
        'distinct_ips,rounds\n'
        '12,6\n'
        '13,1\n'
        '14,1\n'
        '15,4\n'
    ),
    ("fig1", "distribution_w3"): (
        'distinct_ips,rounds\n'
        '12,4\n'
        '14,3\n'
        '16,3\n'
    ),
    ("fig1", "event_graph"): (
        'graph event {\n'
        '  node [shape=point, width=0.08];\n'
        '  n0 [tooltip="10.0.1.2"];\n'
        '  n1 [tooltip="10.0.1.3"];\n'
        '  n2 [tooltip="10.0.1.4"];\n'
        '  n3 [tooltip="10.0.1.5"];\n'
        '  n4 [tooltip="10.0.1.6"];\n'
        '  n5 [tooltip="10.0.1.7"];\n'
        '  n6 [tooltip="10.0.1.8"];\n'
        '  n7 [tooltip="10.0.1.9"];\n'
        '  n8 [tooltip="10.0.1.10"];\n'
        '  n9 [tooltip="10.0.1.13"];\n'
        '  n10 [tooltip="10.0.1.14"];\n'
        '  n11 [tooltip="10.0.1.15"];\n'
        '  n12 [tooltip="10.0.1.16"];\n'
        '  n13 [tooltip="10.0.9.1"];\n'
        '  n0 -- n1 [color=gray60];\n'
        '  n0 -- n2 [color=gray60];\n'
        '  n0 -- n4 [color=gray60];\n'
        '  n1 -- n3 [color=gray60];\n'
        '  n2 -- n5 [color=gray60];\n'
        '  n3 -- n6 [color=gray60];\n'
        '  n3 -- n7 [color=gray60];\n'
        '  n4 -- n8 [color=gray60];\n'
        '  n6 -- n9 [color=gray60];\n'
        '  n7 -- n9 [color=gray60];\n'
        '  n8 -- n11 [color=gray60];\n'
        '  n8 -- n13 [penwidth=2.5, color=black];\n'
        '  n9 -- n12 [color=gray60];\n'
        '  n11 -- n13 [penwidth=2.5, color=black];\n'
        '}\n'
    ),
    ("fig1", "peaks"): (
        '# direction=up k=2.0 median=12.5 threshold=1.0\n'
        'round\n'
        '7\n'
        '8\n'
        '9\n'
        '10\n'
        '11\n'
    ),
    ("fig1", "peaks_down_w2"): (
        '# direction=down k=1.0 median=14.0 threshold=1.0\n'
        'round\n'
    ),
    ("fig1", "window_blocked"): (
        'round,distinct_ips_w4\n'
        '3,13\n'
        '7,15\n'
        '11,16\n'
    ),
    ("fig1", "window_sliding"): (
        'round,distinct_ips_w4\n'
        '3,13\n'
        '4,13\n'
        '5,13\n'
        '6,14\n'
        '7,15\n'
        '8,16\n'
        '9,16\n'
        '10,16\n'
        '11,16\n'
    ),
    ("island", "components"): (
        'size,first_round,last_round,discovery_time,addresses\n'
        '2,8,8,1,10.5.0.0|10.5.0.1\n'
    ),
    ("island", "components_dot"): (
        'graph components {\n'
        '  n0 [label="10.0.0.2"];\n'
        '  n1 [label="10.0.0.4"];\n'
        '  n2 [label="10.5.0.0", style=filled, fillcolor=black, fontcolor=white];\n'
        '  n3 [label="10.5.0.1", style=filled, fillcolor=black, fontcolor=white];\n'
        '  n0 -- n2;\n'
        '  n1 -- n3;\n'
        '  n2 -- n3;\n'
        '}\n'
    ),
    ("island", "counts"): (
        'round,distinct_ips\n'
        '0,3\n'
        '1,3\n'
        '2,3\n'
        '3,3\n'
        '4,3\n'
        '5,3\n'
        '6,3\n'
        '7,3\n'
        '8,4\n'
        '9,4\n'
        '10,4\n'
        '11,4\n'
    ),
    ("island", "distribution"): (
        'distinct_ips,rounds\n'
        '3,8\n'
        '4,4\n'
    ),
    ("island", "distribution_w3"): (
        'distinct_ips,rounds\n'
        '2,6\n'
        '4,4\n'
    ),
    ("island", "event_graph"): (
        'graph event {\n'
        '  node [shape=point, width=0.08];\n'
        '  n0 [tooltip="10.0.0.2"];\n'
        '  n1 [tooltip="10.0.0.3"];\n'
        '  n2 [tooltip="10.0.0.4"];\n'
        '  n3 [tooltip="10.5.0.0"];\n'
        '  n4 [tooltip="10.5.0.1"];\n'
        '  n0 -- n1 [color=gray60];\n'
        '  n0 -- n3 [penwidth=2.5, color=black];\n'
        '  n1 -- n2 [color=gray60];\n'
        '  n2 -- n4 [penwidth=2.5, color=black];\n'
        '  n3 -- n4 [penwidth=2.5, color=black];\n'
        '}\n'
    ),
    ("island", "peaks"): (
        '# direction=up k=2.0 median=3.0 threshold=0.30000000000000004\n'
        '# degenerate: zero median absolute deviation\n'
        'round\n'
        '8\n'
        '9\n'
        '10\n'
        '11\n'
    ),
    ("island", "peaks_down_w2"): (
        '# direction=down k=1.0 median=3.0 threshold=0.15000000000000002\n'
        '# degenerate: zero median absolute deviation\n'
        'round\n'
    ),
    ("island", "window_blocked"): (
        'round,distinct_ips_w4\n'
        '3,3\n'
        '7,3\n'
        '11,4\n'
    ),
    ("island", "window_sliding"): (
        'round,distinct_ips_w4\n'
        '3,3\n'
        '4,3\n'
        '5,3\n'
        '6,3\n'
        '7,3\n'
        '8,5\n'
        '9,5\n'
        '10,5\n'
        '11,4\n'
    ),
}


# every operation-specific analyze flag, with a value, and the operations
# that read it; `--in`, `--out` and `--monitor` are common to all
ANALYZE_FLAGS = {
    "--window": (["4"], {"window", "peaks", "distribution"}),
    "--mode": (["blocked"], {"window"}),
    "--direction": (["down"], {"peaks"}),
    "--k": (["2"], {"peaks"}),
    "--bin-width": (["2"], {"distribution"}),
    "--ref": (["0:8"], {"components", "correlate"}),
    "--obs": (["8:12"], {"components", "correlate"}),
    "--dot": ([], {"components"}),
    "--round": (["8"], {"event-graph"}),
    "--before": (["8"], {"event-graph"}),
}
ANALYZE_OPERATIONS = ["counts", "window", "peaks", "distribution", "components", "event-graph", "correlate"]


def _read_flags(operation: str) -> list[str]:
    return [t for flag, (value, readers) in ANALYZE_FLAGS.items() if operation in readers for t in (flag, *value)]


@pytest.mark.parametrize("operation", ANALYZE_OPERATIONS)
def test_analyze_operation_takes_its_flags(operation):
    args = cli.build_parser().parse_args(["analyze", operation, "--in", "log", *_read_flags(operation)])
    read = {flag[2:].replace("-", "_") for flag, (_, readers) in ANALYZE_FLAGS.items() if operation in readers}
    assert set(vars(args)) == {"command", "func", "operation", "infile", "out", "monitor", *read}


@pytest.mark.parametrize(
    "operation, flag",
    [(op, flag) for op in ANALYZE_OPERATIONS for flag, (_, readers) in ANALYZE_FLAGS.items() if op not in readers],
)
def test_analyze_flag_the_operation_does_not_read_is_usage_error(capsys, operation, flag):
    value = ANALYZE_FLAGS[flag][0]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", operation, "--in", "log", *_read_flags(operation), flag, *value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: netradar analyze {operation} [-h] --in INFILE")
    assert f"netradar analyze {operation}: error: unrecognized arguments: {flag}" in err


class TestAnalyzeOutputs:
    @pytest.mark.parametrize("operation", ["window", "peaks", "distribution"])
    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_nonpositive_window_is_validation_error(self, stored_logs, capsys, operation, window):
        path, _ = stored_logs["island"]
        args = ["--in", str(path), "--window", window]
        assert main(["analyze", operation, *args]) == 3
        assert "window must be >= 1" in capsys.readouterr().err

    def test_nonpositive_k_is_validation_error(self, stored_logs, capsys):
        path, _ = stored_logs["island"]
        args = ["--in", str(path), "--window", "1", "--k", "-1"]
        assert main(["analyze", "peaks", *args]) == 3
        assert "k must be" in capsys.readouterr().err

    @pytest.mark.parametrize("log, operation", sorted(ANALYZE_OUTPUTS))
    def test_output_bytes(self, stored_logs, tmp_path, log, operation):
        path, event = stored_logs[log]
        out = tmp_path / "out"
        operation_args = _analyze_args(operation, event)
        args = [operation_args[0], "--in", str(path), "--out", str(out)]
        assert main(["analyze", *args, *operation_args[1:]]) == 0
        assert out.read_bytes() == ANALYZE_OUTPUTS[log, operation].encode()


class TestCompare:
    def test_emits_curves_and_loads(self, tmp_path):
        doc = shared_prefix_doc()
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc), encoding="utf-8")
        dests = tmp_path / "dests.txt"
        dests.write_text("10.2.0.6\n10.2.0.7\n", encoding="utf-8")
        log = tmp_path / "tr.rounds"
        assert (
            main(
                [
                    "traceroute",
                    "once",
                    "--destinations",
                    str(dests),
                    "--transport",
                    f"sim:{topo}",
                    "--out",
                    str(log),
                ]
            )
            == 0
        )
        prefix = str(tmp_path / "cmp")
        assert main(["compare", "--in", str(log), "--out-prefix", prefix]) == 0
        rounds_csv = (tmp_path / "cmp.curves_rounds.csv").read_text(encoding="utf-8")
        header, row = rounds_csv.splitlines()
        assert header == "round,traceroute_ips,tracetree_ips"
        _, tr_ips, tt_ips = row.split(",")
        assert int(tr_ips) >= int(tt_ips)
        packets_csv = (tmp_path / "cmp.curves_packets.csv").read_text(encoding="utf-8")
        assert "traceroute," in packets_csv and "tracetree," in packets_csv
        load_tt = (tmp_path / "cmp.load_tracetree.csv").read_text(encoding="utf-8")
        assert load_tt.splitlines()[1].startswith("1,")

    def test_curve_and_load_csv_bytes(self, tmp_path):
        doc = shared_prefix_doc()
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc), encoding="utf-8")
        dests = tmp_path / "dests.txt"
        dests.write_text("10.2.0.6\n10.2.0.7\n", encoding="utf-8")
        log = tmp_path / "tr.rounds"
        args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(log)]
        assert main(["traceroute", "once", *args]) == 0
        prefix = str(tmp_path / "cmp")
        assert main(["compare", "--in", str(log), "--out-prefix", prefix]) == 0
        expected = {
            "curves_rounds": "round,traceroute_ips,tracetree_ips\n1,6,6\n",
            "curves_packets": "tool,cum_packets,distinct_ips\ntraceroute,8,6\ntracetree,7,6\n",
            "load_traceroute": "times_probed,links\n1,4\n2,2\n",
            "load_tracetree": "times_probed,links\n1,5\n",
        }
        for name, text in expected.items():
            assert (tmp_path / f"cmp.{name}.csv").read_bytes() == text.encode()

    def test_monitor_is_usage_error(self, capsys):
        # the monitor's address never reaches compare's outputs
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in", "tr.rounds", "--monitor", "10.2.0.1"])
        assert exc.value.code == 1
        assert "usage: netradar compare" in capsys.readouterr().err

    def test_csv_bytes_over_rounds_with_stars_balancers_and_events(self, tmp_path):
        # four traceroute rounds over the fig1 analog: a silent router, a
        # per-packet balancer and three splices between the rounds
        transport = SimTransport(load_topology(_fig1_events_doc()))
        destinations = [IPv4Address(d) for d in ("10.0.1.14", "10.0.1.15", "10.0.1.16", "10.0.1.13", "10.0.1.7")]
        blocks = []
        for index in range(4):
            transport.clock.sleep(index * 2000.0 - transport.clock.now())
            started = transport.clock.now()
            raw = traceroute_round(destinations, transport, TracetreeConfig())
            blocks.append(serialize_round(raw, index, started, transport.clock.now()))
        log = tmp_path / "tr.rounds"
        log.write_text("".join(blocks), encoding="utf-8")
        assert "* 4 10.0.1.14" in blocks[0] and "10.0.9.9 6 10.0.1.16" in blocks[3]
        prefix = str(tmp_path / "cmp")
        assert main(["compare", "--in", str(log), "--out-prefix", prefix]) == 0
        expected = {
            "curves_rounds": "round,traceroute_ips,tracetree_ips\n1,13,12\n2,13,13\n3,14,14\n4,16,16\n",
            "curves_packets": (
                "tool,cum_packets,distinct_ips\n"
                "traceroute,23,13\ntraceroute,46,13\ntraceroute,70,14\ntraceroute,96,16\n"
                "tracetree,17,12\ntracetree,34,13\ntracetree,52,14\ntracetree,72,16\n"
            ),
            "load_traceroute": "times_probed,links\n1,9\n2,6\n5,1\n",
            "load_tracetree": "times_probed,links\n1,15\n",
        }
        for name, text in expected.items():
            assert (tmp_path / f"cmp.{name}.csv").read_bytes() == text.encode()
