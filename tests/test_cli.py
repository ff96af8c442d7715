"""End-to-end CLI runs against simulator fixtures."""
from __future__ import annotations

import yaml

import pytest

from conftest import CHAIN_DOC, shared_prefix_doc
from netradar.cli import main
from netradar.model import parse_round_log


@pytest.fixture
def chain_files(tmp_path):
    topo = tmp_path / "chain.yaml"
    topo.write_text(yaml.safe_dump(CHAIN_DOC), encoding="utf-8")
    dests = tmp_path / "dests.txt"
    dests.write_text("10.0.0.4\n", encoding="utf-8")
    return topo, dests


@pytest.fixture
def island_dataset(tmp_path):
    """A 12-round dataset with a 2-node island spliced in at round 8."""
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
    topo = tmp_path / "island.yaml"
    topo.write_text(yaml.safe_dump(doc), encoding="utf-8")
    dests = tmp_path / "dests.txt"
    dests.write_text("10.0.0.4\n", encoding="utf-8")
    out = tmp_path / "island.rounds"
    code = main(
        [
            "radar",
            "run",
            "--destinations",
            str(dests),
            "--transport",
            f"sim:{topo}",
            "--rounds",
            "12",
            "--max-ttl",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


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
        parsed = parse_round_log(out.read_text(encoding="utf-8"), max_ttl=8)
        assert len(parsed) == 2
        # stable topology: same filtered view both rounds (round 1 from the
        # default distance, round 2 from the converged cache)
        from netradar.filtering import filter_tree
        from netradar.model import ip

        trees = [filter_tree(raw, ip("10.0.0.1"))[0] for _, raw in parsed]
        assert trees[0].nodes == trees[1].nodes
        assert trees[0].edges == trees[1].edges
        assert trees[0].terminals == trees[1].terminals

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
        bad = tmp_path / "bad.yaml"
        bad.write_text("monitor: ghost\nnodes: {a: 10.0.0.1}\nlinks: []\n", encoding="utf-8")
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
        [(meta, raw)] = parse_round_log(out.read_text(encoding="utf-8"), max_ttl=8)
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
        [(_, raw)] = parse_round_log(out.read_text(encoding="utf-8"), max_ttl=8)
        assert [r.ttl for r in raw.records] == [1, 2, 3]


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


class TestAnalyze:
    def test_counts_csv(self, island_dataset, tmp_path):
        out = tmp_path / "counts.csv"
        code = main(
            ["analyze", "counts", "--in", str(island_dataset), "--max-ttl", "8", "--out", str(out)]
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
                "--max-ttl",
                "8",
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

    def test_missing_ref_is_usage_error(self, island_dataset):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "components", "--in", str(island_dataset)])
        assert exc.value.code == 1

    def test_reruns_byte_identical(self, island_dataset, tmp_path):
        blobs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            main(["analyze", "window", "--in", str(island_dataset), "--max-ttl", "8", "--window", "4", "--out", str(out)])
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
                "--max-ttl",
                "8",
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

    def test_parse_error_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.rounds"
        bad.write_text("not a round log\n", encoding="utf-8")
        assert main(["analyze", "counts", "--in", str(bad)]) == 3


class TestCompare:
    def test_emits_curves_and_loads(self, tmp_path):
        doc = shared_prefix_doc()
        topo = tmp_path / "topo.yaml"
        topo.write_text(yaml.safe_dump(doc), encoding="utf-8")
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
        assert main(["compare", "--in", str(log), "--monitor", "10.2.0.1", "--out-prefix", prefix]) == 0
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
        topo = tmp_path / "topo.yaml"
        topo.write_text(yaml.safe_dump(doc), encoding="utf-8")
        dests = tmp_path / "dests.txt"
        dests.write_text("10.2.0.6\n10.2.0.7\n", encoding="utf-8")
        log = tmp_path / "tr.rounds"
        args = ["--destinations", str(dests), "--transport", f"sim:{topo}", "--out", str(log)]
        assert main(["traceroute", "once", *args]) == 0
        prefix = str(tmp_path / "cmp")
        assert main(["compare", "--in", str(log), "--monitor", "10.2.0.1", "--out-prefix", prefix]) == 0
        expected = {
            "curves_rounds": "round,traceroute_ips,tracetree_ips\n1,6,6\n",
            "curves_packets": "tool,cum_packets,distinct_ips\ntraceroute,8,6\ntracetree,7,6\n",
            "load_traceroute": "times_probed,links\n1,4\n2,2\n",
            "load_tracetree": "times_probed,links\n1,5\n",
        }
        for name, text in expected.items():
            assert (tmp_path / f"cmp.{name}.csv").read_bytes() == text.encode()
