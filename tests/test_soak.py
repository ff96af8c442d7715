"""The soak tool runs a short season and prints each of its numbers; no
thresholds."""
from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import perfbench_inet
from netradar.model import parse_address
from netradar.radar import DatasetWriter, RadarConfig, radar_rounds
from netradar.simnet import load_topology
from netradar.transport import SimTransport

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "soak.py"
NUMBER = r"-?\d+(\.\d+)?"


def test_soak_prints_every_number():
    args = ["--rounds", "12", "--destinations", "50", "--seed", "3001"]
    out = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, check=True).stdout
    for line in (
        rf"seconds per round: {NUMBER}",
        rf"rss after gc at round 1: {NUMBER} MB",
        rf"rss after gc at round 12: {NUMBER} MB",
        rf"rss growth per round: {NUMBER} KB",
        rf"tracemalloc growth per round: {NUMBER} KB",
        rf"log bytes per round: {NUMBER}",
        r"log sha256: [0-9a-f]{64}",
        rf"analyze counts: {NUMBER} s, max rss {NUMBER} MB",
        rf"analyze components: {NUMBER} s, max rss {NUMBER} MB",
    ):
        assert re.search(rf"^{line}$", out, re.M), line


# the SHA-256 of the log `tools/soak.py --rounds 24 --destinations 200
# --seed S` writes: a change that routes or records any probe otherwise
# writes other bytes
@pytest.mark.parametrize(
    "seed, digest",
    [
        (3001, "7e9317104d62d01ebca9cf1b074a175367ab9c95b7603f4d09068ff366a4ca4d"),
        (3002, "0fab4bac47c21757d31d4c7d46d831358f017808122d1dcabf9c8428167045d7"),
        (3003, "3ddd572183751f79def5acf05fb373274d46a1fd5abbf5cb4cc92e82dcf6e21f"),
    ],
)
def test_soak_log_is_golden(tmp_path, seed, digest):
    inet = perfbench_inet()
    net = inet.generate(seed, 200)
    config = RadarConfig(
        destinations=[parse_address(d) for d in net.destinations],
        inter_round_delay=inet.ROUND_DELAY,
        rounds=24,
    )
    log = tmp_path / "soak.rounds"
    with DatasetWriter(log) as writer:
        for record in radar_rounds(config, SimTransport(load_topology(net.doc))):
            writer.write(record)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest
