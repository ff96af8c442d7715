"""The soak tool runs a short season and prints each of its numbers; no
thresholds."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

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
        rf"log bytes per round: {NUMBER}",
        rf"analyze counts: {NUMBER} s, max rss {NUMBER} MB",
    ):
        assert re.search(rf"^{line}$", out, re.M), line
