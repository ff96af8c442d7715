"""The design counter runs and prints both of its counts; no thresholds."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "design_counts.py"


def test_design_counts_prints_both_counts():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True).stdout
    assert re.search(r"^src lines: \d+$", out, re.M)
    assert re.search(r"^settable values: \d+ ", out, re.M)
