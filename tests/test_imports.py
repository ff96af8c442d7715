"""Import cost: the package must load without the numeric stack.

`netradar` has no numpy or scipy dependency; importing either would add
most of a second to every CLI start.  The check runs in a new interpreter
so modules loaded by other tests cannot hide or fake an import.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import netradar

SRC = str(Path(netradar.__file__).resolve().parents[1])


def test_import_loads_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        "import json, sys, netradar, netradar.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
