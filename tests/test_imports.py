"""Import cost: the package must load without the numeric stack or PyYAML.

`netradar` has no numpy or scipy dependency; importing either would add
most of a second to every CLI start.  PyYAML is loaded only to read a
topology file, so the commands that read none (`analyze`, `compare`) do
not pay for it.  `import netradar` itself loads no submodule.  The checks
run in a new interpreter so modules loaded by other tests cannot hide or
fake an import.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import netradar

SRC = str(Path(netradar.__file__).resolve().parents[1])


def loaded_after(imports: str, roots: tuple[str, ...]) -> list[str]:
    """The modules under `roots` loaded in a new interpreter after
    running `imports`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        f"import json, sys; {imports}; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_numpy_nor_scipy():
    assert loaded_after("import netradar, netradar.cli", ("numpy", "scipy")) == []


def test_package_import_loads_no_submodule():
    assert loaded_after("import netradar", ("netradar",)) == ["netradar"]


def test_cli_import_loads_no_yaml():
    assert loaded_after("import netradar.cli", ("yaml",)) == []
