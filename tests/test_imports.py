"""Import cost and dependencies: netradar needs only the standard library.

`netradar` has no numpy or scipy dependency; importing either would add
most of a second to every CLI start.  Every module, and the loading of a
JSON topology file, uses the standard library alone, so a monitor needs
nothing beyond Python.  `import netradar` itself loads no submodule.  The
checks run in a new interpreter so modules loaded by other tests cannot
hide or fake an import, and they count only the modules loaded after it
started.
"""
from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import netradar
from conftest import CHAIN_DOC

SRC = str(Path(netradar.__file__).resolve().parents[1])


def loaded_after(code: str) -> list[str]:
    """The modules a new interpreter loads while running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (
        f"import json, sys; started = set(sys.modules); {code}; "
        f"print(json.dumps(sorted(set(sys.modules) - started)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_numpy_nor_scipy():
    loaded = loaded_after("import netradar, netradar.cli")
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def test_package_import_loads_no_submodule():
    assert [m for m in loaded_after("import netradar") if m.startswith("netradar")] == ["netradar"]


def test_netradar_needs_only_the_standard_library(tmp_path):
    topology = tmp_path / "chain.json"
    topology.write_text(json.dumps(CHAIN_DOC), encoding="utf-8")
    modules = [m.name for m in pkgutil.iter_modules(netradar.__path__, "netradar.")]
    assert "netradar.icmp" in modules and "netradar.simnet" in modules
    code = (
        f"import importlib; [importlib.import_module(m) for m in {modules!r}]; "
        f"from netradar.simnet import load_topology; load_topology({str(topology)!r})"
    )
    top_level = {m.split(".")[0] for m in loaded_after(code)}
    assert "netradar" in top_level
    assert sorted(top_level - set(sys.stdlib_module_names) - {"netradar"}) == []
