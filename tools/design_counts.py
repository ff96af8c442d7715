"""Print the two sizes that track the design's simplicity.

    python3 tools/design_counts.py

- the line count of `src/`, every Python file under it, as `wc -l`
  counts;
- the settable values: parameters with a default in `src/netradar`
  (found by walking each module's syntax tree) plus the flags of every
  `netradar` command (found by walking the argparse parser), `--help`
  excluded.

Run it from anywhere; it reads the checkout it lives in.
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_lines() -> int:
    return sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))


def parameter_defaults() -> int:
    count = 0
    for path in sorted((SRC / "netradar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def cli_flags(parser: argparse.ArgumentParser) -> int:
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(cli_flags(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def main() -> int:
    sys.path.insert(0, str(SRC))
    from netradar.cli import build_parser

    defaults, flags = parameter_defaults(), cli_flags(build_parser())
    print(f"src lines: {source_lines()}")
    print(f"settable values: {defaults + flags} ({defaults} parameter defaults + {flags} CLI flags)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
