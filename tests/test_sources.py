"""Every Python file of the project parses as the oldest Python it supports.

The 3.10 CI job imports ``src/`` and ``tests/`` only, so syntax newer than
3.10 in ``tools/`` or ``perfbench/`` would otherwise first fail on a 3.10 host.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOPS = ("src", "tests", "tools", "perfbench")
FLOOR = (3, 10)


def test_the_floor_is_the_one_pyproject_declares():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_every_python_file_parses_as_the_floor_version():
    sources = sorted(path for top in TOPS for path in (ROOT / top).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in sources} == set(TOPS)
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert failures == []
