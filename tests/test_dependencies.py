"""The run-time dependencies `pyproject.toml` declares are the ones the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package: Path) -> set:
    """Top-level names of every absolute import in the package's sources."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_third_party_modules():
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    # a requirement's name ends where its extras, version or marker begin
    declared = {re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower() for req in declared}
    imported = imported_top_level_modules(ROOT / "src" / "hpnc") - set(sys.stdlib_module_names) - {"hpnc"}
    assert declared == imported
