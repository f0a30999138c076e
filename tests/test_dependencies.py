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


def test_declared_numpy_floor_has_bitwise_count():
    # huffman and sim call np.bitwise_count, which numpy has from 2.0 on
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    (numpy,) = [req for req in declared if re.match(r"numpy\b", req, re.IGNORECASE)]
    floor = re.search(r">=\s*(\d+(?:\.\d+)*)", numpy)
    assert floor is not None, numpy
    assert tuple(int(part) for part in floor.group(1).split(".")) >= (2, 0)
