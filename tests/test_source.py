"""Checks on the package source itself, read with ``ast``."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "daggerdist"


def _unread_imports(source: str):
    """The names a module imports and never reads, sorted; ``from __future__`` binds none."""
    tree, imported = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_check_finds_an_import_left_behind_by_a_removal():
    source = (
        "from __future__ import annotations\n"
        "import random, os.path\n"
        "from typing import Dict, List, Optional\n"
        "from .groups import randbelow as draw, sample_points\n"
        "def f(x: List[int]) -> Dict:\n"
        "    return os.path.join(sample_points(x))\n"
    )
    assert _unread_imports(source) == ["Optional", "draw", "random"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []
