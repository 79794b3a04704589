"""The package imports only what pyproject.toml declares: the standard
library, numpy and mpmath (and itself)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mpmath", "shiftlab"}


def _imported(tree: ast.AST):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_declared_dependencies():
    files = sorted(SRC.glob("*.py"))
    assert files
    undeclared = [(path.name, name) for path in files
                  for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
                  if name not in ALLOWED]
    assert undeclared == []


def test_an_undeclared_import_is_caught():
    tree = ast.parse("import os\nimport scipy.linalg\nfrom networkx import Graph\nfrom . import core\n")
    assert [n for n in _imported(tree) if n not in ALLOWED] == ["scipy", "networkx"]
