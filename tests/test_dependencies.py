"""The package imports only what pyproject.toml declares: the standard
library and numpy (and itself), numpy only where it is used; and every
definition in it, and every attribute its classes assign, has a reader in
it, so that the package is what its front end reaches."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shiftlab"}


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


def _modules_loaded_by_validate(config: dict, run: bool = False,
                                modules: tuple[str, ...] = ("numpy", "mpmath")) -> dict:
    """Whether each of ``modules`` is loaded after ``import shiftlab.cli``
    and ``cli.validate(config)``, then ``cli.run(config)`` if ``run``, in a
    fresh interpreter."""
    code = ("import json, sys\nimport shiftlab.cli\n"
            f"assert shiftlab.cli.validate({config!r}) == []\n"
            + (f"assert shiftlab.cli.run({config!r})['analyses'][0]['status'] == 'ok'\n"
               if run else "")
            + f"print(json.dumps({{m: m in sys.modules for m in {modules!r}}}))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_is_imported_only_where_used_and_mpmath_nowhere():
    # numpy serves the exact-entropy eigensolve, so validating an SFT
    # config, whose entropy_exact does not run, does not load it; the
    # expansion of a beta given as a number runs in integers, so running a
    # beta base's pressure table loads neither (mpmath serves the tests'
    # references only)
    sft = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
           "potential": "zero", "analyses": [{"op": "entropy_exact"}]}
    assert _modules_loaded_by_validate(sft) == {"numpy": False, "mpmath": False}
    beta = {"shift": {"family": "beta", "beta": 1.5}, "potential": "zero",
            "analyses": [{"op": "pressure_estimate", "n_max": 8}]}
    assert _modules_loaded_by_validate(beta, run=True) == {"numpy": False, "mpmath": False}


def test_decomp_and_tower_are_imported_only_where_used():
    # no pressure table reaches the [I]/[II]/[III] checkers or the tower, so
    # validating and running one loads neither module; a persistence check
    # loads decomp alone, through the package's lazy names too
    config = {"shift": {"family": "full", "k": 2}, "potential": "zero",
              "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    modules = ("shiftlab.decomp", "shiftlab.tower")
    assert _modules_loaded_by_validate(config, run=True, modules=modules) == dict.fromkeys(
        modules, False)
    config["analyses"] = [{"op": "persistence", "obstructions": "zero_runs", "depth": 6}]
    assert _modules_loaded_by_validate(config, run=True, modules=modules) == {
        "shiftlab.decomp": True, "shiftlab.tower": False}


def test_the_package_names_decomp_and_tower_lazily():
    import shiftlab
    from shiftlab import decomp, tower

    assert shiftlab.check_persistence is decomp.check_persistence
    assert shiftlab.loop_sums is tower.loop_sums and shiftlab.tower is tower
    with pytest.raises(AttributeError):
        shiftlab.no_such_name


def _unread(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, name) of every function, class and method that nothing reads
    outside its own body; dunder methods are exempt.  A method counts as
    read by an attribute load of its name, anything else by a name or an
    attribute load.  Then (file, "Class.attribute") of every attribute a
    class assigns through ``self.`` that no attribute load in any file
    reads.  Dataclass fields are declared, not assigned, so they are
    exempt: ``cli`` renders result objects through ``vars``."""
    defs = []  # (file, name, is a method, first line, last line)
    reads = []  # (file, line, name, is a bare name)
    attrs = {}  # (file, "Class.attribute") -> attribute, for every self. store
    for fname, text in sources.items():
        tree = ast.parse(text)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((fname, node.name, id(node) in methods, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((fname, node.lineno, node.id, True))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((fname, node.lineno, node.attr, False))
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        attrs[(fname, f"{node.name}.{sub.attr}")] = sub.attr
    unread = [(fname, name) for fname, name, method, first, last in defs
              if not (name.startswith("__") and name.endswith("__"))
              and not any(n == name and not (method and bare)
                          and (f != fname or not first <= line <= last)
                          for f, line, n, bare in reads)]
    loaded = {n for _, _, n, bare in reads if not bare}
    return unread + [key for key, attr in attrs.items() if attr not in loaded]


def test_every_definition_has_a_reader_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert sources
    assert _unread(sources) == []


def test_an_unread_definition_is_caught():
    # loner reads only itself; spare is read only as a bare name, which is
    # not its method; get is read as an attribute, __repr__ is exempt; Pair
    # assigns lost and nothing loads it, while kept is loaded in another
    # file, and Row's field is declared, not assigned
    sources = {
        "a.py": ("def used():\n    return 1\n\ndef loner(n):\n    return loner(n - 1)\n\n"
                 "def show(pair):\n    return pair.kept\n"),
        "b.py": ("from .a import used\n\nclass Box:\n    def get(self):\n        return used()\n\n"
                 "    def spare(self):\n        return 0\n\n"
                 "    def __repr__(self):\n        return 'Box'\n\n"
                 "spare = Box().get()\nprint(spare)\n"),
        "c.py": ("from dataclasses import dataclass\nfrom .a import show\n\n"
                 "@dataclass\nclass Row:\n    width: int\n\n"
                 "class Pair:\n    def __init__(self):\n        self.kept, self.lost = 1, 2\n\n"
                 "print(show(Pair()), Row(1))\n"),
    }
    assert _unread(sources) == [("a.py", "loner"), ("b.py", "spare"), ("c.py", "Pair.lost")]
