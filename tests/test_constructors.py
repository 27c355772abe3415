"""Each record states its fields once: no hand-written constructor regrows.

An AST scan of the package. A checked config or packet record is a
NamedTuple with a ``_check`` method, made into its checked class by
``core.checked``. Only the two per-box records, ``BBox`` and ``Detection``,
keep a hand-written ``__new__`` over a module-private NamedTuple twin, and
the one other ``__new__`` is the constructor that ``checked`` builds.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mrtrack").glob("*.py"))

# module -> its top-level definitions that may hold a ``__new__`` or
# subclass a private NamedTuple twin
ALLOWED = {"core.py": {"BBox", "Detection", "checked"}}


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _hand_written(source: str, allowed=frozenset()) -> list[str]:
    """Each ``__new__`` defined, and each class that subclasses a
    module-private NamedTuple, outside the top-level definitions ``allowed``."""
    tree = ast.parse(source)
    twins = {
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
        and any(_base_name(b) == "NamedTuple" for b in node.bases)
    }
    found = []
    for top in tree.body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "__new__":
                found.append(f"__new__ (line {node.lineno})")
            elif isinstance(node, ast.ClassDef):
                found.extend(f"{node.name}({base}) (line {node.lineno})"
                             for base in map(_base_name, node.bases) if base in twins)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_record_constructor(path):
    source = path.read_text(encoding="utf-8")
    assert _hand_written(source, ALLOWED.get(path.name, frozenset())) == []


def test_scan_sees_constructors_and_twins():
    source = (
        "from typing import NamedTuple\n"
        "import typing\n"
        "class _Twin(typing.NamedTuple):\n"
        "    a: int\n"
        "class Record(_Twin):\n"
        "    def __new__(cls, a):\n"
        "        return tuple.__new__(cls, (a,))\n"
        "@checked\n"
        "class Config(NamedTuple):\n"
        "    a: int\n"
        "    def _check(self):\n"
        "        pass\n"
        "def helper():\n"
        "    def __new__(cls):\n"
        "        pass\n"
    )
    assert _hand_written(source) == [
        "Record(_Twin) (line 5)", "__new__ (line 6)", "__new__ (line 14)",
    ]
    assert _hand_written(source, {"Record", "helper"}) == []
