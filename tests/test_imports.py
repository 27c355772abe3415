"""No leftover imports: every name a module imports is read in that module.

An AST scan of the package and the example scripts, so moving names between
modules cannot leave a stale import behind without a linter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "mrtrack").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _unused_imports(source: str) -> list[str]:
    """The names an ``import`` or ``from ... import`` binds (``__future__``
    aside) that the module never reads. A read is a loaded ``ast.Name``, which
    includes the root of every attribute chain, or a name in a string
    annotation."""
    tree = ast.parse(source)
    bound, read, annotations = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_unused_and_string_annotation_reads():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from .tracks import Track, TrackOutput\n"
        "def f(t: 'Track', n=np.float64) -> list['TrackOutput']:\n"
        "    os = 1\n"
    )
    # a stored name is not a read, so ``os`` stays unused
    assert _unused_imports(source) == ["os (line 2)", "osp (line 2)"]


def _package_imports(source: str) -> set[str]:
    """The ``mrtrack`` modules a module's source imports, by their last name:
    ``from .core import x`` and ``import mrtrack.core`` give ``core``, and
    ``from . import tracks`` or ``from mrtrack import tracks`` give ``tracks``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ("mrtrack." + (node.module or "")).rstrip(".") if node.level else node.module
            dotted = [package]
            if package == "mrtrack":
                dotted = [f"{package}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("mrtrack."))
    return found


def test_association_scores_boxes_not_tracks():
    """``association`` reads only ``core``: the tracker hands it corner rows,
    so it imports no track, filter or pipeline module."""
    source = (ROOT / "src" / "mrtrack" / "association.py").read_text(encoding="utf-8")
    assert _package_imports(source) == {"core"}


def test_package_import_scan_sees_every_form():
    source = (
        "import numpy, mrtrack.kalman\n"
        "from .core import BBox\n"
        "from . import tracks\n"
        "from mrtrack import pipeline\n"
        "from mrtrack.rescore import adopt\n"
        "if TYPE_CHECKING:\n"
        "    from .fileio import RunConfig\n"
        "def f():\n"
        "    from .synth import generate\n"
    )
    assert _package_imports(source) == {
        "kalman", "core", "tracks", "pipeline", "rescore", "fileio", "synth",
    }
