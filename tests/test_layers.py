"""The partition kernel has one caller module, and the graph module walks
model sides without looking inside them.

``arms`` is the only module that reads ``_backend.kernel``: the arm
sequence is the whole input of the partition crystal, so the operators,
the regularity scan, the count and the partition side of the BFS all live
beside it.  ``graphs`` gets each model's ``(root, children, label)`` from
``arms`` and ``monomial_crystal`` and never imports a vertex format.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affinecrystal"
# what graphs.py must not import: the kernel, the partition and arm
# internals, and the names that build a partition side
GRAPHS_FORBIDDEN = {"_backend", "_trusted", "_format_parts", "ArmSequence", "horizontal_arm"}


def kernel_reads(tree):
    """Lines that read ``_backend.kernel`` or import ``kernel`` from ``_backend``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "kernel"
                and isinstance(node.value, ast.Name) and node.value.id == "_backend"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "_backend"
              and any(alias.name == "kernel" for alias in node.names)):
            yield node.lineno


def imported(tree):
    """Every module and name an import statement binds or loads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[-1]
            for alias in node.names:
                yield alias.name


def residue_reads(tree):
    """Lines that read a ``._res`` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_res"]


def test_only_arms_reads_the_kernel():
    readers = {path.name: list(kernel_reads(ast.parse(path.read_text())))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, lines in readers.items() if lines} == {"arms.py"}, readers


def test_graphs_walks_sides_it_does_not_look_inside():
    tree = ast.parse((PACKAGE / "graphs.py").read_text())
    assert sorted(GRAPHS_FORBIDDEN & set(imported(tree))) == []
    assert residue_reads(tree) == []


def test_scan_sees_a_forbidden_read():
    tree = ast.parse(
        "from . import _backend\n"
        "from ._backend import kernel\n"
        "from .partitions import _trusted as t\n"
        "import affinecrystal.arms\n"
        "def f(m):\n"
        "    return _backend.kernel.f_step, m._res\n"
    )
    assert list(kernel_reads(tree)) == [2, 6]
    assert {"_backend", "_trusted", "partitions", "arms", "kernel"} <= set(imported(tree))
    assert residue_reads(tree) == [6]
