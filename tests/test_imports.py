"""No module of the package imports a name it never uses, and importing
the package loads no heavy stdlib module it does not need.

A module-level import counts as used when its name is read anywhere in
the module or listed in ``__all__``.  A deliberate exception carries
``# noqa: F401`` followed by its reason on the imported name's line.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affinecrystal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
EXCUSED = re.compile(r"#\s*noqa:\s*F401\s+\S")


def imported_names(tree):
    """(bound name, line) for every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, getattr(alias, "lineno", node.lineno)


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = used_names(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in imported_names(tree)
        if name not in used and not EXCUSED.search(lines[line - 1])
    ]
    assert not unused, unused


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom sys import path, argv\nprint(argv)\n")
    names = [name for name, _ in imported_names(tree)]
    assert names == ["os", "path", "argv"]
    assert set(names) - used_names(tree) == {"os", "path"}


# every CLI run starts a fresh interpreter, and dataclasses imports
# inspect, ast, dis and tokenize: about a quarter of that start-up
IMPORT_ADDS = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import affinecrystal, affinecrystal.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses():
    run = subprocess.run([sys.executable, "-c", IMPORT_ADDS, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "affinecrystal.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
