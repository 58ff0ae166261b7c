"""Every refusal of the package is one of the kinds ``errors.py`` defines.

Each ``raise`` in ``src/affinecrystal`` names a subclass of
``CrystalError`` from ``errors.py`` (not the base itself), or one of two
built-ins: ``AttributeError`` for assignment to an immutable value and
``RuntimeError`` for a state only a bug can reach.  Every kind in
``errors.py`` is raised somewhere, so none is dead, and every kind
survives a pickle round trip.
"""

import ast
import pickle
from pathlib import Path

from affinecrystal import ArmSequence, errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affinecrystal"
BUILTINS = {"AttributeError", "RuntimeError"}


def error_kinds():
    """Names of the classes errors.py defines, the CrystalError base left out."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name != "CrystalError"}


def class_name(exc):
    """The class an exception expression calls or names, None for none."""
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def raised_names(tree):
    """(name, line) for every raise: the class called or named, None for a
    bare re-raise.  ``raise next(gen(...))``, with ``gen`` a generator
    defined in the same tree, names the class of every value it yields."""
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc
            if (isinstance(exc, ast.Call) and class_name(exc) == "next"
                    and exc.args and class_name(exc.args[0]) in functions):
                gen = functions[class_name(exc.args[0])]
                values = [y.value for y in ast.walk(gen) if isinstance(y, ast.Yield)]
                for value in values or [exc]:
                    yield class_name(value), node.lineno
            else:
                yield class_name(exc), node.lineno


def package_raises():
    """{path name: [(raised name, line), ...]} over the package."""
    return {path.name: list(raised_names(ast.parse(path.read_text())))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_raise_is_a_kind():
    allowed = error_kinds() | BUILTINS
    stray = [f"{name}:{line}: raise {raised}"
             for name, raises in package_raises().items()
             for raised, line in raises if raised not in allowed]
    assert not stray, stray


def test_every_kind_is_raised():
    raised = {r for raises in package_raises().values() for r, _ in raises}
    assert not error_kinds() - raised, sorted(error_kinds() - raised)


def test_scan_sees_a_stray_raise():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise errors.CrystalError\n"
        "try:\n    f(1)\nexcept Exception:\n    raise\n"
    )
    assert sorted(raised_names(tree), key=lambda r: r[1]) == [
        ("ValueError", 3), ("CrystalError", 4), (None, 8)]
    # a raised yield names what the generator yields, and a generator
    # that yields nothing leaves the raise naming ``next``
    tree = ast.parse(
        "def gen(x):\n"
        "    yield errors.ParseError(x)\n"
        "    yield KeyError(x)\n"
        "def empty():\n"
        "    return iter(())\n"
        "raise next(gen(1))\n"
        "raise next(empty())\n"
    )
    assert sorted(raised_names(tree), key=lambda r: (r[1], r[0])) == [
        ("KeyError", 6), ("ParseError", 6), ("next", 7)]
    assert "CrystalError" not in error_kinds()
    assert {"ParseError", "ArmAxiomViolation"} <= error_kinds()


# a table that breaks condition (i) at t = 1 and condition (ii) at (1, 1)
TABLE = ArmSequence(3, (3, 2), "file:arm.txt")
# constructor arguments of the kinds whose __init__ takes fields; every
# other kind takes its message alone
FIELDS = {
    "ArmAxiomViolation": [(TABLE, 1), (TABLE, 1, 1)],
    "HorizonExceedsTable": [(3, 2)],
}


def fields(exc):
    """The instance's fields, an arm table by its slots."""
    return {key: (value.n, value.values, value.descriptor)
            if isinstance(value, ArmSequence) else value
            for key, value in vars(exc).items()}


def test_every_kind_pickles():
    for name in sorted(error_kinds()):
        kind = getattr(errors, name)
        for args in FIELDS.get(name, [("a refusal",)]):
            exc = kind(*args)
            copy = pickle.loads(pickle.dumps(exc))
            assert type(copy) is kind, name
            assert (str(copy), copy.args) == (str(exc), exc.args), name
            assert fields(copy) == fields(exc), name
