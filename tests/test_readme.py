"""The README's examples, run as written.

Every ``affinecrystal`` command in a shell block that is followed by
``# -> `` lines runs through ``cli.main``; its stdout must be exactly
those lines and its exit code the one a ``# (exit N)`` line states, 0
when there is none.  A command piped through ``awk '{print $NF}'`` is
compared on the last field of each line; any other shell syntax fails.
The "Library surface" Python block runs a line at a time in one
namespace, so each statement fits on one line; a line ending in
``# -> VALUE`` is an expression whose ``repr`` must be VALUE.  The
README's ``text`` block lists the package's public names, and a name
exported but not listed there, or listed but not exported, fails.
"""

import re
import shlex
from pathlib import Path
from types import ModuleType

import pytest

import affinecrystal
from affinecrystal import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
LAST_FIELD = ["awk", "{print $NF}"]


def blocks(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def examples():
    """(command, expected stdout lines, exit code) of every CLI example
    that documents its output, and the output lines that follow no command."""
    found, stray = [], []
    for block in blocks("sh"):
        example = None  # the command whose output lines may follow
        for line in block.replace("\\\n", " ").splitlines():
            exit_line = re.fullmatch(r"# \(exit (\d+)\)", line)
            if line.startswith("affinecrystal "):
                example = [line, [], 0]
                found.append(example)
            elif line.startswith("# -> ") and example:
                example[1].append(line[len("# -> "):])
            elif exit_line and example and example[1]:
                example[2] = int(exit_line.group(1))
                example = None
            elif line.startswith("# -> ") or exit_line:
                stray.append(line)
            else:
                example = None
    return [tuple(e) for e in found if e[1]], stray


def argv_and_pipe(command):
    """The arguments after ``affinecrystal`` and the pipe, if any: only
    ``| awk '{print $NF}'`` is understood."""
    lex = shlex.shlex(command, posix=True, punctuation_chars=True)
    lex.whitespace_split = True
    tokens = list(lex)
    pipe = None
    if "|" in tokens:
        at = tokens.index("|")
        tokens, pipe = tokens[:at], tokens[at + 1:]
        assert pipe == LAST_FIELD, f"unsupported pipe in {command!r}"
    for tok in tokens:
        assert not set(tok) <= set("();<>|&"), f"unsupported shell syntax in {command!r}"
    assert tokens[0] == "affinecrystal"
    return tokens[1:], pipe


EXAMPLES, STRAY = examples()


def test_every_output_line_follows_a_command():
    assert STRAY == []


def test_every_command_has_a_checked_example():
    used = {tok for command, _, _ in EXAMPLES for tok in argv_and_pipe(command)[0]}
    assert used >= {"apply", "psi", "check", "compare", "count", "validate-arm"}


@pytest.mark.parametrize("command, out, code", EXAMPLES,
                         ids=[c for c, _, _ in EXAMPLES])
def test_cli_example(command, out, code, capsys):
    argv, pipe = argv_and_pipe(command)
    assert cli.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    if pipe is not None:
        lines = [(line.split() or [""])[-1] for line in lines]
    assert lines == out


def test_library_surface_runs():
    code = blocks("python", README.split("## Library surface", 1)[1])[0]
    namespace, checked = {}, 0
    for number, line in enumerate(code.splitlines(), 1):
        source, arrow, want = line.partition("# -> ")
        where = f"README.md (Library surface) line {number}"
        if arrow:
            assert repr(eval(compile(source, where, "eval"), namespace)) == want, line
            checked += 1
        else:
            exec(compile(line, where, "exec"), namespace)
    assert checked


def test_public_names_are_listed():
    listed = blocks("text")[0].split()
    exported = {name for name, value in vars(affinecrystal).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(listed) == len(set(listed))
    assert set(listed) == exported
