"""Command-line interface.

Commands: apply, psi, check, graph, compare, count, validate-arm.  Results
go to stdout, diagnostics to stderr.  Exit codes: 0 success or pass, 1
verification failure (witness printed), 2 usage or parse error, or out of
memory.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .arms import (
    MAX_ARM_HORIZON,
    MAX_COUNT_SIZE,
    arm_from_descriptor,
    count_regular,
    e_up,
    f_down,
    illegal_boxes,
    validate_arm,
)
from .errors import ArmAxiomViolation, CrystalError, ParseError, UnknownChoice
from .graphs import (
    MONOMIAL_MODEL,
    PARTITION_MODEL,
    compare_models,
    export_dot,
    export_json,
    generate_graph,
)
from .graphs import compare_graphs  # noqa: F401 (patched by the tracer)
from .isomorphism import partition_to_monomial
from .monomial_crystal import _number, _within_ceiling, e_m, f_m, format_monomial, parse_monomial
from .partitions import _check_size, check_rank, format_partition, parse_partition


# built once per process, on the first main call: building it costs about
# 1 ms, a fifth of a size-28 count, and parse_args leaves the parser as it
# found it.  Not at import, so importing the library does not pay for it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinecrystal",
        description="Crystal operators on partitions and Laurent monomials, "
        "plus graph generation and comparison.",
    )
    parser.add_argument("--n", type=int, required=True, help="rank, at least 3")
    parser.add_argument(
        "--arm",
        default="horizontal",
        help="arm sequence: horizontal | file:PATH | random:SEED:T; "
        f"T and a file's table length at most {MAX_ARM_HORIZON}",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "dot", "json"],
        help="output format (graph takes dot or json; everything else text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply an operator word to an object")
    p.add_argument("object", help="partition like [3,1] or monomial like Y(0,0)")
    p.add_argument(
        "word",
        help="comma-separated operators applied left to right, e.g. f2,f0,e1; "
        "residues are reduced mod n",
    )

    p = sub.add_parser("psi", help="map a partition to its corner monomial")
    p.add_argument("partition")

    p = sub.add_parser("check", help="report the illegal boxes of a partition")
    p.add_argument("partition")

    p = sub.add_parser("graph", help="generate a crystal graph and export it")
    p.add_argument("--model", default=PARTITION_MODEL,
                   choices=[PARTITION_MODEL, MONOMIAL_MODEL])
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("compare", help="synchronized comparison of two graphs")
    p.add_argument("--model", default=PARTITION_MODEL,
                   choices=[PARTITION_MODEL, MONOMIAL_MODEL])
    p.add_argument("--model2", required=True,
                   choices=[PARTITION_MODEL, MONOMIAL_MODEL])
    p.add_argument("--arm2", default=None,
                   help="arm sequence for the second model (defaults to --arm)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--use-psi", action="store_true",
                   help="also require vertex labels to agree through the corner map")

    p = sub.add_parser("count", help="count regular partitions by size")
    p.add_argument("--max", type=int, required=True,
                   help=f"largest size, at most {MAX_COUNT_SIZE}")

    p = sub.add_parser("validate-arm", help="check the arm-sequence conditions")
    p.add_argument("--horizon", type=int, required=True,
                   help=f"largest t checked, at most {MAX_ARM_HORIZON}")

    return parser


def _parse_word(word: str, n: int) -> list[tuple[str, int]]:
    """(kind, color mod n) per token; a color above MAX_MONOMIAL_NUMBER
    raises BoundOutOfRange before int() reads it."""
    ops = []
    for tok in word.split(","):
        tok = tok.strip()
        if len(tok) < 2 or tok[0] not in "ef" or not tok[1:].isdecimal():
            raise ParseError(f"bad operator token {tok!r}")
        ops.append((tok[0], _number(tok[1:], "color") % n))
    return ops


def _cmd_apply(args) -> int:
    text = args.object.strip()
    ops = _parse_word(args.word, args.n)
    if text.startswith("["):
        obj = parse_partition(text)
        a = arm_from_descriptor(args.n, args.arm)
        steps = {"f": lambda x, i: f_down(x, i, a), "e": lambda x, i: e_up(x, i, a)}
        fmt, check = format_partition, lambda lam: _check_size(lam.size)
    else:
        obj = parse_monomial(text, args.n)
        steps = {"f": f_m, "e": e_m}
        fmt, check = format_monomial, lambda m: _within_ceiling(m._res)
    for kind, i in ops:
        if obj is None:
            break
        obj = steps[kind](obj, i)
    if obj is None:
        print("0")
        return 0
    # the operators can step past the ceiling the parsers hold input to;
    # what apply prints must read back as its input
    check(obj)
    print(fmt(obj))
    return 0


def _cmd_psi(args) -> int:
    lam = parse_partition(args.partition)
    print(format_monomial(partition_to_monomial(lam, args.n)))
    return 0


def _cmd_check(args) -> int:
    lam = parse_partition(args.partition)
    a = arm_from_descriptor(args.n, args.arm)
    bad = illegal_boxes(lam, a)
    if not bad:
        print("regular")
        return 0
    for b, h, arm_len in bad:
        print(
            f"illegal at (row {b.row}, col {b.col}): "
            f"hook {h}, arm {arm_len}, t {h // args.n}"
        )
    return 1


def _model_arm(model: str, n: int, arm_text: str):
    return arm_from_descriptor(n, arm_text) if model == PARTITION_MODEL else None


def _cmd_graph(args) -> int:
    a = _model_arm(args.model, args.n, args.arm)
    g = generate_graph(args.model, args.n, args.depth, a)
    sys.stdout.write(export_dot(g) if args.format == "dot" else export_json(g))
    return 0


def _cmd_compare(args) -> int:
    a1 = _model_arm(args.model, args.n, args.arm)
    a2 = _model_arm(args.model2, args.n, args.arm2 or args.arm)
    vertices, mismatch = compare_models(
        args.n, args.depth, args.model, args.model2, a1, a2, args.use_psi
    )
    if mismatch is None:
        print(f"isomorphic ({vertices} vertices)")
        return 0
    print(f"mismatch: {mismatch}")
    return 1


def _cmd_count(args) -> int:
    a = arm_from_descriptor(args.n, args.arm)
    counts = count_regular(args.n, a, args.max)
    print(" ".join(str(c) for c in counts))
    return 0


def _cmd_validate_arm(args) -> int:
    try:
        a = arm_from_descriptor(args.n, args.arm)
    except ArmAxiomViolation as exc:  # list every violation, not the first
        a = exc.a
    ok = True
    for v in validate_arm(a, args.horizon):
        print(v)
        ok = False
    if ok:
        print("ok")
    return 0 if ok else 1


_HANDLERS = {
    "apply": _cmd_apply,
    "psi": _cmd_psi,
    "check": _cmd_check,
    "graph": _cmd_graph,
    "compare": _cmd_compare,
    "count": _cmd_count,
    "validate-arm": _cmd_validate_arm,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        check_rank(args.n)
        if (args.command == "graph") == (args.format == "text"):
            needs = "dot or --format json" if args.command == "graph" else "text"
            raise UnknownChoice(f"{args.command} output needs --format {needs}")
        return _HANDLERS[args.command](args)
    except (CrystalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
