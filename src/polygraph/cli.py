"""Command-line front end.

All algebra commands need a graph file (``-g``); output is deterministic for
fixed inputs.  Each command returns its result and ``main`` writes it, as text
or as the JSON envelope ``{"result", "status", "detail"}``.  Exit codes: 0 on
success; 1 for a well-posed negative answer (no quotient, no common multiple,
the maximal element of zero: "none"/"0" on stdout, so shell pipelines can
branch) or a failing ``check``; 2, with an error line, for malformed input, a
missing file, a broken internal invariant (RuntimeError), an input too deep
for the interpreter's recursion limit or exhausted memory.
"""

from __future__ import annotations

import argparse
import sys

from . import gproduct, ihull, ragroup
from .builtin import DEFAULT_SEED
from .gproduct import make_element
from .graph import GraphError, GraphProduct, parse_graph

# (name, help, *params) of the commands that take plain arguments
_PLAIN = (
    ("nf", "canonical normal form of a word", "word"),
    ("eq", "equality of two words", "w1", "w2"),
    ("mul", "product of two words", "w1", "w2"),
    ("divide", "b with a = b*c, or none", "a", "c"),
    ("final", "final v-component and complement", "vertex", "word"),
    ("lclm", "least common left multiple", "b", "c"),
    ("hclf", "highest common left factor", "a", "b"),
)

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polygraph",
        description="graph products, inverse hulls, and polygraph monoid arithmetic",
        fromfile_prefix_chars="@",
    )
    p.add_argument("-g", "--graph", metavar="FILE", help="graph description file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_text, *params in _PLAIN:
        sp = sub.add_parser(name, help=help_text)
        for param in params:
            sp.add_argument(param)

    sp = sub.add_parser("ih", help="inverse hull arithmetic")
    ih_sub = sp.add_subparsers(dest="ih_command", required=True)
    for name, nargs in (("mul", 2), ("inv", 1), ("le", 2), ("max", 1), ("idem", 1)):
        q = ih_sub.add_parser(name)
        q.add_argument("elems", nargs=nargs)

    sp = sub.add_parser("eval", help="evaluate a signed word in the inverse hull")
    sp.add_argument("pgword")

    sp = sub.add_parser("group", help="graph group arithmetic")
    g_sub = sp.add_subparsers(dest="group_command", required=True)
    q = g_sub.add_parser("nf")
    q.add_argument("signedword")

    sub.add_parser("present", help="print the inverse-hull presentation")

    sp = sub.add_parser("check", help="run the property suites")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--max-vertices", type=int, default=3)

    return p


def _load_graph(args) -> GraphProduct:
    if not args.graph:
        raise GraphError("this command needs a graph file (-g FILE)")
    with open(args.graph) as f:
        return parse_graph(f.read())


def _run(args) -> str | tuple[object, str, str | None]:
    """The command's text, or (result, status, detail) when its status is
    not ok."""
    cmd = args.command
    if cmd == "check":
        from . import checks  # with it the oracles; only this command needs them

        results = checks.run_all(args.seed, args.max_len, args.max_vertices)
        if args.format == "json":
            rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        else:
            rows = "\n".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results)
        return rows, "ok" if all(r.passed for r in results) else "fail", None

    gp = _load_graph(args)
    if cmd == "nf":
        return str(make_element(gp, args.word))
    if cmd == "eq":
        return "true" if make_element(gp, args.w1) == make_element(gp, args.w2) else "false"
    if cmd == "mul":
        return str(make_element(gp, args.w1) * make_element(gp, args.w2))
    if cmd == "divide":
        b = gproduct.right_divide(make_element(gp, args.a), make_element(gp, args.c))
        return ("none", "none", None) if b is None else str(b)
    if cmd == "final":
        d, comp = gproduct.final_component(make_element(gp, args.word), args.vertex)
        return f"{'1' if d is None else d} | {comp}"
    if cmd == "lclm":
        res = gproduct.lclm(make_element(gp, args.b), make_element(gp, args.c))
        return ("none", "none", None) if res is None else " | ".join(map(str, res))
    if cmd == "hclf":
        return str(gproduct.hclf(make_element(gp, args.a), make_element(gp, args.b)))
    if cmd == "ih":
        elems = [ihull.parse_ihelement(gp, e) for e in args.elems]
        sub = args.ih_command
        if sub == "mul":
            return str(ihull.ih_multiply(*elems))
        if sub == "inv":
            return str(ihull.ih_inverse(*elems))
        if sub == "le":
            return "true" if ihull.natural_le(*elems) else "false"
        if sub == "idem":
            return "true" if ihull.is_idempotent(*elems) else "false"
        if elems[0] is ihull.ZERO:  # max
            return "0", "error", "zero has no maximal element"
        return str(ihull.max_above(*elems))
    if cmd == "eval":
        return str(ihull.eval_word(gp, args.pgword))
    if cmd == "group":
        return str(ragroup.group_reduce(gp, args.signedword))
    return "\n".join(str(r) for r in ihull.generate_presentation(gp))  # present


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":  # the bounds are range-checked before any suite runs
        for option, least in (("max_len", 0), ("max_vertices", 1)):
            if getattr(args, option) < least:
                parser.error(f"argument --{option.replace('_', '-')}: must be at least {least}")
    try:
        out = _run(args)
    # GraphError is a ValueError; RecursionError and oracle.BoundExceeded are RuntimeErrors
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        # a result of None marks a caught exception; a MemoryError often has no message
        out = None, "error", str(exc) or exc.__class__.__name__
    result, status, detail = out if isinstance(out, tuple) else (out, "ok", None)
    try:
        if args.format == "json":
            import json  # only JSON output needs it

            print(json.dumps({"result": result, "status": status, "detail": detail}))
        elif result is None:
            print(f"error: {detail}", file=sys.stderr)
        else:
            print(result)
    except OSError as exc:  # standard output closed early, as by `| head`
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if status == "ok" else 2 if result is None else 1


if __name__ == "__main__":
    sys.exit(main())
