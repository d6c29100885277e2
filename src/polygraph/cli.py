"""Command-line front end.

All algebra commands need a graph file (``-g``); output is deterministic for
fixed inputs.  Domain failures (no quotient, no common multiple, zero input)
print "none"/"0" and exit 1 so shell pipelines can branch; usage and parse
errors, inputs too deep for the interpreter's recursion limit, exhausted
memory and broken internal invariants (RuntimeError) exit 2 with an error line.
"""

from __future__ import annotations

import argparse
import sys

from . import gproduct, ihull, ragroup
from .builtin import DEFAULT_SEED
from .gproduct import make_element
from .graph import GraphError, GraphProduct, parse_graph


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polygraph",
        description="graph products, inverse hulls, and polygraph monoid arithmetic",
        fromfile_prefix_chars="@",
    )
    p.add_argument("-g", "--graph", metavar="FILE", help="graph description file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nf", help="canonical normal form of a word")
    sp.add_argument("word")
    sp = sub.add_parser("eq", help="equality of two words")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp = sub.add_parser("mul", help="product of two words")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp = sub.add_parser("divide", help="b with a = b*c, or none")
    sp.add_argument("a")
    sp.add_argument("c")
    sp = sub.add_parser("final", help="final v-component and complement")
    sp.add_argument("vertex")
    sp.add_argument("word")
    sp = sub.add_parser("lclm", help="least common left multiple")
    sp.add_argument("b")
    sp.add_argument("c")
    sp = sub.add_parser("hclf", help="highest common left factor")
    sp.add_argument("a")
    sp.add_argument("b")

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


def _print_json(obj: object) -> None:
    import json  # only JSON output needs it

    print(json.dumps(obj))


def _emit(args, result: str, status: str = "ok", detail: str | None = None) -> None:
    if args.format == "json":
        _print_json({"result": result, "status": status, "detail": detail})
    else:
        print(result)


def _load_graph(args) -> GraphProduct:
    if not args.graph:
        raise GraphError("this command needs a graph file (-g FILE)")
    with open(args.graph) as f:
        return parse_graph(f.read())


def _run(args) -> int:
    if args.command == "check":
        from . import checks  # with it the oracles; only this command needs them

        results = checks.run_all(args.seed, args.max_len, args.max_vertices)
        failed = [r for r in results if not r.passed]
        if args.format == "json":
            _print_json({
                "result": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "status": "ok" if not failed else "fail",
                "detail": None,
            })
        else:
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                print(f"{mark} {r.name}: {r.detail}")
        return 0 if not failed else 1

    gp = _load_graph(args)

    if args.command == "nf":
        _emit(args, str(make_element(gp, args.word)))
    elif args.command == "eq":
        _emit(args, "true" if make_element(gp, args.w1) == make_element(gp, args.w2) else "false")
    elif args.command == "mul":
        _emit(args, str(make_element(gp, args.w1) * make_element(gp, args.w2)))
    elif args.command == "divide":
        b = gproduct.right_divide(make_element(gp, args.a), make_element(gp, args.c))
        if b is None:
            _emit(args, "none", status="none")
            return 1
        _emit(args, str(b))
    elif args.command == "final":
        d, comp = gproduct.final_component(make_element(gp, args.word), args.vertex)
        _emit(args, f"{'1' if d is None else d} | {comp}")
    elif args.command == "lclm":
        res = gproduct.lclm(make_element(gp, args.b), make_element(gp, args.c))
        if res is None:
            _emit(args, "none", status="none")
            return 1
        s, t, m = res
        _emit(args, f"{s} | {t} | {m}")
    elif args.command == "hclf":
        _emit(args, str(gproduct.hclf(make_element(gp, args.a), make_element(gp, args.b))))
    elif args.command == "ih":
        elems = [ihull.parse_ihelement(gp, e) for e in args.elems]
        if args.ih_command == "mul":
            _emit(args, str(ihull.ih_multiply(*elems)))
        elif args.ih_command == "inv":
            _emit(args, str(ihull.ih_inverse(elems[0])))
        elif args.ih_command == "le":
            _emit(args, "true" if ihull.natural_le(*elems) else "false")
        elif args.ih_command == "max":
            if elems[0] is ihull.ZERO:
                _emit(args, "0", status="error", detail="zero has no maximal element")
                return 1
            _emit(args, str(ihull.max_above(elems[0])))
        elif args.ih_command == "idem":
            _emit(args, "true" if ihull.is_idempotent(elems[0]) else "false")
    elif args.command == "eval":
        _emit(args, str(ihull.eval_word(gp, args.pgword)))
    elif args.command == "group":
        _emit(args, str(ragroup.group_reduce(gp, args.signedword)))
    elif args.command == "present":
        out = "\n".join(str(r) for r in ihull.generate_presentation(gp))
        _emit(args, out)
    else:  # pragma: no cover
        raise AssertionError(args.command)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":  # the bounds are range-checked before any suite runs
        for option, least in (("max_len", 0), ("max_vertices", 1)):
            if getattr(args, option) < least:
                parser.error(f"argument --{option.replace('_', '-')}: must be at least {least}")
    try:
        return _run(args)
    # GraphError is a ValueError; RecursionError and oracle.BoundExceeded are RuntimeErrors
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        detail = str(exc) or exc.__class__.__name__  # a MemoryError often has no message
        if args.format == "json":
            _print_json({"result": None, "status": "error", "detail": detail})
        else:
            print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
