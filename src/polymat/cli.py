"""Command-line surface.

Exit codes: 0 when the requested check or suite passes, 1 when a checked
property fails (including a conjecture counterexample, which is a result,
not a crash), 2 for usage, parse, or bounds errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .betti import graded_betti
from .core import _integer_text, _integers, all_variable_orders
from .corpus import CorpusSpec
from .errors import InvalidArgumentError, ParseError, PolymatError
from .ioformats import (
    _dumps,
    _index_list,
    dump_json,
    ideal_to_json_dict,
    load_ideal_text,
    parse_monomial,
    parse_variable_order,
)
from .lexsegment import arnehe_criterion, is_completely_lexsegment, lexsegment, shadow
from .polymatroid import exchange_failure
from .quotients import (
    linear_quotients_failure,
    lq_all_orders_failure,
    qwlr_by_order,
    sort_generators,
)
from .suites import _MIN_SLICE, SUITES, _order_witness, _usable_cpus
from .version import __version__


def _integer(text: str) -> int:
    """An integer option, read by core._integer_text; argparse turns the
    ValueError of any other text into exit 2."""
    value = _integer_text(text)
    if value is None:
        raise InvalidArgumentError(f"{text!r} is not an integer")
    return value


def _add_ideal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("ideal", nargs="?", help="inline ideal, e.g. 'x1^2 + x1*x2'")
    p.add_argument("--file", help="read the ideal from a text or JSON file")
    p.add_argument("--n", type=_integer,
                   help="ambient variable count (default: largest index used)")
    p.add_argument("--json", dest="json_path", help="also write a JSON result to this path")


def _add_order_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("lex", "revlex"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="variable permutation, e.g. 3,2,1")
    group.add_argument("--all-orders", action="store_true")


def _load_ideal(args):
    if args.file and args.ideal:
        raise PolymatError("give the ideal inline or via --file, not both")
    if args.file:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            head = exc.object[: exc.start]
            line, column = head.count(b"\n") + 1, exc.start - (head.rfind(b"\n") + 1)
            raise ParseError(f"{args.file} is not UTF-8 text", column, line) from None
    elif args.ideal:
        text = args.ideal
    else:
        raise PolymatError("no ideal given")
    return load_ideal_text(text, getattr(args, "n", None))


def _cmd_check_poly(args):
    I = _load_ideal(args)
    witness = exchange_failure(I)
    if witness is None:
        lines = [f"polymatroidal: {I}"]
    else:
        lines = [
            f"NOT polymatroidal: {I}",
            f"  exchange fails for u={witness.u}, v={witness.v}, variable x{witness.variable}",
        ]
    payload = {
        "command": "check poly",
        "ideal": ideal_to_json_dict(I),
        "polymatroidal": witness is None,
        "witness": None if witness is None else witness.to_json_dict(),
    }
    return (0 if witness is None else 1), lines, payload


def _cmd_check_lq(args):
    I = _load_ideal(args)
    payload = {"command": "check lq", "kind": args.kind, "ideal": ideal_to_json_dict(I)}
    if args.all_orders:
        order, failure = lq_all_orders_failure(I, args.kind) or (None, None)
        payload["all_orders"] = True
        if failure is None:
            verdict = f"({args.kind}) hold for all {I.n}! variable orders"
        else:
            verdict = f"({args.kind}) FAIL for order {order}"
    else:
        order = parse_variable_order(args.order)
        failure = linear_quotients_failure(sort_generators(I, args.kind, order))
        payload["order"] = list(order.perm)
        verdict = f"({args.kind}, order {order}) {'hold' if failure is None else 'FAIL'}"
    payload["holds"] = failure is None
    lines = [f"linear quotients {verdict}"]
    if failure is not None:
        lines.append(f"  at position {failure.position}, blocker {failure.blocker}")
        payload.update(_order_witness(args.kind, order, failure))
    return (0 if failure is None else 1), lines, payload


def _cmd_check_qwlr(args):
    I = _load_ideal(args)
    orders = all_variable_orders(I.n) if args.all_orders else [parse_variable_order(args.order)]
    results = {str(order): holds for order, holds in qwlr_by_order(I, args.kind, orders).items()}
    ok = all(results.values())
    lines = [
        f"quotients with linear resolution ({args.kind}, order {name}): "
        f"{'yes' if holds else 'NO'}"
        for name, holds in results.items()
    ]
    payload = {
        "command": "check qwlr",
        "kind": args.kind,
        "ideal": ideal_to_json_dict(I),
        "results": results,
        "holds": ok,
    }
    return (0 if ok else 1), lines, payload


def _cmd_betti(args):
    I = _load_ideal(args)
    table = graded_betti(I)
    d = I.is_equigenerated()
    if d is not None:
        linear = "yes" if table.is_linear(d) else "no"
        resolution = f"equigenerated in degree {d}; linear resolution: {linear}"
    else:
        resolution = "not equigenerated; no linear resolution"
    payload = {"command": "betti", "ideal": ideal_to_json_dict(I), **table.to_json_dict()}
    return 0, [table.triangle(), resolution], payload


def _cmd_lexsegment(args):
    if args.n is not None:
        n = args.n
    else:
        n = max(parse_monomial(args.u).n, parse_monomial(args.v).n)
    u = parse_monomial(args.u, n)
    v = parse_monomial(args.v, n)
    segment = lexsegment(u, v)
    depth = args.shadow_depth if args.shadow_depth is not None else max(1, n * u.degree)
    complete = is_completely_lexsegment(u, v, depth)
    criterion = arnehe_criterion(u, v)
    lines = [
        f"L({u}, {v}) has {len(segment)} monomials:",
        "  " + " + ".join(str(m) for m in segment),
        f"shadow size: {len(shadow(segment))}",
        f"completely lexsegment (shadow depth {depth}): {'yes' if complete else 'no'}",
        f"linear-resolution criterion for the segment endpoints: "
        f"{'satisfied' if criterion else 'not satisfied'}",
    ]
    payload = {
        "command": "lexsegment",
        "n": n,
        "u": list(u.exponents),
        "v": list(v.exponents),
        "segment": [list(m.exponents) for m in segment],
        "shadow_depth": depth,
        "completely_lexsegment": complete,
        "criterion": criterion,
    }
    return 0, lines, payload


def _cmd_localize(args):
    I = _load_ideal(args)
    off = _index_list(args.at, "index list")
    J = I.localize(off)
    lines = [str(J)] + (["(unit ideal)"] if J.is_unit else [])
    payload = {
        "command": "localize",
        "ideal": ideal_to_json_dict(I),
        "at": off,
        "result": ideal_to_json_dict(J),
        "unit": J.is_unit,
    }
    return 0, lines, payload


def _cmd_suite(args):
    runner = SUITES[args.name]
    # corpus options default to absent, so args holds exactly the ones given
    corpus = {f.name: getattr(args, f.name) for f in fields(CorpusSpec) if hasattr(args, f.name)}
    if args.name == "remark":
        # the remark is one fixed ideal, so a corpus option would be silently ignored
        if corpus:
            flags = ", ".join("--" + k.replace("_", "-") for k in corpus)
            raise InvalidArgumentError(f"suite remark takes no corpus options, got {flags}")
        _integers((args.jobs,), "jobs", 1)
        report = runner()
    else:
        report = runner(CorpusSpec(**{"n": 3, "d": 2, **corpus}), jobs=args.jobs)
    lines = [report.summary()]
    lines += [f"  {_dumps(verdict, sort_keys=True)}" for verdict in report.failures]
    if args.json_path:
        lines.append(f"report written to {args.json_path}")
    return report.exit_code(), lines, report.to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Exact checks for equigenerated monomial ideals: the exchange "
        "property, linear quotients under variable-induced orderings, graded Betti "
        "numbers, lexsegments, and search suites.",
    )
    parser.add_argument("--version", action="version", version=f"polymat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="single-ideal property checks")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    poly = check_sub.add_parser("poly", help="exchange property (polymatroidal)")
    _add_ideal_args(poly)
    poly.set_defaults(func=_cmd_check_poly)

    lq = check_sub.add_parser("lq", help="linear quotients for one or all variable orders")
    _add_ideal_args(lq)
    _add_order_args(lq)
    lq.set_defaults(func=_cmd_check_lq)

    qwlr = check_sub.add_parser("qwlr", help="quotients with linear resolution")
    _add_ideal_args(qwlr)
    _add_order_args(qwlr)
    qwlr.set_defaults(func=_cmd_check_qwlr)

    betti = sub.add_parser("betti", help="graded Betti numbers (Macaulay-style triangle)")
    _add_ideal_args(betti)
    betti.set_defaults(func=_cmd_betti)

    lexseg = sub.add_parser("lexsegment", help="lexsegment between two monomials")
    lexseg.add_argument("--u", required=True, help="lex-greater endpoint, e.g. x1^2")
    lexseg.add_argument("--v", required=True, help="lex-smaller endpoint, e.g. x1*x3")
    lexseg.add_argument("--n", type=_integer, help="ambient variable count")
    lexseg.add_argument("--shadow-depth", type=_integer, help="iterated-shadow depth to verify")
    lexseg.add_argument("--json", dest="json_path")
    lexseg.set_defaults(func=_cmd_lexsegment)

    localize = sub.add_parser("localize", help="substitute x_i -> 1 for given indices")
    _add_ideal_args(localize)
    localize.add_argument("--at", required=True, help="comma-separated 1-based indices")
    localize.set_defaults(func=_cmd_localize)

    suite = sub.add_parser("suite", argument_default=argparse.SUPPRESS,
                           help="corpus suites and the fixed example reproduction")
    suite.add_argument("name", choices=tuple(SUITES))
    suite.add_argument("--n", type=_integer)
    suite.add_argument("--d", type=_integer)
    suite.add_argument("--mode", choices=("exhaustive", "random"))
    suite.add_argument("--m", type=_integer, help="generator count (random mode)")
    suite.add_argument("--count", type=_integer, help="sample size (random mode)")
    suite.add_argument("--seed", type=_integer)
    suite.add_argument(
        "--jobs",
        type=_integer,
        default=_usable_cpus(),
        help="most worker processes, capped at the CPUs this process may use (the default); "
        f"a pool starts only when each worker gets at least {_MIN_SLICE:,} masks, which are "
        "dealt to the workers round robin",
    )
    suite.add_argument("--start-mask", type=_integer, help="resume an exhaustive sweep")
    suite.add_argument(
        "--dedupe-isomorphic",
        action="store_true",
        help="keep one representative per variable-permutation orbit (exhaustive mode)",
    )
    suite.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
    suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    """Run one command. Handlers return (exit code, stdout lines, JSON payload);
    only this function writes, the JSON first, so an exit of 2 prints nothing."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines, payload = args.func(args)
        if args.json_path:
            Path(args.json_path).write_text(dump_json(payload))
    except (PolymatError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return code


def entrypoint() -> None:
    raise SystemExit(main())
