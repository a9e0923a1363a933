"""Command-line front end.

Three subcommands:

``nsopt simplify``
    Rewrite a nested sum at minimal depth and report the shift point
    lambda, the depths before and after, and an exact verification sweep.

``nsopt verify``
    Compare two expressions value-by-value over an exact integer range.

``nsopt telescope``
    Solve sigma(g) - g = f for a single summand f, growing the tower
    only by certified generators (never by the summand itself).

Exit codes: 0 success, 1 verify found a counterexample, 2 parse error or
invalid invocation (such as a negative range, a --file
that cannot be read, or a --with-product with a zero ratio or a repeated
name), 3 unsupported input shape, a result that does not map back to an
expression, a declared product that is not a legal product-like extension
(also when it is a power product of the products declared before it), or
a bound on the exact search's work: a shift window past 10^4, a dispersion
past 250 or a degree past 500,
4 internal verification failure: the sweep or a telescoper's residual
check failed (never expected).  Commands raise their failures, and main()
maps each to its stderr line and code through one table, _FAILURES.

Reports are deterministic: identical invocations produce byte-identical
output.  All arithmetic is exact rational; nothing is floated.
"""

import argparse
import gc
import json
import re
import sys
from fractions import Fraction

from .algebra import RatFunc, RootSearchLimit
from .dfield import NotPolynomialPart, elem_to_str, tower_to_json
from .expr import (
    Base,
    Const,
    Evaluator,
    ParseError,
    ProductSpec,
    compile,
    evaluate,
    expr_depth,
    parse,
    reinterpret,
    to_src,
)
from .telescope import (
    ResidualCheckFailed,
    UnsupportedShape,
    telescope_depth_optimal,
)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """An invalid invocation that argparse cannot see; the message is the
    whole stderr line."""


def _read_expression(args) -> str:
    if args.file is not None:
        if args.expression is not None:
            raise UsageError(
                "error: give an expression inline or via --file, not both")
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise UsageError(
                f"error: cannot read --file {args.file}: {reason}") from None
    if args.expression is None:
        raise UsageError("error: no expression given")
    return args.expression


def _product_spec(text: str) -> ProductSpec:
    """Decode a --with-product value of the form name:alpha[:lower].

    alpha is a rational expression in n, e.g. b:(n+1)/(2*(2*n+1)):1
    registers the inverse central binomial product.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(
            f"error: bad --with-product {text!r} (want name:alpha[:lower])")
    name, alpha_src = parts[0], parts[1]
    lower = 1
    if len(parts) == 3:
        try:
            lower = int(parts[2])
        except ValueError:
            raise UsageError(
                f"error: bad --with-product lower bound {parts[2]!r}")
    try:
        alpha_expr = parse(alpha_src)
    except ParseError as exc:
        raise UsageError(f"parse error in --with-product alpha: {exc}")
    rf = _as_ratfunc(alpha_expr)
    if rf is None:
        raise UsageError(
            f"error: --with-product alpha must be rational in n: {alpha_src!r}")
    if rf.is_zero():
        raise UsageError(f"error: --with-product alpha must be nonzero: {alpha_src!r}")
    return ProductSpec(name, rf, lower)


def _products(args) -> tuple:
    """The --with-product declarations, in order, with distinct names."""
    products = tuple(_product_spec(p) for p in args.with_product or ())
    names = [p.name for p in products]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"error: --with-product name {name!r} declared twice")
    return products


def _as_ratfunc(e):
    # Const and single-variable Base are the only rational shapes the
    # parser leaves unmerged
    if isinstance(e, Const):
        return RatFunc.from_const(Fraction(e.value))
    if isinstance(e, Base):
        return e.rf
    return None


def _nonnegative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return n


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def cmd_simplify(args) -> int:
    text = _read_expression(args)
    e = parse(text)
    res = compile(e, products=_products(args))

    out = reinterpret(res.tower, res.spec, res.elem)
    out_text = to_src(out, h_sugar=args.h_sugar)

    # the sweep is the check, so it shares no memo with compile's Evaluator;
    # one Evaluator per side keeps its prefix memo across k: linear sweep
    ev_in, ev_out = Evaluator(), Evaluator()
    rows = []
    first_bad = None
    for k in range(res.lam, res.lam + args.verify_range + 1):
        lhs = evaluate(e, k, ev_in)
        rhs = evaluate(out, k, ev_out)
        eq = lhs == rhs
        if not eq and first_bad is None:
            first_bad = k
        rows.append([k, str(lhs), str(rhs), eq])

    report = {
        "input_text": text,
        "output_text": out_text,
        "lambda": res.lam,
        "input_depth": expr_depth(e),
        "output_depth": expr_depth(out),
        "optimality_certified": res.optimality_certified,
        "tower_summary": tower_to_json(res.tower),
        "verification": rows,
    }

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"input:  {text}")
        print(f"output: {out_text}")
        print(f"lambda: {res.lam}")
        print(f"depth:  {report['input_depth']} -> {report['output_depth']}")
        print(f"optimality_certified: {'true' if res.optimality_certified else 'false'}")
        lo, hi = res.lam, res.lam + args.verify_range
        status = "exact" if first_bad is None else "FAILED"
        print(f"verified: k = {lo}..{hi} {status}")
        if args.emit_tower:
            print("tower:")
            for g in report["tower_summary"]["generators"]:
                print(
                    f"  {g['name']} {g['kind']} "
                    f"shift_part={g['shift_part']} depth={g['depth']}"
                )

    if first_bad is not None:
        print(f"verification failed at k = {first_bad}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    lhs = parse(args.lhs)
    rhs = parse(args.rhs)
    ev_lhs, ev_rhs = Evaluator(), Evaluator()
    for k in range(0, args.range + 1):
        lv = evaluate(lhs, k, ev_lhs)
        rv = evaluate(rhs, k, ev_rhs)
        if lv != rv:
            print(f"counterexample: k = {k}: lhs = {lv}, rhs = {rv}")
            return 1
    print(f"equal: k = 0..{args.range} exact")
    return 0


# ---------------------------------------------------------------------------
# telescope
# ---------------------------------------------------------------------------


def cmd_telescope(args) -> int:
    e = parse(args.summand)
    res = compile(e, products=_products(args))
    t = telescope_depth_optimal(res.tower, res.elem)
    # only the search's fallback adjoins the summand itself, certified by
    # its refutation in the given tower
    if t.adjoined and t.tower.gens[-1].shift_part == res.elem:
        print("NO_SOLUTION")
        print(f"certificate: {t.tower.gens[-1].certificate}")
        return 0

    print(f"g = {to_src(reinterpret(t.tower, res.spec, t.g), h_sugar=args.h_sugar)}")
    if t.adjoined:
        print(f"adjoined: {', '.join(t.adjoined)}")
        for name in t.adjoined:
            i = t.tower.gen_index(name)
            g = t.tower.gens[i]
            print(
                f"  {name} {g.kind} "
                f"shift_part={elem_to_str(t.tower.prefix(i), g.shift_part)}"
            )
    else:
        print("adjoined: (none)")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_product_flag(sub):
    sub.add_argument(
        "--with-product",
        action="append",
        metavar="NAME:ALPHA[:LOWER]",
        help="register a product generator with ratio ALPHA (rational in n)"
        " before compiling; repeatable",
    )


# argparse takes every token that starts with "-" for an option, so an
# expression such as -H(n) goes through parsing behind a NUL, which no
# command-line argument can contain.  Options, "-h", "--" and negative
# numbers, which argparse already reads right, pass unchanged.
_SHIELD = "\0"
_MINUS_EXPRESSION = re.compile(r"-(?!-|h$|\d+$|\d*\.\d+$).+")


def _shield(argv):
    end = argv.index("--") if "--" in argv else len(argv)
    return [
        _SHIELD + tok if i < end and _MINUS_EXPRESSION.fullmatch(tok) else tok
        for i, tok in enumerate(argv)
    ]


def _unshield(value):
    if isinstance(value, str):
        return value.removeprefix(_SHIELD)
    if isinstance(value, list):
        return [_unshield(v) for v in value]
    return value


# (exception class, stderr prefix, exit code) for every failure a command
# raises; the first isinstance match wins, so ScopeError, a ParseError,
# reads as a parse error
_FAILURES = (
    (UsageError, "", 2),
    (ParseError, "parse error: ", 2),
    (UnsupportedShape, "unsupported: ", 3),
    (NotPolynomialPart, "unsupported: ", 3),
    (RootSearchLimit, "unsupported: ", 3),
    (ResidualCheckFailed, "internal verification failure: ", 4),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="nsopt",
        description="Depth-optimal simplification of nested sums.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("simplify", help="rewrite a nested sum at minimal depth")
    s.add_argument("expression", nargs="?", help="expression in n")
    s.add_argument("--file", help="read the expression from a file instead")
    s.add_argument(
        "--verify-range",
        type=_nonnegative_int,
        default=60,
        metavar="N",
        help="check input == output exactly for k = lambda..lambda+N",
    )
    _add_product_flag(s)
    s.add_argument("--emit-tower", action="store_true", help="print the tower")
    s.add_argument("--json", action="store_true", help="machine-readable report")
    s.add_argument(
        "--h-sugar",
        action="store_true",
        help="print harmonic sums as H(n) / H(o,n)",
    )
    s.set_defaults(func=cmd_simplify)

    v = sp.add_parser("verify", help="exact comparison of two expressions")
    v.add_argument("lhs")
    v.add_argument("rhs")
    v.add_argument(
        "--range",
        type=_nonnegative_int,
        default=60,
        metavar="N",
        help="compare for k = 0..N (default 60)",
    )
    v.set_defaults(func=cmd_verify)

    t = sp.add_parser("telescope", help="solve sigma(g) - g = f for one summand")
    t.add_argument("summand", help="summand expression in n")
    _add_product_flag(t)
    t.add_argument(
        "--h-sugar",
        action="store_true",
        help="print harmonic sums as H(n) / H(o,n)",
    )
    t.set_defaults(func=cmd_telescope)

    args = ap.parse_args(_shield(sys.argv[1:] if argv is None else argv))
    for key, value in vars(args).items():
        setattr(args, key, _unshield(value))
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in _FAILURES) as exc:
        prefix, code = next(
            (prefix, code) for cls, prefix, code in _FAILURES if isinstance(exc, cls)
        )
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


def run() -> int:
    """Process entry of `python -m nsopt.cli` and the `nsopt` script: main()
    on sys.argv, whose code the caller exits with.

    Every module is imported by now, and those objects live until exit,
    so they are frozen out of the collector: its collections, the
    interpreter's final ones included, then no longer scan them, which
    takes most of the exit time off a process.  main() itself leaves the
    collector alone, because a caller that runs it many times in one
    process would only pile up a frozen heap."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
