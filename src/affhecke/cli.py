"""Command line interface.

Subcommands cover element arithmetic, word normal forms, canonical
bases (full and quotient), ideal membership, and the finite-field
convolution checks.  Output is buffered and printed only on success, so
a failing run never emits a partial result.  Exit codes: 0 success,
1 a verification subcommand reports failure, 2 bad input, 3 resource
guard, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import canonical, oracle, parsing, quotients, weyl
from .laurent import LaurentPoly
from .errors import (
    ElementParseError,
    InternalInvariantError,
    NegativeEntryError,
    NonDominantError,
    NotPositiveError,
    RankMismatchError,
    ResourceLimitError,
    SpecMismatchError,
    UnsupportedParameterError,
)

_INPUT_ERRORS = (
    ElementParseError,
    NegativeEntryError,
    NonDominantError,
    NotPositiveError,
    RankMismatchError,
    SpecMismatchError,
)
_RESOURCE_ERRORS = (ResourceLimitError, UnsupportedParameterError)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="affhecke", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="multiply element expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("reduce-word", parents=[common], help="reduced word of a window")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=_cmd_reduce_word)

    p = sub.add_parser(
        "positive-word", parents=[common], help="positive-generator word of a window"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=_cmd_positive_word)

    p = sub.add_parser(
        "canonical", parents=[common], help="canonical basis elements, one record per line"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument(
        "--lambda",
        dest="lambdas",
        action="append",
        default=[],
        metavar="PARTS",
        help="ideal generator partition like 1,0; repeatable; switches to quotient images",
    )
    p.add_argument("--tsv", action="store_true", help="tab-separated term rows")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("ideal-member", parents=[common], help="membership in a two-sided ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambdas", action="append", required=True, metavar="PARTS")
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=_cmd_ideal_member)

    p = sub.add_parser("quotient-mul", parents=[common], help="multiply in an ideal quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambdas", action="append", required=True, metavar="PARTS")
    p.add_argument("left", metavar="EXPR")
    p.add_argument("right", metavar="EXPR")
    p.set_defaults(func=_cmd_quotient_mul)

    p = sub.add_parser("oracle", help="finite-field convolution checks")
    osub = p.add_subparsers(dest="check", required=True)

    o = osub.add_parser("hecke", parents=[common], help="orbit algebra vs generic algebra")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.set_defaults(func=_cmd_oracle_hecke)

    o = osub.add_parser("bicommutant", parents=[common], help="mutual centralizer check")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.set_defaults(func=_cmd_oracle_bicommutant)

    o = osub.add_parser("lift", parents=[common], help="seeded family lift round-trips")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--trials", type=int, default=20)
    o.add_argument("--seed", type=int, default=0, help="seed of the random functions")
    o.set_defaults(func=_cmd_oracle_lift)

    return parser


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True)


def _word_lines(args, walk) -> tuple[list[str], int]:
    w = parsing.parse_perm(args.n, args.window)
    parsing.WorkBudget().charge_words([w])  # before ``walk`` takes its l(w) + |degree(w)| letters
    word = walk(w)
    if args.json:
        letters = ["s%d" % a if isinstance(a, int) else a for a in word.letters]
        return [_dump({"letters": letters, "count": len(word)})], 0
    return [str(word) if len(word) else "e"], 0


def _cmd_mul(args) -> tuple[list[str], int]:
    budget = parsing.WorkBudget()
    product = parsing.parse_element(args.n, args.exprs[0], budget)
    for text in args.exprs[1:]:
        product = budget.mul(product, parsing.parse_element(args.n, text, budget))
    if args.json:
        return [_dump(product.to_json())], 0
    budget.charge_words(product.terms)  # the text names each term by a reduced word
    return [str(product)], 0


def _cmd_reduce_word(args) -> tuple[list[str], int]:
    return _word_lines(args, weyl.AffinePerm.reduced_word)


def _cmd_positive_word(args) -> tuple[list[str], int]:
    return _word_lines(args, weyl.AffinePerm.positive_reduced_word)


def _spec(args) -> quotients.IdealSpec:
    parts = [parsing.parse_partition(text) for text in args.lambdas]
    return quotients.IdealSpec(args.n, parts)


def _cmd_canonical(args) -> tuple[list[str], int]:
    depth = -args.min_degree
    if args.lambdas:
        records = [
            {"window": list(w.window), "terms": image.rep.to_json()}
            for w, image in canonical.quotient_canonical_basis(
                _spec(args), args.max_length, depth
            )
        ]
    else:
        records = [
            b.to_json()
            for b in canonical.positive_canonical_basis(args.n, args.max_length, depth)
        ]
    if args.tsv:
        lines = []
        for rec in records:
            window = ",".join(str(x) for x in rec["window"])
            for term in rec["terms"]:
                xwindow = ",".join(str(x) for x in term["window"])
                coeff = str(LaurentPoly.from_json(term["coeffs"]))
                lines.append("%s\t%s\t%s" % (window, xwindow, coeff))
        return lines, 0
    if args.json:
        return [_dump(records)], 0
    return [_dump(rec) for rec in records], 0


def _cmd_ideal_member(args) -> tuple[list[str], int]:
    w = parsing.parse_perm(args.n, args.window)
    member = quotients.in_ideal(w, _spec(args))
    if args.json:
        return [_dump({"member": member, "window": list(w.window)})], 0
    return ["true" if member else "false"], 0


def _cmd_quotient_mul(args) -> tuple[list[str], int]:
    spec = _spec(args)
    budget = parsing.WorkBudget()
    left = quotients.reduce(parsing.parse_element(args.n, args.left, budget), spec)
    right = quotients.reduce(parsing.parse_element(args.n, args.right, budget), spec)
    product = quotients.quotient_mul(left, right, budget.charge)
    if args.json:
        return [_dump(product.to_json())], 0
    budget.charge_words(product.rep.terms)
    return [str(product)], 0


def _report_lines(args, report: oracle.Report) -> tuple[list[str], int]:
    code = 0 if report.ok else 1
    if args.json:
        return [_dump(report.to_json())], code
    lines = ["claim: %s" % report.claim, "status: %s" % report.status]
    for key, val in sorted(report.dims.items()):
        lines.append("  %s = %s" % (key, val))
    for bad in report.mismatches:
        lines.append("  mismatch: %s" % _dump(bad))
    return lines, code


def _cmd_oracle_hecke(args):
    return _report_lines(args, oracle.verify_hecke_iso(args.n, args.q))


def _cmd_oracle_bicommutant(args):
    return _report_lines(args, oracle.bicommutant_check(args.n, args.d, args.q))


def _cmd_oracle_lift(args):
    return _report_lines(args, oracle.lift_trials(args.n, args.d, args.q, args.trials, args.seed))


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    if getattr(args, "trials", 1) < 1:
        parser.error("--trials must be at least 1")
    if args.n * (args.n - 1) // 2 > parsing.MAX_PRODUCT_WORK:  # the pairs one length visits
        print("error: rank %d: one length visits more than %d pairs" % (args.n, parsing.MAX_PRODUCT_WORK),
              file=sys.stderr)
        return 3
    try:
        lines, code = args.func(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _RESOURCE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return 4
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
