"""The argparse parser that ``affhecke.cli`` read its command lines with
before its command table, kept as the reference the differential tests
compare ``cli.read_argv`` against."""

import argparse

from affhecke import cli


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="affhecke", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="multiply element expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.set_defaults(func=cli._cmd_mul)

    p = sub.add_parser("reduce-word", parents=[common], help="reduced word of a window")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=cli._cmd_reduce_word)

    p = sub.add_parser(
        "positive-word", parents=[common], help="positive-generator word of a window"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=cli._cmd_positive_word)

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
    p.set_defaults(func=cli._cmd_canonical)

    p = sub.add_parser("ideal-member", parents=[common], help="membership in a two-sided ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambdas", action="append", required=True, metavar="PARTS")
    p.add_argument("window", metavar="WINDOW")
    p.set_defaults(func=cli._cmd_ideal_member)

    p = sub.add_parser("quotient-mul", parents=[common], help="multiply in an ideal quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambdas", action="append", required=True, metavar="PARTS")
    p.add_argument("left", metavar="EXPR")
    p.add_argument("right", metavar="EXPR")
    p.set_defaults(func=cli._cmd_quotient_mul)

    p = sub.add_parser("oracle", help="finite-field convolution checks")
    osub = p.add_subparsers(dest="check", required=True)

    o = osub.add_parser("hecke", parents=[common], help="orbit algebra vs generic algebra")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.set_defaults(func=cli._cmd_oracle_hecke)

    o = osub.add_parser("bicommutant", parents=[common], help="mutual centralizer check")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.set_defaults(func=cli._cmd_oracle_bicommutant)

    o = osub.add_parser("lift", parents=[common], help="seeded family lift round-trips")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--trials", type=int, default=20)
    o.add_argument("--seed", type=int, default=0, help="seed of the random functions")
    o.set_defaults(func=cli._cmd_oracle_lift)

    return parser
