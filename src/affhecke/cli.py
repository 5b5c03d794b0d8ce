"""Command line interface.

Subcommands cover element arithmetic, word normal forms, canonical
bases (full and quotient), ideal membership, and the finite-field
convolution checks.  Output is buffered and printed only on success, so
a failing run never emits a partial result.  Exit codes: 0 success,
1 a verification subcommand reports failure, 2 bad input, 3 resource
guard, 4 internal invariant violation.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import canonical, oracle, parsing, quotients, weyl
from .errors import (ElementParseError, InternalInvariantError, NegativeEntryError, NonDominantError,
                     NotPositiveError, RankMismatchError, ResourceLimitError, SpecMismatchError,
                     UnsupportedParameterError)

_INPUT_ERRORS = (ElementParseError, NegativeEntryError, NonDominantError, NotPositiveError, RankMismatchError,
                 SpecMismatchError)
_RESOURCE_ERRORS = (ResourceLimitError, UnsupportedParameterError)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True)


def _word_lines(args, walk) -> tuple[list[str], int]:
    w = parsing.parse_perm(args.n, args.window)
    parsing.WorkBudget().charge_words([w])  # before ``walk`` takes its l(w) + |degree(w)| letters
    word = walk(w)
    text = str(word)
    if args.json:
        return [_dump({"letters": text.split(), "count": len(word)})], 0
    return [text or "e"], 0


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
        basis = canonical.quotient_canonical_basis(_spec(args), args.max_length, depth)
        pairs = [(w, image.rep) for w, image in basis]
    else:
        pairs = [(b.index, b.value) for b in canonical.positive_canonical_basis(args.n, args.max_length, depth)]
    if args.tsv:
        rows = [(w.window, x.window, c) for w, elt in pairs for x, c in elt.sorted_terms()]
        return ["%s\t%s\t%s" % (",".join(map(str, a)), ",".join(map(str, b)), c) for a, b, c in rows], 0
    records = [{"window": list(w.window), "terms": elt.to_json()} for w, elt in pairs]
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


# Each command path maps to (handler, help, options, positionals); a group has
# no handler and reads the name of one of its commands.  An option is (flag,
# dest, kind, default, help): kind int takes one value, bool is a flag, list
# appends every value given; the default REQUIRED marks an option that must be
# given.  A positional is (dest, metavar, many), ``many`` for one or more words.
REQUIRED = object()
HELP = ("--help", "help", bool, False, "show this help and exit")
JSON = ("--json", "json", bool, False, "emit JSON instead of plain text")
N, D, Q = (("--" + name, name, int, REQUIRED, "") for name in "ndq")
LAMBDAS = ("--lambda", "lambdas", list, REQUIRED, "")
WINDOW = ("window", "WINDOW", False)
COMMANDS = {
    (): (None, __doc__, (), ()),
    ("mul",): (_cmd_mul, "multiply element expressions", (JSON, N), (("exprs", "EXPR", True),)),
    ("reduce-word",): (_cmd_reduce_word, "reduced word of a window", (JSON, N), (WINDOW,)),
    ("positive-word",): (_cmd_positive_word, "positive-generator word of a window", (JSON, N), (WINDOW,)),
    ("canonical",): (_cmd_canonical, "canonical basis elements, one record per line", (
        JSON, N, ("--max-length", "max_length", int, REQUIRED, ""), ("--min-degree", "min_degree", int, 0, ""),
        ("--lambda", "lambdas", list, [],
         "ideal generator partition like 1,0; repeatable; switches to quotient images"),
        ("--tsv", "tsv", bool, False, "tab-separated term rows")), ()),
    ("ideal-member",): (_cmd_ideal_member, "membership in a two-sided ideal", (JSON, N, LAMBDAS), (WINDOW,)),
    ("quotient-mul",): (_cmd_quotient_mul, "multiply in an ideal quotient", (JSON, N, LAMBDAS),
                        (("left", "EXPR", False), ("right", "EXPR", False))),
    ("oracle",): (None, "finite-field convolution checks", (), ()),
    ("oracle", "hecke"): (_cmd_oracle_hecke, "orbit algebra vs generic algebra", (JSON, N, Q), ()),
    ("oracle", "bicommutant"): (_cmd_oracle_bicommutant, "mutual centralizer check", (JSON, N, D, Q), ()),
    ("oracle", "lift"): (_cmd_oracle_lift, "seeded family lift round-trips", (JSON, N, D, Q, (
        "--trials", "trials", int, 20, ""), ("--seed", "seed", int, 0, "seed of the random functions")), ()),
}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, though it starts with "-"


def _usage(path) -> str:
    _, about, options, positionals = COMMANDS[path]
    names = [p[-1] for p in COMMANDS if p and p[:-1] == path]
    spelled = [(o, o[0] if o[2] is bool else "%s %s" % (o[0], o[1].upper())) for o in (HELP,) + options]
    words = ["{%s} ..." % ",".join(names)] if names else [w if o[3] is REQUIRED else "[%s]" % w for o, w in spelled]
    words += [meta + " [%s ...]" % meta * many for _, meta, many in positionals]
    rows = [(name, COMMANDS[path + (name,)][1]) for name in names] + [(w, o[4]) for o, w in spelled]
    lines = [" ".join(["usage: affhecke", *path] + words), "", about.strip(), ""]
    return "\n".join(lines + [("  %-18s %s" % row).rstrip() for row in rows])


def _fail(path, message):
    print("%s\naffhecke: error: %s" % (_usage(path).partition("\n")[0], message), file=sys.stderr)
    raise SystemExit(2)


def _option(path, flags, word):
    """The flag a word names, in full or by a unique prefix, and its ``=`` value; None for a value."""
    if word[:1] != "-" or word == "-":
        return None
    name, eq, value = word.partition("=")
    hits = [name] if name in flags else [f for f in flags if name[:2] == "--" and f.startswith(name)]
    if len(hits) > 1:
        _fail(path, "ambiguous option: %s could match %s" % (word, ", ".join(hits)))
    if hits:
        return hits[0], value if eq else None
    if not _NUMBER.match(word) and " " not in word:  # else a value word
        _fail(path, "unrecognized arguments: %s" % word)


def read_argv(argv):
    """The command path and the values of one command line, in one pass."""
    dash = argv.index("--") if "--" in argv else len(argv)
    path, flags, values, runs, i = (), {"-h": HELP, "--help": HELP}, {}, [[]], 0
    while i < dash:
        word, i = argv[i], i + 1
        hit = _option(path, flags, word)
        if hit is None and COMMANDS[path][0] is None:  # a group: the word names one of its commands
            if path + (word,) not in COMMANDS:
                _fail(path, "invalid choice: %r" % word)
            path += (word,)
            flags.update((o[0], o) for o in COMMANDS[path][2])
            values = {o[1]: None if o[3] is REQUIRED else [] if o[2] is list else o[3] for o in COMMANDS[path][2]}
        elif hit is None:
            runs[-1].append(word)
        else:
            runs.append([])  # an option ends a run of positional words
            flag, value = hit
            _, dest, kind, _, _ = flags[flag]
            if kind is bool and value is not None:
                _fail(path, "argument %s: ignored explicit argument %r" % (flag, value))
            if dest == "help":
                print(_usage(path))
                raise SystemExit(0)
            if kind is not bool and value is None:
                if i == dash or _option(path, flags, argv[i]):
                    _fail(path, "argument %s: expected one argument" % flag)
                value, i = argv[i], i + 1
            try:
                value = True if kind is bool else int(value) if kind is int else value
            except ValueError:
                _fail(path, "argument %s: invalid int value: %r" % (flag, value))
            values[dest] = (values[dest] or []) + [value] if kind is list else value
    if COMMANDS[path][0] is None:
        _fail(path, "the following arguments are required: COMMAND")
    runs[-1] += argv[dash + 1:]
    waiting = list(COMMANDS[path][3])
    for run in runs:  # one word to each positional, or the whole run to one of many
        taken = 0
        while waiting and taken < len(run):
            dest, _, many = waiting.pop(0)
            values[dest] = run[taken:] if many else run[taken]
            taken = len(run) if many else taken + 1
        if taken < len(run) or run is runs[-1] and argv[dash:] and not taken:  # a "--" no positional took
            _fail(path, "unrecognized arguments: %s" % " ".join(run[taken:] or ["--"]))
    missing = [o[0] for o in COMMANDS[path][2] if values[o[1]] is None] + [meta for _, meta, _ in waiting]
    if missing:
        _fail(path, "the following arguments are required: %s" % ", ".join(missing))
    return path, SimpleNamespace(**values)


def main(argv=None) -> int:
    path, args = read_argv(sys.argv[1:] if argv is None else argv)
    if args.n < 1:
        _fail(path, "--n must be at least 1")
    if getattr(args, "trials", 1) < 1:
        _fail(path, "--trials must be at least 1")
    if args.n * (args.n - 1) // 2 > parsing.MAX_PRODUCT_WORK:  # the pairs one length visits
        print("error: rank %d: one length visits more than %d pairs" % (args.n, parsing.MAX_PRODUCT_WORK),
              file=sys.stderr)
        return 3
    try:
        lines, code = COMMANDS[path][0](args)
    except _INPUT_ERRORS + _RESOURCE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return 4
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
