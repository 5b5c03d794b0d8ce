"""Generated command lines through ``cli.main``.

Element expressions for ``mul`` and ``quotient-mul``: atoms, + - * ^,
parentheses and exponents up to +-40, plus strings from the expression
alphabet that are mostly malformed.  Whole command lines for
``reduce-word``, ``positive-word``, ``ideal-member`` and ``canonical``:
windows, partitions and small bounds, mostly well formed, with or without
``--lambda``/``--tsv``/``--json``, then perhaps cut short, stripped of one
word or given an unknown flag; ``--n`` is sometimes a rank past the
length budget.  Every call keeps the command line contract: exit code 0,
2 or 3, nothing on stdout after an error, no traceback, and an answer
within LIMIT_S seconds.  (``oracle`` is left out: settings its guards
admit, such as ``oracle hecke --n 4 --q 2`` or ``oracle bicommutant
--n 4 --d 3 --q 2``, take from several seconds to minutes.)
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from affhecke import cli

LIMIT_S = 5
SETTINGS = settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])


def atoms(n, positive):
    letters = ["s%d" % i for i in range(1 if positive else 0, n)] + ["r-"]
    if not positive:
        letters.append("r")
    word = st.lists(st.sampled_from(letters), max_size=4).map(lambda w: "T[%s]" % " ".join(w))
    return st.one_of(
        word,
        st.sampled_from([*range(1, n + 1)] * 3 + [n + 1]).map("X{}".format),  # X_{n+1}: out of range
        st.just("v"),
        st.integers(0, 5).map(str),
        st.just("(v^-2-1)"),
    )


def expressions(n, positive=False):
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
            st.tuples(inner, st.integers(-40, 40)).map(lambda t: "(%s)^%d" % t),
            inner.map("({})".format),
            inner.map("-{}".format),
        )

    parsed = st.recursive(atoms(n, positive), extend, max_leaves=6)
    garbage = st.text(alphabet="T[]()s012r-+*^vX w,", max_size=16)
    return st.one_of(parsed, parsed, garbage)


@st.composite
def requests(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    if draw(st.booleans()):
        exprs = draw(st.lists(expressions(n), min_size=1, max_size=3))
        return ["mul", "--n", str(n), *exprs]
    parts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    lam = ",".join(map(str, sorted(parts, reverse=True)))
    left, right = draw(expressions(n, True)), draw(expressions(n, True))
    return ["quotient-mul", "--n", str(n), "--lambda", lam, left, right]


def windows(n):
    # sigma(i) + n*k_i is a valid window, positive when every k_i <= 0; a raw
    # list mostly repeats a residue
    shifts = st.lists(st.integers(-3, 1), min_size=n, max_size=n)
    valid = st.tuples(st.permutations(range(1, n + 1)), shifts).map(lambda t: [s + n * k for s, k in zip(*t)])
    raw = st.lists(st.integers(-15, 15), min_size=max(1, n - 1), max_size=n + 1)
    formatted = st.one_of(valid, valid, valid, raw).map(lambda w: "w[%s]" % ",".join(map(str, w)))
    return st.one_of(formatted, formatted, formatted, st.text(alphabet="w[]-0123456789, ", max_size=12))


def partitions(n):
    parts = st.lists(st.integers(-1, 3), min_size=n, max_size=n + 1)
    dominant = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(lambda p: sorted(p, reverse=True))
    return st.one_of(dominant, dominant, parts).map(lambda p: ",".join(map(str, p)))


@st.composite
def command_lines(draw):
    n = draw(st.integers(1, 4))
    command = draw(st.sampled_from(("reduce-word", "positive-word", "ideal-member", "canonical")))
    argv = [command, "--n", draw(st.sampled_from((str(n),) * 10 + ("0", "-1", "x", "1000000")))]
    if command != "canonical":
        argv.append(draw(windows(n)))
    if command in ("ideal-member", "canonical"):
        for _ in range(draw(st.integers(command == "ideal-member", 2))):
            argv += ["--lambda", draw(partitions(n))]
    if command == "canonical":
        argv += ["--max-length", draw(st.sampled_from(("0", "1", "2", "3", "4", "-1", "25", "x")))]
        if draw(st.booleans()):
            argv += ["--min-degree", draw(st.sampled_from(("0", "-1", "-2", "2", "y")))]
        if draw(st.booleans()):
            argv.append("--tsv")
    if draw(st.booleans()):
        argv.append("--json")
    damage = draw(st.sampled_from(("none", "none", "none", "cut", "drop", "unknown")))
    at = draw(st.integers(0, len(argv)))
    if damage == "cut":  # often leaves a flag without its value
        argv = argv[:at]
    elif damage == "drop":
        argv = argv[:at] + argv[at + 1:]
    elif damage == "unknown":
        argv = argv[:at] + [draw(st.sampled_from(("--bogus", "--max-length", "--lambda=", "-x", "--n=")))] + argv[at:]
    return argv


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def keeps_the_contract(argv):
    code, out, err, seconds = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert code == 0 or out == ""
    assert "Traceback" not in err
    assert seconds < LIMIT_S, (argv, seconds)


@SETTINGS
@given(requests())
def test_generated_requests_keep_the_contract(argv):
    keeps_the_contract(argv)


@SETTINGS
@given(command_lines())
def test_generated_command_lines_keep_the_contract(argv):
    keeps_the_contract(argv)
