"""Generated element expressions through ``cli.main`` (``mul``, ``quotient-mul``).

Atoms, + - * ^, parentheses and exponents up to +-40, plus strings from the
expression alphabet that are mostly malformed.  Every call keeps the
command line contract: exit code 0, 2 or 3, nothing on stdout after an
error, no traceback, and an answer within LIMIT_S seconds.
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
    n = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        exprs = draw(st.lists(expressions(n), min_size=1, max_size=3))
        return ["mul", "--n", str(n), *exprs]
    parts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    lam = ",".join(map(str, sorted(parts, reverse=True)))
    left, right = draw(expressions(n, True)), draw(expressions(n, True))
    return ["quotient-mul", "--n", str(n), "--lambda", lam, left, right]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@SETTINGS
@given(requests())
def test_generated_requests_keep_the_contract(argv):
    code, out, err, seconds = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert code == 0 or out == ""
    assert "Traceback" not in err
    assert seconds < LIMIT_S, (argv, seconds)
