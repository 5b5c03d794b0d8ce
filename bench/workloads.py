"""Seeded inputs, operations and output digests of the three workloads.

Each workload is a fixed list of operations drawn from a finite universe.
The seed chooses the order (and, for ``cli_mix``, which requests of the
pool run), never the universe itself, so every operation any seed can
produce has a committed reference digest in ``reference.json``.

* ``kl_sweep``: one ``canonical_basis(w)`` call (self-verifying) per
  element of two Coxeter balls, in a seeded order.
* ``oracle_sweep``: a fixed list of finite-field oracle reports; the seed
  feeds the ``lift_trials`` seeds and the order.
* ``cli_mix``: a seeded stream of requests through in-process
  ``cli.main(argv)``, a fixed share of them malformed or out of range.

This module imports ``affhecke``; the caller puts the tree under test on
``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout

from affhecke import canonical, cli, oracle, weyl

DEFAULT_SEED = 0
KL_BALLS = ((3, 9), (4, 6))
CLI_POOL_SEED = 4290
CLI_POOL_SIZE = 3000
CLI_REQUESTS = 1500


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op:
    """One operation: the key of its reference digest, the full text of its
    input, a thunk that runs it, and the exit code it must give."""

    __slots__ = ("key", "desc", "call", "expect")

    def __init__(self, key: str, desc: str, call, expect: int = 0):
        self.key = key
        self.desc = desc
        self.call = call
        self.expect = expect


def judge(ops, results, errors, outcome, reference: dict) -> tuple[list[str], list[str]]:
    """Failed operations and "key digest" lines, one per operation.

    An operation fails when it raised (its error is not None), when its own
    check fails (an oracle report not ``pass``, an unexpected exit code,
    output on an error exit) or when its output digest differs from the
    reference digest for its key.
    """
    failures, lines = [], []
    for op, result, error in zip(ops, results, errors):
        ok, digest = outcome(op, result) if error is None else (False, None)
        lines.append("%s %s" % (op.key, digest))
        if not ok or digest != reference.get(op.key):
            failures.append("%s: %s" % (op.desc, error or "digest %s" % digest))
    return failures, lines


# -- kl_sweep ---------------------------------------------------------------


def _kl_key(w) -> str:
    return "%d:%s" % (w.n, ",".join(map(str, w.window)))


def _kl_op(w) -> Op:
    key = _kl_key(w)
    return Op(key, key, lambda: canonical.canonical_basis(w))


def kl_outcome(op: Op, elt) -> tuple[bool, str]:
    return True, sha(json.dumps(elt.to_json(), sort_keys=True))


def kl_universe() -> list[Op]:
    return [_kl_op(w) for n, length in KL_BALLS for w in weyl.coxeter_ball(n, length)]


def kl_inputs(seed: int) -> list[Op]:
    ops = kl_universe()
    random.Random(seed).shuffle(ops)
    return ops


# -- oracle_sweep -----------------------------------------------------------

# (check, arguments, copies per pass); lift_trials gets a seed appended.
# The rank-4 lift builds the 315 x 315 complete-flag pair map, which sets
# the pass's peak memory.  The rank-3 checks exercise convolution, operator
# matrices and exact linear algebra.  The counts put the p50 (rank 50 of
# 100) inside the 32 lift_trials(3, 2, 2, 1) and the p90 (rank 90) inside
# the 27 lift_trials(3, 3, 2, 1), each run of equal operations, so neither
# percentile sits on a jump between operations of different cost.
ORACLE_PLAN = (
    ("lift_trials", (4, 1, 2, 1), 1),
    ("bicommutant_check", (3, 2, 2), 1),
    ("verify_hecke_iso", (3, 3), 1),
    ("im_psi_check", (3, 2, 2), 1),
    ("lift_trials", (3, 2, 3, 1), 1),
    ("lift_trials", (3, 3, 2, 1), 27),
    ("lift_trials", (3, 2, 2, 1), 32),
    ("lift_trials", (3, 1, 2, 1), 12),
    ("bicommutant_check", (3, 1, 2), 12),
    ("im_psi_check", (2, 3, 2), 12),
)


def _oracle_op(check: str, args: tuple, rng: random.Random | None) -> Op:
    key = "%s%r" % (check, args)
    if check == "lift_trials":
        args = args + ((rng.randrange(2**31) if rng else DEFAULT_SEED),)
    # looked up at call time, so that a traced run sees its wrapper
    return Op(key, "%s%r" % (check, args), lambda: getattr(oracle, check)(*args))


def oracle_outcome(op: Op, report) -> tuple[bool, str]:
    return report.ok, sha(json.dumps(report.to_json(), sort_keys=True))


def oracle_universe() -> list[Op]:
    return [_oracle_op(check, args, None) for check, args, _ in ORACLE_PLAN]


def oracle_inputs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        _oracle_op(check, args, rng)
        for check, args, copies in ORACLE_PLAN
        for _ in range(copies)
    ]
    rng.shuffle(ops)
    return ops


# -- cli_mix ----------------------------------------------------------------


def _word(rng: random.Random, letters: list[str], lo: int, hi: int) -> str:
    return " ".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _letters(n: int, positive: bool) -> list[str]:
    if positive:
        return ["s%d" % i for i in range(1, n)] + ["r-"]
    return ["s%d" % i for i in range(n)] + ["r", "r-"]


def _atom(rng: random.Random, n: int, positive: bool) -> str:
    roll = rng.random()
    if roll < 0.55:
        atom = "T[%s]" % _word(rng, _letters(n, positive), 0, 4)
        power = rng.random()
        if power < 0.15:
            atom += "^%d" % rng.randint(2, 3)
        elif power < 0.25 and not positive:
            atom += "^-1"
        return atom
    if roll < 0.7:
        return "X%d" % rng.randint(1, n) + ("^2" if rng.random() < 0.2 else "")
    if roll < 0.8:
        return "v"
    if roll < 0.9:
        return str(rng.randint(2, 5))
    return "(v^-2-1)"


def _expr(rng: random.Random, n: int, positive: bool = False) -> str:
    term = "*".join(_atom(rng, n, positive) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.2:
        term += " + " + _atom(rng, n, positive)
    return term


def _window(rng: random.Random, n: int, positive: bool) -> str:
    sigma = rng.sample(range(1, n + 1), n)
    lo, hi = (-2, 0) if positive else (-2, 2)
    lam = [rng.randint(lo, hi) for _ in range(n)]
    return "w[%s]" % ",".join(str(s + n * lam[s - 1]) for s in sigma)


def _partition(rng: random.Random, n: int) -> str:
    parts = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
    parts[0] = max(parts[0], 1)
    return ",".join(map(str, parts))


def _lambdas(rng: random.Random, n: int) -> list[str]:
    out = []
    for _ in range(rng.randint(1, 2)):
        out += ["--lambda", _partition(rng, n)]
    return out


def _flags(rng: random.Random) -> list[str]:
    return ["--json"] if rng.random() < 0.3 else []


def _valid_request(rng: random.Random) -> list[str]:
    n = rng.choice((2, 2, 3))
    roll = rng.random()
    if roll < 0.45:
        exprs = [_expr(rng, n) for _ in range(rng.randint(1, 3))]
        return ["mul", "--n", str(n)] + _flags(rng) + exprs
    if roll < 0.6:
        return (["quotient-mul", "--n", str(n)] + _lambdas(rng, n) + _flags(rng)
                + [_expr(rng, n, True), _expr(rng, n, True)])
    if roll < 0.72:
        return ["ideal-member", "--n", str(n)] + _lambdas(rng, n) + _flags(rng) + [
            _window(rng, n, True)]
    if roll < 0.83:
        return ["reduce-word", "--n", str(n)] + _flags(rng) + [_window(rng, n, False)]
    if roll < 0.93:
        return ["positive-word", "--n", str(n)] + _flags(rng) + [_window(rng, n, True)]
    if roll < 0.97:
        n, length, depth = rng.choice(((2, 3, 2), (2, 2, 1), (3, 2, 1), (3, 1, 1)))
        argv = ["canonical", "--n", str(n), "--max-length", str(rng.randint(0, length)),
                "--min-degree", str(-rng.randint(0, depth))]
        if rng.random() < 0.3:
            argv += _lambdas(rng, n)
        return argv + rng.choice(([], ["--tsv"], ["--json"]))
    check = rng.choice(("hecke", "lift", "bicommutant"))
    q = rng.choice(("2", "3"))
    if check == "hecke":
        return ["oracle", check, "--n", "2", "--q", q]
    if check == "lift":
        return ["oracle", check, "--n", "2", "--d", rng.choice(("1", "2")), "--q", q,
                "--trials", str(rng.randint(1, 3)), "--seed", str(rng.randint(0, 99))]
    return ["oracle", check, "--n", "2", "--d", rng.choice(("1", "2")), "--q", "2"]


# Malformed input exits 2, a resource or parameter guard exits 3.
_BAD_INPUT = (
    ["mul", "--n", "2", "T[s1"],
    ["mul", "--n", "2", "T[s1] +"],
    ["mul", "--n", "3", "(T[s0]*X2"],
    ["mul", "--n", "2", "T[s9]"],
    ["mul", "--n", "2", "T[q1]"],
    ["mul", "--n", "3", "X4"],
    ["mul", "--n", "2", "X0"],
    ["mul", "--n", "2", "(T[s1]+T[s0])^-1"],
    ["mul", "--n", "2", "T(w[1,1])"],
    ["mul", "--n", "two", "T[s1]"],
    ["mul", "T[s1]"],
    ["mul", "--n", "2", "--threads", "0", "T[s1]"],
    ["frobnicate", "--n", "2"],
    ["reduce-word", "--n", "2", "w[1,1]"],
    ["reduce-word", "--n", "2", "w[1,2,3]"],
    ["reduce-word", "--n", "3", "1,2,3"],
    ["positive-word", "--n", "2", "w[3,2]"],
    ["positive-word", "--n", "3", "w[2,1,6]"],
    ["ideal-member", "--n", "2", "--lambda", "0,1", "w[1,2]"],
    ["ideal-member", "--n", "2", "--lambda", "-1,0", "w[1,2]"],
    ["ideal-member", "--n", "2", "--lambda", "1,0,0", "w[1,2]"],
    ["ideal-member", "--n", "2", "--lambda", "1,0", "w[3,2]"],
    ["quotient-mul", "--n", "2", "--lambda", "1,0", "T[r]", "T[s1]"],
    ["quotient-mul", "--n", "3", "--lambda", "1,1,0", "T[s0]", "X1"],
    ["canonical", "--n", "2", "--max-length", "x"],
    ["oracle", "hecke", "--n", "2"],
)
_OUT_OF_RANGE = (
    ["canonical", "--n", "2", "--max-length", "-1"],
    ["canonical", "--n", "3", "--max-length", "-2", "--lambda", "1,0,0"],
    ["oracle", "hecke", "--n", "5", "--q", "2"],
    ["oracle", "hecke", "--n", "2", "--q", "5"],
    ["oracle", "bicommutant", "--n", "2", "--d", "6", "--q", "2"],
    ["oracle", "lift", "--n", "7", "--d", "2", "--q", "2"],
)


def cli_pool() -> list[tuple[list[str], int]]:
    """The fixed request pool: (argv, expected exit code) pairs."""
    rng = random.Random(CLI_POOL_SEED)
    pool = []
    for _ in range(CLI_POOL_SIZE):
        roll = rng.random()
        if roll < 0.08:
            pool.append((list(rng.choice(_BAD_INPUT)), 2))
        elif roll < 0.1:
            pool.append((list(rng.choice(_OUT_OF_RANGE)), 3))
        else:
            pool.append((_valid_request(rng), 0))
    return pool


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in process, stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


def cli_ok(code: int, stdout: str, expect: int) -> bool:
    """Exit code as expected, and nothing on stdout after an error exit."""
    return code == expect and (code == 0 or stdout == "")


def _cli_op(index: int, argv: list[str], expect: int) -> Op:
    return Op(str(index), shlex.join(argv), lambda: run_cli(argv), expect)


def cli_outcome(op: Op, result) -> tuple[bool, str]:
    code, stdout = result
    return cli_ok(code, stdout, op.expect), sha("%d\n%s" % (code, stdout))


def cli_universe() -> list[Op]:
    return [_cli_op(i, argv, expect) for i, (argv, expect) in enumerate(cli_pool())]


def cli_inputs(seed: int) -> list[Op]:
    pool = cli_universe()
    return [pool[i] for i in random.Random(seed).sample(range(len(pool)), CLI_REQUESTS)]


# -- registry -----------------------------------------------------------------

WORKLOADS = {
    "kl_sweep": (kl_universe, kl_inputs, kl_outcome),
    "oracle_sweep": (oracle_universe, oracle_inputs, oracle_outcome),
    "cli_mix": (cli_universe, cli_inputs, cli_outcome),
}


def inputs_digest(workload: str) -> str:
    """Hash of the universe and of the default seed's operation list, so a
    change to input generation cannot pass silently."""
    universe, inputs, _ = WORKLOADS[workload]
    lines = [op.desc for op in universe()] + ["--"]
    lines += ["%d %s" % (op.expect, op.desc) for op in inputs(DEFAULT_SEED)]
    return sha("\n".join(lines))
