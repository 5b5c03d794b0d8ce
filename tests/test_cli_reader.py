"""``cli.read_argv`` against the argparse parser in ``cli_reference``.

On every command line both readers accept or both exit with the same
code, and on an accepted line they agree on the handler and on every
value.  The lines are the bench's request pool and generated lines drawn
from the command table.  Classes of lines that argparse itself reads
differently across Python versions are not drawn; the reader's reading of
each is pinned below instead.
"""

import importlib.util
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affhecke import cli
from cli_reference import build_parser

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
REFERENCE = build_parser()


def reading(read, argv):
    """``read``'s result, or ("exit", code) when it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return read(list(argv))
        except SystemExit as exc:
            return "exit", exc.code


def reference(argv):
    namespace = vars(REFERENCE.parse_args(argv))
    handler = namespace.pop("func")
    namespace.pop("command")
    namespace.pop("check", None)
    return handler, namespace


def reader(argv):
    path, args = cli.read_argv(argv)
    return cli.COMMANDS[path][0], vars(args)


def assert_same_reading(argv):
    assert reading(reader, argv) == reading(reference, argv), argv


def dash_digit_word(argv) -> bool:
    """Whether a word starts with a dash and a digit without being a plain
    negative number, as "-1,0" does: older argparse releases read such a
    word as a flag, newer ones as a value."""
    return any(re.match(r"-\.?\d", word) and not cli._NUMBER.match(word) for word in argv)


def test_the_bench_pool_reads_as_with_argparse():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = [argv for argv, _ in workloads.cli_pool()]
    assert len(pool) == workloads.CLI_POOL_SIZE
    skipped = {tuple(argv) for argv in pool if dash_digit_word(argv)}
    assert skipped == {("ideal-member", "--n", "2", "--lambda", "-1,0", "w[1,2]")}
    for argv in pool:
        if not dash_digit_word(argv):
            assert_same_reading(argv)


# values as words; the last ones in each list look like flags or are not ints
INT_WORDS = ("0", "1", "2", "3", "-1", "-2", "+2", " 3", "1_0") * 3 + ("x", "", "-2.5", "-.5", "-x")
TEXT_WORDS = ("T[s1]", "X1", "w[2,1]", "1,0", "-1", "-2.5", "-.5", "-", "", "T[s1] + v", "-T[s1] + v",
              "--json x") * 3 + ("-T[s1]", "-v", "-x")
STRAY_WORDS = ("--bogus", "--threads", "--seed", "--tsv", "--lambda", "--max-length", "--n=",
               "--lambda=", "--=", "-x", "-X1", "---")
LEAVES = sorted(path for path, entry in cli.COMMANDS.items() if entry[0])


@st.composite
def command_lines(draw):
    """A command and its options in any order, as whole words, ``=`` forms
    or prefixes, with values and positionals that may look like flags or
    negative numbers, perhaps after ``--``; then perhaps cut short,
    stripped of one word or given a stray flag."""
    path = draw(st.sampled_from(LEAVES))
    _, _, options, positionals = cli.COMMANDS[path]
    groups, words = [], []
    for flag, _, kind, default, _ in options:
        for _ in range(draw(st.sampled_from((1, 1, 1, 2, 0) if default is cli.REQUIRED else (0, 1, 2)))):
            spelling = flag[:draw(st.integers(3, len(flag)))]  # a prefix keeps one letter
            if kind is bool:
                groups.append([spelling] if draw(st.integers(0, 9)) else [spelling + "=x"])
            else:
                value = draw(st.sampled_from(INT_WORDS if kind is int else TEXT_WORDS))
                groups.append(draw(st.sampled_from(([spelling, value], [spelling + "=" + value]))))
    for _, _, many in positionals:
        count = draw(st.sampled_from((1, 2, 3, 0) if many else (1, 1, 1, 1, 2, 0)))
        words += [draw(st.sampled_from(TEXT_WORDS)) for _ in range(count)]
    dash = draw(st.sampled_from(("none", "none", "before positionals", "anywhere")))
    if dash != "before positionals":
        groups += [[word] for word in words]
    argv = [word for group in draw(st.permutations(groups)) for word in group]
    if dash == "before positionals":
        argv += ["--"] + words
    elif dash == "anywhere":
        argv.insert(draw(st.integers(0, len(argv))), "--")
    argv = list(path) + argv
    damage = draw(st.sampled_from(("none",) * 6 + ("cut", "drop", "stray")))
    at = draw(st.integers(0, len(argv)))
    if damage == "cut":
        argv = argv[:at]
    elif damage == "drop":
        argv = argv[:at] + argv[at + 1:]
    elif damage == "stray":
        argv.insert(at, draw(st.sampled_from(STRAY_WORDS)))
    return argv


@settings(deadline=None, max_examples=1500, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_generated_lines_read_as_with_argparse(argv):
    assert_same_reading(argv)


# -- classes argparse reads differently across Python 3.10-3.13 ----------------


def test_a_double_dash_before_the_command_is_no_command(capsys):
    # 3.12.3 and later drop it and read "mul"; earlier versions refuse it
    with pytest.raises(SystemExit) as exc:
        cli.read_argv(["--", "mul", "--n", "2", "T[s1]"])
    assert exc.value.code == 2
    assert "required: COMMAND" in capsys.readouterr().err


def test_a_second_double_dash_is_a_value():
    # before 3.12.3 argparse drops it from the last positional, leaving []
    path, args = cli.read_argv(["quotient-mul", "--n", "2", "--lambda", "1,0", "--", "T[s1]", "--"])
    assert (args.left, args.right) == ("T[s1]", "--")


@pytest.mark.parametrize("argv", [
    ["ideal-member", "--n", "2", "--lambda", "-1,0", "w[1,2]"],
    ["mul", "--n", "2", "-1x"],
    ["canonical", "--n", "2", "--max-length", "-1e3"],
])
def test_a_dash_digit_word_that_is_no_number_is_a_flag(capsys, argv):
    # "-1" and "-2.5" are values everywhere; newer argparse releases also
    # read "-1,0", "-1x" and "-1e3" as values, older ones as unknown flags
    assert dash_digit_word(argv)
    with pytest.raises(SystemExit) as exc:
        cli.read_argv(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: -1" in capsys.readouterr().err


def test_help_given_a_value_is_a_usage_error(capsys):
    # argparse refuses the value, or raises IndexError on "-h=" in releases
    # that predate its guard against an empty one
    for word in ("-h=", "-h=x", "--help=x", "--he="):
        with pytest.raises(SystemExit) as exc:
            cli.read_argv(["mul", word])
        assert exc.value.code == 2
    assert "ignored explicit argument" in capsys.readouterr().err
