"""Command line behaviour: frozen outputs, exit codes, JSON hygiene."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from affhecke import HeckeElt, cli, hecke, oracle
from affhecke.parsing import parse_element
from hecke_reference import mul_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_plain(capsys):
    code, out, err = run(capsys, "mul", "--n", "2", "T[s1]", "T[s1]")
    assert code == 0
    assert out == "(v^-2-1)*T[s1] + v^-2*T[]\n"
    assert err == ""


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "--json", "--n", "2", "T[s1]", "T[s1]")
    assert code == 0
    assert out == ('[{"coeffs": {"-2": 1}, "window": [1, 2]}, '
                   '{"coeffs": {"-2": 1, "0": -1}, "window": [2, 1]}]\n')
    json.loads(out)


def test_mul_three_factors(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "T[s1]", "T[s1]^-1", "v")
    assert code == 0
    assert out == "v*T[]\n"


def test_reduce_word(capsys):
    assert run(capsys, "reduce-word", "--n", "3", "w[2,1,3]") == (0, "s1\n", "")
    assert run(capsys, "reduce-word", "--n", "3", "w[1,2,3]") == (0, "e\n", "")


def test_positive_word(capsys):
    code, out, _ = run(capsys, "positive-word", "--n", "2", "w[-1,2]")
    assert (code, out) == (0, "s1 r-\n")
    code, out, _ = run(capsys, "positive-word", "--json", "--n", "2", "w[-1,2]")
    assert (code, out) == (0, '{"count": 2, "letters": ["s1", "r-"]}\n')


def test_canonical_unit_slice(capsys):
    code, out, _ = run(capsys, "canonical", "--n", "3", "--max-length", "0")
    assert code == 0
    assert out == ('{"terms": [{"coeffs": {"0": 1}, "window": [1, 2, 3]}], '
                   '"window": [1, 2, 3]}\n')


def test_canonical_tsv(capsys):
    code, out, _ = run(capsys, "canonical", "--tsv", "--n", "2",
                       "--max-length", "1", "--min-degree", "-1")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert all(len(row) == 3 for row in rows)
    # one index column per basis element, term rows grouped underneath
    assert [row[0] for row in rows] == [
        "1,2", "0,1", "2,1", "2,1", "-1,2", "-1,2", "1,0", "1,0"]
    assert rows[0] == ["1,2", "1,2", "1"]
    assert rows[4] == ["-1,2", "-1,2", "v"]


def test_canonical_json_is_deterministic(capsys):
    first = run(capsys, "canonical", "--json", "--n", "2", "--max-length", "2",
                "--min-degree", "-2")
    second = run(capsys, "canonical", "--json", "--n", "2", "--max-length", "2",
                 "--min-degree", "-2")
    assert first == second
    assert first[0] == 0
    json.loads(first[1])


def test_canonical_quotient_mode(capsys):
    code, out, _ = run(capsys, "canonical", "--n", "2", "--lambda", "1,0",
                       "--max-length", "1", "--min-degree", "-1")
    assert code == 0
    windows = [json.loads(line)["window"] for line in out.splitlines()]
    assert windows == [[1, 2], [2, 1]]


def test_ideal_member(capsys):
    code, out, _ = run(capsys, "ideal-member", "--n", "2", "--lambda", "1,0",
                       "w[-1,2]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "ideal-member", "--n", "2", "--lambda", "1,0",
                       "w[2,1]")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "ideal-member", "--json", "--n", "2",
                       "--lambda", "1,0", "w[-1,2]")
    assert (code, out) == (0, '{"member": true, "window": [-1, 2]}\n')


def test_quotient_mul(capsys):
    code, out, _ = run(capsys, "quotient-mul", "--n", "2", "--lambda", "1,0",
                       "T[s1]", "T[s1]")
    assert (code, out) == (0, "(v^-2-1)*T[s1] + v^-2*T[]\n")
    code, out, _ = run(capsys, "quotient-mul", "--n", "2", "--lambda", "1,0",
                       "X1", "T[s1]")
    assert (code, out) == (0, "0\n")


def test_oracle_hecke(capsys):
    code, out, _ = run(capsys, "oracle", "hecke", "--json", "--n", "2",
                       "--q", "2")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["claim", "dims", "mismatches", "status"]
    assert report["status"] == "pass"
    assert report["mismatches"] == []


def test_oracle_lift(capsys):
    code, out, _ = run(capsys, "oracle", "lift", "--n", "2", "--d", "2",
                       "--q", "2", "--trials", "3", "--seed", "7")
    assert code == 0
    assert out.splitlines()[1] == "status: pass"


@pytest.mark.parametrize("argv", [
    ("oracle", "--json", "hecke", "--n", "2", "--q", "2"),
    ("oracle", "--seed", "5", "lift", "--n", "2", "--d", "2", "--q", "2"),
    ("mul", "--n", "2", "--seed", "3", "1"),
])
def test_flags_off_their_subcommand_exit_2(capsys, argv):
    # --json belongs to each subcommand, --seed to oracle lift alone; the
    # oracle group takes neither, so no check runs with a flag dropped
    code, out, err = usage_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error:" in err


def test_lift_seed_reaches_the_trials(capsys, monkeypatch):
    seeds = []

    def recording(n, d, q, trials, seed):
        seeds.append(seed)
        return oracle.Report(claim="demo", status="pass", dims={}, mismatches=[])

    monkeypatch.setattr(oracle, "lift_trials", recording)
    for seed in ((), ("--seed", "7")):
        assert run(capsys, "oracle", "lift", "--n", "2", "--d", "2", "--q", "2", *seed)[0] == 0
    assert seeds == [0, 7]


@pytest.mark.parametrize("extra,out", [((), ""), (("--json",), "[]\n"), (("--tsv",), ""),
                                      (("--json", "--lambda", "1,0"), "[]\n")])
def test_canonical_above_degree_0_prints_no_record(capsys, extra, out):
    # every positive element has degree <= 0
    assert run(capsys, "canonical", "--n", "2", "--max-length", "1", "--min-degree", "1", *extra) == (0, out, "")
    code, out, err = run(capsys, "canonical", "--n", "2", "--max-length", "-1", "--min-degree", "1", *extra)
    assert (code, out) == (3, "")
    assert "nonnegative" in err


def test_bad_expression_exits_2(capsys):
    code, out, err = run(capsys, "mul", "--json", "--n", "2", "T[junk]")
    assert code == 2
    assert out == ""          # no partial JSON on failure
    assert err.startswith("error:")


def test_bad_window_exits_2(capsys):
    code, out, err = run(capsys, "ideal-member", "--n", "2", "--lambda", "1,0",
                         "w[1,1]")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_resource_guard_exits_3(capsys):
    code, out, err = run(capsys, "oracle", "hecke", "--n", "2", "--q", "5")
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    code, out, err = run(capsys, "oracle", "bicommutant", "--n", "5", "--d",
                         "2", "--q", "2")
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv", [
    ("oracle", "hecke", "--n", "4", "--q", "3"),
    ("oracle", "bicommutant", "--n", "4", "--d", "4", "--q", "2"),
])
def test_oracle_work_guard_exits_3_before_any_enumeration(capsys, argv):
    # X x X x X at 2,080 complete flags, Y x Y x X at 1,969 chains: hours of work
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "middle points" in err
    assert time.perf_counter() - start < 5


def test_lift_trials_above_the_cap_exit_3_before_any_table(capsys):
    # about 37 hours of trials at this setting
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "lift", "--n", "2", "--d", "2", "--q", "2",
                         "--trials", "1000000000")
    assert (code, out) == (3, "")
    assert "lift trials" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv", [
    ("mul", "--n", "1000000", "1"),
    ("mul", "--n", "100000000", "1"),
    ("reduce-word", "--n", "1001", "w[1]"),
    ("canonical", "--n", "1000000", "--max-length", "0"),
    ("oracle", "hecke", "--n", "1000000", "--q", "2"),
])
def test_ranks_past_the_length_budget_exit_3_before_any_work(capsys, argv):
    # one length at rank n visits n(n-1)/2 pairs; 1001 * 1000 / 2 > 500,000
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "pairs" in err
    assert time.perf_counter() - start < 2


def test_rank_1000_is_admitted(capsys):
    code, out, err = run(capsys, "mul", "--n", "1000", "1")
    assert (code, out, err) == (0, "T[]\n", "")


@pytest.mark.parametrize("argv", [
    ("reduce-word", "--n", "2", "w[100000001,-100000000]"),
    ("positive-word", "--n", "2", "w[-199999998,1]"),
    ("mul", "--n", "2", "T(w[100000001,-100000000])"),
])
def test_long_reduced_words_exit_3_before_the_walk(capsys, argv):
    # each reduced word has about 10^8 letters
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "letter steps" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv", [
    ("reduce-word", "--n", "2", "w[2000001,2000002]"),
    ("reduce-word", "--n", "2", "--json", "w[200000001,200000002]"),
    ("mul", "--n", "2", "--json", "T(w[1,2])*T(w[20000001,20000002])"),
    ("mul", "--n", "2", "--json", "T(w[20000001,20000002])^-1"),
])
def test_rho_letters_count_toward_the_budget(capsys, argv):
    # each word is a power of rho: length 0, but millions of letters
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "letter steps" in err
    assert time.perf_counter() - start < 2


def test_long_product_in_json_names_no_word(capsys):
    code, out, err = run(capsys, "mul", "--n", "2", "--json", "T(w[100000001,-100000000])")
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"coeffs": {"0": 1}, "window": [100000001, -100000000]}]


def test_failed_verification_exits_1(capsys, monkeypatch):
    bad = oracle.Report(claim="demo", status="fail", dims={},
                        mismatches=[{"where": "demo"}])
    monkeypatch.setattr(oracle, "verify_hecke_iso", lambda n, q: bad)
    code, out, _ = run(capsys, "oracle", "hecke", "--n", "2", "--q", "2")
    assert code == 1
    assert "status: fail" in out


@pytest.mark.usefixtures("fresh_shared_contexts", "one_flag_moved")
def test_uneven_fibers_exit_4(capsys):
    # a broken forgetting map is an internal invariant, not an input error;
    # the graph audit of the pushforward sees it before the fiber sizes
    code, out, err = run(capsys, "oracle", "lift", "--n", "3", "--d", "2", "--q", "2", "--trials", "1")
    assert code == 4
    assert out == ""
    assert "forgetting map" in err


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_rank_below_one_exits_2(capsys):
    code, out, err = usage_exit(capsys, "mul", "--n", "0", "T[]")
    assert (code, out) == (2, "")
    assert "error: --n must be at least 1" in err
    code, out, _ = usage_exit(capsys, "canonical", "--n", "-1", "--max-length", "1")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [
    ("mul", "--n", "1", "T[s0]"),
    ("mul", "--n", "1", "T[s0]^-1"),
    ("mul", "--n", "1", "X1*T[s0]"),
    ("quotient-mul", "--n", "1", "--lambda", "1", "T[s0]", "X1"),
])
def test_rank_one_has_no_coxeter_letters(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "s0" in err and "Traceback" not in err


def test_negative_trials_exit_2(capsys):
    code, out, err = usage_exit(capsys, "oracle", "lift", "--n", "2", "--d", "2",
                                "--q", "2", "--trials", "-1")
    assert (code, out) == (2, "")
    assert "error: --trials must be at least 1" in err


def test_an_expression_starting_with_a_minus_needs_a_double_dash(capsys):
    # argparse reads a leading "-" as an option; "--" ends the options
    code, out, _ = usage_exit(capsys, "mul", "--n", "2", "-T[s1]")
    assert (code, out) == (2, "")
    assert run(capsys, "mul", "--n", "2", "--", "-T[s1]") == (0, "-T[s1]\n", "")


def test_huge_exponent_exits_3(capsys):
    code, out, err = run(capsys, "mul", "--n", "2", "T[s1]^99999999")
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    code, out, _ = run(capsys, "mul", "--n", "2", "T[s1]^-99999999")
    assert (code, out) == (3, "")


HUGE = "9" * 5000  # past what int() converts from text


@pytest.mark.parametrize("argv", [
    ("mul", "--n", "2", "T(w[%s,1])" % HUGE),
    ("ideal-member", "--n", "2", "--lambda", "%s,0" % HUGE, "w[1,2]"),
    ("canonical", "--n", "2", "--max-length", "1", "--lambda", "%s,0" % HUGE),
    ("quotient-mul", "--n", "2", "--lambda", "%s,0" % HUGE, "T[s1]", "T[s1]"),
    ("reduce-word", "--n", "2", "w[%s,1]" % HUGE),
])
def test_huge_integer_in_text_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_canonical_caps_exit_3_before_any_work(capsys):
    for argv, cause in (
        (("--max-length", "40", "--min-degree", "-20"), "exceeds cap 24"),
        (("--max-length", "10", "--min-degree", "-20"), "candidates"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "canonical", "--n", "4", *argv)
        assert (code, out) == (3, "")
        assert cause in err
        assert time.perf_counter() - start < 5


def test_threads_is_an_unknown_option(capsys):
    code, out, err = usage_exit(capsys, "mul", "--n", "2", "--threads", "0", "T[s1]")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --threads" in err


@pytest.mark.parametrize("argv,names", [
    (("--help",), ["mul", "reduce-word", "positive-word", "canonical", "ideal-member", "quotient-mul",
                   "oracle"]),
    (("mul", "--help"), ["--json", "--n", "EXPR"]),
    (("oracle", "lift", "--help"), ["--json", "--n", "--d", "--q", "--trials", "--seed"]),
    (("oracle", "lift", "-h"), ["--json", "--n", "--d", "--q", "--trials", "--seed"]),
])
def test_help_prints_the_usage(capsys, argv, names):
    code, out, err = usage_exit(capsys, *argv)
    assert (code, err) == (0, "")
    usage = out.splitlines()[0]
    assert usage.startswith("usage: affhecke")
    assert all(name in usage for name in names)


@pytest.mark.parametrize("argv,out", [
    (("canonical", "--n", "2", "--max", "0"), '{"terms": [{"coeffs": {"0": 1}, "window": [1, 2]}], '
                                               '"window": [1, 2]}\n'),
    (("quotient-mul", "--n", "2", "--lambda", "1,0", "T[s1]", "--json", "T[s1]"),
     '{"spec": [[1, 0]], "terms": [{"coeffs": {"-2": 1}, "window": [1, 2]}, '
     '{"coeffs": {"-2": 1, "0": -1}, "window": [2, 1]}]}\n'),
    (("mul", "T[s1]", "--n", "2"), "T[s1]\n"),
    (("mul", "--n=2", "T[s1]"), "T[s1]\n"),
    (("mul", "--n", "2", "-1"), "-T[]\n"),  # a negative number is a value
    (("mul", "--n", "3", "--n", "2", "T[s1]"), "T[s1]\n"),  # the last value wins
])
def test_command_lines_read_as_argparse_read_them(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv,cause", [
    (("canonical", "--n", "2", "--m", "1"), "ambiguous option: --m could match --max-length, --min-degree"),
    (("mul", "--n", "2", "T[s1]", "--json", "T[s1]"), "unrecognized arguments: T[s1]"),
    (("mul", "--n", "--json", "T[s1]"), "argument --n: expected one argument"),
    (("mul", "--json=1", "--n", "2", "T[s1]"), "ignored explicit argument '1'"),
    (("canonical", "--n", "2", "--max-length", "0", "--"), "unrecognized arguments: --"),
])
def test_misread_command_lines_exit_2(capsys, argv, cause):
    code, out, err = usage_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert cause in err


def test_lambda_values_gather_in_order():
    argv = ["canonical", "--n", "2", "--max-length", "1", "--lambda", "1,0", "--lambda=0,0"]
    assert cli.read_argv(argv)[1].lambdas == ["1,0", "0,0"]
    assert cli.read_argv(argv[:5])[1].lambdas == []


def test_usage_errors(capsys):
    with pytest.raises(SystemExit):
        cli.main(["mul", "--n", "2"] )  # missing expression
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    with pytest.raises(SystemExit):
        cli.main(["mul", "--n", "2", "--threads", "0", "T[]"])
    capsys.readouterr()


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "affhecke", "mul", "--n", "2", "T[s1]", "T[s1]"],
        capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == b"(v^-2-1)*T[s1] + v^-2*T[]\n"


def fresh_process(*argv):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "affhecke", *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode()


def test_shared_parser_keeps_requests_apart(capsys):
    # --lambda appends to a default list; the second request must not see it
    quotient = ("canonical", "--n", "3", "--max-length", "2", "--min-degree", "-1",
                "--lambda", "1,0,0")
    full = ("canonical", "--n", "3", "--max-length", "2", "--min-degree", "-1")
    in_process = [run(capsys, *quotient)[:2], run(capsys, *full)[:2]]
    assert in_process == [fresh_process(*quotient), fresh_process(*full)]
    assert in_process[0] != in_process[1]
    code, out, err = usage_exit(capsys, "canonical", "--n", "3", "--lambda", "1,0,0")
    assert (code, out) == (2, "")
    assert "--max-length" in err
    assert run(capsys, *full)[:2] == in_process[1]


def test_product_work_guard_exits_3_before_the_product(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", "--n", "3",
                         "(T[s1]+T[s2]+T[s0])^32", "(T[s1]+T[s2]+T[s0])^20")
    assert (code, out) == (3, "")
    assert "letter steps" in err
    assert time.perf_counter() - start < 5
    code, out, err = run(capsys, "quotient-mul", "--n", "3", "--lambda", "9,0,0",
                         "(T[s1]+T[s2]+T[r-])^16", "(T[s1]+T[s2]+T[r-])^16")
    assert (code, out) == (3, "")
    assert "letter steps" in err


def test_long_word_square_fits_by_its_dry_run(capsys):
    # the coarse estimate of T_w T_w at l(w) = 19 is 2^20 steps, past the
    # budget; the dry run counts what the product really takes
    word = "T[%s]" % " ".join(["s0 s1 s2"] * 6 + ["s0"])
    code, out, err = run(capsys, "mul", "--n", "3", "--json", word, word)
    assert (code, err) == (0, "")
    w = parse_element(3, word)
    assert HeckeElt.from_json(3, json.loads(out)) == mul_reference(w, w)


def test_long_inverse_is_charged_its_inverse_steps(capsys):
    # T_w^-1 at l(w) = 19 fits by its dry run; at the longest element of
    # S_10 (l = 45) the inverse steps fill S_10's 3.6M windows, so it exits 3
    word = "T[%s]" % " ".join(["s0 s1 s2"] * 6 + ["s0"])
    code, out, err = run(capsys, "mul", "--n", "3", "--json", word + "^-1", word)
    assert (code, err) == (0, "")
    assert HeckeElt.from_json(3, json.loads(out)) == hecke.one(3)
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", "--n", "10", "T(w[10,9,8,7,6,5,4,3,2,1])^-1", "1")
    assert (code, out) == (3, "")
    assert "letter steps" in err
    assert time.perf_counter() - start < 5


def test_coefficient_guard_exits_3_instead_of_an_unprintable_integer(capsys):
    # 2^32768 has more digits than the interpreter turns into text
    code, out, err = run(capsys, "mul", "--n", "2", "((2^32)^32)^32")
    assert (code, out) == (3, "")
    assert "bits" in err
    assert run(capsys, "mul", "--n", "2", "(2^32)^32")[0] == 0
