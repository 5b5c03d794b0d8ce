"""Element-expression grammar: accepted forms, rejections, round-trips."""

import random

import pytest

from affhecke import hecke, parsing, weyl
from affhecke.errors import ElementParseError, ResourceLimitError
from affhecke.laurent import LaurentPoly

V = LaurentPoly.monomial(1)


def test_word_atom():
    got = parsing.parse_element(2, "T[s1 s0 r-]")
    want = hecke.t_basis(weyl.Word.parse(2, "s1 s0 r-").to_perm())
    assert got == want


def test_window_atom():
    got = parsing.parse_element(2, "T(w[-1,2])")
    assert got == hecke.t_basis(weyl.AffinePerm(2, (-1, 2)))


def test_word_and_window_atoms_agree():
    word = weyl.Word.parse(2, "s1 s0 r-")
    window = ",".join(str(x) for x in word.to_perm().window)
    assert parsing.parse_element(2, "T[s1 s0 r-]") == parsing.parse_element(
        2, "T(w[%s])" % window)


def test_empty_word_is_the_unit():
    assert parsing.parse_element(2, "T[]") == hecke.one(2)


def test_positive_generator_powers():
    got = parsing.parse_element(3, "X1^2*X3")
    x1 = hecke.x_element(3, 1)
    assert got == x1 * x1 * hecke.x_element(3, 3)


def test_scalar_coefficient():
    got = parsing.parse_element(2, "(v^-2-1)*T[s1]")
    want = hecke.t_basis(weyl.AffinePerm.s(2, 1)).scale(
        LaurentPoly({-2: 1, 0: -1}))
    assert got == want


def test_negative_power_of_basis_term():
    s1 = weyl.AffinePerm.s(2, 1)
    assert parsing.parse_element(2, "T[s1]^-1") == hecke.invert_t(s1)
    assert parsing.parse_element(2, "T[s1]^-1 * T[s1]") == hecke.one(2)


def test_negative_scalar_power():
    got = parsing.parse_element(2, "v^-3")
    assert got == hecke.one(2).scale(LaurentPoly.monomial(-3))


def test_sum_difference_and_sign_stacking():
    s1 = hecke.t_basis(weyl.AffinePerm.s(2, 1))
    assert parsing.parse_element(2, "T[s1] - T[s1]").is_zero
    assert parsing.parse_element(2, "--T[s1]") == s1
    assert parsing.parse_element(2, "2*T[s1] - T[s1]") == s1


def test_parenthesized_subexpression():
    got = parsing.parse_element(2, "(T[s1] + T[]) * v")
    want = (hecke.t_basis(weyl.AffinePerm.s(2, 1)) + hecke.one(2)).scale(V)
    assert got == want


@pytest.mark.parametrize("bad", [
    "T[s1",            # unterminated word bracket
    "junk",
    "T[s1] + + T[s1]",
    "(v + 1",          # unbalanced parens
    "T[s1])",          # trailing tokens
    "X0",              # generator index range
    "X5",
    "T(w[1,1])",       # window is not a permutation
    "T(w[1,,2])",      # empty window entry
    "T(w[a,2])",       # window entry is not an integer
    "T[s9]",           # letter outside the rank
    "T[s1]^v",         # exponent must be an integer
    "X2^-1",           # inverse needs a single-term base
])
def test_rejected_expressions(bad):
    with pytest.raises(ElementParseError):
        parsing.parse_element(3 if bad.startswith("X5") else 2, bad)


def test_negative_power_needs_unit_coefficient():
    with pytest.raises(ElementParseError):
        parsing.parse_element(2, "(2*T[s1])^-1")


def test_exponent_cap():
    cap = parsing.MAX_EXPONENT
    for k in (cap, -cap):
        assert parsing.parse_element(2, "T[r]^%d" % k) == hecke.t_basis(weyl.AffinePerm.rho(2, k))
    # 5000 digits is past what int() converts from text
    for k in (cap + 1, -cap - 1, 99999999, "9" * 5000):
        with pytest.raises(ResourceLimitError):
            parsing.parse_element(2, "T[r]^%s" % k)
    with pytest.raises(ResourceLimitError):
        parsing.parse_element(2, "9" * 5000)


def test_window_and_partition_entry_cap():
    # the entries of windows, window atoms and partitions are read like
    # every other integer: 5000 digits is too long for int(), not malformed
    huge = "9" * 5000
    for read in (lambda: parsing.parse_window("w[%s,1]" % huge), lambda: parsing.parse_partition("%s,0" % huge),
                 lambda: parsing.parse_element(2, "T(w[1,%s])" % huge)):
        with pytest.raises(ResourceLimitError):
            read()


def test_parse_window():
    assert parsing.parse_window("w[-1,2]") == (-1, 2)
    assert parsing.parse_window(" w[ 0 , 1 , 5 ] ") == (0, 1, 5)
    for bad in ["[-1,2]", "w[]", "w[1;2]", "junk"]:
        with pytest.raises(ElementParseError):
            parsing.parse_window(bad)


def test_parse_perm():
    assert parsing.parse_perm(2, "w[-1,2]") == weyl.AffinePerm(2, (-1, 2))
    with pytest.raises(ElementParseError):
        parsing.parse_perm(2, "w[1,1]")
    with pytest.raises(ElementParseError):
        parsing.parse_perm(3, "w[-1,2]")


def test_parse_partition():
    assert parsing.parse_partition("1,0") == (1, 0)
    assert parsing.parse_partition("-2") == (-2,)
    for bad in ["", "1,,2", "a,b"]:
        with pytest.raises(ElementParseError):
            parsing.parse_partition(bad)


def test_str_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice([2, 3])
        elt = hecke.one(n).scale(0)
        for _ in range(rng.randrange(1, 4)):
            w = weyl.AffinePerm.from_pair(
                tuple(rng.sample(range(1, n + 1), n)),
                tuple(rng.randrange(-2, 3) for _ in range(n)))
            c = LaurentPoly({rng.randrange(-3, 4): rng.randrange(-5, 6)
                             for _ in range(2)})
            elt = elt + hecke.t_basis(w).scale(c)
        assert parsing.parse_element(n, str(elt)) == elt
    assert parsing.parse_element(2, str(hecke.one(2).scale(0))).is_zero


def _charged(run):
    """The result of ``run(charge)`` and the (steps, bits, dry_run) charges it made."""
    charged = []
    return run(lambda *cost: charged.append(cost)), charged


def test_product_cost_bounds():
    s1 = hecke.t_basis(weyl.AffinePerm.s(2, 1))
    # one term times one letter: at most 2^2 steps; coefficients within 3 over
    # exponents 0..-2, so three slots of 3 bits
    _, ((steps, bits, _),) = _charged(lambda charge: hecke.product(s1, s1, charge))
    assert (steps, bits) == (4, 9)
    assert _charged(lambda charge: hecke.product(s1, hecke.zero(2), charge)) == (hecke.zero(2), [])


def _counting(monkeypatch, name):
    """Patch the kernel step ``name`` to record how many terms each call steps."""
    taken = []
    step = getattr(hecke, name)

    def counted(terms, *rest):
        taken.append(len(terms))
        return step(terms, *rest)

    monkeypatch.setattr(hecke, name, counted)
    return taken


@pytest.mark.parametrize("a,b", [
    ("T[s1]+T[s2 s1]+X1", "T[s0 s1 s2 s0]+T[r- s1]"),
    ("T[s0 s1 s2 s0 s1 s2 s0]", "T[s0 s1 s2 s0 s1 s2 s0 s1]"),
    ("X2*T[s1 s0]", "X3+T[s2 s1 s2]"),
])
def test_product_dry_run_bounds_the_kernel_steps(monkeypatch, a, b):
    a, b = parsing.parse_element(3, a), parsing.parse_element(3, b)
    taken = _counting(monkeypatch, "_step")
    _, ((coarse, _, dry_run),) = _charged(lambda charge: hecke.product(a, b, charge))
    dry = dry_run(coarse)
    assert sum(taken) <= dry <= coarse
    assert dry_run(dry) == dry
    assert dry_run(dry - 1) > dry - 1


@pytest.mark.parametrize("n,word", [
    (3, "s0 s1 s2 s0 s1 s2 s0 s1"),
    (3, "r s1 s2 s0 s1 r- s2"),
    (5, "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1"),  # the longest element of S_5
])
def test_inverse_dry_run_bounds_the_inverse_steps(monkeypatch, n, word):
    # T_w^-1 branches at every non-descent, where the product 1*T_w never
    # branches; one dry run bounds both
    w = parsing.parse_element(n, "T[%s]" % word)
    (perm,) = w.terms
    taken = _counting(monkeypatch, "_step_inverse")
    inverse, ((coarse, _, dry_run),) = _charged(lambda charge: hecke.invert_t(perm, charge))
    assert inverse * w == hecke.one(n)
    dry = dry_run(coarse)
    assert sum(taken) <= dry <= coarse


def test_budget_falls_back_to_the_dry_run(monkeypatch):
    a = parsing.parse_element(3, "T[s0 s1 s2 s0 s1 s2 s0 s1]")
    _, ((coarse, _, dry_run),) = _charged(lambda charge: hecke.product(a, a, charge))
    dry = dry_run(coarse)
    assert dry < coarse
    monkeypatch.setattr(parsing, "MAX_PRODUCT_WORK", dry)
    budget = parsing.WorkBudget()
    budget.mul(a, a)
    assert budget.spent == dry
    with pytest.raises(ResourceLimitError, match="letter steps"):
        parsing.WorkBudget().mul(a, a * hecke.t_basis(weyl.AffinePerm.s(3, 0)))


def test_budget_charges_an_inverse_its_own_dry_run(monkeypatch):
    text = "T[s0 s1 s2 s0 s1 s2 s0 s1]^-1"
    (perm,) = parsing.parse_element(3, text[:-3]).terms
    _, ((coarse, _, dry_run),) = _charged(lambda charge: hecke.invert_t(perm, charge))
    dry = dry_run(1 << 20)
    assert dry < coarse
    monkeypatch.setattr(parsing, "MAX_PRODUCT_WORK", dry)
    budget = parsing.WorkBudget()
    parsing.parse_element(3, text, budget)
    assert budget.spent == dry
    monkeypatch.setattr(parsing, "MAX_PRODUCT_WORK", dry - 1)
    with pytest.raises(ResourceLimitError, match="letter steps"):
        parsing.parse_element(3, text)


def test_one_budget_covers_a_whole_request(monkeypatch):
    text = "(T[s1]+T[s2]+T[s0])^8"
    budget = parsing.WorkBudget()
    value = parsing.parse_element(3, text, budget)
    spent = budget.spent
    assert spent > 0
    # the spent budget has no room left; a fresh one fits exactly
    monkeypatch.setattr(parsing, "MAX_PRODUCT_WORK", spent)
    with pytest.raises(ResourceLimitError):
        parsing.parse_element(3, text, budget)
    assert parsing.parse_element(3, text) == value


def test_coefficient_cap(monkeypatch):
    assert parsing.parse_element(2, "(2^32)^32") == hecke.one(2).scale(2**1024)
    monkeypatch.setattr(parsing, "MAX_COEFFICIENT_BITS", 1000)
    with pytest.raises(ResourceLimitError):
        parsing.parse_element(2, "(2^32)^32")
