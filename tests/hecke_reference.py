"""Reference implementations of the T-basis letter steps, the product, the
inverse T_w^-1, the Bernstein elements X_i and their inverses by their
defining recursion, the bar involution, the canonical-basis recursion and
the cost a request budget charges for a product or an inverse, and the
readers of the JSON forms that ``HeckeElt.to_json`` and
``LaurentPoly.to_json`` write (the package writes JSON, never reads it).

These are the straightforward per-term forms over AffinePerm keys and
LaurentPoly coefficients: a letter step composes every window with the
letter of ``weyl_reference``, decides a descent by a drop in length and
multiplies its coefficient by a LaurentPoly, a product runs one
such step per letter of a reduced word of each right-hand term, an inverse
costs one product per letter, and the bar involution re-adds the whole
running sum per term; the canonical recursion combines whole elements by
product, scaling and subtraction.  The package computes the same values in
its packed kernel; the differential tests compare the two.
"""

from affhecke import HeckeElt, LaurentPoly, one
from affhecke.laurent import slot_width
from affhecke.weyl import RHO, RHO_INV, AffinePerm
from weyl_reference import (
    letter_perm_reference,
    reduced_word_reference,
    right_descent_reference,
    simple_reflection_reference,
)

Q = LaurentPoly({-2: 1})
Q_MINUS_ONE = LaurentPoly({-2: 1, 0: -1})
V2 = LaurentPoly({2: 1})
V2_MINUS_ONE = LaurentPoly({2: 1, 0: -1})


def _acc(d: dict, w: AffinePerm, c: LaurentPoly) -> None:
    s = d.get(w)
    s = c if s is None else s + c
    if s:
        d[w] = s
    else:
        d.pop(w, None)


def right_letter_reference(a: HeckeElt, letter) -> HeckeElt:
    """a T_letter: T_{ws}, or (q-1) T_w + q T_{ws} at a right descent."""
    n = a.n
    out: dict = {}
    if letter in (RHO, RHO_INV):
        step = AffinePerm.rho(n, 1 if letter == RHO else -1)
        for w, c in a.terms.items():
            out[w.compose(step)] = c
        return HeckeElt(n, out)
    si = simple_reflection_reference(n, letter)
    for w, c in a.terms.items():
        ws = w.compose(si)
        if ws.length() < w.length():
            _acc(out, w, c * Q_MINUS_ONE)
            _acc(out, ws, c * Q)
        else:
            _acc(out, ws, c)
    return HeckeElt(n, out)


def right_letter_inverse_reference(a: HeckeElt, letter) -> HeckeElt:
    """a T_letter^-1: T_{ws} at a right descent, else v^2 T_{ws} + (v^2-1) T_w."""
    if letter in (RHO, RHO_INV):
        return right_letter_reference(a, RHO_INV if letter == RHO else RHO)
    n = a.n
    out: dict = {}
    si = simple_reflection_reference(n, letter)
    for w, c in a.terms.items():
        ws = w.compose(si)
        if ws.length() < w.length():
            _acc(out, ws, c)
        else:
            _acc(out, ws, c * V2)
            _acc(out, w, c * V2_MINUS_ONE)
    return HeckeElt(n, out)


def mul_reference(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """a b, one letter step per letter of a reduced word of each term of b."""
    total: dict = {}
    for w, c in b.terms.items():
        cur = a
        for letter in reduced_word_reference(w).letters:
            cur = right_letter_reference(cur, letter)
        for u, cu in cur.terms.items():
            _acc(total, u, cu * c)
    return HeckeElt(a.n, total)


def invert_t_reference(w: AffinePerm) -> HeckeElt:
    """T_w^-1 via T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1), one product per letter."""
    n = w.n
    out = one(n)
    for letter in reversed(reduced_word_reference(w).letters):
        if letter == RHO:
            out = right_letter_reference(out, RHO_INV)
        elif letter == RHO_INV:
            out = right_letter_reference(out, RHO)
        else:
            si = simple_reflection_reference(n, letter)
            inv = HeckeElt(n, {si: V2, AffinePerm.identity(n): V2_MINUS_ONE})
            out = mul_reference(out, inv)
    return out


def _x1_term(n: int) -> AffinePerm:
    """s_1 ... s_{n-1} rho^-1, composed letter by letter."""
    w = AffinePerm.identity(n)
    for letter in [*range(1, n), RHO_INV]:
        w = w.compose(letter_perm_reference(n, letter))
    return w


def x_element_reference(n: int, i: int) -> HeckeElt:
    """X_i by its defining recursion: X_1 = v^{1-n} T_{s_1 ... s_{n-1} rho^-1}
    and X_{j+1} = v^2 T_j^-1 X_j T_j^-1."""
    x = HeckeElt(n, {_x1_term(n): LaurentPoly({1 - n: 1})})
    for j in range(1, i):
        t_inv = invert_t_reference(simple_reflection_reference(n, j))
        x = mul_reference(mul_reference(t_inv, x), t_inv).scale(V2)
    return x


def x_element_inverse_reference(n: int, i: int) -> HeckeElt:
    """X_i^-1 by the same recursion inverted: X_1^-1 = v^{n-1} T_{s_1 ... s_{n-1} rho^-1}^-1
    and X_{j+1}^-1 = v^-2 T_j X_j^-1 T_j."""
    x = invert_t_reference(_x1_term(n)).scale(LaurentPoly({n - 1: 1}))
    for j in range(1, i):
        t = HeckeElt(n, {simple_reflection_reference(n, j): LaurentPoly({0: 1})})
        x = mul_reference(mul_reference(t, x), t).scale(Q)
    return x


def bar_involution_reference(a: HeckeElt) -> HeckeElt:
    """v -> v^-1 and T_w -> (T_{w^-1})^-1, one full inverse per term."""
    out = HeckeElt(a.n)
    for w, c in a.terms.items():
        out = out + invert_t_reference(w.inverse()).scale(c.bar())
    return out


def canonical_value_reference(w: AffinePerm, memo: dict) -> HeckeElt:
    """b_w by the Kazhdan-Lusztig recursion in HeckeElt arithmetic.

    b_{w rho^z} = b_w T_{rho^z}; for a right descent s of w = u s,
    b_w = b_u v (T_s + 1) - sum of mu(x, u) b_x over x < u with x s < x,
    mu(x, u) the coefficient of v^{l(x)+1} in the T_x coordinate of b_u.
    ``memo`` keeps every b_x computed.
    """
    if w in memo:
        return memo[w]
    n = w.n
    z = w.degree()
    if z:
        base = canonical_value_reference(w.compose(AffinePerm.rho(n, -z)), memo)
        out = base * HeckeElt(n, {AffinePerm.rho(n, z): 1})
    elif w.length() == 0:
        out = one(n)
    else:
        i = next(i for i in range(n) if right_descent_reference(w, i))
        si = simple_reflection_reference(n, i)
        bu = canonical_value_reference(w.compose(si), memo)
        out = bu * (HeckeElt(n, {si: 1}) + one(n)).scale(LaurentPoly({1: 1}))
        for x, cx in bu.terms.items():
            if right_descent_reference(x, i):
                mu = cx.coeff(x.length() + 1)
                if mu:
                    out = out - canonical_value_reference(x, memo).scale(mu)
    memo[w] = out
    return out


def product_cost_reference(a: HeckeElt, b: HeckeElt) -> tuple[int, int]:
    """Bounds (letter-term steps, bits of one packed coefficient) for a*b.

    Running the l(w) Coxeter letters of w at most doubles the terms at
    each step, and each of its |degree(w)| rho letters keeps their count,
    so a*b takes at most |supp a| * sum over w in supp b of
    2^l(w) (2 + |degree(w)|) steps.  A packed coefficient of a*b spans
    the exponents of a and b widened by 2 per letter, in slots of the
    width the product packs with: the height of a times the sum of
    3^l(w) |c_w|_1 over supp b.
    """
    if not a.terms or not b.terms:
        return 0, 0
    lengths = [w.length() for w in b.terms]
    steps = len(a.terms) * sum(2**k * (2 + abs(w.degree())) for k, w in zip(lengths, b.terms))
    span = 1 + 2 * max(lengths)
    for elt in (a, b):
        coeffs = elt.terms.values()
        span += max(c.degree() for c in coeffs) - min(c.valuation() for c in coeffs)
    height = max(c.height() for c in a.terms.values())
    bound = height * sum(3**k * c.norm1() for k, c in zip(lengths, b.terms.values()))
    return steps, span * slot_width(bound)


def _dry_run_reference(n: int, start: set, words: list, cap: int) -> int:
    """Each letter of each word, run from ``start``, steps every element met
    so far, and a Coxeter letter keeps w as well as w s; the count stops as
    soon as it, with the next letter's steps, passes ``cap``, and a word
    whose letters, each stepping at least ``start``, would pass ``cap`` is
    counted that far and not run."""
    steps = 0
    for letters in words:
        if steps + len(start) * len(letters) > cap:
            return steps + len(start) * len(letters)
        cur = set(start)
        for i, letter in enumerate(letters):
            steps += len(cur)
            ahead = len(cur) if i < len(letters) - 1 else 0
            if steps + ahead > cap:
                return steps + ahead
            step = letter_perm_reference(n, letter)
            moved = {w.compose(step) for w in cur}
            cur = moved if letter in (RHO, RHO_INV) else moved | cur
    return steps


def product_steps_reference(a: HeckeElt, b: HeckeElt, cap: int) -> int:
    """The dry-run count a budget charges for a*b when its coarse bound does not fit."""
    words = [reduced_word_reference(w).letters for w in b.terms]
    return _dry_run_reference(a.n, set(a.terms), words, cap)


def inverse_steps_reference(w: AffinePerm, cap: int) -> int:
    """The dry-run count a budget charges for T_w^-1, along the reduced word of w reversed."""
    letters = tuple(reversed(reduced_word_reference(w).letters))
    return _dry_run_reference(w.n, {AffinePerm.identity(w.n)}, [letters], cap)


def laurent_from_json(data) -> LaurentPoly:
    """The polynomial whose ``LaurentPoly.to_json`` is ``data``."""
    return LaurentPoly({int(exp): int(coef) for exp, coef in data.items()})


def hecke_from_json(n: int, data) -> HeckeElt:
    """The rank-n element whose ``HeckeElt.to_json`` is ``data``."""
    return HeckeElt(n, [(AffinePerm(n, rec["window"]), laurent_from_json(rec["coeffs"])) for rec in data])
