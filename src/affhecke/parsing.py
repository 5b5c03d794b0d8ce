"""Text forms accepted on the command line.

Element expressions combine atoms with +, -, *, ^ and parentheses:

    T[s1 s0 r-]      basis element named by a word in the generators
    T(w[-1,2])       basis element named by a window
    X2               one of the commuting positive generators
    v, 3, (v^-2-1)   scalars

A caret takes integer exponents; negative exponents are allowed for
scalars and for single basis terms with unit coefficient, where the
basis inverse is expanded exactly.  Exponents larger than MAX_EXPONENT in
absolute value raise ResourceLimitError before any multiplication.

One integer rule holds in every expression, window (w[-1,2]) and
partition (1,0): a malformed integer, such as the empty entry of w[1,,2],
raises ElementParseError (exit 2 on the command line), and one too long
for int() to convert raises ResourceLimitError (exit 3).  A T[...] letter
that is not a letter of the rank raises ElementParseError, whatever its
length.  Option values such as --n are read as argparse reads them (see
``cli.read_argv``).

Every product an expression (or a command line request) builds, every
negative power's basis inverse and every X_i atom, is charged to the
request's ``WorkBudget`` before it runs, by the cost ``hecke`` plans for
it (see that module's docstring).  The charges of one request add up, and the
product that would take the total above MAX_PRODUCT_WORK letter steps
raises ResourceLimitError before it starts.  Walking or printing a reduced
word is charged its l(w) + |degree(w)| letters first
(``WorkBudget.charge_words``): at n = 2, w[2000001,2000002] is
rho^2000000, of length 0 and 2,000,000 letters, and is refused.  A
product whose packed coefficients could pass MAX_COEFFICIENT_BITS raises
too: that keeps every int step cheap and every coefficient printable.
Library products, such as the canonical-basis recursion, are not budgeted.
"""

from __future__ import annotations

import re

from . import hecke, weyl
from .errors import ElementParseError, ResourceLimitError
from .laurent import LaurentPoly, v_power

MAX_EXPONENT = 32
MAX_PRODUCT_WORK = 500_000
MAX_COEFFICIENT_BITS = 8192

# group 1 is a token; the last alternative, outside it, marks unexpected input
_TOKEN = re.compile(r"(T\(w\[[^\]]*\]\)|T\[[^\]]*\]|X\d+|v|\d+|\^|\+|-|\*|\(|\))|\S")
_INTEGER = re.compile(r"\s*-?(\d+)\s*")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is None:
            raise ElementParseError(f"unexpected input at position {m.start()}: {text[m.start():]!r}")
        tokens.append(m.group(1))
    return tokens


def _int(text: str) -> int:
    """The integer ``text`` spells, spaces around it allowed: ElementParseError
    if it spells none, ResourceLimitError if it is too long for int()."""
    m = _INTEGER.fullmatch(text)
    if m is None:
        raise ElementParseError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise ResourceLimitError("integer of %d digits is too long" % len(m.group(1))) from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(map(_int, text.split(",")))


def parse_window(text: str) -> tuple[int, ...]:
    m = re.fullmatch(r"\s*w\[([^\]]*)\]\s*", text)
    if m is None:
        raise ElementParseError(f"not a window: {text!r} (expected like w[-1,2])")
    return _ints(m.group(1))


def parse_perm(n: int, text: str) -> weyl.AffinePerm:
    return weyl.AffinePerm(n, parse_window(text))


def parse_partition(text: str) -> tuple[int, ...]:
    return _ints(text)


class WorkBudget:
    """The summed work estimates of the products built for one request."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0

    def charge_words(self, perms) -> None:
        """Add l(w) + |degree(w)| letter steps for each w in ``perms``: the
        work of walking or printing its reduced word, rho letters included."""
        work = sum(w.length() + abs(w.degree()) for w in perms)
        self.charge(work, 0, lambda cap: work)

    def charge(self, work: int, bits: int, dry_run) -> None:
        """Charge ``work`` steps, or, where that coarse estimate would not fit
        the rest of the budget, the count of ``dry_run`` capped at the rest;
        ResourceLimitError if the total would pass MAX_PRODUCT_WORK or
        ``bits`` MAX_COEFFICIENT_BITS."""
        remaining = MAX_PRODUCT_WORK - self.spent
        if work > remaining and bits <= MAX_COEFFICIENT_BITS:
            work = dry_run(remaining)
        if work > remaining:
            raise ResourceLimitError(
                "a request needs more than the %d letter steps left of its budget of %d"
                % (remaining, MAX_PRODUCT_WORK)
            )
        if bits > MAX_COEFFICIENT_BITS:
            raise ResourceLimitError(
                "a product's coefficients may take %d bits, above the cap %d" % (bits, MAX_COEFFICIENT_BITS)
            )
        self.spent += work


class _Parser:
    def __init__(self, n: int, tokens: list[str], budget: WorkBudget):
        self.n = n
        self.tokens = tokens
        self.pos = 0
        self.budget = budget

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ElementParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ElementParseError(f"expected {tok!r}, got {got!r}")

    def expression(self) -> hecke.HeckeElt:
        out = self._signed_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self._signed_term()
            out = out + term if op == "+" else out - term
        return out

    def _signed_term(self) -> hecke.HeckeElt:
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        term = self.term()
        return term if sign == 1 else term.scale(-1)

    def term(self) -> hecke.HeckeElt:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = hecke.product(out, self.factor(), self.budget.charge)
        return out

    def factor(self) -> hecke.HeckeElt:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            base = _power(self.n, base, self.integer(), self.budget)
        return base

    def integer(self) -> int:
        tok = self.take()
        return -_int(self.take()) if tok == "-" else _int(tok)

    def atom(self) -> hecke.HeckeElt:
        tok = self.take()
        if tok == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok == "v":
            return hecke.one(self.n).scale(v_power(1))
        if tok.isdigit():
            return hecke.one(self.n).scale(_int(tok))
        if tok.startswith("T["):
            return hecke.t_basis(weyl.Word.parse(self.n, tok[2:-1]).to_perm())
        if tok.startswith("T(w["):
            return hecke.t_basis(parse_perm(self.n, tok[2:-1]))
        if tok.startswith("X"):
            i = _int(tok[1:])
            if not 1 <= i <= self.n:
                raise ElementParseError(f"X{i} out of range 1..{self.n}")
            steps = hecke.x_element_steps(i)
            self.budget.charge(steps, 0, lambda cap: steps)
            return hecke.x_element(self.n, i)
        raise ElementParseError(f"unexpected token {tok!r}")


def _invert(elt: hecke.HeckeElt, budget: WorkBudget) -> hecke.HeckeElt:
    terms = list(elt.terms.items())
    if len(terms) != 1:
        raise ElementParseError("negative powers need a single-term base")
    w, c = terms[0]
    items = c.items()
    if len(items) != 1 or items[0][1] not in (1, -1):
        raise ElementParseError("negative powers need a unit coefficient")
    exp, coef = items[0]
    return hecke.invert_t(w, budget.charge).scale(LaurentPoly({-exp: coef}))


def _power(n: int, base: hecke.HeckeElt, k: int, budget: WorkBudget) -> hecke.HeckeElt:
    if abs(k) > MAX_EXPONENT:
        raise ResourceLimitError("exponent %d exceeds the cap %d" % (k, MAX_EXPONENT))
    if k == 0:
        return hecke.one(n)
    if k < 0:
        base = _invert(base, budget)
        k = -k
    out = base
    for _ in range(k - 1):
        out = hecke.product(out, base, budget.charge)
    return out


def parse_element(n: int, text: str, budget: WorkBudget | None = None) -> hecke.HeckeElt:
    """The element ``text`` denotes; its products are charged to ``budget``."""
    parser = _Parser(n, _tokenize(text), budget if budget is not None else WorkBudget())
    out = parser.expression()
    if parser.peek() is not None:
        raise ElementParseError(f"trailing tokens starting at {parser.peek()!r}")
    return out
