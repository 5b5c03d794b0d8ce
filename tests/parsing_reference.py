"""The element-expression reader that builds every subexpression in the
Hecke algebra, kept as the reference the differential tests compare
``parsing.parse_element`` against.

Here a scalar atom (v, an integer, (v^-2-1)) is the element c*T_e, every
product of two subexpressions runs ``hecke.product`` and every negative
power runs ``hecke.invert_t``, each charged to the request's budget.  The
package keeps scalar subexpressions in Z[v, v^-1] instead and charges a
scalar factor no letter step; values and error classes agree.
"""

from affhecke import hecke, parsing, weyl
from affhecke.errors import ElementParseError, ResourceLimitError
from affhecke.laurent import LaurentPoly, v_power


class _Parser:
    def __init__(self, n, tokens, budget):
        self.n = n
        self.tokens = tokens
        self.pos = 0
        self.budget = budget

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ElementParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ElementParseError(f"expected {tok!r}, got {got!r}")

    def expression(self):
        out = self._signed_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self._signed_term()
            out = out + term if op == "+" else out - term
        return out

    def _signed_term(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        term = self.term()
        return term if sign == 1 else term.scale(-1)

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = hecke.product(out, self.factor(), self.budget.charge)
        return out

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            base = _power(self.n, base, self.integer(), self.budget)
        return base

    def integer(self):
        tok = self.take()
        return -parsing._int(self.take()) if tok == "-" else parsing._int(tok)

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok == "v":
            return hecke.one(self.n).scale(v_power(1))
        if tok.isdigit():
            return hecke.one(self.n).scale(parsing._int(tok))
        if tok.startswith("T["):
            return hecke.t_basis(weyl.Word.parse(self.n, tok[2:-1]).to_perm())
        if tok.startswith("T(w["):
            return hecke.t_basis(parsing.parse_perm(self.n, tok[2:-1]))
        if tok.startswith("X"):
            i = parsing._int(tok[1:])
            if not 1 <= i <= self.n:
                raise ElementParseError(f"X{i} out of range 1..{self.n}")
            steps = hecke.x_element_steps(i)
            self.budget.charge(steps, 0, lambda cap: steps)
            return hecke.x_element(self.n, i)
        raise ElementParseError(f"unexpected token {tok!r}")


def _invert(elt, budget):
    terms = list(elt.terms.items())
    if len(terms) != 1:
        raise ElementParseError("negative powers need a single-term base")
    w, c = terms[0]
    items = c.items()
    if len(items) != 1 or items[0][1] not in (1, -1):
        raise ElementParseError("negative powers need a unit coefficient")
    exp, coef = items[0]
    return hecke.invert_t(w, budget.charge).scale(LaurentPoly({-exp: coef}))


def _power(n, base, k, budget):
    if abs(k) > parsing.MAX_EXPONENT:
        raise ResourceLimitError("exponent %d exceeds the cap %d" % (k, parsing.MAX_EXPONENT))
    if k == 0:
        return hecke.one(n)
    if k < 0:
        base = _invert(base, budget)
        k = -k
    out = base
    for _ in range(k - 1):
        out = hecke.product(out, base, budget.charge)
    return out


def parse_element_reference(n, text, budget=None):
    """The element ``text`` denotes, every subexpression built in the algebra."""
    parser = _Parser(n, parsing._tokenize(text), budget if budget is not None else parsing.WorkBudget())
    out = parser.expression()
    if parser.peek() is not None:
        raise ElementParseError(f"trailing tokens starting at {parser.peek()!r}")
    return out
