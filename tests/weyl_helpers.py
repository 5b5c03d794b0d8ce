"""Enumerations and word counts that only the tests use."""

from affhecke.weyl import RHO_INV, AffinePerm, Word, coxeter_ball


def elements_ball(n: int, max_length: int, max_height: int) -> list[AffinePerm]:
    """All w with l(w) <= max_length and |degree(w)| <= max_height."""
    out = []
    for c in coxeter_ball(n, max_length):
        for z in range(-max_height, max_height + 1):
            out.append(c.compose(AffinePerm.rho(n, z)))
    return out


def coxeter_count(word: Word) -> int:
    return sum(1 for a in word.letters if isinstance(a, int))


def rho_inv_count(word: Word) -> int:
    return sum(1 for a in word.letters if a == RHO_INV)
