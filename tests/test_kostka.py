"""The canonical basis against Kostka-Foulkes polynomials.

Every other check of b_w uses this package's own definitions: ``_verify``
already fixes b_w uniquely given the package's bar involution, and the
references in ``hecke_reference`` re-derive that same involution.  A
convention shared by all of them (the quadratic relation, the window
convention, the sign of a translation) would pass them all.  This test
checks those conventions against the literature instead: for dominant
lambda >= mu, the coefficient of T_{n_mu} in b_{n_lambda} is
v^{l(n_mu)} K_{lambda mu}(v^2), with K computed in ``kostka_reference``
from Lusztig's q-analogue of Kostant's partition function, and n_lambda
the longest element of W t_lambda W.  The test can fail: read as
v^{l(n_mu)} K_{lambda mu}(v^-2), in the q = v^-2 convention of ``hecke``,
the identity fails at 5 of the 14 pairs with |lambda| <= 4 at n = 2.
"""

import itertools

import pytest

from affhecke import LaurentPoly, canonical_basis
from kostka_reference import dominates, kostka_foulkes, longest_in_double_coset


def _dominant(n: int, size: int) -> list:
    return [p for p in itertools.product(range(size, -1, -1), repeat=n)
            if sum(p) == size and all(a >= b for a, b in zip(p, p[1:]))]


# tabulated in Macdonald, "Symmetric functions and Hall polynomials", III.6
@pytest.mark.parametrize("lam,mu,expected", [
    ((2, 0), (1, 1), {1: 1}),
    ((2, 1, 0), (1, 1, 1), {1: 1, 2: 1}),
    ((3, 0, 0), (1, 1, 1), {3: 1}),
    ((2, 2, 0, 0), (1, 1, 1, 1), {2: 1, 4: 1}),
    ((2, 1, 1, 0), (1, 1, 1, 1), {1: 1, 2: 1, 3: 1}),
    ((3, 1, 0, 0), (1, 1, 1, 1), {3: 1, 4: 1, 5: 1}),
    ((3, 1, 0), (2, 1, 1), {1: 1, 2: 1}),
    ((3, 1, 0), (2, 2, 0), {1: 1}),
    ((4, 0, 0, 0), (2, 2, 0, 0), {2: 1}),
])
def test_the_reference_gives_the_tabulated_kostka_foulkes_polynomials(lam, mu, expected):
    assert kostka_foulkes(lam, mu) == expected


@pytest.mark.parametrize("sign", [1, -1], ids=["t_lambda", "t_minus_lambda"])
@pytest.mark.parametrize("n,largest", [(2, 6), (3, 7), (4, 4)])
def test_canonical_coefficients_are_kostka_foulkes_polynomials(n, largest, sign):
    pairs = 0
    for size in range(largest + 1):
        weights = _dominant(n, size)
        for lam in weights:
            b = canonical_basis(longest_in_double_coset([sign * x for x in lam])).value
            for mu in weights:
                if not dominates(lam, mu):
                    continue
                x = longest_in_double_coset([sign * y for y in mu])
                expected = LaurentPoly({x.length() + 2 * k: c for k, c in kostka_foulkes(lam, mu).items()})
                assert b.coeff(x) == expected, (lam, mu)
                pairs += 1
    assert pairs > len(_dominant(n, largest))  # more pairs than the diagonal ones
