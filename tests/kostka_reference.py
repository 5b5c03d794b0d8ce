"""Kostka-Foulkes polynomials and the double cosets of translations, as an
outside reference for the canonical basis.

For dominant weights lambda >= mu of GL_n, the Kazhdan-Lusztig polynomial
P_{n_mu, n_lambda} of the longest elements of the double cosets W t_lambda W
and W t_mu W is the Kostka-Foulkes polynomial K_{lambda mu}(q) (Lusztig,
"Singularities, character formulas, and a q-analog of weight
multiplicities", Asterisque 101-102, 1983; Kato, Invent. Math. 66, 1982).
K is computed here from Lusztig's q-analogue of Kostant's partition
function,

    K_{lambda mu}(q) = sum over w in S_n of sign(w) P_q(w(lambda + rho) - (mu + rho)),

where sum_gamma P_q(gamma) e^gamma = prod over positive roots alpha of
(1 - q e^alpha)^-1: P_q(gamma) counts the ways to write gamma as a sum of
positive roots e_i - e_j (i < j), each way weighted by q to its number of
roots.  Polynomials in q are dicts {degree: coefficient}.  Nothing here
reads the package's Hecke algebra.
"""

import functools
import itertools

from affhecke.weyl import AffinePerm


def _add(acc: dict, poly: dict, shift: int = 0) -> None:
    for k, c in poly.items():
        acc[k + shift] = acc.get(k + shift, 0) + c


@functools.lru_cache(maxsize=None)
def _partitions(gamma: tuple, start: int) -> tuple:
    """P_q(gamma) over the positive roots from the ``start``-th on, in the
    order (0, 1), (0, 2), ..., (1, 2), ..., as sorted (degree, coefficient)
    pairs.  gamma is a sum of positive roots only if its partial sums are
    all at least 0 and it sums to 0."""
    n = len(gamma)
    roots = list(itertools.combinations(range(n), 2))
    if start == len(roots):
        return ((0, 1),) if not any(gamma) else ()
    i, j = roots[start]
    out: dict = {}
    m = 0
    cur = list(gamma)
    while all(s >= 0 for s in itertools.accumulate(cur)):
        _add(out, dict(_partitions(tuple(cur), start + 1)), m)
        cur[i] -= 1
        cur[j] += 1
        m += 1
    return tuple(sorted((k, c) for k, c in out.items() if c))


def kostant_q(gamma) -> dict:
    """Lusztig's q-analogue P_q(gamma) of Kostant's partition function."""
    gamma = tuple(gamma)
    if sum(gamma) != 0:
        return {}
    return dict(_partitions(gamma, 0))


def _sign(perm: tuple) -> int:
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def kostka_foulkes(lam, mu) -> dict:
    """K_{lambda mu}(q) for weakly decreasing lam and mu of one length."""
    n = len(lam)
    shifted_lam = [x + n - 1 - k for k, x in enumerate(lam)]
    shifted_mu = [x + n - 1 - k for k, x in enumerate(mu)]
    out: dict = {}
    for perm in itertools.permutations(range(n)):
        gamma = [shifted_lam[perm[k]] - shifted_mu[k] for k in range(n)]
        for k, c in kostant_q(gamma).items():
            out[k] = out.get(k, 0) + _sign(perm) * c
    return {k: c for k, c in out.items() if c}


def dominates(lam, mu) -> bool:
    """lam >= mu in the dominance order: equal sums, and every partial sum
    of lam at least that of mu."""
    return sum(lam) == sum(mu) and all(
        a >= b for a, b in zip(itertools.accumulate(lam), itertools.accumulate(mu))
    )


def longest_in_double_coset(lam) -> AffinePerm:
    """n_lambda: the unique longest element of W t_lambda W, with W the
    finite symmetric group, found by trying every u t_lambda w."""
    n = len(lam)
    t = AffinePerm.translation(lam)
    group = [AffinePerm(n, p) for p in itertools.permutations(range(1, n + 1))]
    return max((u.compose(t).compose(w) for u in group for w in group), key=AffinePerm.length)
