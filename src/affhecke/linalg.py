"""Exact linear algebra for the oracle checks.

Matrices are lists of rows of ints, as the oracle's operator matrices are.
Only what the commutant and rank computations need: an exact integer
matrix product, and ranks by sparse fraction-free elimination.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import mul
from typing import Iterable, Sequence


def _reduce(vec: dict, col: int, pivot: dict) -> dict:
    """vec with its entry at col cleared by the pivot row, cross-multiplied
    instead of divided, then stripped by its gcd."""
    g = gcd(vec[col], pivot[col])
    a, b = vec[col] // g, pivot[col] // g
    out = {k: b * x for k, x in vec.items()} if b != 1 else dict(vec)
    for k, y in pivot.items():
        x = out.get(k, 0) - a * y
        if x:
            out[k] = x
        else:
            del out[k]
    g = gcd(*out.values()) if out else 1
    return {k: x // g for k, x in out.items()} if g > 1 else out


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of integer rows, by sparse elimination: rows
    are dicts of their nonzero entries, and each pivot row is keyed by its
    first column, so a row meets only the pivots of its own leading
    columns."""
    pivots: dict = {}
    for row in rows:
        vec = dict(zip(compress(count(), row), filter(None, row)))
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = vec
                break
            vec = _reduce(vec, col, pivot)
    return len(pivots)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]
