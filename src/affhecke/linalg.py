"""Exact linear algebra for the oracle checks.

A matrix is a list of sparse rows: row i is a dict {column: int} of its
nonzero entries (an explicit zero means nothing), as the oracle's operator
matrices are.  Only what the commutant and rank computations need: an
exact integer matrix product, and ranks by sparse fraction-free
elimination.
"""

from __future__ import annotations

from math import gcd


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


def int_rank(rows: list[dict]) -> int:
    """Rank over the rationals of sparse integer rows (explicit zeros are
    ignored), taken shortest first.  Each pivot row is keyed by its first
    column, so a row meets only the pivots of its own leading columns."""
    pivots: dict = {}
    for row in sorted(rows, key=len):
        vec = {k: x for k, x in row.items() if x}
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = vec
                break
            vec = _reduce(vec, col, pivot)
    return len(pivots)


def mat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """The product a·b, row by row over the nonzeros of a."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out
