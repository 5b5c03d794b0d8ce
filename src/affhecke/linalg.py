"""Exact linear algebra for the oracle checks.

Matrices are lists of rows of ints, as the oracle's operator matrices are.
Only what the commutant and rank computations need: an exact integer
matrix product, and ranks by a fraction-free integer row space that takes
the rows one at a time.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence


class IntRowSpace:
    """Row space over the integers, fraction-free, for rank counting.

    Rows are cross-multiplied instead of divided, then stripped by their
    gcd, so entries stay integral and reasonably small.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @staticmethod
    def _strip(vec: list[int]) -> list[int]:
        g = 0
        for x in vec:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            vec = [x // g for x in vec]
        lead = next((x for x in vec if x), 0)
        return [-x for x in vec] if lead < 0 else vec

    def _eliminate(self, vec: list[int], pc: int, base: list[int]) -> list[int]:
        a, b = vec[pc], base[pc]
        g = gcd(a, b)
        am, bm = b // g, a // g
        return self._strip([am * x - bm * y for x, y in zip(vec, base)])

    def add(self, row: Sequence[int]) -> bool:
        vec = self._strip([int(x) for x in row])
        for r, pc in enumerate(self.pivots):
            if vec[pc]:
                vec = self._eliminate(vec, pc, self.rows[r])
        pc = next((c for c, x in enumerate(vec) if x), None)
        if pc is None:
            return False
        for r in range(len(self.rows)):
            if self.rows[r][pc]:
                self.rows[r] = self._eliminate(self.rows[r], pc, vec)
        at = next((k for k, c in enumerate(self.pivots) if c > pc), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    rows = list(rows)
    if not rows:
        return 0
    space = IntRowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.dim


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]
