"""Reference forms of convolution, of the forgetting-map operations and
of the operator matrices built from them, and of the flag tables and the
exact rank underneath.

These are the per-pair forms: each one sums at every pair of points and
insists the result is constant on each orbit label.  The package computes
convolution from structure constants and the forgetting maps from its
audited pushforward operators; the differential tests compare the two.
The operator matrix reference applies one convolution per basis label, and
the coset table reference counts over the fibers of the forgetting map.
``phi`` and ``fibers`` give that map on flag tuples, apart from the
package's positions (``FlagContext._image``).

The forgetting maps also have their former form here: convolution with the
indicator of the graph of phi, over the structure constants of a triple of
spaces.  ``pushforward_reference`` reads the package's operators, and so
its coset rows, off that convolution.

The flag-table references are the per-cell builds: subspaces as
canonical reduced row echelon bases, by one row reduction per (subspace,
vector) pair, subspace masks by a loop over coefficient tuples, and label
positions by one dict lookup per pair of points.  ``bases_reference``
names the package's subspace positions by those bases.  ``IntRowSpace``,
a dense fraction-free row space, is the reference for the sparse
``linalg.int_rank``.  ``indicator`` is the function that is 1 on one
label, which must occur on its pair space.

The dense matrix forms the oracle used before its matrices became lists
of sparse rows are here too: the dense product, the flattening of a
matrix and the commutator rows as lists of ints, the conversion of a
dense row into the dict of its nonzeros, and the bound on the dense
commutator systems that ``bicommutant_check`` was held to.
"""

import itertools
import math
from array import array
from itertools import compress, count
from math import gcd
from operator import mul
from typing import Sequence

from affhecke import OrbitFunction
from affhecke.errors import DomainMismatchError, InternalInvariantError
from affhecke.oracle import perm_label
from affhecke.weyl import finite_permutations


def indicator(ctx, left, right, label) -> OrbitFunction:
    labels, _, _ = ctx.label_table(left, right)
    if label not in labels:
        raise ValueError(f"label {label} does not occur on {left} x {right}")
    return OrbitFunction(ctx, left, right, {label: 1})


def _pairs(ctx, left, right):
    return {
        (fl, fr): ctx.pair_label(fl, fr)
        for fl in ctx.space_points(left)
        for fr in ctx.space_points(right)
    }


def _put(out, lab, value, what):
    if lab in out:
        if out[lab] != value:
            raise InternalInvariantError(f"{what} not constant on label {lab}")
    else:
        out[lab] = value


def convolve_reference(f, g):
    """Sum over the shared middle flag at every pair."""
    ctx = f.ctx
    if ctx.space_id(f.right) != ctx.space_id(g.left):
        raise DomainMismatchError("middle spaces differ")
    pairs_lm = _pairs(ctx, f.left, f.right)
    pairs_mr = _pairs(ctx, g.left, g.right)
    support: dict = {}
    for (fl, fm), lab in pairs_lm.items():
        c = f.values.get(lab)
        if c:
            support.setdefault(fl, []).append((fm, c))
    out: dict = {}
    for fl in ctx.space_points(f.left):
        row = support.get(fl, ())
        for fr in ctx.space_points(g.right):
            total = 0
            for fm, c in row:
                c2 = g.values.get(pairs_mr[(fm, fr)])
                if c2:
                    total += c * c2
            _put(out, ctx.pair_label(fl, fr), total, "convolution")
    return OrbitFunction(ctx, f.left, g.right, out)


def phi(ctx, flag, forgotten):
    """The complete flag's steps at the dimensions of the component."""
    return tuple(flag[c - 1] for c in ctx.component_dims(forgotten))


def fibers(ctx, forgotten) -> dict:
    """Each point of the component hit by phi -> the complete flags over it."""
    out: dict = {}
    for x in ctx.space_points("X"):
        out.setdefault(phi(ctx, x, forgotten), []).append(x)
    return out


def _fiber_sums(func, fibers, target):
    ctx = func.ctx
    pairs = _pairs(ctx, func.left, func.right)
    out: dict = {}
    for fl in ctx.space_points(func.left):
        for part, fiber in fibers.items():
            total = sum(func.values.get(pairs[(fl, p)], 0) for p in fiber)
            _put(out, ctx.pair_label(fl, part), total, "fiber sum")
    return OrbitFunction(ctx, func.left, target, out)


def theta_reference(f, forgotten):
    """Sum f over the complete flags refining each partial flag."""
    forgotten = tuple(sorted(forgotten))
    return _fiber_sums(f, fibers(f.ctx, forgotten), ("YI", forgotten))


def theta_between_reference(g, forgotten_i, forgotten_j):
    """Push a partial-flag function down to a coarser component."""
    ctx = g.ctx
    forgotten_i = tuple(sorted(forgotten_i))
    forgotten_j = tuple(sorted(forgotten_j))
    dims_i = ctx.component_dims(forgotten_i)
    dims_j = ctx.component_dims(forgotten_j)
    parts: dict = {}
    for p in ctx.space_points(("YI", forgotten_i)):
        image = tuple(p[dims_i.index(c)] for c in dims_j)
        parts.setdefault(image, []).append(p)
    return _fiber_sums(g, parts, ("YI", forgotten_j))


def psi_reference(g, forgotten):
    """Pull a partial-flag function back along the forgetting map."""
    ctx = g.ctx
    out: dict = {}
    for fl in ctx.space_points(g.left):
        for x in ctx.space_points("X"):
            val = g.value(ctx.pair_label(fl, phi(ctx, x, forgotten)))
            _put(out, ctx.pair_label(fl, x), val, "pullback")
    return OrbitFunction(ctx, g.left, "X", out)


def fiber_indicator_reference(ctx, forgotten):
    """Indicator of pairs of complete flags with the same partial image."""
    out: dict = {}
    for x in ctx.space_points("X"):
        px = phi(ctx, x, forgotten)
        for x2 in ctx.space_points("X"):
            hit = 1 if phi(ctx, x2, forgotten) == px else 0
            _put(out, ctx.pair_label(x, x2), hit, "fiber relation")
    return OrbitFunction(ctx, "X", "X", out)


def _phi(ctx, source, forgotten):
    """The map forgetting steps from a point of source."""
    dims = tuple(range(1, ctx.n + 1)) if source == "X" else ctx.component_dims(source[1])
    pick = [dims.index(c) for c in ctx.component_dims(forgotten)]
    return lambda x: tuple(x[k] for k in pick)


def graph_reference(ctx, source, forgotten, transpose=False):
    """Indicator of the graph of phi from source onto a component, on
    (source, component) pairs, or on (component, source) when transposed,
    tested at every pair."""
    target = ("YI", tuple(sorted(forgotten)))
    phi = _phi(ctx, source, forgotten)
    out: dict = {}
    for x in ctx.space_points(source):
        image = phi(x)
        for p in ctx.space_points(target):
            pair = (p, x) if transpose else (x, p)
            _put(out, ctx.pair_label(*pair), int(p == image), "graph")
    return OrbitFunction(ctx, *((target, source) if transpose else (source, target)), out)


def pushforward_reference(ctx, left, source, forgotten):
    """``FlagContext.pushforward`` as {label c: {label a: multiplicity}}:
    the indicator of each label a on (left, source) convolved with the
    graph of phi.  On complete-flag pairs these are the coset rows."""
    graph = graph_reference(ctx, source, forgotten)
    rows: dict = {c: {} for c in ctx.label_table(left, graph.right)[0]}
    for a in ctx.label_table(left, source)[0]:
        for c, m in OrbitFunction(ctx, left, source, {a: 1}).convolve(graph).values.items():
            rows[c][a] = m
    return rows


def operator_matrix_reference(ctx, op, left, right):
    """Columns are op applied to the indicator basis of the pair space."""
    labels = ctx.label_table(left, right)[0]
    images = [op(OrbitFunction(ctx, left, right, {lab: 1})) for lab in labels]
    return [[image.value(out) for image in images] for out in labels]


def theta_table_reference(ctx, forgotten):
    """Per permutation: the coset label its orbit pushes to, and the
    multiplicity there, counted over the fiber of the pushed flag.  Coset
    multiplicities must sum to the fiber size."""
    e_flag = ctx.standard_flag()
    over = fibers(ctx, forgotten)
    table: dict = {}
    sums: dict = {}
    for w in finite_permutations(ctx.n):
        part = phi(ctx, ctx.perm_flag(w.window), forgotten)
        out_lab = ctx.pair_label(e_flag, part)
        w_lab = perm_label(ctx, w)
        mult = sum(1 for x in over[part] if ctx.pair_label(e_flag, x) == w_lab)
        table[w] = (out_lab, mult)
        sums[out_lab] = sums.get(out_lab, 0) + mult
    bad = {lab: s for lab, s in sums.items() if s != ctx.fiber_size(forgotten)}
    if bad:
        raise InternalInvariantError(f"coset multiplicities do not sum to the fiber size: {bad}")
    return table


# -- flag tables ---------------------------------------------------------------


def rref_fq(rows, q: int):
    """Canonical reduced row echelon form over F_q, zero rows dropped."""
    mat = [[x % q for x in row] for row in rows]
    out: list[list[int]] = []
    ncols = len(mat[0]) if mat else 0
    col = 0
    while mat and col < ncols:
        pivot = next((i for i, row in enumerate(mat) if row[col]), None)
        if pivot is None:
            col += 1
            continue
        row = mat.pop(pivot)
        inv = pow(row[col], q - 2, q)
        row = [(x * inv) % q for x in row]
        mat = [
            [(x - r[col] * y) % q for x, y in zip(r, row)] if r[col] else r
            for r in mat
        ]
        out = [
            [(x - r[col] * y) % q for x, y in zip(r, row)] if r[col] else r
            for r in out
        ]
        out.append(row)
        mat = [r for r in mat if any(r)]
        col += 1
    return tuple(tuple(r) for r in out)


def span_of(vectors, q: int):
    vecs = [v for v in vectors if any(x % q for x in v)]
    return rref_fq(vecs, q) if vecs else ()


def subspaces_reference(ctx):
    """Every subspace as its canonical basis, grown by spanning each one
    with each vector."""
    found = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for sub in frontier:
            for v in ctx.vectors():
                grown = span_of(sub + (v,), ctx.q)
                if len(grown) == len(sub) + 1 and grown not in found:
                    found[grown] = None
                    nxt.append(grown)
        frontier = nxt
    return tuple(sorted(found))


def mask_reference(ctx, basis) -> int:
    """The bit mask of a subspace's vectors (bit i for the i-th of
    ``ctx.vectors()``), from every tuple of coefficients on its basis."""
    q, n = ctx.q, ctx.n
    bit = {v: 1 << i for i, v in enumerate(ctx.vectors())}
    mask = 0
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        mask |= bit[tuple(sum(c * row[k] for c, row in zip(coeffs, basis)) % q for k in range(n))]
    return mask


def bases_reference(ctx):
    """The canonical basis of each subspace, by (dimension, mask): the
    package's subspace positions."""
    return tuple(sorted(subspaces_reference(ctx), key=lambda b: (len(b), mask_reference(ctx, b))))


def intersections_reference(ctx):
    """Intersection dimensions of the subspaces, by position, from their
    bases' masks."""
    masks = [mask_reference(ctx, b) for b in bases_reference(ctx)]
    dim_of = {ctx.q**k: k for k in range(ctx.n + 1)}
    return [[dim_of[(a & b).bit_count()] for b in masks] for a in masks]


def label_table_reference(ctx, key_left, key_right):
    """Sorted labels, first representatives and label positions, one dict
    lookup per pair of points."""
    table = ctx.intersections()
    lefts, rights = ctx.space_points(key_left), ctx.space_points(key_right)
    columns: dict = {}
    found: dict = {}
    reps = []
    rows = []
    for fl in lefts:
        code = [columns.setdefault(col, len(columns)) for col in zip(*(table[s] for s in fl))]
        row = []
        for fr in rights:
            key = tuple([code[j] for j in fr])
            k = found.get(key)
            if k is None:
                k = found[key] = len(reps)
                reps.append((fl, fr))
            row.append(k)
        rows.append(array("I", row))
    cols = list(columns)
    labels = [tuple(zip(*(cols[c] for c in key))) for key in found]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    pos = sorted(range(len(order)), key=order.__getitem__)
    reps = {labels[k]: reps[k] for k in order}
    typecode = "H" if len(labels) <= 1 << 16 else "I"
    return tuple(reps), reps, [array(typecode, map(pos.__getitem__, row)) for row in rows]


# -- dense matrices ------------------------------------------------------------


def dense(rows, ncols):
    """Sparse rows as lists of ncols ints."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def sparse(rows):
    """Dense rows as dicts of their nonzero entries."""
    return [dict(zip(compress(count(), row), filter(None, row))) for row in rows]


def mat_mul_reference(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def vec_reference(mat):
    return tuple(x for row in mat for x in row)


def commutator_rows_reference(mats, m):
    """Linear conditions on an m x m matrix commuting with every dense mat,
    one dense row of m*m ints per condition, each once."""
    rows = set()
    for p in mats:
        for i in range(m):
            for j in range(m):
                row = [0] * (m * m)
                for l in range(m):
                    row[i * m + l] += p[l][j]
                for k in range(m):
                    row[k * m + j] -= p[i][k]
                if any(row):
                    rows.add(tuple(row))
    return sorted(rows)


def dense_commutator_entries(n, d):
    """Entries of the dense commutator systems of bicommutant_check, for
    C(d^2+n-1, n) left and n! right operators on d^n points."""
    return max(math.comb(d * d + n - 1, n), math.factorial(n)) * d ** (4 * n)


# -- exact rank ----------------------------------------------------------------


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


def int_rank_reference(rows) -> int:
    rows = list(rows)
    if not rows:
        return 0
    space = IntRowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.dim
