"""Finite flag configurations over small prime fields.

Points are flags of subspaces of F_q^n.  A subspace is named by its
position in one list of the bit masks of its vectors, ordered by
(dimension, mask), so a flag is a tuple of small ints.  Two point
families appear: complete flags (one step per dimension, "X") and d-step
multichains that may repeat subspaces and always end at the full space
("Y").  Simultaneous-change-of-basis orbits on pairs of flags are
classified by the matrix of pairwise intersection dimensions; those
matrices serve as orbit labels everywhere in the convolution oracle.

Everything is brute-force enumeration, guarded to ranks where the counts
stay in the thousands.  The per-cell work runs in C where it can:
subspaces grow breadth-first as bit masks of their vectors, and those
masks give every intersection dimension, held in one table read by
position; each row of a label table is one ``bytes.translate`` of the
right points' subspace numbers into column codes, read as one uint32
key per pair.
``point_counts`` gives the sizes of both point families in closed form,
so a caller can bound its work before any enumeration, and
``shared_context`` keeps the audited tables of the most recent settings
alive across calls, and its contexts of one (n, q) share what does not
depend on d: the subspaces, the complete flags and their labels.  A
repeated call of ``label_table``, ``structure_constants`` or
``pushforward`` is one lookup on its own arguments.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import weakref
from collections import Counter
from operator import add, itemgetter, mul

from .errors import InternalInvariantError, ResourceLimitError, UnsupportedParameterError

MAX_RANK = 4
MAX_STEPS = 4
FIELD_SIZES = (2, 3)
KEY_BYTES = 4  # a label-table key: one byte per right step, read as one uint32
_PAD = 255  # the number of no subspace, past the steps of a shorter point


def _check_parameters(n: int, q: int, d: int) -> None:
    if q not in FIELD_SIZES:
        raise UnsupportedParameterError(f"field size {q} not supported; use one of {FIELD_SIZES}")
    if not 1 <= n <= MAX_RANK:
        raise ResourceLimitError(f"rank {n} outside brute-force range 1..{MAX_RANK}")
    if not 1 <= d <= MAX_STEPS:
        raise ResourceLimitError(f"step count {d} outside brute-force range 1..{MAX_STEPS}")


def _check_byte_keys(subspaces: int, columns: int, steps: int, itemsize: int) -> None:
    """Raise InternalInvariantError unless a label-table key, one uint32 of
    KEY_BYTES bytes, tells every label apart: the subspaces the right
    points use must be numbered below the pad, the column codes must run
    1..255 (0 is the pad's), a right point may have at most KEY_BYTES
    steps, and an ``array("I")`` item (``itemsize``) must be KEY_BYTES bytes."""
    if subspaces > _PAD or columns > _PAD or steps > KEY_BYTES or itemsize != KEY_BYTES:
        raise InternalInvariantError(
            f"label keys of {steps} steps, {subspaces} subspace numbers and {columns} column codes "
            f"exceed {KEY_BYTES} steps, {_PAD} numbers and {_PAD} codes in a {itemsize}-byte uint32"
        )


def point_counts(n: int, q: int, d: int) -> tuple[int, int]:
    """The numbers of complete flags and of d-step multichains in F_q^n,
    from Gaussian binomials alone: a chain is a subspace of dimension k
    followed by a (d-1)-step chain ending at it.  Raises like FlagContext
    on parameters out of range."""
    _check_parameters(n, q, d)

    def binomial(m: int, k: int) -> int:
        num = den = 1
        for i in range(k):
            num *= q ** (m - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    complete = 1
    for k in range(1, n + 1):
        complete *= (q**k - 1) // (q - 1)
    chains = [1] * (n + 1)  # 1-step chains: the space itself
    for _ in range(d - 1):
        chains = [sum(binomial(m, k) * chains[k] for k in range(m + 1)) for m in range(n + 1)]
    return complete, chains[n]


class FlagContext:
    """Shared enumeration and labelling state for one (n, q, d) setting."""

    def __init__(self, n: int, q: int, d: int):
        _check_parameters(n, q, d)
        self.n = n
        self.q = q
        self.d = d
        self._cache: dict = {}
        self._field: dict = {}
        self._ids: dict = {}
        self._hits: dict = {}

    def _hit(self, raw, key, build, field=False):
        """The value ``_memo`` keeps under key, also entered in the hit map
        under ``raw``, the caller's own arguments, which the caller looks up
        first.  The entry is a reference to what ``_memo`` owns, written only
        after ``_memo`` returned, so a build that raises leaves none."""
        value = self._memo(key, build, field)
        self._hits[raw] = value
        return value

    def _memo(self, key, build, field=False):
        """The value built once per key; a build that raises stores nothing,
        so a failing audit fails again on every later call.  A value that
        depends on (n, q) alone is stored with ``field`` in the field store,
        which ``shared_context`` shares between the contexts of one (n, q)."""
        store = self._field if field else self._cache
        if key not in store:
            store[key] = build()
        return store[key]

    # -- subspaces ---------------------------------------------------------

    def vectors(self):
        return self._memo("vectors", lambda: tuple(itertools.product(range(self.q), repeat=self.n)), True)

    def _masks(self) -> list:
        """The subspaces, as the bit masks of their vectors (bit i for the
        i-th of ``vectors``), by (dimension, mask); a subspace is named by
        its position here.  Grown breadth-first from the zero space: a
        subspace and a vector v outside it span the union of its translates
        by the multiples of v, read off a vector-addition table."""

        def build():
            q, vecs = self.q, self.vectors()
            where = {v: i for i, v in enumerate(vecs)}
            plus = [[where[tuple((a + b) % q for a, b in zip(u, v))] for v in vecs] for u in vecs]
            found = [1]  # the zero vector is bit 0
            frontier = [(1, [0])]
            while frontier:
                nxt = {}
                for covered, elems in frontier:
                    for i in range(len(vecs)):
                        if covered >> i & 1:
                            continue
                        line = [i]
                        for _ in range(q - 2):
                            line.append(plus[line[-1]][i])
                        grown = elems + [plus[u][e] for u in line for e in elems]
                        mask = sum(1 << e for e in grown)
                        covered |= mask
                        nxt.setdefault(mask, grown)
                frontier = list(nxt.items())
                found += sorted(nxt)  # one layer per dimension
            return found

        return self._memo("masks", build, True)

    def subspaces(self):
        return range(len(self._masks()))

    def intersections(self):
        """The table of intersection dimensions of any two subspaces, by
        position, read off the bit sets of their vectors; its diagonal
        holds each subspace's dimension."""

        def build():
            masks = self._masks()
            dim_of = {self.q**k: k for k in range(self.n + 1)}
            return [[dim_of[(a & b).bit_count()] for b in masks] for a in masks]

        return self._memo("intersections", build, True)

    def inter_dim(self, a, b) -> int:
        return self.intersections()[a][b]

    def full_space(self):
        return len(self._masks()) - 1

    # -- point sets --------------------------------------------------------

    def complete_flags(self):
        def build():
            table = self.intersections()
            by_dim: dict[int, list] = {}
            for sub in self.subspaces():
                by_dim.setdefault(table[sub][sub], []).append(sub)
            flags = [()]
            for dim in range(1, self.n + 1):
                flags = [
                    flag + (sub,)
                    for flag in flags
                    for sub in by_dim.get(dim, [])
                    if not flag or table[sub][flag[-1]] == dim - 1  # sub contains the flag's last subspace
                ]
            return tuple(sorted(flags))

        return self._memo("X", build, True)

    def multistep_flags(self):
        def build():
            table = self.intersections()
            dims = [row[sub] for sub, row in enumerate(table)]
            chains = [(self.full_space(),)]
            for _ in range(self.d - 1):
                chains = [
                    (sub,) + chain
                    for chain in chains
                    for sub, inter in enumerate(table[chain[0]])
                    if inter == dims[sub]  # the first subspace of the chain contains sub
                ]
            return tuple(sorted(chains))

        return self._memo("Y", build)

    def space_points(self, key):
        """The points of a point space, one tuple per space id."""
        sid = self.space_id(key)
        if sid == ("Y",):
            return self.multistep_flags()
        if sid == self.space_id("X"):
            return self.complete_flags()

        def build():
            table = self.intersections()
            return tuple(f for f in self.multistep_flags() if tuple(table[s][s] for s in f) == sid[1])

        return self._memo(("points", sid), build)

    def space_id(self, key):
        """Canonical identity of a point space, once per key; equal ids mean
        equal point sets, e.g. the nothing-forgotten component at d = n is
        the complete flag variety itself."""
        sid = self._ids.get(key)
        if sid is None:
            if key == "X":
                sid = ("D", tuple(range(1, self.n + 1)))
            elif key == "Y":
                sid = ("Y",)
            elif isinstance(key, tuple) and len(key) == 2 and key[0] == "YI":
                sid = ("D", self.component_dims(key[1]))
            else:
                raise ValueError(f"unknown point space {key!r}")
            self._ids[key] = sid
        return sid

    # -- components of the multistep family --------------------------------

    def component_dims(self, forgotten) -> tuple:
        """Step dimensions of the component forgetting the given steps."""
        forgotten = tuple(forgotten)

        def build():
            steps = tuple(sorted(forgotten))
            if any(not 1 <= i <= self.n - 1 for i in steps):
                raise ValueError(f"forgotten steps {steps} outside 1..{self.n - 1}")
            kept = sorted(set(range(1, self.n)) - set(steps))
            if len(kept) > self.d - 1:
                raise ValueError(f"component {steps} needs more than {self.d} steps")
            return tuple(kept) + (self.n,) * (self.d - len(kept))

        return self._memo(("dims", forgotten), build)

    def valid_components(self) -> tuple:
        def build():
            out = []
            for size in range(self.n):
                for comb in itertools.combinations(range(1, self.n), size):
                    if len(comb) >= self.n - self.d:
                        out.append(comb)
            return tuple(sorted(out))

        return self._memo("components", build)

    def fiber_size(self, forgotten) -> int:
        """The number of complete flags over each point of the component
        forgetting the given steps, counted off ``_image``; fibers of
        unequal sizes raise InternalInvariantError."""
        forgotten = tuple(sorted(forgotten))

        def build():
            sizes = set(Counter(self._image("X", forgotten)).values())
            if len(sizes) != 1:
                raise InternalInvariantError(f"uneven fibers for component {forgotten}: {sorted(sizes)}")
            return sizes.pop()

        return self._memo(("fibersize", forgotten), build)

    # -- labels ------------------------------------------------------------

    def pair_label(self, left_flag, right_flag):
        table = self.intersections()
        return tuple(tuple(table[s][t] for t in right_flag) for s in left_flag)

    def label_table(self, key_left, key_right):
        """Sorted labels, one representative pair per label, and the label
        positions: row i, column j holds the position in the labels of the
        pair (i-th left point, j-th right point).  Each row is an unsigned
        ``array``, 2 bytes an entry up to 65,536 labels and 4 beyond.

        A label is keyed by the codes of its columns (a right subspace
        against the left flag), one byte per right step.  The right points
        are written once as 4 bytes each: the numbers of their subspaces
        among those the right points use, padded with 255.  Per left flag
        one ``bytes.translate`` turns these into column codes, from 1 so
        that the pad reads 0, and the result is read as one uint32 key per
        right point.  Only a row with an unseen key walks its pairs, to
        record each new label's first pair."""
        raw = ("table", key_left, key_right)
        hit = self._hits.get(raw)
        if hit is not None:
            return hit

        def build():
            from array import array

            table = self.intersections()
            lefts, rights = self.space_points(key_left), self.space_points(key_right)
            used = sorted(set(itertools.chain.from_iterable(rights)))
            width, depth = len(rights[0]), len(lefts[0])
            # a column is nondecreasing along the nested left flag
            _check_byte_keys(len(used), math.comb(self.n + depth, depth), width, array("I").itemsize)
            number = {s: i for i, s in enumerate(used)}
            pad = bytes([_PAD] * (KEY_BYTES - width))
            flat = b"".join(bytes(map(number.__getitem__, fr)) + pad for fr in rights)
            against = [list(map(row.__getitem__, used)) for row in table]
            columns: dict = {}  # one label column (a right subspace against the left flag) -> code
            found: dict = {}  # key -> discovery position
            reps = []
            rows = []
            for fl in lefts:
                cols = list(zip(*[against[s] for s in fl]))
                columns.update(zip(set(cols).difference(columns), itertools.count(len(columns) + 1)))
                codes = bytes(map(columns.__getitem__, cols)).ljust(256, b"\0")
                keys = memoryview(flat.translate(codes)).cast("I")
                try:
                    row = array("I", map(found.__getitem__, keys))
                except KeyError:
                    for fr, key in zip(rights, keys):
                        if key not in found:
                            found[key] = len(reps)
                            reps.append((fl, fr))
                    row = array("I", map(found.__getitem__, keys))
                rows.append(row)
            by_code = [None, *columns]
            labels = [
                tuple(zip(*map(by_code.__getitem__, key.to_bytes(KEY_BYTES, sys.byteorder)[:width])))
                for key in found
            ]
            order = sorted(range(len(labels)), key=labels.__getitem__)
            pos = sorted(range(len(order)), key=order.__getitem__)
            reps = {labels[k]: reps[k] for k in order}
            typecode = "H" if len(labels) <= 1 << 16 else "I"
            return tuple(reps), reps, [array(typecode, [pos[k] for k in row]) for row in rows]

        ids = (self.space_id(key_left), self.space_id(key_right))
        return self._hit(raw, ("table",) + ids, build, ids == (self.space_id("X"),) * 2)

    def structure_constants(self, left, mid, right) -> dict:
        """For each label c of (left, right) pairs, the triples (a, b, count)
        such that count middle points m give label(l, m) = a and
        label(m, r) = b at a pair (l, r) with label c.  Counted at every
        pair: where two pairs of one label disagree, the labels are too
        coarse and InternalInvariantError is raised."""
        raw = ("constants", left, mid, right)
        hit = self._hits.get(raw)
        if hit is not None:
            return hit

        def build():
            labels_lm, _, lm = self.label_table(left, mid)
            labels_mr, _, mr = self.label_table(mid, right)
            labels_lr, _, lr = self.label_table(left, right)
            width = len(labels_mr)
            mr_cols = list(zip(*mr))
            counts: list = [None] * len(labels_lr)
            for lm_row, lr_row in zip(lm, lr):
                shifted = list(map(mul, lm_row, itertools.repeat(width)))
                for col, c in zip(mr_cols, lr_row):
                    found = sorted(map(add, shifted, col))  # a multiset, compared in C
                    if counts[c] is None:
                        counts[c] = found
                    elif counts[c] != found:
                        raise InternalInvariantError(f"structure constants not constant on label {labels_lr[c]}")
            return {
                lab: tuple((labels_lm[k // width], labels_mr[k % width], count) for k, count in Counter(found).items())
                for lab, found in zip(labels_lr, counts)
            }

        ids = (self.space_id(left), self.space_id(mid), self.space_id(right))
        return self._hit(raw, ("constants",) + ids, build)

    def _image(self, source, forgotten) -> list:
        """Per point x of source, the position of phi(x) among the points
        of the component forgetting the given (sorted) steps."""

        def build():
            table, points = self.intersections(), self.space_points(source)
            dims = tuple(table[s][s] for s in points[0])
            pick = [dims.index(c) for c in self.component_dims(forgotten)]
            where = {p: j for j, p in enumerate(self.space_points(("YI", forgotten)))}
            return [where[tuple(x[k] for k in pick)] for x in points]

        return self._memo(("image", self.space_id(source), forgotten), build)

    def forget_graph(self, source, forgotten) -> tuple:
        """Labels of the pairs (x, phi(x)) of the map forgetting steps from
        source onto a component.  Tested at every pair: a label both on and
        off the graph raises InternalInvariantError."""
        forgotten = tuple(sorted(forgotten))

        def build():
            labels, _, index = self.label_table(source, ("YI", forgotten))
            on, off = set(), set()
            for row, j in zip(index, self._image(source, forgotten)):
                on.add(row[j])
                off.update(row[:j], row[j + 1:])
            if on & off:
                raise InternalInvariantError(f"forgetting map straddles label {labels[min(on & off)]}")
            return tuple(labels[k] for k in sorted(on))

        return self._memo(("graph", self.space_id(source), forgotten), build)

    def pushforward(self, left, source, forgotten) -> dict:
        """The map phi forgetting steps from source onto a component, read
        on (left, source) pairs: each label c of (left, component) pairs ->
        the labels a of (left, source) pairs over it, each with its count
        of points x in the fiber of p such that (l, x) has label a, at any
        pair (l, p) of label c.  The pushforward of f takes the value
        sum(m * f(a)) at c, and the pullback of g the value g(c) at each a
        over c.

        Built from the label rows alone, |left|·|source| visits: each left
        row is permuted by one precomputed ``itemgetter`` so that every
        fiber is contiguous, and each fiber slice is sorted in C.  Audited
        at every pair: the graph of phi must not straddle a label
        (``forget_graph``), each fiber's multiset must be constant on its
        label, and each label a must lie over one label c, else
        InternalInvariantError."""
        raw = ("pushforward", left, source, tuple(forgotten))
        hit = self._hits.get(raw)
        if hit is not None:
            return hit
        forgotten = tuple(sorted(forgotten))

        def build():
            self.forget_graph(source, forgotten)
            labels_ls, _, ls = self.label_table(left, source)
            labels_lt, _, lt = self.label_table(left, ("YI", forgotten))
            image = self._image(source, forgotten)
            order = sorted(range(len(image)), key=image.__getitem__)
            # one point: the identity, where itemgetter would return a scalar
            permute = itemgetter(*order) if len(order) > 1 else tuple
            sizes = Counter(image)
            ends = itertools.accumulate((sizes[j] for j in range(len(lt[0]))), initial=0)
            fibers = list(itertools.starmap(slice, itertools.pairwise(ends)))
            found: list = [None] * len(labels_lt)
            for ls_row, lt_row in zip(ls, lt):
                row = permute(ls_row)
                for c, fiber in zip(lt_row, fibers):
                    multiset = sorted(row[fiber])
                    if found[c] is None:
                        found[c] = multiset
                    elif found[c] != multiset:
                        raise InternalInvariantError(f"forgetting map not constant on label {labels_lt[c]}")
            over: dict = {}
            for c, multiset in enumerate(found):
                for a in set(multiset):
                    if over.setdefault(a, c) != c:
                        raise InternalInvariantError(f"forgetting map sends label {labels_ls[a]} to two labels")
            return {
                labels_lt[c]: tuple((labels_ls[a], m) for a, m in Counter(multiset).items())
                for c, multiset in enumerate(found)
            }

        return self._hit(raw, ("pushforward", self.space_id(left), self.space_id(source), forgotten), build)

    # -- distinguished flags -----------------------------------------------

    def standard_flag(self):
        return self.perm_flag(range(1, self.n + 1))

    def perm_flag(self, window):
        """Complete flag whose step i is spanned by basis vectors e_w(1)..e_w(i),
        that is, the vectors supported on the coordinates w(1)..w(i)."""
        window = tuple(window)

        def build():
            masks, vecs = self._masks(), self.vectors()
            flag = []
            for i in range(1, len(window) + 1):
                off = [k for k in range(self.n) if k + 1 not in window[:i]]
                flag.append(masks.index(sum(1 << j for j, v in enumerate(vecs) if not any(v[k] for k in off))))
            return tuple(flag)

        return self._memo(("permflag", window), build, True)


class _FieldTables(dict):
    """A field store, held weakly by ``_FIELD_TABLES``."""


# (n, q) -> the field store of the shared contexts of (n, q) still alive
_FIELD_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=8)
def shared_context(n: int, q: int, d: int) -> FlagContext:
    """The one FlagContext of (n, q, d) in this process, tables and all.

    Holds the eight most recently used settings; ``cache_clear()`` frees
    them.  The shared contexts of one (n, q) share one field store (the
    subspaces, the complete flags and their labels), which lives as long
    as one of them does, so a first call at a new d builds only what
    depends on d.  A direct ``FlagContext(n, q, d)`` still builds a
    private one.
    """
    ctx = FlagContext(n, q, d)
    ctx._field = _FIELD_TABLES.setdefault((n, q), _FieldTables())
    return ctx
