"""Brute-force convolution checks on finite flag configurations.

Functions invariant under simultaneous change of basis live on orbit
labels (intersection-dimension matrices) of pairs of flags.  Convolution
reads the structure constants of its triple of spaces: counts of middle
flags by their labels with both ends.  The pushforward, the pullback and
the fiber indicator follow their definitions along a forgetting map phi:
each reads ``FlagContext.pushforward``, the label rows permuted through
phi, with no middle point.  Both tables are audited once per context at
every pair, which must be constant on each label, so a wrong label
scheme fails loudly instead of silently.

The four checks below take their context from ``flags.shared_context``:
one per (n, q, d) per process, at most eight alive, so a repeated setting
reuses its audited tables, and settings of one (n, q) share the tables of
complete flags; ``flags.shared_context.cache_clear()`` frees them.

Memoised per context, so built once: the label tables, the structure
constants and the pushforward operators, each with its audit (a repeated
call with the same arguments is one dict lookup); the fiber sizes; the
labels of permuted flags; and the lift plan of ``_lift_plan`` (the labels
a trial draws, the zeroed orbits and the triangular order).  The
parabolic subgroups are cached per (n, steps).  An ``OrbitFunction``
resolves its domain, the space ids of its two keys, once when it is
built; every domain check compares domains.  Still run on every call:
the coset row and column audits of ``_cosets`` with their fiber-size
comparison, the operator matrices, commutation, ranks, the eigenvalue
equation and the lift's round trip.

Before a context is built or looked up, the largest structure-constant
table a check builds is bounded from the closed-form point counts: a
table on (left, mid, right) visits |left|·|mid|·|right| middle points,
and above MAX_TABLE_VISITS the check raises ResourceLimitError without
enumerating anything.  Label tables and pushforward operators visit
pairs, not triples, and are not charged: ``lift_trials`` builds only
those, so only the parameter range of ``flags`` and MAX_TRIALS bound it.
Operator matrices and the linear systems built from them are lists of
sparse rows, the matrix form of ``linalg``.

The checks exercised here: the orbit algebra on pairs of complete flags
multiplies like the generic positive algebra with the parameter set to
the field size; the left and right convolution actions on the mixed
space centralize each other when the step count is at least the rank;
below the rank the right action still fills out the centralizer but
acquires a kernel; and functions pulled back from a partial-flag factor
are cut out by one eigenvalue equation.  A compatible family of
functions on the partial-flag factors lifts to the complete-flag space
by a triangular recursion over descent classes.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, namedtuple

from . import hecke, linalg, weyl
from .errors import (
    DomainMismatchError,
    IncompatibleFamilyError,
    InternalInvariantError,
    ResourceLimitError,
)
from .flags import FlagContext, point_counts, shared_context

# Admits the tables of every rank-4 setting over F_2 up to d = 3, whose
# largest table (Y x Y x X at d = 3) visits about 8.3e7 middle points.
MAX_TABLE_VISITS = 100_000_000
# A warm lift trial takes about 1.2 ms at (4, 4, 2) and 1.4 ms at (4, 4, 3)
# (Python 3.11, 2 vCPUs), so the cap stands for about 15 s of trials.
MAX_TRIALS = 10_000


class OrbitFunction:
    """Invariant function on pairs of flags, stored by orbit label, on the
    domain (space id of ``left``, space id of ``right``)."""

    __slots__ = ("ctx", "left", "right", "domain", "values")

    def __init__(self, ctx: FlagContext, left, right, values):
        self.ctx = ctx
        self.left = left
        self.right = right
        self.domain = (ctx.space_id(left), ctx.space_id(right))
        items = values.items() if isinstance(values, dict) else values
        self.values = {lab: c for lab, c in items if c}

    def value(self, label):
        return self.values.get(label, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrbitFunction) and self.ctx is other.ctx
                and self.domain == other.domain and self.values == other.values)

    def __hash__(self):
        return hash((self.domain, frozenset(self.values.items())))

    def __add__(self, other: "OrbitFunction") -> "OrbitFunction":
        if self.ctx is not other.ctx or self.domain != other.domain:
            raise DomainMismatchError("cannot add functions on different pair spaces")
        vals = dict(self.values)
        for lab, c in other.values.items():
            vals[lab] = vals.get(lab, 0) + c
        return OrbitFunction(self.ctx, self.left, self.right, vals)

    def __sub__(self, other: "OrbitFunction") -> "OrbitFunction":
        return self + other.scale(-1)

    def scale(self, c) -> "OrbitFunction":
        return OrbitFunction(self.ctx, self.left, self.right, {lab: c * v for lab, v in self.values.items()})

    def convolve(self, other: "OrbitFunction") -> "OrbitFunction":
        """Sum over the shared middle flag, by the audited structure constants."""
        if self.ctx is not other.ctx:
            raise DomainMismatchError("convolution operands built on different contexts")
        if self.domain[1] != other.domain[0]:
            raise DomainMismatchError(f"middle spaces differ: {self.right!r} vs {other.left!r}")
        f, g = self.values.get, other.values.get
        out = {
            lab: sum(f(a, 0) * g(b, 0) * count for a, b, count in terms)
            for lab, terms in self.ctx.structure_constants(self.left, self.right, other.right).items()
        }
        return OrbitFunction(self.ctx, self.left, other.right, out)


# -- pushforward / pullback along forgetting steps ------------------------------


def _push(f: OrbitFunction, source, forgotten) -> OrbitFunction:
    """f pushed along the map forgetting steps from its right factor."""
    value, over = f.values.get, f.ctx.pushforward(f.left, source, forgotten)
    out = {c: sum(m * value(a, 0) for a, m in terms) for c, terms in over.items()}
    return OrbitFunction(f.ctx, f.left, ("YI", tuple(sorted(forgotten))), out)


def theta(f: OrbitFunction, forgotten) -> OrbitFunction:
    """Sum f over complete flags refining each partial flag (right factor)."""
    if f.domain[1] != f.ctx.space_id("X"):
        raise DomainMismatchError("theta expects a function with complete right factor")
    return _push(f, "X", forgotten)


def theta_between(g: OrbitFunction, forgotten_i, forgotten_j) -> OrbitFunction:
    """Push a partial-flag function further down to a coarser component."""
    forgotten_i = tuple(sorted(forgotten_i))
    if g.domain[1] != g.ctx.space_id(("YI", forgotten_i)):
        raise DomainMismatchError("function does not live on the named component")
    if not set(forgotten_i) <= set(forgotten_j):
        raise DomainMismatchError("target component must forget at least as much")
    return _push(g, ("YI", forgotten_i), forgotten_j)


def psi(g: OrbitFunction, forgotten) -> OrbitFunction:
    """Pull a partial-flag function back along phi: g(l, phi(x)) at (l, x)."""
    if g.domain[1] != g.ctx.space_id(("YI", tuple(sorted(forgotten)))):
        raise DomainMismatchError("function does not live on the named component")
    over = g.ctx.pushforward(g.left, "X", forgotten)
    return OrbitFunction(g.ctx, g.left, "X", {a: g.value(c) for c, terms in over.items() for a, _ in terms})


def fiber_indicator(ctx: FlagContext, forgotten) -> OrbitFunction:
    """Indicator of pairs of complete flags with the same partial image:
    phi(x) = phi(x') exactly when (x, phi(x')) lies on the graph of phi."""
    over = ctx.pushforward("X", "X", forgotten)
    return OrbitFunction(ctx, "X", "X", {a: 1 for c in ctx.forget_graph("X", forgotten) for a, _ in over[c]})


# -- matrices of convolution operators ------------------------------------------


def basis_labels(ctx: FlagContext, left, right):
    return ctx.label_table(left, right)[0]


def operator_matrix(fixed: OrbitFunction, left, mid, right):
    """Matrix of convolution by a fixed factor, read off the structure
    constants of (left, mid, right): on the left of functions on (mid,
    right) if the factor lives on (left, mid), else on the right of
    functions on (left, mid).  Where all three spaces are one it acts on the
    left.  Rows follow the labels of (left, right), columns the operand's;
    each row is a dict of its nonzero entries."""
    ctx, sid = fixed.ctx, fixed.ctx.space_id
    on_left = fixed.domain == (sid(left), sid(mid))
    if not on_left and fixed.domain != (sid(mid), sid(right)):
        raise DomainMismatchError(f"factor on {fixed.left!r} x {fixed.right!r} fits neither side of the triple")
    column = {lab: j for j, lab in enumerate(basis_labels(ctx, *((mid, right) if on_left else (left, mid))))}
    consts = ctx.structure_constants(left, mid, right)
    value = fixed.values.get
    rows = []
    for lab in basis_labels(ctx, left, right):
        row: dict = {}
        for a, b, count in consts[lab]:
            fixed_lab, free_lab = (a, b) if on_left else (b, a)
            x = value(fixed_lab)
            if x:
                j = column[free_lab]
                row[j] = row.get(j, 0) + x * count
        rows.append({j: x for j, x in row.items() if x})
    return rows


def _vec(mat):
    """A square matrix flattened to one sparse row: entry (i, j) at i*m + j."""
    m = len(mat)
    return {i * m + j: x for i, row in enumerate(mat) for j, x in row.items()}


def _commutator_rows(mats, m):
    """Linear conditions on an m x m matrix X, flattened as by ``_vec``,
    commuting with every mat P: entry (i, j) of X·P - P·X, once each."""
    rows = set()
    for p in mats:
        eqs = defaultdict(dict)  # entry (i, j) at i*m + j
        for a, p_row in enumerate(p):
            for b, y in p_row.items():
                for i in range(m):
                    eq = eqs[i * m + b]  # X[i][a]·P[a][b] in entry (i, b)
                    eq[i * m + a] = eq.get(i * m + a, 0) + y
                    eq = eqs[a * m + i]  # P[a][b]·X[b][i] in entry (a, i)
                    eq[b * m + i] = eq.get(b * m + i, 0) - y
        rows.update(tuple(sorted((k, x) for k, x in eq.items() if x)) for eq in eqs.values())
    return [dict(row) for row in sorted(rows) if row]


# -- reports ---------------------------------------------------------------------


class Report(namedtuple("Report", "claim status dims mismatches")):
    """Outcome of one check: its claim, "pass" or "fail", the dimensions it
    measured and one record per mismatch found."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "dims": dict(sorted(self.dims.items())),
            "mismatches": self.mismatches,
        }


def _finish(claim: str, dims: dict, mismatches: list) -> Report:
    return Report(claim=claim, status="pass" if not mismatches else "fail", dims=dims, mismatches=mismatches)


def _context(n: int, q: int, d: int, triples: tuple) -> FlagContext:
    """The shared context of (n, q, d), once every structure-constant
    table the caller builds is under MAX_TABLE_VISITS, else
    ResourceLimitError.  ``triples`` names the (left, mid, right) spaces of
    those tables by "X" and "Y".  The test suite records the tables each
    check builds and holds them to exactly these names."""
    size = dict(zip("XY", point_counts(n, q, d)))
    visits = max(size[a] * size[b] * size[c] for a, b, c in triples)
    if visits > MAX_TABLE_VISITS:
        raise ResourceLimitError(
            "oracle tables at n=%d, q=%d, d=%d may visit %d middle points, above the cap %d"
            % (n, q, d, visits, MAX_TABLE_VISITS)
        )
    return shared_context(n, q, d)


# -- check 1: complete-flag orbit algebra vs generic algebra --------------------


def perm_label(ctx: FlagContext, w: weyl.AffinePerm):
    """Orbit label of (standard flag, flag permuted by w), once per window
    in the field store."""
    return ctx._memo(("permlabel", w.window), lambda: ctx.pair_label(ctx.standard_flag(), ctx.perm_flag(w.window)), True)


def verify_hecke_iso(n: int, q: int) -> Report:
    """Match orbit convolution on complete flags against the generic product."""
    ctx = _context(n, q, 1, ("XXX",))
    perms = list(weyl.finite_permutations(n))
    labels = basis_labels(ctx, "X", "X")
    lab_of: dict = {}
    mismatches: list = []
    for w in perms:
        lab = perm_label(ctx, w)
        if lab in lab_of.values():
            mismatches.append({"kind": "label collision", "window": list(w.window)})
        lab_of[w] = lab
    if set(lab_of.values()) != set(labels):
        mismatches.append({"kind": "orbit count", "expected": len(perms), "got": len(labels)})
    win_of = {lab: w for w, lab in lab_of.items()}
    for u, w in itertools.product(perms, perms):
        conv = OrbitFunction(ctx, "X", "X", {lab_of[u]: 1}).convolve(
            OrbitFunction(ctx, "X", "X", {lab_of[w]: 1})
        )
        product = hecke.t_basis(u) * hecke.t_basis(w)
        expected = {x.window: c.specialize_q(q) for x, c in product.terms.items()}
        got = {win_of[lab].window: val for lab, val in conv.values.items()}
        if expected != got:
            mismatches.append(
                {
                    "kind": "structure constants",
                    "left": list(u.window),
                    "right": list(w.window),
                }
            )
    dims = {"flags": len(ctx.space_points("X")), "orbits": len(labels), "group order": len(perms)}
    return _finish(f"orbit algebra on complete flags matches generic algebra at q={q} (n={n})", dims, mismatches)


# -- check 2: mutual centralizers on the mixed space ----------------------------


def bicommutant_check(n: int, d: int, q: int) -> Report:
    """Compare both convolution actions on the mixed space with each
    other's centralizer.  At d >= n both actions fill their centralizer
    exactly; at d < n the right action is checked to surject with a
    nonzero kernel.  Its systems are sparse rows; the table guard bounds it."""
    ctx = _context(n, q, d, ("YYX", "YXX"))
    dim_a = len(basis_labels(ctx, "Y", "Y"))
    dim_b = len(basis_labels(ctx, "X", "X"))
    dim_c = len(basis_labels(ctx, "Y", "X"))
    left_mats = [
        operator_matrix(OrbitFunction(ctx, "Y", "Y", {a: 1}), "Y", "Y", "X")
        for a in basis_labels(ctx, "Y", "Y")
    ]
    right_mats = [
        operator_matrix(OrbitFunction(ctx, "X", "X", {b: 1}), "Y", "X", "X")
        for b in basis_labels(ctx, "X", "X")
    ]
    mismatches: list = []
    for la, rb in itertools.product(left_mats, right_mats):
        if linalg.mat_mul(la, rb) != linalg.mat_mul(rb, la):
            mismatches.append({"kind": "actions do not commute"})
            break

    rank_left = linalg.int_rank([_vec(m) for m in left_mats])
    rank_right = linalg.int_rank([_vec(m) for m in right_mats])
    cent_of_left = dim_c * dim_c - linalg.int_rank(_commutator_rows(left_mats, dim_c))
    cent_of_right = dim_c * dim_c - linalg.int_rank(_commutator_rows(right_mats, dim_c))
    kernel_right = dim_b - rank_right

    dims = {
        "dim left algebra": dim_a,
        "dim right algebra": dim_b,
        "dim mixed space": dim_c,
        "rank of left action": rank_left,
        "rank of right action": rank_right,
        "centralizer of left action": cent_of_left,
        "centralizer of right action": cent_of_right,
        "kernel of right action": kernel_right,
    }
    if d >= n:
        if not (rank_left == dim_a == cent_of_right):
            mismatches.append({"kind": "left action is not the full centralizer", "dims": [rank_left, dim_a, cent_of_right]})
        if not (rank_right == dim_b == cent_of_left):
            mismatches.append({"kind": "right action is not the full centralizer", "dims": [rank_right, dim_b, cent_of_left]})
    else:
        if rank_right != cent_of_left:
            mismatches.append({"kind": "right action misses the centralizer", "dims": [rank_right, cent_of_left]})
        if kernel_right <= 0:
            mismatches.append({"kind": "right action unexpectedly faithful"})
    side = "mutual centralizers" if d >= n else "surjection with kernel"
    return _finish(f"{side} on the mixed space (n={n}, d={d}, q={q})", dims, mismatches)


# -- check 3: image of the pullback is one eigenspace ---------------------------


def im_psi_check(n: int, d: int, q: int) -> Report:
    """On every component: pullbacks from the partial factor are exactly
    the eigenspace of right convolution by the fiber indicator."""
    ctx = _context(n, q, d, ("YXX",))
    column = {a: j for j, a in enumerate(basis_labels(ctx, "Y", "X"))}
    dim_c = len(column)
    mismatches: list = []
    dims: dict = {"dim mixed space": dim_c}
    for forgotten in ctx.valid_components():
        name = ",".join(map(str, forgotten)) or "none"
        m_fiber = ctx.fiber_size(forgotten)
        group = weyl.coxeter_ball(n, n * (n - 1) // 2, forgotten)
        poincare = sum(q ** w.length() for w in group)
        if m_fiber != poincare:
            mismatches.append({"kind": "fiber size", "component": name, "got": m_fiber, "expected": poincare})
        rmat = operator_matrix(fiber_indicator(ctx, forgotten), "Y", "X", "X")
        shifted = [{**row, i: row.get(i, 0) - m_fiber} for i, row in enumerate(rmat)]
        nullity = dim_c - linalg.int_rank(shifted)
        partial = ("YI", forgotten)
        expected = len(basis_labels(ctx, "Y", partial))
        # the pullbacks of the indicator basis are the columns of the matrix of
        # psi: each indicates the labels over one label of the partial factor
        pulled: list = [{} for _ in range(dim_c)]
        for t, over in enumerate(ctx.pushforward("Y", "X", forgotten).values()):
            for a, _ in over:
                pulled[column[a]][t] = 1
        for _ in set().union(*linalg.mat_mul(shifted, pulled)):  # columns off the eigenspace
            mismatches.append({"kind": "pullback not an eigenfunction", "component": name})
        rank_pulled = linalg.int_rank(pulled)
        dims[f"eigenspace [{name}]"] = nullity
        dims[f"partial orbits [{name}]"] = expected
        if nullity != expected or rank_pulled != expected:
            mismatches.append(
                {
                    "kind": "pullback image is not the eigenspace",
                    "component": name,
                    "dims": [nullity, rank_pulled, expected],
                }
            )
    return _finish(f"pullback images cut out by one eigenvalue equation (n={n}, d={d}, q={q})", dims, mismatches)


# -- check 4: lifting compatible families ----------------------------------------


def _finite_descents(w: weyl.AffinePerm) -> tuple:
    return tuple(i for i in range(1, w.n) if w.has_right_descent(i))


def _lift_plan(ctx: FlagContext) -> tuple:
    """What a lift reads of its context, built once per context: the
    labels that draw a random value in a trial, in ``finite_permutations``
    order; the count of zeroed orbits, those whose permutation has fewer
    than n - d descents; and the triangular order, by (length, window),
    as (label, descents), with descents None on a zeroed orbit."""

    def build():
        perms = list(weyl.finite_permutations(ctx.n))
        descents = {w: _finite_descents(w) for w in perms}
        kept = {w: ds for w, ds in descents.items() if len(ds) >= ctx.n - ctx.d}
        order = sorted(perms, key=lambda w: (w.length(), w.window))
        return (
            tuple(perm_label(ctx, w) for w in kept),
            len(perms) - len(kept),
            tuple((perm_label(ctx, w), kept.get(w)) for w in order),
        )

    return ctx._memo("lift plan", build)


def _cosets(ctx: FlagContext, forgotten) -> dict:
    """Per orbit on complete-flag pairs: the coset label it pushes forward
    onto, and that coset's row of the pushforward as {orbit: multiplicity}.
    Every row must sum to the fiber size, and every orbit must lie in
    exactly one row."""
    rows = {c: {a: m for a, m in over if m} for c, over in ctx.pushforward("X", "X", forgotten).items()}
    size = ctx.fiber_size(forgotten)
    bad = {c: sum(row.values()) for c, row in rows.items() if sum(row.values()) != size}
    if bad:
        raise InternalInvariantError(f"coset multiplicities do not sum to the fiber size {size}: {bad}")
    out: dict = {}
    for coset, row in rows.items():
        out.update(dict.fromkeys(row, (coset, row)))
    if sum(map(len, rows.values())) != len(out) or out.keys() != set(basis_labels(ctx, "X", "X")):
        raise InternalInvariantError(f"an orbit does not push forward onto exactly one coset (component {forgotten})")
    return out


def lift_family(ctx: FlagContext, family: dict) -> OrbitFunction:
    """Reconstruct a complete-flag function from its pushforwards.

    The family maps each valid component to a function on (complete x
    partial) pairs.  Pushforwards must agree along further forgetting,
    else IncompatibleFamilyError.  Orbits whose permutation has fewer
    descents than n - d are set to zero; every other orbit value is
    solved by a triangular recursion through its descent component.  The
    result is verified to push forward onto the family exactly.
    """
    from fractions import Fraction

    valid = ctx.valid_components()
    if set(family) != set(valid):
        raise IncompatibleFamilyError(
            f"family keys {sorted(family)} do not match components {list(valid)}"
        )
    complete = ctx.space_id("X")
    for forg, func in family.items():
        if func.domain != (complete, ctx.space_id(("YI", tuple(sorted(forg))))):
            raise DomainMismatchError(f"family entry for {forg} lives on the wrong space")
    cosets = {forg: _cosets(ctx, forg) for forg in valid}
    for fi, fj in itertools.product(valid, valid):
        if fi != fj and set(fi) <= set(fj) and theta_between(family[fi], fi, fj) != family[fj]:
            raise IncompatibleFamilyError(f"pushforwards from component {fi} and component {fj} disagree")

    values: dict = {}
    for lab, descents in _lift_plan(ctx)[2]:
        if descents is None:
            values[lab] = 0
            continue
        # the orbit's permutation is longest in its coset, so the rest of
        # the row is already solved
        coset, row = cosets[descents][lab]
        total = family[descents].value(coset) - sum(m * values[a] for a, m in row.items() if a != lab)
        quotient, remainder = divmod(total, row[lab])
        values[lab] = Fraction(total, row[lab]) if remainder else quotient

    lifted = OrbitFunction(ctx, "X", "X", values)
    for forg in valid:
        if theta(lifted, forg) != family[forg]:
            raise IncompatibleFamilyError(
                f"family admits no lift vanishing on small descent classes (component {forg})"
            )
    return lifted


def lift_trials(n: int, d: int, q: int, trials: int, seed: int) -> Report:
    """Seeded round-trips: random function, push to all components, lift
    back.  Fewer than one trial raise ValueError, and more than MAX_TRIALS
    ResourceLimitError, both at once.  No structure-constant table is
    built, so no table guard runs."""
    if trials < 1:
        raise ValueError("%d lift trials requested; at least one is needed" % trials)
    if trials > MAX_TRIALS:
        raise ResourceLimitError("%d lift trials requested, above the cap %d" % (trials, MAX_TRIALS))
    ctx = shared_context(n, q, d)
    rng = random.Random(seed)
    drawn, zeroed, _ = _lift_plan(ctx)
    mismatches: list = []
    for trial in range(trials):
        vals = {lab: rng.randint(-9, 9) for lab in drawn}
        original = OrbitFunction(ctx, "X", "X", vals)
        family = {forg: theta(original, forg) for forg in ctx.valid_components()}
        try:
            lifted = lift_family(ctx, family)
        except IncompatibleFamilyError as exc:
            mismatches.append({"kind": "lift refused", "trial": trial, "detail": str(exc)})
            continue
        if lifted != original:
            mismatches.append({"kind": "round trip", "trial": trial})
    dims = {
        "trials": trials,
        "zeroed orbits": zeroed,
        "components": len(ctx.valid_components()),
    }
    return _finish(f"pushforward family lifts round-trip (n={n}, d={d}, q={q}, {trials} trials)", dims, mismatches)
