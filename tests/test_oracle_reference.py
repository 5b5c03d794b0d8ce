"""Convolution by structure constants, the forgetting maps by their
pushforward operators, the operator matrices read off the structure
constants and the flag tables under them, against the reference forms in
oracle_reference; and the label-constancy and pushforward guards firing."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import OrbitFunction
from affhecke.errors import DomainMismatchError, InternalInvariantError
from affhecke.flags import FlagContext
from affhecke.linalg import int_rank
from affhecke.oracle import (
    _commutator_rows,
    _cosets,
    _vec,
    basis_labels,
    fiber_indicator,
    lift_family,
    operator_matrix,
    perm_label,
    psi,
    theta,
    theta_between,
)
from oracle_reference import (
    bases_reference,
    commutator_rows_reference,
    convolve_reference,
    dense,
    fiber_indicator_reference,
    graph_reference,
    int_rank_reference,
    intersections_reference,
    label_table_reference,
    mask_reference,
    operator_matrix_reference,
    phi,
    psi_reference,
    pushforward_reference,
    sparse,
    theta_between_reference,
    theta_reference,
    theta_table_reference,
    vec_reference,
)

# some tests here patch FlagContext
pytestmark = pytest.mark.usefixtures("fresh_shared_contexts")

# (n, d, q); at d = n the nothing-forgotten component is the complete flag
# space itself, so its tables are shared with those of "X".
SETTINGS = ((2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2))


@functools.lru_cache(maxsize=None)
def context(setting):
    n, d, q = setting
    return FlagContext(n, q, d)


def spaces(ctx):
    return ["X", "Y"] + [("YI", forgotten) for forgotten in ctx.valid_components()]


# -- flag tables ------------------------------------------------------------------


@pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)])
def test_subspaces_and_intersections_match_reference(n, q):
    ctx = FlagContext(n, q, 1)
    bases = bases_reference(ctx)
    assert ctx._masks() == [mask_reference(ctx, b) for b in bases]
    assert list(ctx.subspaces()) == list(range(len(bases)))
    assert ctx.full_space() == len(bases) - 1 and len(bases[-1]) == n
    assert ctx.intersections() == intersections_reference(ctx)


@pytest.mark.parametrize("setting", [(2, 3, 3), (3, 2, 2), (3, 3, 2), (4, 1, 2)])
def test_label_tables_match_reference(setting):
    n, d, q = setting
    ctx = FlagContext(n, q, d)
    for left, right in itertools.product(spaces(ctx), repeat=2):
        assert_label_table_matches_reference(ctx, left, right)


@pytest.mark.parametrize("left,right", [("Y", "X"), ("Y", "Y")])
def test_rank4_f3_label_tables_match_reference(left, right):
    # (n, d, q) = (4, 2, 3): the right points use up to 212 subspaces, the
    # widest byte keys the label tables admit
    assert_label_table_matches_reference(FlagContext(4, 3, 2), left, right)


def assert_label_table_matches_reference(ctx, left, right):
    labels, reps, rows = ctx.label_table(left, right)
    ref_labels, ref_reps, ref_rows = label_table_reference(ctx, left, right)
    assert labels == ref_labels
    assert list(reps.items()) == list(ref_reps.items())
    assert rows == ref_rows
    assert [row.typecode for row in rows] == [row.typecode for row in ref_rows]


VALUES = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
}


def draw_function(data, ctx, left, right):
    values = VALUES[data.draw(st.sampled_from(sorted(VALUES)))]
    labels = basis_labels(ctx, left, right)
    drawn = data.draw(st.lists(values, min_size=len(labels), max_size=len(labels)))
    return OrbitFunction(ctx, left, right, zip(labels, drawn))


def draw_setting(data):
    return context(data.draw(st.sampled_from(SETTINGS)))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_convolve_matches_reference(data):
    ctx = draw_setting(data)
    left, mid, right = (data.draw(st.sampled_from(spaces(ctx))) for _ in range(3))
    f = draw_function(data, ctx, left, mid)
    g = draw_function(data, ctx, mid, right)
    assert f.convolve(g) == convolve_reference(f, g)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_theta_matches_reference(data):
    ctx = draw_setting(data)
    forgotten = data.draw(st.sampled_from(ctx.valid_components()))
    f = draw_function(data, ctx, data.draw(st.sampled_from(spaces(ctx))), "X")
    assert theta(f, forgotten) == theta_reference(f, forgotten)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_theta_between_matches_reference(data):
    ctx = draw_setting(data)
    steps = [(fi, fj) for fi, fj in itertools.product(ctx.valid_components(), repeat=2)
             if set(fi) <= set(fj)]
    fi, fj = data.draw(st.sampled_from(steps))
    g = draw_function(data, ctx, data.draw(st.sampled_from(spaces(ctx))), ("YI", fi))
    assert theta_between(g, fi, fj) == theta_between_reference(g, fi, fj)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_psi_matches_reference(data):
    ctx = draw_setting(data)
    forgotten = data.draw(st.sampled_from(ctx.valid_components()))
    g = draw_function(data, ctx, data.draw(st.sampled_from(spaces(ctx))), ("YI", forgotten))
    assert psi(g, forgotten) == psi_reference(g, forgotten)
    assert psi(g, forgotten) == g.convolve(graph_reference(ctx, "X", forgotten, transpose=True))


@pytest.mark.parametrize("setting", SETTINGS)
def test_fiber_indicator_matches_reference(setting):
    ctx = context(setting)
    for forgotten in ctx.valid_components():
        assert fiber_indicator(ctx, forgotten) == fiber_indicator_reference(ctx, forgotten)
        by_graph = graph_reference(ctx, "X", forgotten).convolve(graph_reference(ctx, "X", forgotten, transpose=True))
        assert fiber_indicator(ctx, forgotten) == by_graph


# -- operator matrices ---------------------------------------------------------


def _dense(ctx, mat):
    """An operator on functions on (Y, X) as dense rows, once its sparse rows
    are checked to hold nonzero entries only."""
    assert all(all(row.values()) for row in mat)
    return dense(mat, len(basis_labels(ctx, "Y", "X")))


@pytest.mark.parametrize("setting", SETTINGS)
def test_operator_matrices_match_reference(setting):
    ctx = context(setting)
    for a in basis_labels(ctx, "Y", "Y"):
        f = OrbitFunction(ctx, "Y", "Y", {a: 1})
        assert _dense(ctx, operator_matrix(f, "Y", "Y", "X")) == operator_matrix_reference(ctx, f.convolve, "Y", "X")
    for b in basis_labels(ctx, "X", "X"):
        g = OrbitFunction(ctx, "X", "X", {b: 1})
        assert _dense(ctx, operator_matrix(g, "Y", "X", "X")) == operator_matrix_reference(
            ctx, lambda c: c.convolve(g), "Y", "X")
    for forgotten in ctx.valid_components():
        z = fiber_indicator(ctx, forgotten)
        assert _dense(ctx, operator_matrix(z, "Y", "X", "X")) == operator_matrix_reference(
            ctx, lambda c: c.convolve(z), "Y", "X")


@pytest.mark.parametrize("setting", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_commutator_rows_match_the_dense_reference(setting):
    # both actions on the mixed space: the sparse rows, the dense reference
    # rows and the two together have one rank, and are the same conditions
    ctx = context(setting)
    m = len(basis_labels(ctx, "Y", "X"))
    for left, mid, labels in (("Y", "Y", basis_labels(ctx, "Y", "Y")), ("X", "X", basis_labels(ctx, "X", "X"))):
        mats = [operator_matrix(OrbitFunction(ctx, left, mid, {lab: 1}), "Y", mid, "X") for lab in labels]
        rows = _commutator_rows(mats, m)
        ref = commutator_rows_reference([_dense(ctx, mat) for mat in mats], m)
        assert int_rank(rows) == int_rank_reference(ref) == int_rank(rows + sparse(ref))
        assert sorted(map(tuple, dense(rows, m * m))) == ref
        flat = [vec_reference(_dense(ctx, mat)) for mat in mats]
        assert dense([_vec(mat) for mat in mats], m * m) == list(map(list, flat))


def test_operator_matrix_refuses_a_factor_off_the_triple():
    ctx = context((2, 2, 2))
    f = OrbitFunction(ctx, "X", "Y", {basis_labels(ctx, "X", "Y")[0]: 1})
    with pytest.raises(DomainMismatchError, match="fits neither side"):
        operator_matrix(f, "Y", "Y", "X")


# -- the forgetting maps -------------------------------------------------------


def forgetting_maps(ctx):
    """(source, forgotten) for every map forgetting steps onto a component."""
    valid = ctx.valid_components()
    return [
        (source, fj)
        for fj in valid
        for source in ["X"] + [("YI", fi) for fi in valid if set(fi) <= set(fj)]
    ]


@pytest.mark.parametrize("setting", SETTINGS)
def test_forget_graph_matches_reference(setting):
    ctx = context(setting)
    for source, forgotten in forgetting_maps(ctx):
        graph = graph_reference(ctx, source, forgotten)
        assert ctx.forget_graph(source, forgotten) == tuple(sorted(graph.values))


@pytest.mark.parametrize("setting", SETTINGS)
def test_pushforward_operators_match_graph_convolution(setting):
    ctx = context(setting)
    for left in ("X", "Y"):
        for source, forgotten in forgetting_maps(ctx):
            got = ctx.pushforward(left, source, forgotten)
            assert {c: dict(over) for c, over in got.items()} == pushforward_reference(ctx, left, source, forgotten)


@pytest.mark.parametrize("setting", SETTINGS)
def test_coset_rows_match_graph_convolution(setting):
    ctx = context(setting)
    for forgotten in ctx.valid_components():
        rows = {coset: row for coset, row in _cosets(ctx, forgotten).values()}
        assert rows == pushforward_reference(ctx, "X", "X", forgotten)


@pytest.mark.parametrize("setting", SETTINGS)
def test_pushforward_columns_match_theta_table(setting):
    ctx = context(setting)
    for forgotten in ctx.valid_components():
        rows = ctx.pushforward("X", "X", forgotten)
        for w, (coset, mult) in theta_table_reference(ctx, forgotten).items():
            lab = perm_label(ctx, w)
            assert {c: m for c, over in rows.items() for a, m in over if a == lab} == {coset: mult}


# -- the guards ----------------------------------------------------------------


class RowDropped(FlagContext):
    """Labels with one row of the intersection matrix dropped.

    Without the first row a label cannot tell whether the first steps of
    two flags agree, so the graph of a forgetting map straddles labels.
    Without the last row (the full space against the right flag) a label
    on (complete, multistep) pairs loses the step dimensions of the right
    flag, and pairs from different components share a label.
    """

    def __init__(self, n, q, d, row):
        super().__init__(n, q, d)
        self.row = row

    def _coarse(self, label):
        rows = list(label)
        del rows[self.row]
        return tuple(rows)

    def label_table(self, key_left, key_right):
        labels, reps, index = super().label_table(key_left, key_right)
        coarse = sorted({self._coarse(lab) for lab in labels})
        pos = [coarse.index(self._coarse(lab)) for lab in labels]
        coarse_reps = {}
        for lab in labels:
            coarse_reps.setdefault(self._coarse(lab), reps[lab])
        return tuple(coarse), coarse_reps, [[pos[k] for k in row] for row in index]


def test_exact_labels_pass_both_audits():
    ctx = FlagContext(2, 2, 2)
    ctx.structure_constants("X", "X", "Y")
    assert ctx.forget_graph("X", ())


def test_structure_constants_refuse_coarse_labels():
    ctx = RowDropped(2, 2, 2, row=-1)
    with pytest.raises(InternalInvariantError, match="structure constants"):
        ctx.structure_constants("X", "X", "Y")
    f = OrbitFunction(ctx, "X", "X", {basis_labels(ctx, "X", "X")[0]: 1})
    g = OrbitFunction(ctx, "X", "Y", {basis_labels(ctx, "X", "Y")[0]: 1})
    with pytest.raises(InternalInvariantError):
        f.convolve(g)


def test_forgetting_map_indicator_refuses_coarse_labels():
    ctx = RowDropped(2, 2, 2, row=0)
    with pytest.raises(InternalInvariantError, match="forgetting map"):
        ctx.forget_graph("X", ())
    f = OrbitFunction(ctx, "X", "X", {basis_labels(ctx, "X", "X")[0]: 1})
    with pytest.raises(InternalInvariantError, match="forgetting map"):
        theta(f, ())


def _pushforward_family(ctx):
    f = OrbitFunction(ctx, "X", "X", {lab: 1 for lab in basis_labels(ctx, "X", "X")})
    return {forgotten: theta(f, forgotten) for forgotten in ctx.valid_components()}


def test_lift_refuses_rows_off_the_fiber_size(monkeypatch):
    ctx = FlagContext(3, 2, 2)
    family = _pushforward_family(ctx)
    monkeypatch.setattr(FlagContext, "fiber_size", lambda self, forgotten: 1)
    with pytest.raises(InternalInvariantError, match="fiber size"):
        lift_family(ctx, family)


def test_lift_refuses_an_orbit_on_two_cosets(monkeypatch):
    # move one unit of the first coset's row onto an orbit of the second
    # coset's row, in the rows the coset table reads: row sums stay, but
    # that orbit now pushes forward onto two cosets
    def moved(self, left, source, forgotten):
        rows = exact(self, left, source, forgotten)
        if (left, source) != ("X", "X") or len(rows) < 2:
            return rows
        rows = dict(rows)
        first, second = list(rows)[:2]
        (a, m), *rest = rows[first]
        rows[first] = ((a, m - 1), *rest, (rows[second][0][0], 1))
        return rows

    ctx = FlagContext(3, 2, 2)
    family = _pushforward_family(ctx)
    exact = FlagContext.pushforward
    monkeypatch.setattr(FlagContext, "pushforward", moved)
    with pytest.raises(InternalInvariantError, match="exactly one coset"):
        lift_family(ctx, family)


class LabelMerged(FlagContext):
    """One pair space whose label ``drop`` reads as its label ``keep``."""

    def __init__(self, n, q, d, spaces, keep, drop):
        super().__init__(n, q, d)
        self.spaces, self.keep, self.drop = spaces, keep, drop

    def label_table(self, key_left, key_right):
        labels, reps, index = super().label_table(key_left, key_right)
        if (key_left, key_right) != self.spaces:
            return labels, reps, index
        drop = labels.index(self.drop)
        pos = [k - (k > drop) for k in range(len(labels))]
        pos[drop] = pos[labels.index(self.keep)]
        merged = labels[:drop] + labels[drop + 1:]
        return merged, {lab: reps[lab] for lab in merged}, [[pos[k] for k in row] for row in index]


def test_pushforward_refuses_a_fiber_multiset_off_its_label():
    # two labels on (chain, component) pairs merged: their fibers hold
    # different multisets, and the graph of phi (on complete flags) is intact
    exact = FlagContext(3, 2, 2)
    keep, drop = basis_labels(exact, "Y", ("YI", (1,)))[:2]
    ctx = LabelMerged(3, 2, 2, ("Y", ("YI", (1,))), keep, drop)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="forgetting map not constant"):
            ctx.pushforward("Y", "X", (1,))


def test_pushforward_refuses_a_label_over_two_labels():
    # two labels on (chain, complete flag) pairs lying over different
    # labels merged: every fiber multiset stays constant on its label
    exact = FlagContext(3, 2, 2)
    (_, first), (_, second) = list(exact.pushforward("Y", "X", (1,)).items())[:2]
    ctx = LabelMerged(3, 2, 2, ("Y", "X"), first[0][0], second[0][0])
    g = OrbitFunction(ctx, "Y", ("YI", (1,)), {basis_labels(ctx, "Y", ("YI", (1,)))[0]: 1})
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="forgetting map sends label"):
            psi(g, (1,))


class GraphLabelSpilled(FlagContext):
    """(complete, component) labels with the graph label of phi copied onto
    one neighbour of the graph position in each row, on one side only."""

    def __init__(self, n, q, d, forgotten, side):
        super().__init__(n, q, d)
        self.forgotten, self.side = forgotten, side

    def label_table(self, key_left, key_right):
        labels, reps, index = super().label_table(key_left, key_right)
        target = ("YI", self.forgotten)
        if (key_left, key_right) != ("X", target):
            return labels, reps, index
        where = {p: j for j, p in enumerate(self.space_points(target))}
        rows = []
        for x, row in zip(self.space_points("X"), index):
            row, j = list(row), where[phi(self, x, self.forgotten)]
            if 0 <= j + self.side < len(row):
                row[j + self.side] = row[j]
            rows.append(row)
        return labels, reps, rows


@pytest.mark.parametrize("side", [-1, 1])
def test_forget_graph_refuses_the_graph_label_on_one_side_of_the_graph(side):
    ctx = GraphLabelSpilled(3, 2, 2, (1,), side)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="forgetting map straddles"):
            ctx.forget_graph("X", (1,))
