"""Convolution by structure constants, the forgetting maps by graph
convolution, the operator matrices read off the structure constants and
the flag tables under them, against the reference forms in
oracle_reference; and the label-constancy and pushforward guards firing."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import OrbitFunction, oracle
from affhecke.errors import DomainMismatchError, InternalInvariantError
from affhecke.flags import FlagContext
from affhecke.oracle import (
    _graph,
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
    convolve_reference,
    fiber_indicator_reference,
    intersections_reference,
    label_table_reference,
    operator_matrix_reference,
    psi_reference,
    subspaces_reference,
    theta_between_reference,
    theta_reference,
    theta_table_reference,
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
    assert ctx.subspaces() == subspaces_reference(ctx)
    assert ctx.intersections() == intersections_reference(ctx)


@pytest.mark.parametrize("setting", [(2, 3, 3), (3, 2, 2), (3, 3, 2), (4, 1, 2)])
def test_label_tables_match_reference(setting):
    n, d, q = setting
    ctx = FlagContext(n, q, d)
    for left, right in itertools.product(spaces(ctx), repeat=2):
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


@pytest.mark.parametrize("setting", SETTINGS)
def test_fiber_indicator_matches_reference(setting):
    ctx = context(setting)
    for forgotten in ctx.valid_components():
        assert fiber_indicator(ctx, forgotten) == fiber_indicator_reference(ctx, forgotten)


# -- operator matrices ---------------------------------------------------------


@pytest.mark.parametrize("setting", SETTINGS)
def test_operator_matrices_match_reference(setting):
    ctx = context(setting)
    for a in basis_labels(ctx, "Y", "Y"):
        f = OrbitFunction(ctx, "Y", "Y", {a: 1})
        assert operator_matrix(f, "Y", "Y", "X") == operator_matrix_reference(ctx, f.convolve, "Y", "X")
    for b in basis_labels(ctx, "X", "X"):
        g = OrbitFunction(ctx, "X", "X", {b: 1})
        assert operator_matrix(g, "Y", "X", "X") == operator_matrix_reference(ctx, lambda c: c.convolve(g), "Y", "X")
    for forgotten in ctx.valid_components():
        z = fiber_indicator(ctx, forgotten)
        assert operator_matrix(z, "Y", "X", "X") == operator_matrix_reference(ctx, lambda c: c.convolve(z), "Y", "X")


def test_operator_matrix_refuses_a_factor_off_the_triple():
    ctx = context((2, 2, 2))
    f = OrbitFunction(ctx, "X", "Y", {basis_labels(ctx, "X", "Y")[0]: 1})
    with pytest.raises(DomainMismatchError, match="fits neither side"):
        operator_matrix(f, "Y", "Y", "X")


@pytest.mark.parametrize("setting", SETTINGS)
def test_pushforward_columns_match_theta_table(setting):
    ctx = context(setting)
    for forgotten in ctx.valid_components():
        target = ("YI", forgotten)
        mat = operator_matrix(_graph(ctx, "X", forgotten), "X", "X", target)
        orbits = basis_labels(ctx, "X", "X")
        cosets = basis_labels(ctx, "X", target)
        for w, (coset, mult) in theta_table_reference(ctx, forgotten).items():
            column = [row[orbits.index(perm_label(ctx, w))] for row in mat]
            assert {cosets[i]: m for i, m in enumerate(column) if m} == {coset: mult}


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
    # move one unit of a column onto another orbit's column in the same row:
    # row sums stay, but that orbit now pushes forward onto two cosets
    def moved(fixed, left, mid, right):
        mat = exact(fixed, left, mid, right)
        if len(mat) > 1:
            first = next(j for j, x in enumerate(mat[0]) if x)
            k = next(j for j, x in enumerate(mat[1]) if x)
            mat[0][first] -= 1
            mat[0][k] += 1
        return mat

    ctx = FlagContext(3, 2, 2)
    family = _pushforward_family(ctx)
    exact = oracle.operator_matrix
    monkeypatch.setattr(oracle, "operator_matrix", moved)
    with pytest.raises(InternalInvariantError, match="exactly one coset"):
        lift_family(ctx, family)
