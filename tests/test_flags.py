"""Finite-field flag enumeration, orbit labels, components, and fibers."""

import itertools
import math
import random
from array import array

import pytest

from affhecke import flags
from affhecke.errors import InternalInvariantError, ResourceLimitError, UnsupportedParameterError
from affhecke.flags import FlagContext, point_counts
from affhecke.weyl import finite_permutations
from oracle_reference import bases_reference, fibers, phi, rref_fq, span_of


# -- enumeration counts ---------------------------------------------------------

@pytest.mark.parametrize("n,q,count", [(2, 2, 3), (2, 3, 4), (3, 2, 21), (3, 3, 52)])
def test_complete_flag_counts(n, q, count):
    ctx = FlagContext(n, q, 1)
    assert len(ctx.space_points("X")) == count


def test_subspace_counts_f2_squared():
    ctx = FlagContext(2, 2, 1)
    # 1 zero space, 3 lines, 1 plane
    assert len(ctx.subspaces()) == 5


def test_multistep_counts():
    assert len(FlagContext(3, 2, 2).space_points("Y")) == 16
    assert len(FlagContext(2, 2, 3).space_points("Y")) == 12
    assert len(FlagContext(2, 2, 2).space_points("Y")) == 5


def test_flags_are_duplicate_free_and_increasing():
    ctx = FlagContext(3, 2, 2)
    pts = ctx.space_points("Y")
    assert len(set(pts)) == len(pts)
    for flag in pts:
        assert flag[-1] == ctx.full_space()
        for small, big in zip(flag, flag[1:]):
            assert ctx.inter_dim(big, small) == ctx.inter_dim(small, small)


@pytest.mark.parametrize("n,q,d", [
    (n, q, d) for n in (1, 2, 3) for q in (2, 3) for d in (1, 2, 3, 4)
] + [(4, 2, 1), (4, 2, 3)])
def test_point_counts_match_enumeration(n, q, d):
    ctx = FlagContext(n, q, d)
    assert point_counts(n, q, d) == (len(ctx.space_points("X")), len(ctx.space_points("Y")))


def test_point_counts_in_closed_form():
    # complete flags of F_q^n are prod [k]_q; chains of F_2^4 of 2 and 3 steps
    assert point_counts(4, 3, 1) == (1 * 4 * 13 * 40, 1)
    assert point_counts(4, 2, 2) == (315, 1 + 15 + 35 + 15 + 1)
    assert point_counts(4, 2, 3)[1] == 513
    with pytest.raises(UnsupportedParameterError):
        point_counts(2, 5, 1)
    with pytest.raises(ResourceLimitError):
        point_counts(5, 2, 1)


def test_resource_guards():
    with pytest.raises(UnsupportedParameterError):
        FlagContext(2, 5, 1)
    with pytest.raises(ResourceLimitError):
        FlagContext(5, 2, 1)
    with pytest.raises(ResourceLimitError):
        FlagContext(2, 2, 7)


@pytest.mark.parametrize("n,q,d", [(2, 3, 3), (3, 2, 3), (3, 3, 2), (4, 2, 3)])
def test_flag_builds_match_containment_enumeration(n, q, d):
    # the builds compare rows of the intersection table; containment read
    # from single entries, big ∩ small = small, is the reference
    ctx = FlagContext(n, q, d)
    chains = [(ctx.full_space(),)]
    for _ in range(d - 1):
        chains = [(sub,) + chain for chain in chains for sub in ctx.subspaces()
                  if ctx.inter_dim(chain[0], sub) == ctx.inter_dim(sub, sub)]
    assert ctx.multistep_flags() == tuple(sorted(chains))
    flags = [()]
    for dim in range(1, n + 1):
        flags = [flag + (sub,) for flag in flags for sub in ctx.subspaces()
                 if ctx.inter_dim(sub, sub) == dim
                 and (not flag or ctx.inter_dim(sub, flag[-1]) == ctx.inter_dim(flag[-1], flag[-1]))]
    assert ctx.complete_flags() == tuple(sorted(flags))


# -- subspaces against row-reduced bases -------------------------------------------

def test_rref_is_canonical():
    q = 3
    rows = [(1, 2, 0), (2, 1, 0), (0, 0, 1)]
    a = rref_fq(rows, q)
    b = rref_fq(list(reversed(rows)), q)
    assert a == b
    assert rref_fq(list(a), q) == a


def test_span_dimension_formula():
    ctx = FlagContext(3, 2, 1)
    bases = bases_reference(ctx)
    for a in ctx.subspaces():
        for b in ctx.subspaces():
            joint = len(rref_fq(list(bases[a]) + list(bases[b]), 2))
            assert ctx.inter_dim(a, b) == len(bases[a]) + len(bases[b]) - joint


@pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4) for q in (2, 3)])
def test_perm_flag_steps_are_spans_of_basis_vectors(n, q):
    ctx = FlagContext(n, q, 1)
    where = {b: i for i, b in enumerate(bases_reference(ctx))}
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for w in finite_permutations(n):
        steps = [span_of([unit[j - 1] for j in w.window[:i]], q) for i in range(1, n + 1)]
        assert ctx.perm_flag(w.window) == tuple(where[s] for s in steps)
    assert ctx.standard_flag()[-1] == ctx.full_space()


# -- labels against a direct group-orbit computation ------------------------------

def _gl(n, q):
    mats = []
    for entries in itertools.product(range(q), repeat=n * n):
        m = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        if len(rref_fq(list(m), q)) == n:
            mats.append(m)
    return mats


def _act(m, flag, q, bases, where):
    """m applied to a flag of subspace positions, each read as its
    row-reduced basis and the image mapped back to its position."""
    out = []
    for sub in flag:
        rows = [tuple(sum(m[i][j] * v[j] for j in range(len(v))) % q
                      for i in range(len(v)))
                for v in bases[sub]]
        out.append(where[rref_fq(rows, q)])
    return tuple(out)


def _orbit_partition(ctx, pairs, group):
    q, bases = ctx.q, bases_reference(ctx)
    where = {b: i for i, b in enumerate(bases)}
    seen = {}
    tag = 0
    for pair in pairs:
        if pair in seen:
            continue
        stack = [pair]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen[cur] = tag
            for m in group:
                stack.append((_act(m, cur[0], q, bases, where), _act(m, cur[1], q, bases, where)))
        tag += 1
    return seen


@pytest.mark.parametrize("left,right", [("X", "X"), ("Y", "X"), ("Y", "Y")])
def test_labels_match_group_orbits(left, right):
    n = q = 2
    ctx = FlagContext(n, q, 2)
    group = _gl(n, q)
    pairs = [(a, b) for a in ctx.space_points(left) for b in ctx.space_points(right)]
    orbit_of = _orbit_partition(ctx, pairs, group)
    for pa in pairs:
        for pb in pairs:
            same_label = ctx.pair_label(*pa) == ctx.pair_label(*pb)
            assert same_label == (orbit_of[pa] == orbit_of[pb])


def test_orbit_count_equals_weyl_group_size():
    # complete pairs in general position realize every finite permutation
    for n, q in ((2, 2), (3, 2)):
        ctx = FlagContext(n, q, 1)
        labels, _, _ = ctx.label_table("X", "X")
        import math
        assert len(labels) == math.factorial(n)


@pytest.mark.parametrize("n,d,q", [(2, 3, 3), (3, 2, 2)])
def test_label_table_positions_match_pair_labels(n, d, q):
    ctx = FlagContext(n, q, d)
    for left, right in itertools.product(("X", "Y"), repeat=2):
        labels, reps, index = ctx.label_table(left, right)
        assert list(labels) == sorted(set(labels)) == list(reps)
        for lab, pair in reps.items():
            assert ctx.pair_label(*pair) == lab
        assert all(isinstance(row, array) and row.typecode == "H" for row in index)
        for fl, row in zip(ctx.space_points(left), index):
            for fr, k in zip(ctx.space_points(right), row):
                assert labels[k] == ctx.pair_label(fl, fr)


def test_rank4_f3_label_rows_match_pair_labels():
    # 212 subspaces and 2080 complete flags: the widest byte keys admitted
    ctx = FlagContext(4, 3, 1)
    labels, _, index = ctx.label_table("X", "X")
    points = ctx.space_points("X")
    assert len(ctx.subspaces()) == 212 and len(points) == 2080
    for i in random.Random(4).sample(range(len(points)), 20):
        assert [labels[k] for k in index[i]] == [ctx.pair_label(points[i], fr) for fr in points]


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _admitted(n, q, d):
    try:
        flags._check_parameters(n, q, d)
    except (UnsupportedParameterError, ResourceLimitError):
        return False
    return True


def test_every_admitted_setting_fits_byte_keys():
    # a label key holds one byte per right step: subspace numbers below the
    # pad 255, column codes 1..255, at most KEY_BYTES steps, in one uint32
    admitted = [s for s in itertools.product(range(8), range(8), range(8)) if _admitted(*s)]
    assert {(n, q) for n, q, _ in admitted} == {(n, q) for n in range(1, flags.MAX_RANK + 1) for q in flags.FIELD_SIZES}
    assert array("I").itemsize == flags.KEY_BYTES
    for n, q, d in admitted:
        subspaces = sum(_gaussian_binomial(n, k, q) for k in range(n + 1))
        assert subspaces < 255
        assert max(n, d) <= flags.KEY_BYTES
        # a column is nondecreasing in 0..n along the left flag's max(n, d) steps
        assert math.comb(n + max(n, d), max(n, d)) <= 255
    assert len(FlagContext(4, 3, 1).subspaces()) == sum(_gaussian_binomial(4, k, 3) for k in range(5)) == 212


def test_byte_key_limits_raise():
    flags._check_byte_keys(255, 255, 4, 4)
    for args in [(256, 1, 1, 4), (1, 256, 1, 4), (1, 1, 5, 4), (1, 1, 1, 8)]:
        with pytest.raises(InternalInvariantError, match="label keys"):
            flags._check_byte_keys(*args)


def test_label_table_refuses_keys_that_would_collide(monkeypatch):
    # F_2^2 has four subspaces past zero; with a pad of 3 they cannot be numbered
    monkeypatch.setattr(flags, "_PAD", 3)
    ctx = FlagContext(2, 2, 1)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="label keys"):
            ctx.label_table("X", "X")
    monkeypatch.undo()
    assert len(ctx.label_table("X", "X")[0]) == 2


def test_tables_are_shared_by_equal_point_spaces():
    ctx = FlagContext(3, 2, 3)
    assert ctx.space_id(("YI", ())) == ctx.space_id("X")
    assert ctx.space_points(("YI", ())) is ctx.space_points("X")
    assert ctx.space_points(("YI", (2, 1))) is ctx.space_points(("YI", (1, 2)))
    assert ctx.label_table("X", ("YI", ())) is ctx.label_table("X", "X")
    assert ctx.structure_constants(("YI", ()), "X", "X") is ctx.structure_constants("X", "X", ("YI", ()))


# -- components and fibers ---------------------------------------------------------

def test_valid_components():
    assert FlagContext(3, 2, 2).valid_components() == ((1,), (1, 2), (2,))
    assert FlagContext(2, 2, 2).valid_components() == ((), (1,))
    assert FlagContext(2, 2, 1).valid_components() == ((1,),)


def test_component_dims():
    ctx = FlagContext(3, 2, 2)
    assert ctx.component_dims((1,)) == (2, 3)
    assert ctx.component_dims((2,)) == (1, 3)
    assert ctx.component_dims((1, 2)) == (3, 3)
    assert ctx.component_dims([2, 1]) == (3, 3)
    for _ in range(2):  # a refused component is refused on every call
        with pytest.raises(ValueError, match="needs more than"):
            ctx.component_dims(())
        with pytest.raises(ValueError, match="outside"):
            ctx.component_dims((3,))


def test_forgetting_map_lands_in_the_component():
    # _image names, per complete flag, the point phi(x) of the component
    ctx = FlagContext(3, 2, 2)
    bases = bases_reference(ctx)
    flags = ctx.space_points("X")
    for forgotten in ctx.valid_components():
        points = ctx.space_points(("YI", forgotten))
        dims = ctx.component_dims(forgotten)
        image = ctx._image("X", forgotten)
        assert len(image) == len(flags)
        for flag, j in zip(flags, image):
            assert points[j] == phi(ctx, flag, forgotten)
            assert tuple(len(bases[s]) for s in points[j]) == dims


def test_fibers_partition_the_flag_variety():
    ctx = FlagContext(3, 2, 2)
    flags = ctx.space_points("X")
    for forgotten in ctx.valid_components():
        parts = fibers(ctx, forgotten)
        assert sum(len(f) for f in parts.values()) == len(flags)
        assert set(parts) == set(ctx.space_points(("YI", forgotten)))  # phi is onto
        assert {len(f) for f in parts.values()} == {ctx.fiber_size(forgotten)}


def test_fiber_sizes_are_parabolic_sums():
    # fiber cardinality is the Poincare sum of the finite subgroup generated
    # by the forgotten reflection indices
    ctx = FlagContext(3, 2, 2)
    q = 2
    assert ctx.fiber_size((1,)) == 1 + q
    assert ctx.fiber_size((2,)) == 1 + q
    assert ctx.fiber_size((1, 2)) == 1 + 2 * q + 2 * q ** 2 + q ** 3
    assert ctx.fiber_size((2, 1)) == ctx.fiber_size((1, 2))


@pytest.mark.usefixtures("one_flag_moved")
def test_uneven_fibers_raise_on_every_call():
    ctx = FlagContext(3, 2, 2)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="uneven fibers"):
            ctx.fiber_size((1,))


def test_context_memoization_is_per_parameter():
    a = FlagContext(2, 2, 1)
    b = FlagContext(2, 2, 1)
    assert a.space_points("X") == b.space_points("X")
