"""Exact rank by sparse elimination against the dense fraction-free row
space in oracle_reference, and the sparse product against the dense one."""

from hypothesis import given, settings, strategies as st

from affhecke.linalg import int_rank, mat_mul
from oracle_reference import dense, int_rank_reference, mat_mul_reference

BIG = 2**40
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG), st.sampled_from((0, BIG, -BIG)))


@st.composite
def matrices(draw, nrows=st.integers(0, 12), ncols=st.integers(1, 12)):
    """Tall, wide or square; rows drawn, then some replaced by integer
    combinations or repeats of others, so the rank often falls short."""
    nrows, ncols = draw(nrows), draw(ncols)
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "zero", "repeat", "combine")))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif i and kind == "repeat":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif i and kind == "combine":
            a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@st.composite
def row_dicts(draw, rows):
    """The rows as dicts of their nonzeros, some also holding explicit zeros."""
    return [{j: x for j, x in enumerate(row) if x or draw(st.booleans())} for row in rows]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_int_rank_matches_dense_reference(data):
    rows = data.draw(matrices())
    columns = [list(col) for col in zip(*rows)]
    assert int_rank(data.draw(row_dicts(rows))) == int_rank_reference(rows)
    assert int_rank(data.draw(row_dicts(columns))) == int_rank_reference(columns)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_mat_mul_matches_dense_product(data):
    inner, ncols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a = data.draw(matrices(ncols=st.just(inner)))
    b = data.draw(matrices(nrows=st.just(inner), ncols=st.just(ncols)))
    product = mat_mul(data.draw(row_dicts(a)), data.draw(row_dicts(b)))
    assert all(all(row.values()) for row in product)  # nonzero entries only
    assert dense(product, ncols) == mat_mul_reference(a, b)


def test_int_rank_of_small_and_empty_matrices():
    assert int_rank([]) == 0
    assert int_rank([{}, {0: 0, 1: 0}]) == 0
    assert int_rank([{0: 2, 1: 4}, {0: 1, 1: 2}, {0: BIG, 1: 2 * BIG}]) == 1
    assert int_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}, {0: 1, 1: 0, 2: 1}]) == 3
