"""Exact rank by sparse elimination against the dense fraction-free row
space in oracle_reference."""

from hypothesis import given, settings, strategies as st

from affhecke.linalg import int_rank
from oracle_reference import int_rank_reference

BIG = 2**40
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG), st.sampled_from((0, BIG, -BIG)))


@st.composite
def matrices(draw):
    """Tall, wide or square; rows drawn, then some replaced by integer
    combinations or repeats of others, so the rank often falls short."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
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


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_int_rank_matches_dense_reference(rows):
    assert int_rank(rows) == int_rank_reference(rows)
    assert int_rank(list(zip(*rows))) == int_rank_reference(list(zip(*rows)))


def test_int_rank_of_tuples_and_of_nothing():
    assert int_rank([]) == 0
    assert int_rank([(0, 0), (0, 0)]) == 0
    assert int_rank([(2, 4), (1, 2), (BIG, 2 * BIG)]) == 1
    assert int_rank([(1, 1, 0), (0, 1, 1), (1, 0, -1), (1, 0, 1)]) == 3
