"""Reference implementations of the length and the word walks of AffinePerm.

These are the per-letter forms over AffinePerm objects: the length counts
inversions slot against slot, and a walk builds an inverse or a composite
and a fresh simple reflection per letter.  The package strips the same
descents on a list of window values; the differential tests compare the
two letter by letter.
"""

from affhecke.errors import InternalInvariantError, NotPositiveError
from affhecke.weyl import RHO, RHO_INV, AffinePerm, Word


def length_reference(w: AffinePerm) -> int:
    """Inversions (i, j), 1 <= i <= n, i < j in Z, w(i) > w(j), counted per slot pair."""
    n = w.n
    total = 0
    for i in range(1, n + 1):
        wi = w.window[i - 1]
        for r in range(1, n + 1):
            if r == i:
                continue
            diff = wi - w.window[r - 1]
            count = -((-diff) // n) - (1 if r < i else 0)
            if count > 0:
                total += count
    return total


def reduced_word_reference(w: AffinePerm) -> Word:
    """Strip the first left descent s_i of the current element, s_i cur each step."""
    cur = w
    letters: list[object] = []
    while True:
        inv = cur.inverse()
        for i in range(cur.n):
            if inv.has_right_descent(i):
                letters.append(i)
                cur = AffinePerm.s(cur.n, i).compose(cur)
                break
        else:
            break
    z = cur.degree()
    if cur != AffinePerm.rho(w.n, z):
        raise InternalInvariantError("descent stripping did not end at a rho power")
    letters.extend([RHO] * z if z >= 0 else [RHO_INV] * (-z))
    return Word(w.n, letters)


def positive_reduced_word_reference(w: AffinePerm) -> Word:
    """Strip right descents s_1..s_{n-1}; a sole descent at 0 becomes s_{n-1} rho^-1."""
    if not w.is_positive():
        raise NotPositiveError("%s has a window value above n" % w)
    n = w.n
    cur = w
    stripped: list[object] = []
    while True:
        for i in range(1, n):
            if cur.has_right_descent(i):
                stripped.append(i)
                cur = cur.compose(AffinePerm.s(n, i))
                break
        else:
            if cur.has_right_descent(0):
                stripped += [RHO_INV, n - 1]
                cur = cur.compose(AffinePerm.s(n, 0)).compose(AffinePerm.rho(n))
            else:
                break
    z = cur.degree()
    if z > 0 or cur != AffinePerm.rho(n, z):
        raise InternalInvariantError("positive decomposition of %s ended at rho^%d" % (w, z))
    return Word(n, [RHO_INV] * (-z) + stripped[::-1])
