"""Reference implementations of the length, the letters, the word walks and
the ball searches of AffinePerm.

These are the per-letter forms over AffinePerm objects: the length counts
inversions slot against slot, a simple reflection is built slot by slot,
a descent is a drop in length, and a walk or a search builds an inverse or
a composite per letter.  The package moves window tuples by one letter
action; the differential tests compare the two letter by letter.
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


def simple_reflection_reference(n: int, i: int) -> AffinePerm:
    """s_i: the window of the identity with the values at slots i and i+1
    (mod n) exchanged, j + 1 at slot i and j - 1 at slot i+1."""
    window = []
    for j in range(1, n + 1):
        if j % n == i % n:
            window.append(j + 1)
        elif j % n == (i + 1) % n:
            window.append(j - 1)
        else:
            window.append(j)
    return AffinePerm(n, window)


def letter_perm_reference(n: int, letter) -> AffinePerm:
    if letter == RHO:
        return AffinePerm.rho(n)
    if letter == RHO_INV:
        return AffinePerm.rho(n, -1)
    return simple_reflection_reference(n, letter)


def right_descent_reference(w: AffinePerm, i: int) -> bool:
    """l(w s_i) < l(w)."""
    return w.compose(simple_reflection_reference(w.n, i)).length() < w.length()


def reduced_word_reference(w: AffinePerm) -> Word:
    """Strip the first left descent s_i of the current element, s_i cur each step."""
    cur = w
    letters: list[object] = []
    while True:
        for i in range(cur.n):
            left = simple_reflection_reference(cur.n, i).compose(cur)
            if left.length() < cur.length():
                letters.append(i)
                cur = left
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
            if right_descent_reference(cur, i):
                stripped.append(i)
                cur = cur.compose(simple_reflection_reference(n, i))
                break
        else:
            if right_descent_reference(cur, 0):
                stripped += [RHO_INV, n - 1]
                cur = cur.compose(simple_reflection_reference(n, 0)).compose(AffinePerm.rho(n))
            else:
                break
    z = cur.degree()
    if z > 0 or cur != AffinePerm.rho(n, z):
        raise InternalInvariantError("positive decomposition of %s ended at rho^%d" % (w, z))
    return Word(n, [RHO_INV] * (-z) + stripped[::-1])


def coxeter_ball_reference(n: int, max_length: int, letters=None) -> tuple:
    """Elements of length <= max_length generated by ``letters`` (default
    s_0..s_{n-1}), by (length, window): a BFS that keeps a composite when
    its length is one more than its parent's."""
    if letters is None:
        letters = range(n) if n > 1 else ()
    seen = {AffinePerm.identity(n)}
    frontier = list(seen)
    gens = [simple_reflection_reference(n, i) for i in letters]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            lw = w.length()
            for g in gens:
                u = w.compose(g)
                if u not in seen and u.length() == lw + 1:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (w.length(), w.window)))


def parabolic_reference(n: int, gens) -> tuple:
    """The whole subgroup generated by the named letters, by (length, window):
    a BFS to closure that reads no length (finite only for a proper subset)."""
    base = [simple_reflection_reference(n, i) for i in gens]
    seen = {AffinePerm.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in base:
                u = w.compose(g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (w.length(), w.window)))
