"""Positive subalgebra, its two-sided ideals, and the quotient algebras.

The positive subalgebra is spanned by T_w over the cone of w with all window
values <= n.  For a dominant partition lambda the ideal is spanned by the
T_{(sigma,-mu)} with dom(mu) >= lambda componentwise; a finite family of
partitions (normalized to an antichain of minimal elements) gives the sum of
the single-partition ideals.  Quotient elements carry the canonical
representative with ideal-supported terms dropped.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import hecke
from .errors import (
    InternalInvariantError,
    NotPositiveError,
    RankMismatchError,
    SpecMismatchError,
)
from .hecke import HeckeElt, t_basis, x_monomial
from .laurent import V2, V2_MINUS_ONE
from .weyl import (
    RHO_INV,
    AffinePerm,
    Word,
    check_partition,
    dom,
    finite_permutations,
    letter_action,
    positive_elements,
)


class IdealSpec(namedtuple("IdealSpec", "n partitions")):
    """A rank together with an antichain of dominant partitions."""

    __slots__ = ()

    def __new__(cls, n: int, partitions: Iterable[Sequence[int]]):
        parts = set()
        for lam in partitions:
            lam = check_partition(lam)
            if len(lam) != n:
                raise RankMismatchError("partition %r must have length %d" % (lam, n))
            parts.add(lam)
        if not parts:
            raise ValueError("at least one partition is required")
        return super().__new__(cls, n, minimal_antichain(parts))

    def __str__(self):
        return "+".join(",".join(str(x) for x in p) for p in self.partitions)

    def to_json(self):
        return [list(p) for p in self.partitions]


def minimal_antichain(parts: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    parts = set(parts)
    keep = []
    for p in parts:
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in parts):
            keep.append(p)
    return tuple(sorted(keep))


def minimal_partitions(dominants: Iterable[Sequence[int]]) -> IdealSpec:
    """Normalize a set of dominant partitions to the antichain of minimal ones."""
    dominants = [check_partition(p) for p in dominants]
    lengths = {len(p) for p in dominants}
    if len(lengths) != 1:
        raise ValueError("partitions must share one length, got lengths %r" % lengths)
    return IdealSpec(lengths.pop(), dominants)


# -- membership predicates ------------------------------------------------------


def in_positive(a: HeckeElt) -> bool:
    return all(w.is_positive() for w in a.terms)


def in_ideal(w: AffinePerm, spec: IdealSpec) -> bool:
    """True iff w = (sigma, -mu) with mu >= 0 and dom(mu) >= some spec partition."""
    if w.n != spec.n:
        raise RankMismatchError("ranks differ: %d vs %d" % (w.n, spec.n))
    if not w.is_positive():
        raise NotPositiveError("%s has a window value above n" % w)
    _, lam = w.to_pair()
    mu_sorted = dom(tuple(-x for x in lam))
    return any(
        all(m >= p for m, p in zip(mu_sorted, part)) for part in spec.partitions
    )


# -- quotient elements -----------------------------------------------------------


class QuotientElt(namedtuple("QuotientElt", "spec rep")):
    """Canonical representative of a class in the quotient by an ideal."""

    __slots__ = ()

    def __new__(cls, spec: IdealSpec, rep: HeckeElt):
        if rep.n != spec.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (rep.n, spec.n))
        return super().__new__(cls, spec, rep)

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __str__(self):
        return str(self.rep)

    def to_json(self):
        return {"spec": self.spec.to_json(), "terms": self.rep.to_json()}


def reduce(a: HeckeElt, spec: IdealSpec) -> QuotientElt:
    """The quotient map: drop every term supported in the ideal."""
    if not in_positive(a):
        raise NotPositiveError("element leaves the positive cone")
    kept = {w: c for w, c in a.terms.items() if not in_ideal(w, spec)}
    return QuotientElt(spec, HeckeElt(a.n, kept))


def quotient_mul(a, b, charge=None) -> QuotientElt:
    """The image of a.rep * b.rep; ``charge`` as for ``hecke.times``.  One
    of a and b may be a scalar c, for the class of c*T_e, which multiplies
    as a coefficient."""
    spec = a.spec if isinstance(a, QuotientElt) else b.spec
    if isinstance(b, QuotientElt) and b.spec != spec:
        raise SpecMismatchError("ideal specs differ: %s vs %s" % (spec, b.spec))
    rep = hecke.times(a.rep if isinstance(a, QuotientElt) else a,
                      b.rep if isinstance(b, QuotientElt) else b, charge)
    return reduce(rep, spec)


# -- generators ---------------------------------------------------------------------


def ideal_generator(lam: Sequence[int]) -> HeckeElt:
    """The monomial X^lambda; a single T-term at the translation by -lambda."""
    lam = check_partition(lam)
    return x_monomial(len(lam), lam)


# -- slice-wise span certification ------------------------------------------------


def ideal_slice(spec: IdealSpec, max_length: int, min_degree: int) -> list[AffinePerm]:
    """Ideal support elements with l <= max_length and degree >= min_degree,
    in ``positive_elements`` order and under its candidate guard."""
    return [w for w in positive_elements(spec.n, max_length, min_degree) if in_ideal(w, spec)]


def generated_span_check(lam: Sequence[int], max_length: int) -> bool:
    """Certify both inclusions of ideal = two-sided span of X^lambda on a slice.

    The slice is the set of ideal support elements with l <= max_length and
    degree >= -(|lambda| + max_length).  Forward inclusion: the slice absorbs
    the positive generators on both sides (supports stay in the ideal).
    Reverse inclusion: every slice T_w is reached from a dominant seed
    X^lambda * X^{nu - lambda} = X^nu (a single T-term) by a chain of
    one-letter left/right multiplications, each solved exactly in the T-basis
    using that q = v^-2 is a unit.
    """
    lam = check_partition(lam)
    n = len(lam)
    spec = IdealSpec(n, [lam])
    gen = ideal_generator(lam)
    min_degree = -(sum(lam) + max_length)
    slice_elements = ideal_slice(spec, max_length, min_degree)

    if not all(in_ideal(w, spec) for w in gen.terms):
        return False

    # forward: one-generator absorption on every slice element, both sides
    letters = list(range(1, n)) + [RHO_INV]
    for w in slice_elements:
        tw = t_basis(w)
        for a in letters:
            left = t_basis(Word(n, (a,)).to_perm()) * tw
            right = tw.right_letter(a)
            for u in left.support() | right.support():
                if not in_ideal(u, spec):
                    return False

    # reverse: certify each translation-multiset orbit from its dominant seed
    certified: set[AffinePerm] = set()
    for nu in {dom(tuple(-x for x in w.to_pair()[1])) for w in slice_elements}:
        diff = tuple(a - b for a, b in zip(nu, lam))
        if any(d < 0 for d in diff):
            return False
        seed = AffinePerm.translation(tuple(-x for x in nu))
        expected = hecke.t_tilde(seed)
        if gen * x_monomial(n, diff) != expected:
            return False
        if not _certify_reachable(seed, certified):
            return False
    return all(w in certified for w in slice_elements)


def double_coset_span_check(w: AffinePerm) -> bool:
    """Certify H T_w H = span of the T_{u w u'} over finite permutations u, u'.

    Containment: every product T_u * T_w * T_{u'} supports inside the double
    coset of w under the finite subgroup.  Spanning: every coset element is
    reached from w by one-letter left/right steps, each solved exactly in the
    T-basis, so each T_{u w u'} lies in the two-sided span of T_w.
    """
    finite = list(finite_permutations(w.n))
    coset = {u.compose(w).compose(v) for u in finite for v in finite}
    for u in finite:
        uw = t_basis(u) * t_basis(w)
        for v in finite:
            if not (uw * t_basis(v)).support() <= coset:
                return False
    certified: set[AffinePerm] = set()
    return _certify_reachable(w, certified) and certified == coset


def _certify_reachable(seed: AffinePerm, certified: set) -> bool:
    """Add to certified everything reached from seed by one-letter left and
    right steps, each solved exactly; False at the first step that fails."""
    n = seed.n
    certified.add(seed)
    frontier = [seed]
    while frontier:
        w = frontier.pop()
        for i in range(1, n):
            right = AffinePerm._trusted(n, letter_action(n, i)[0](w.window))
            for target, left in ((AffinePerm.s(n, i).compose(w), True), (right, False)):
                if target not in certified:
                    if not _certify_step(w, target, i, left):
                        return False
                    certified.add(target)
                    frontier.append(target)
    return True


def _certify_step(w: AffinePerm, target: AffinePerm, i: int, left: bool) -> bool:
    """Check that T_target is an exact Laurent combination of T_s*T_w (or
    T_w*T_s) and T_w; true in both length directions because q is a unit."""
    n = w.n
    ts = t_basis(AffinePerm.s(n, i))
    product = ts * t_basis(w) if left else t_basis(w) * ts
    if target.length() == w.length() + 1:
        return product == t_basis(target)
    solved = product.scale(V2) + t_basis(w).scale(V2_MINUS_ONE)
    return solved == t_basis(target)
