"""The value records are immutable named tuples, hashed as their fields."""

import pytest

from affhecke import AffinePerm, canonical, hecke, oracle, quotients


def test_records_refuse_assignment_and_hash_as_their_fields():
    spec = quotients.IdealSpec(2, [(1, 0), (2, 0)])
    b = canonical.canonical_basis(AffinePerm.s(2, 1))
    q = quotients.reduce(b.value, spec)
    records = [
        (spec, ("n", "partitions")),
        (q, ("spec", "rep")),
        (b, ("index", "value")),
        (hecke.KLValue.of(b.value), ("elt", "valuation", "top", "height", "bar_bound")),
        (oracle.Report("c", "pass", {}, []), ("claim", "status", "dims", "mismatches")),
    ]
    for record, fields in records:
        for field in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert hash(spec) == hash((spec.n, spec.partitions))
    assert hash(q) == hash((q.spec, q.rep))
    assert str(b) == str(b.value) == "v*T[s1] + v*T[]"
