import copy
import pickle

import pytest

from youngwalls import cli, poset_lab as pl, series_engine as se


def _check(summary):
    return cli.Check(summary, {"nmax": 3}, "n <= {nmax}", cli._upto, bool)


# (build one value from a label, whether the class hashes, a field to assign,
#  constructor arguments that validation rejects or None)
RECORDS = {
    "TSeries": (lambda v: se.TSeries((1, v)), True, "coeffs", None),
    "XTSeries": (lambda v: se.XTSeries(((1, v), (0, 0))), True, "rows", None),
    "Poset": (lambda v: pl.Poset(v + 2, [(0, 1)]), True, "size", (2, [(0, 2)])),
    "WallShape": (lambda v: pl.WallShape((v + 2, 2, 1)), True, "rows", ((1, 2, 0),)),
    "Check": (lambda v: _check(f"check {v}"), False, "summary", None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_and_immutability(name):
    build, hashable, field, invalid = RECORDS[name]
    one, same, other = build(1), build(1), build(2)
    assert one == same and one is not same
    assert one != other
    assert one != (getattr(one, field),)  # a record equals only its own class
    if hashable:
        assert hash(one) == hash(same)
        assert len({one, same, other}) == 2
    else:  # Check holds its bounds in a dict
        with pytest.raises(TypeError):
            hash(one)
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(other, field))
    assert not hasattr(one, "__dict__")  # every class on the way down has __slots__
    with pytest.raises(AttributeError):
        delattr(one, field)
    assert one == same
    assert copy.copy(one) == one == pickle.loads(pickle.dumps(one))
    if invalid is not None:
        with pytest.raises(ValueError):
            type(one)(*invalid)


def test_record_rejects_a_wrong_field_count():
    with pytest.raises(TypeError):
        cli.Check("too few fields", {})
