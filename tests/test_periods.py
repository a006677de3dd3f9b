import math

import pytest

from fwwords import EmptyPeriodSetError, InvalidPeriodError, PeriodSet


def test_sorts_and_computes_min_and_gcd():
    ps = PeriodSet([7, 5])
    assert ps.periods == (5, 7)
    assert ps.min_period == 5
    assert ps.gcd == 1


def test_singleton():
    ps = PeriodSet([3])
    assert ps.periods == (3,)
    assert ps.min_period == 3
    assert ps.gcd == 3


def test_gcd_arithmetic():
    ps = PeriodSet([4, 6, 10])
    assert ps.min_period == 4
    assert ps.gcd == 2


def test_duplicates_collapse():
    assert PeriodSet([5, 7, 5, 5]) == PeriodSet([5, 7])


def test_empty_rejected():
    with pytest.raises(EmptyPeriodSetError):
        PeriodSet([])


@pytest.mark.parametrize("bad", [0, -1, -17])
def test_nonpositive_rejected(bad):
    with pytest.raises(InvalidPeriodError):
        PeriodSet([5, bad])


@pytest.mark.parametrize("values", [[True], [False], [5, True]])
def test_bools_rejected(values):
    with pytest.raises(InvalidPeriodError):
        PeriodSet(values)


def test_non_integers_rejected():
    with pytest.raises(TypeError):
        PeriodSet([2.5, 7])


def test_equality_and_hashing():
    assert PeriodSet([5, 7]) == PeriodSet((7, 5))
    assert PeriodSet([5, 7]) != PeriodSet([5, 8])
    assert PeriodSet([1]) != (1,)  # NotImplemented from both sides: unequal by identity
    assert len({PeriodSet([5, 7]), PeriodSet([7, 5]), PeriodSet([2])}) == 2


def test_equal_sets_hash_equal_whatever_they_are_built_from():
    sources = ([5, 7, 12], (12, 7, 5, 7), {7, 12, 5}, iter([12, 5, 7]), (p for p in (7, 5, 12, 5)))
    sets = [PeriodSet(values) for values in sources]
    assert len({hash(ps) for ps in sets}) == 1 and len(set(sets)) == 1
    assert {PeriodSet([7, 5]): "word"}[PeriodSet((5, 7))] == "word"


def test_container_protocol():
    ps = PeriodSet([7, 5])
    assert list(ps) == [5, 7]
    assert len(ps) == 2
    assert 5 in ps and 6 not in ps


def test_rendering():
    assert str(PeriodSet([7, 5])) == "{5,7}"
    assert repr(PeriodSet([7, 5])) == "PeriodSet([5, 7])"


def test_gcd_divides_everything():
    for values in [(6, 9), (12, 8, 20), (5,), (1, 100), (30, 42, 66)]:
        ps = PeriodSet(values)
        assert all(p % ps.gcd == 0 for p in ps)
        assert ps.gcd <= ps.min_period
        assert ps.gcd == math.gcd(*values)
