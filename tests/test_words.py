import pytest

from fwwords import (
    EmptyGeneratorError,
    InvalidPeriodError,
    OutOfRangeError,
    PeriodSet,
    canonicalize,
    extend_periodically,
    has_period,
    is_palindrome,
    is_trivial,
    pref,
)
from fwwords.words import alphabet

W = (0, 1, 0, 3, 4, 0, 1, 0)  # the maximal word for periods {5,7} at length 8


def test_pref_basic():
    assert pref(W, 5) == (0, 1, 0, 3, 4)
    assert pref(W, 0) == ()
    assert pref(W, 8) == W


@pytest.mark.parametrize("k", [-1, 9])
def test_pref_out_of_range(k):
    with pytest.raises(OutOfRangeError):
        pref(W, k)


def test_extend_periodically_basic():
    assert extend_periodically((0, 1, 0, 3, 4), 8) == W
    assert extend_periodically((0, 1), 3) == (0, 1, 0)
    assert extend_periodically((0,), 4) == (0, 0, 0, 0)
    assert extend_periodically((0, 1), 0) == ()
    assert extend_periodically((), 0) == ()


def test_extend_periodically_empty_generator():
    with pytest.raises(EmptyGeneratorError):
        extend_periodically((), 1)


def test_extend_periodically_negative_length():
    with pytest.raises(OutOfRangeError):
        extend_periodically((0, 1), -1)


@pytest.mark.parametrize("w", [(0,), (0, 1), (0, 1, 0, 3, 4), (0, 0, 1)])
@pytest.mark.parametrize("n", [0, 1, 4, 9, 17])
def test_extension_has_generator_period(w, n):
    extended = extend_periodically(w, n)
    assert len(extended) == n
    assert has_period(extended, len(w))
    for k in range(n + 1):
        assert pref(extended, k) == extend_periodically(w, k)


def test_has_period_basic():
    assert has_period(W, 5)
    assert has_period(W, 7)
    assert not has_period(W, 3)
    assert has_period((0, 1, 0), 100)
    assert has_period((), 1)


def test_has_period_vacuous_at_and_past_length():
    for extra in range(4):
        assert has_period(W, len(W) + extra)


def test_has_period_rejects_nonpositive():
    with pytest.raises(InvalidPeriodError):
        has_period(W, 0)


def test_is_trivial():
    assert not is_trivial(W, PeriodSet([5, 7]))
    assert is_trivial((0, 1, 0, 1, 0, 1, 0, 1, 0, 1), PeriodSet([2, 4]))
    assert is_trivial((), PeriodSet([5, 7]))
    # shorter than the gcd: vacuously trivial
    assert is_trivial((0,), PeriodSet([2, 4]))


def test_canonicalize_renames_by_first_occurrence():
    assert canonicalize("abacdaba") == W
    assert canonicalize(W) == W
    assert canonicalize((7, 7, 7)) == (0, 0, 0)
    assert canonicalize(()) == ()


@pytest.mark.parametrize("letters", ["mississippi", (4, 2, 4, 9), (1, 0, 1, 0, 2)])
def test_canonicalize_properties(letters):
    canon = canonicalize(letters)
    assert canonicalize(canon) == canon
    assert len(alphabet(canon)) == len(set(letters))
    # each letter value is the position of its first occurrence
    for v in alphabet(canon):
        assert canon[v] == v
        assert v not in canon[:v]


def test_is_palindrome():
    assert is_palindrome((0, 1, 0))
    assert not is_palindrome((0, 1))
    assert is_palindrome(())


def test_alphabet():
    assert alphabet(W) == {0, 1, 3, 4}
    assert alphabet(()) == set()
    assert alphabet((0, 0, 0)) == {0}
