"""Words as tuples of non-negative integer letters, and the predicates on them.

A word is plain data: ``(0, 1, 0, 3, 4, 0, 1, 0)``. Letters are integers,
never characters; rendering is left to callers. A word is *canonical* when
every letter equals the position of its own first occurrence. Either engine's
word extends a generator, which keeps to the size rule here (`check_prefix_size`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from .errors import EmptyGeneratorError, InvalidPeriodError, OutOfRangeError
from .periods import PeriodSet

Word = tuple[int, ...]


def pref(w: Word, k: int) -> Word:
    """The first k letters of w."""
    if not 0 <= k <= len(w):
        raise OutOfRangeError(f"prefix length {k} out of range for a word of length {len(w)}")
    return tuple(w[:k])


def extend_periodically(w: Word, n: int) -> Word:
    """Length-n prefix of w repeated forever: result[i] = w[i % len(w)]."""
    if n < 0:
        raise OutOfRangeError(f"length must be >= 0, got {n}")
    if n == 0:
        return ()
    if not w:
        raise EmptyGeneratorError("cannot periodically extend the empty word")
    q, r = divmod(n, len(w))
    return tuple(w) * q + tuple(w[:r])


# most letters of either engine's generator (residue labels, fast generator); each generator refuses more
ORACLE_MAX_LENGTH = 10**7


def check_prefix_size(periods: PeriodSet, n: int) -> None:
    """OutOfRangeError when min(min_period, n), the most letters either engine's generator
    has, is more than ORACLE_MAX_LENGTH; each generator calls it before building anything."""
    if (size := min(periods.min_period, n)) > ORACLE_MAX_LENGTH:
        raise OutOfRangeError(
            f"the generating prefix has {size} letters, more than the {ORACLE_MAX_LENGTH} any engine builds"
        )


def has_period(w: Word, p: int) -> bool:
    """True iff w[i] == w[i+p] wherever both positions exist.

    Any p >= len(w) is vacuously a period.
    """
    if p < 1:
        raise InvalidPeriodError(f"periods must be positive, got {p}")
    if p >= len(w):
        return True
    return w[p:] == w[: len(w) - p]


def is_trivial(w: Word, periods: PeriodSet) -> bool:
    """True iff gcd(periods) is itself a period of w.

    Vacuously true for words shorter than the gcd, including the empty word.
    """
    return has_period(w, periods.gcd)


def canonicalize(letters: Iterable[Hashable]) -> Word:
    """Rename letters so each letter equals the position of its first occurrence.

    Two words are equal up to renaming of letters iff their canonical forms
    are identical. Accepts any letter type; always returns integer letters.
    """
    first: dict[Hashable, int] = {}
    return tuple(first.setdefault(a, i) for i, a in enumerate(letters))


def is_palindrome(w: Word) -> bool:
    """True iff w reads the same from both ends; the empty word qualifies."""
    w = tuple(w)
    return w == w[::-1]


def alphabet(w: Word) -> set[int]:
    """The set of distinct letters occurring in w."""
    return set(w)
