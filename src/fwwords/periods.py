"""Validated sets of word periods."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from operator import index

from .errors import EmptyPeriodSetError, InvalidPeriodError


def _refuse_bool(value: bool) -> int:
    raise InvalidPeriodError(f"periods must be integers, not bools: got {value}")


class PeriodSet:
    """Immutable sorted set of periods with its minimum and gcd precomputed.

    Duplicates collapse silently (set semantics); every value must be a
    positive integer, and bools are refused rather than read as 0 and 1.
    """

    __slots__ = ("periods", "min_period", "gcd", "_hash")

    def __init__(self, values: Iterable[int]) -> None:
        periods = sorted({_refuse_bool(v) if type(v) is bool else index(v) for v in values})
        if not periods:
            raise EmptyPeriodSetError("a period set needs at least one period")
        if periods[0] < 1:
            raise InvalidPeriodError(f"periods must be positive, got {periods[0]}")
        self.periods: tuple[int, ...] = tuple(periods)
        self.min_period: int = periods[0]
        self.gcd: int = math.gcd(*periods)
        self._hash = hash(self.periods)  # memo keys hash a set on every lookup

    def __iter__(self) -> Iterator[int]:
        return iter(self.periods)

    def __len__(self) -> int:
        return len(self.periods)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PeriodSet):
            return self.periods == other.periods
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PeriodSet({list(self.periods)!r})"

    def __str__(self) -> str:
        return "{%s}" % ",".join(str(p) for p in self.periods)
