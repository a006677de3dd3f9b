"""Exhaustive cross-validation of the fast engine against the oracle.

Everything here is pure and deterministic; the CLI `selftest` command is a
thin wrapper around `run_selftest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .errors import OutOfRangeError
from .oracle import fw_oracle
from .periods import PeriodSet
from .reduction import (
    extremal_length,
    extremal_length_unbatched,
    fw_fast,
    letter_at,
    letter_at_unbatched,
    reduce_periods,
)
from .words import canonicalize, is_palindrome, is_trivial, pref

DEFAULT_MAX_PERIOD = 12
DEFAULT_MAX_N = 40
GRID_MAX_SET_SIZE = 3
MAX_GRID_WORK = 10**7  # about 39 times the defaults' 256,578


def grid_period_sets(max_period: int, max_size: int = GRID_MAX_SET_SIZE) -> list[PeriodSet]:
    """All non-empty subsets of {1..max_period} with at most max_size elements."""
    out: list[PeriodSet] = []
    for size in range(1, max_size + 1):
        out.extend(PeriodSet(c) for c in combinations(range(1, max_period + 1), size))
    return out


class _Failure(Exception):
    pass


@dataclass
class SelftestReport:
    """Counts per check family; `failure` holds the first counterexample, if any."""

    counts: dict[str, int] = field(default_factory=dict)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def total_checks(self) -> int:
        return sum(self.counts.values())

    def lines(self) -> list[str]:
        out = [f"{name}: {count}" for name, count in self.counts.items()]
        out.append(f"total-checks: {self.total_checks}")
        out.append("all checks passed" if self.ok else f"FAIL: {self.failure}")
        return out


def run_selftest(max_period: int = DEFAULT_MAX_PERIOD, max_n: int = DEFAULT_MAX_N) -> SelftestReport:
    """Cross-check the engines on every period set over {1..max_period} (at most
    three elements) and every length up to max_n; stop at the first mismatch.

    Families: fast words against oracle words, letter queries (jumped and
    literal) against word letters, reduced-set words as prefixes, forced
    fresh letters near the top of short words, extremal lengths against the
    surrounding trivial/non-trivial boundary, and palindromicity of extremal
    words (a renaming under reversal for every gcd, letterwise for gcd <= 2).
    An empty grid (max_period < 1 or max_n < 0) raises OutOfRangeError, as
    does one whose work exceeds MAX_GRID_WORK, counted before anything is
    built as (L+1)(L+2)/2 per period set, L = max(max_period, max_n): that
    covers the letter queries, the words and the extremal-boundary words.
    """
    if max_period < 1 or max_n < 0:
        raise OutOfRangeError(f"the grid needs max_period >= 1 and max_n >= 0, got {max_period} and {max_n}")
    sets = sum(math.comb(max_period, size) for size in range(1, GRID_MAX_SET_SIZE + 1))
    work = sets * math.comb(max(max_n, max_period) + 2, 2)
    if work > MAX_GRID_WORK:
        raise OutOfRangeError(f"the grid's work {work} exceeds {MAX_GRID_WORK}; lower max_period or max_n")
    report = SelftestReport(
        counts={
            "word-equivalence": 0,
            "letter-queries": 0,
            "prefix-property": 0,
            "singleton-letters": 0,
            "extremal-boundary": 0,
            "palindromes": 0,
        }
    )
    counts = report.counts
    # the prefix family asks again for words the grid has built, and neighbours share lengths
    oracle = cache(fw_oracle)

    def check(cond: bool, message: str) -> None:
        if not cond:
            raise _Failure(message)

    try:
        for ps in grid_period_sets(max_period):
            m = ps.min_period
            for n in range(max_n + 1):
                fast = fw_fast(ps, n)
                slow = oracle(ps, n)
                check(fast == slow, f"fw_fast != fw_oracle for periods={ps} n={n}")
                counts["word-equivalence"] += 1
                for i, letter in enumerate(fast):
                    check(
                        letter_at(ps, n, i) == letter,
                        f"letter_at mismatch for periods={ps} n={n} position={i}",
                    )
                    check(
                        letter_at_unbatched(ps, n, i) == letter,
                        f"letter_at_unbatched mismatch for periods={ps} n={n} position={i}",
                    )
                    counts["letter-queries"] += 1
                check(
                    oracle(reduce_periods(ps), n) == pref(oracle(ps, n + m), n),
                    f"reduced-set word is not a prefix for periods={ps} n={n}",
                )
                counts["prefix-property"] += 1
                if n > m:
                    for i in range(max(0, n - m), m):
                        check(
                            slow[i] == i and slow.count(i) == 1,
                            f"expected a unique fresh letter for periods={ps} n={n} position={i}",
                        )
                    counts["singleton-letters"] += 1
            if ps.gcd < m:
                extremal = extremal_length(ps)
                check(
                    extremal == extremal_length_unbatched(ps),
                    f"jumped and literal extremal lengths differ for periods={ps}",
                )
                check(
                    not is_trivial(fw_fast(ps, extremal), ps),
                    f"extremal word is trivial for periods={ps}",
                )
                for extra in range(1, 2 * m + 1):
                    check(
                        is_trivial(fw_fast(ps, extremal + extra), ps),
                        f"non-trivial word past the extremal length for periods={ps} n={extremal + extra}",
                    )
                counts["extremal-boundary"] += 1
                # Reversing an extremal word always yields a renaming of it
                # (the position partition is reflection-symmetric); the letter
                # sequence itself is palindromic when the gcd is at most 2.
                # For gcd >= 3 reversal moves residue 0 mod gcd to residue
                # gcd-2, so e.g. FW({6,9}, 11) = 01201501201 has no
                # palindromic relabeling at all.
                extremal_word = fw_fast(ps, extremal)
                check(
                    canonicalize(reversed(extremal_word)) == extremal_word,
                    f"reversed extremal word is not a renaming for periods={ps}",
                )
                if ps.gcd <= 2:
                    check(
                        is_palindrome(extremal_word),
                        f"extremal word is not a palindrome for periods={ps}",
                    )
                counts["palindromes"] += 1
    except _Failure as exc:
        report.failure = str(exc)
    return report
