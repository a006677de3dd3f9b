"""Exhaustive cross-validation of the fast engine against the oracle.

Each check family is defined once, in FAMILIES; all are deterministic and
read their words through one memo, keyed by engine and bounded, so a run
builds each word once. The CLI `selftest` command is a thin wrapper around
`run_selftest`, and the acceptance tests run the same families.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from itertools import combinations

from .errors import OutOfRangeError
from .oracle import fw_oracle
from .periods import PeriodSet
from .reduction import (
    _literal_letter,
    _literal_levels,
    extremal_length,
    extremal_length_unbatched,
    fw_fast,
    letter_at,
    reduce_periods,
)
from .words import canonicalize, is_palindrome, is_trivial, pref

DEFAULT_MAX_PERIOD = 12
DEFAULT_MAX_N = 40
GRID_MAX_SET_SIZE = 3
MAX_GRID_WORK = 10**7  # about 3 times the defaults' 3,404,294


def grid_period_sets(max_period: int, max_size: int = GRID_MAX_SET_SIZE) -> list[PeriodSet]:
    """All non-empty subsets of {1..max_period} with at most max_size elements."""
    out: list[PeriodSet] = []
    for size in range(1, max_size + 1):
        out.extend(PeriodSet(c) for c in combinations(range(1, max_period + 1), size))
    return out


class _Failure(Exception):
    pass


# The word engine(ps, n), built once while it stays among the last 1,024 asked for. The key holds the
# engine itself, read from this module at each call, so an engine patched in never reads another's words.
_word = functools.lru_cache(maxsize=1024)(lambda engine, ps, n: engine(ps, n))


def _word_equivalence(ps: PeriodSet, max_n: int) -> int:
    """fw_fast against fw_oracle at every length."""
    for n in range(max_n + 1):
        if _word(fw_fast, ps, n) != _word(fw_oracle, ps, n):
            raise _Failure(f"fw_fast != fw_oracle for periods={ps} n={n}")
    return max_n + 1


def _letter_queries(ps: PeriodSet, max_n: int) -> int:
    """letter_at and its literal twin, one literal chain per word, against every letter."""
    for n in range(max_n + 1):
        levels = list(_literal_levels(ps, n))
        for i, letter in enumerate(_word(fw_fast, ps, n)):
            if letter_at(ps, n, i) != letter:
                raise _Failure(f"letter_at mismatch for periods={ps} n={n} position={i}")
            if _literal_letter(levels, i) != letter:
                raise _Failure(f"letter_at_unbatched mismatch for periods={ps} n={n} position={i}")
    return max_n * (max_n + 1) // 2


def _prefix_property(ps: PeriodSet, max_n: int) -> int:
    """The reduced set's word is a prefix of the word m = min(P) letters longer."""
    m = ps.min_period
    reduced = reduce_periods(ps)
    for n in range(max_n + 1):
        if _word(fw_oracle, reduced, n) != pref(_word(fw_oracle, ps, n + m), n):
            raise _Failure(f"reduced-set word is not a prefix for periods={ps} n={n}")
    return max_n + 1


def _singleton_letters(ps: PeriodSet, max_n: int) -> int:
    """Positions n-m..m-1 of a word of length n > m carry fresh letters, each once."""
    m = ps.min_period
    for n in range(m + 1, max_n + 1):
        word = _word(fw_oracle, ps, n)
        for i in range(max(0, n - m), m):
            if word[i] != i or word.count(i) != 1:
                raise _Failure(f"expected a unique fresh letter for periods={ps} n={n} position={i}")
    return max(0, max_n - m)


def _extremal_boundary(ps: PeriodSet, max_n: int) -> int:
    """extremal_length equals its literal twin, its word is non-trivial and the
    next 2*min(P) words are trivial. One check per period set with gcd < min."""
    m = ps.min_period
    if ps.gcd == m:
        return 0
    extremal = extremal_length(ps)
    if extremal != extremal_length_unbatched(ps):
        raise _Failure(f"jumped and literal extremal lengths differ for periods={ps}")
    if is_trivial(_word(fw_fast, ps, extremal), ps):
        raise _Failure(f"extremal word is trivial for periods={ps}")
    for extra in range(1, 2 * m + 1):
        if not is_trivial(_word(fw_fast, ps, extremal + extra), ps):
            raise _Failure(f"non-trivial word past the extremal length for periods={ps} n={extremal + extra}")
    return 1


def _palindromes(ps: PeriodSet, max_n: int) -> int:
    """Reversal maps the extremal word to a renaming of itself; the word is a
    letterwise palindrome exactly when gcd <= 2. One check per period set with
    gcd < min."""
    if ps.gcd == ps.min_period:
        return 0
    # The position partition is reflection-symmetric, so reversal always
    # renames. For gcd >= 3 reversal moves residue 0 mod gcd to residue gcd-2,
    # so the end letters differ and no relabeling is a palindrome, e.g.
    # FW({6,9}, 11) = 01201501201.
    word = _word(fw_fast, ps, extremal_length(ps))
    if canonicalize(reversed(word)) != word:
        raise _Failure(f"reversed extremal word is not a renaming for periods={ps}")
    if ps.gcd <= 2 and not is_palindrome(word):
        raise _Failure(f"extremal word is not a palindrome for periods={ps}")
    if ps.gcd >= 3 and word[0] == word[-1]:
        raise _Failure(f"extremal word has equal end letters despite gcd >= 3 for periods={ps}")
    return 1


# Each check family once, in report order: family(ps, max_n) checks one period
# set at lengths 0..max_n, raises _Failure at the first counterexample and
# returns its count. `run_selftest` and the acceptance tests both run these.
FAMILIES: dict[str, Callable[[PeriodSet, int], int]] = {
    "word-equivalence": _word_equivalence,
    "letter-queries": _letter_queries,
    "prefix-property": _prefix_property,
    "singleton-letters": _singleton_letters,
    "extremal-boundary": _extremal_boundary,
    "palindromes": _palindromes,
}


class SelftestReport:
    """Counts per check family; `failure` holds the first counterexample, if any."""

    def __init__(self, counts: dict[str, int] | None = None, failure: str | None = None) -> None:
        self.counts = {} if counts is None else counts
        self.failure = failure

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
    """Run every family of FAMILIES on every period set over {1..max_period}
    (at most three elements) and every length up to max_n; stop at the first
    mismatch, or at the first exception a family raises. The word memo starts
    empty, so a run reads no word that an earlier run built.

    An empty grid (max_period < 1 or max_n < 0) raises OutOfRangeError, as
    does one whose work exceeds MAX_GRID_WORK, counted before anything is
    built. Each period set counts (L+1)(L+2)/2, L = max(max_period, max_n),
    for the letter queries, the words and the extremal-boundary words, plus an
    upper bound on the literal levels walked: k // m + 1, m = min(P), for each
    position of each length k <= max_n (the refusals predate the gcd stop).
    """
    if max_period < 1 or max_n < 0:
        raise OutOfRangeError(f"the grid needs max_period >= 1 and max_n >= 0, got {max_period} and {max_n}")
    sets = sum(math.comb(max_period, size) for size in range(1, GRID_MAX_SET_SIZE + 1))
    work = sets * math.comb(max(max_n, max_period) + 2, 2)
    if work <= MAX_GRID_WORK:  # so max_period <= 40 and the loop is short
        for m in range(1, max_period + 1):  # the sets with minimum m
            levels = sum(k * (k // m + 1) for k in range(max_n + 1))
            work += levels * sum(math.comb(max_period - m, size) for size in range(GRID_MAX_SET_SIZE))
    if work > MAX_GRID_WORK:
        raise OutOfRangeError(f"the grid's work {work} exceeds {MAX_GRID_WORK}; lower max_period or max_n")
    _word.cache_clear()
    report = SelftestReport(counts=dict.fromkeys(FAMILIES, 0))
    try:
        for ps in grid_period_sets(max_period):
            for name, family in FAMILIES.items():
                report.counts[name] += family(ps, max_n)
    except _Failure as exc:
        report.failure = str(exc)
    except Exception as exc:  # an engine that raises fails the run as a wrong answer does
        report.failure = f"{name} raised {type(exc).__name__}: {exc} for periods={ps}"
    return report
