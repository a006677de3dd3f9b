"""Fast engine: Euclid-style period reduction.

One reduction step maps P to {p - m : p in P, p != m} | {m} with m = min(P).
It preserves the gcd, and the maximal-alphabet word for (P, n) is the
m-periodic extension of the one for (reduced P, n - m), patched with fresh
letters where the shorter word does not reach. Descending until the length
or the gcd makes the answer immediate, then re-extending, reproduces the
residue-search oracle's word letter for letter at a cost driven by the
reduction chain instead of by n. A level with no fresh letters, at a multiple
of the generator's length, keeps it: a trivial word keeps the residues mod gcd.

Consecutive steps that share the same minimum are collapsed into single
arithmetic jumps, which is what makes letter queries and extremal lengths
for periods around 10**12 effectively instant. The descent holds the minimum
and the next period as plain ints and the others in an ascending list
raised by a running offset, so a jump that keeps the minimum does O(1) work
and one that changes it does one list shift. Each jumped routine keeps a
literal twin as its test oracle (`letter_at_unbatched`, `extremal_length_unbatched`,
`reduction_chain`, `reduce_periods`); the twins read one literal chain, one
`_reduce` per level, which `selftest` builds once per word and walks per position.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .errors import OutOfRangeError
from .periods import PeriodSet
from .words import Word, check_prefix_size, extend_periodically


class Termination(enum.Enum):
    """Why a reduction chain stopped."""

    LENGTH_AT_MOST_MIN = "LengthAtMostMin"
    GCD_EQUALS_MIN = "GcdEqualsMin"


class ReductionChain(NamedTuple):
    """Every (period set, length) pair visited, outermost first."""

    steps: tuple[tuple[PeriodSet, int], ...]
    termination: Termination


def _reduce(periods: tuple[int, ...]) -> tuple[int, ...]:
    # The literal step on a sorted tuple, for the twins: it shares no code with the jumps.
    m = periods[0]
    return tuple(sorted({p - m for p in periods if p != m} | {m}))


def reduce_periods(periods: PeriodSet) -> PeriodSet:
    """One reduction step: subtract the minimum from every other period, keep the minimum."""
    return PeriodSet(_reduce(periods.periods))


def batched_reduce(periods: PeriodSet, budget: int | None = None) -> tuple[PeriodSet, int]:
    """The first jump of the descent from `periods`: the set it reaches and
    its k literal steps, at most `budget` of them (None means no cap). Needs
    min > gcd, where the descent jumps. Kept only for `perfbench`'s descent
    models; commands run the descent itself.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if periods.min_period == periods.gcd:
        raise ValueError(f"the descent does not jump from {periods}: its minimum is its gcd")
    # length budget*m + 1 caps a jump at budget steps; 2*sum(P) caps none (see extremal_length)
    jumps = chain_jumps(periods, 2 * sum(periods.periods) if budget is None else budget * periods.min_period + 1)
    (_, _, k, _), (reached, *_) = next(jumps), next(jumps)
    return PeriodSet(reached), k


def _literal_levels(periods: PeriodSet, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # reduction_chain's levels as (sorted periods, length), one _reduce each; no code of the jumps
    if n < 0:
        raise OutOfRangeError(f"length must be >= 0, got {n}")
    cur, length = periods.periods, n
    yield cur, length
    while length > cur[0] and cur[0] != periods.gcd:
        cur, length = _reduce(cur), length - cur[0]
        yield cur, length


def _literal_letter(levels: Iterable[tuple[tuple[int, ...], int]], i: int) -> int:
    # letter i of the word with literal chain `levels`: i mod m once it reaches length - m, or at the last level
    for cur, length in levels:
        if (i := i % cur[0]) >= length - cur[0]:
            return i
    return i


def reduction_chain(periods: PeriodSet, n: int) -> ReductionChain:
    """Iterate the reduction literally, recording every (set, length) visited.

    Stops at the first length <= min (LengthAtMostMin) or min == gcd
    (GcdEqualsMin); when both hold, the length condition wins.
    """
    steps = tuple((PeriodSet(cur), length) for cur, length in _literal_levels(periods, n))
    end = Termination.LENGTH_AT_MOST_MIN if steps[-1][1] <= steps[-1][0].min_period else Termination.GCD_EQUALS_MIN
    return ReductionChain(steps, end)


def _descent(periods: PeriodSet, n: int) -> Iterator[tuple[int, int, int, int | None, list[int], int]]:
    # The arithmetic jumps of the descent for length n, outermost first: every
    # set it visits, with its length and the k literal steps the jump from it
    # covers, as (m, length, k, second, tail, off). m is the minimum, second
    # the next period (None only for a one-period input), and the rest are
    # t - off for t in the ascending list tail. The last one, where length <= m
    # or m == gcd ends the descent, has k == 0. tail is one list that later
    # jumps change in place: read it before advancing. The jump's k is capped
    # so the minimum stays the minimum and no other period meets it before
    # the jump's final set: k <= (second - m) // m, and k*m < length.
    if n < 0:
        raise OutOfRangeError(f"length must be >= 0, got {n}")
    gcd = periods.gcd
    m, *tail = periods.periods
    # second stays an int: kept as the list's head, each change of minimum was list work, 2-3x slower on Fibonacci pairs
    second = tail.pop(0) if tail else None
    length, off = n, 0
    while True:
        if length <= m or m == gcd:
            yield m, length, 0, second, tail, off
            return
        k = (second - m) // m or 1
        shift = k * m
        if shift >= length:
            k = (length - 1) // m
            shift = k * m
        yield m, length, k, second, tail, off
        # every period but m drops by shift: the tail's by raising off
        length -= shift
        second -= shift
        off += shift
        if second < m:
            # second is the new minimum, and m the new second unless the tail's
            # head lies below it (m then goes into the tail) or meets it
            m, second = second, m
            if tail and tail[0] - off <= second:
                low = tail.pop(0) - off
                if low < second:
                    key = second + off
                    i = bisect_left(tail, key)
                    if i == len(tail) or tail[i] != key:
                        tail.insert(i, key)
                    second = low
        elif second == m:
            # second merges with m; a set of one period has m == gcd, so the tail is not empty
            second = tail.pop(0) - off


def chain_jumps(periods: PeriodSet, n: int) -> Iterator[tuple[tuple[int, ...], int, int, Termination | None]]:
    """The steps of reduction_chain(periods, n) in runs sharing a minimum m, as
    the jump descent makes them: (sorted periods, length, k, None) stands for k
    steps, step s being m and the other periods minus s*m, in order (see
    _descent), at length - s*m. The last run is the last step, with its termination."""
    for m, length, k, second, tail, off in _descent(periods, n):
        end = None if k else Termination.LENGTH_AT_MOST_MIN if length <= m else Termination.GCD_EQUALS_MIN
        yield (m,) if second is None else (m, second, *[t - off for t in tail]), length, k or 1, end


def generating_prefix(periods: PeriodSet, n: int) -> Word:
    """The shortest generator the rebuild keeps for fw_fast(periods, n): at most
    min(min_period, n) letters, and past the extremal length the residues mod gcd,
    since a level with fresh letters forbids period gcd.

    The word is its periodic extension to length n; this is the whole computation
    apart from that copy, and it stays affordable when n itself is too large to
    materialize. A min(min_period, n) over ORACLE_MAX_LENGTH raises OutOfRangeError
    before anything is built.
    """
    check_prefix_size(periods, n)
    *jumps, (m, length, _, _, _, _) = _descent(periods, n)
    # singleton classes if length <= min, else the residues mod min == gcd
    gen: Word = tuple(range(min(length, m)))
    for m, top, k, _, _, _ in reversed(jumps):
        bottom = top - k * m
        # fresh letters where the word below does not reach; with none (bottom >= m), gen stays if len(gen) | m
        if bottom < m or m % len(gen):
            gen = extend_periodically(gen, min(bottom, m)) + tuple(range(bottom, m))
        # the other k-1 levels of this jump share the minimum m and sit over
        # lengths >= bottom + m > m, so their generator is unchanged
    return gen


def fw_fast(periods: PeriodSet, n: int) -> Word:
    """The same word as fw_oracle(periods, n), built through the reduction chain.

    The periodic extension of generating_prefix(periods, n) to length n, which descends with arithmetic jumps
    and rebuilds its generator only where a jump adds fresh letters or its minimum is no multiple of the
    generator's length. Letters match the oracle exactly, not merely up to renaming.
    """
    return extend_periodically(generating_prefix(periods, n), n)


def letter_at(periods: PeriodSet, n: int, i: int) -> int:
    """fw_fast(periods, n)[i] without building the word or its generator.

    Follows the jumps `generating_prefix` rebuilds over, at O(1) cost per jump. A jump of
    k steps at minimum m from length n' maps position i to i mod m, which is
    the letter if it reaches n' - k*m and otherwise defers below the jump;
    where the descent stops, i mod m is the letter.
    """
    if not 0 <= i < n:
        raise OutOfRangeError(f"position {i} out of range for length {n}")
    for m, length, k, _, _, _ in _descent(periods, n):
        i %= m
        if i >= length - k * m:
            return i
    # the stop (k == 0, i < length): a singleton if length <= m, else a residue mod m == gcd
    return i


def letter_at_unbatched(periods: PeriodSet, n: int, i: int) -> int:
    """One-level-at-a-time twin of letter_at on the literal chain; perfbench's `query-deep` check calls it."""
    if not 0 <= i < n:
        raise OutOfRangeError(f"position {i} out of range for length {n}")
    return _literal_letter(_literal_levels(periods, n), i)


def extremal_length(periods: PeriodSet) -> int | None:
    """Length of the longest word having these periods but not their gcd as a period.

    None when gcd == min: every word with the periods then has their gcd as
    a period too, at every length. Otherwise the value follows the
    recurrence value(P) = min(P) + max(value(reduced P), min(P) - 1), seeded
    with min - 1 once the reduction reaches a set whose min equals its gcd (a
    formal seed, validated against oracle scans in the test suite, not itself
    an achieved length). Unrolled over the levels 0..L of the chain, with
    minima m_j, that is the max over j of T_j + m_j - 1, where T_j is the
    length the steps from levels 0..j remove: m_0 + ... + m_j for j < L, and
    m_0 + ... + m_{L-1} at the last level. It is folded forward, one jump of
    k levels at a time.
    """
    if periods.gcd == periods.min_period:
        return None
    # Length 2*sum(P) never caps a jump or stops the descent early: a jump of
    # k steps at minimum m lowers the length by k*m and the set's sum by at
    # least k*m, so the length stays above the set's sum, which exceeds both m
    # and the uncapped k*m while min > gcd. So the descent ends at min == gcd.
    total = best = 0
    for m, _, k, _, _, _ in _descent(periods, 2 * sum(periods.periods)):
        # of the k levels at minimum m the last gives the largest T_j + m; the
        # last jump (k == 0) gives the seed's term
        total += k * m
        if total + m > best:
            best = total + m
    return best - 1


def extremal_length_unbatched(periods: PeriodSet) -> int | None:
    """Literal twin of extremal_length, run by `selftest`'s extremal-boundary family; its 2*sum(P) chain ends at gcd."""
    if periods.gcd == periods.min_period:
        return None
    *levels, (last, _) = _literal_levels(periods, 2 * sum(periods.periods))
    value = last[0] - 1
    for cur, _ in reversed(levels):
        value = cur[0] + max(cur[0] - 1, value)
    return value
