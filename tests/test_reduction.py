import math
import random

import pytest

from fwwords import (
    OutOfRangeError,
    PeriodSet,
    Termination,
    extend_periodically,
    extremal_length,
    fw_fast,
    fw_oracle,
    generating_prefix,
    grid_period_sets,
    is_palindrome,
    is_trivial,
    letter_at,
    pref,
)
from fwwords import reduction
from fwwords.reduction import (
    _literal_levels,
    _reduce,
    batched_reduce,
    chain_jumps,
    extremal_length_unbatched,
    letter_at_unbatched,
    reduce_periods,
    reduction_chain,
)

# consecutive Fibonacci numbers from 1, 2 up to about 10**300
FIB = [1, 2]
while len(FIB) < 1437:
    FIB.append(FIB[-1] + FIB[-2])


def test_reduce_periods():
    assert reduce_periods(PeriodSet([5, 7])) == PeriodSet([2, 5])
    assert reduce_periods(PeriodSet([2, 5])) == PeriodSet([2, 3])
    assert reduce_periods(PeriodSet([4])) == PeriodSet([4])
    # collisions with the minimum collapse by set semantics
    assert reduce_periods(PeriodSet([3, 6])) == PeriodSet([3])


def test_reduce_preserves_gcd():
    for ps in grid_period_sets(20, max_size=2):
        assert reduce_periods(ps).gcd == ps.gcd


def test_reduction_chain_worked_example():
    chain = reduction_chain(PeriodSet([5, 7]), 8)
    assert chain.steps == (
        (PeriodSet([5, 7]), 8),
        (PeriodSet([2, 5]), 3),
        (PeriodSet([2, 3]), 1),
    )
    assert chain.termination is Termination.LENGTH_AT_MOST_MIN


def test_reduction_chain_stops_immediately():
    chain = reduction_chain(PeriodSet([2, 4]), 100)
    assert chain.steps == ((PeriodSet([2, 4]), 100),)
    assert chain.termination is Termination.GCD_EQUALS_MIN

    chain = reduction_chain(PeriodSet([5, 7]), 4)
    assert chain.steps == ((PeriodSet([5, 7]), 4),)
    assert chain.termination is Termination.LENGTH_AT_MOST_MIN

    with pytest.raises(OutOfRangeError, match="length must be >= 0"):
        reduction_chain(PeriodSet([5, 7]), -1)


def test_reduction_chain_tie_prefers_length():
    # both stop conditions hold at once: n <= min and min == gcd
    chain = reduction_chain(PeriodSet([2, 4]), 2)
    assert chain.termination is Termination.LENGTH_AT_MOST_MIN


def test_reduction_chain_invariants():
    for ps in grid_period_sets(9):
        for n in (0, 5, 23, 40):
            chain = reduction_chain(ps, n)
            sets, lengths = zip(*chain.steps)
            assert lengths[0] == n and sets[0] == ps
            for (q0, n0), (q1, n1) in zip(chain.steps, chain.steps[1:]):
                assert n1 == n0 - q0.min_period
                assert q1 == reduce_periods(q0)
                assert q1.gcd == q0.gcd


def test_literal_levels_are_the_reduction_chain():
    # the private literal loop behind the twins: the same levels, and only its
    # last one meets a stop condition
    for ps in grid_period_sets(12):
        for n in range(41):
            levels = list(_literal_levels(ps, n))
            assert [(PeriodSet(cur), length) for cur, length in levels] == list(reduction_chain(ps, n).steps)
            *inner, (last, length) = levels
            assert all(length > cur[0] > ps.gcd for cur, length in inner)
            assert length <= last[0] or last[0] == ps.gcd


def test_letter_at_unbatched_stops_at_the_gcd(monkeypatch):
    # {4,6} reaches min == gcd == 2 after one step: the letter is i mod 2 at
    # any length, so the walk must not step on towards length <= min
    calls = []
    literal = reduction._reduce

    def counted(periods):
        calls.append(periods)
        assert len(calls) <= 2, calls  # fails at once rather than stepping 10**12 / 2 times
        return literal(periods)

    monkeypatch.setattr(reduction, "_reduce", counted)
    for i in (0, 1, 12345, 10**12 - 5, 10**12 - 1):
        calls.clear()
        assert letter_at_unbatched(PeriodSet([4, 6]), 10**12, i) == i % 2


def test_fw_fast_known_words():
    assert fw_fast(PeriodSet([5, 7]), 8) == (0, 1, 0, 3, 4, 0, 1, 0)
    assert fw_fast(PeriodSet([5, 7]), 3) == (0, 1, 2)
    assert fw_fast(PeriodSet([2, 4]), 5) == (0, 1, 0, 1, 0)
    assert fw_fast(PeriodSet([5, 7]), 0) == ()


def test_fw_fast_is_min_periodic():
    for ps in [PeriodSet([5, 7]), PeriodSet([4, 6]), PeriodSet([3, 7, 11])]:
        w = fw_fast(ps, 30)
        m = ps.min_period
        for i in range(30):
            assert w[i] == w[i % m]


def test_generating_prefix():
    for ps in [PeriodSet([5, 7]), PeriodSet([2, 9]), PeriodSet([6, 9])]:
        for n in (0, 1, 3, 8, 25):
            gen = generating_prefix(ps, n)
            assert len(gen) <= min(ps.min_period, n)
            assert extend_periodically(gen, n) == fw_fast(ps, n) == fw_oracle(ps, n)
    # affordable even when the word itself could never be materialized: one residue mod gcd 1
    assert generating_prefix(PeriodSet([3, 10**9 + 7]), 10**12) == (0,)


def test_prefix_property_via_fast_engine():
    for ps in grid_period_sets(7):
        m = ps.min_period
        for k in range(20):
            assert fw_fast(reduce_periods(ps), k) == pref(fw_fast(ps, k + m), k)


def test_letter_at_known_positions():
    ps = PeriodSet([5, 7])
    assert letter_at(ps, 8, 4) == 4
    assert letter_at(ps, 8, 7) == 0
    assert letter_at(ps, 8, 0) == 0
    assert [letter_at(ps, 8, i) for i in range(8)] == [0, 1, 0, 3, 4, 0, 1, 0]


@pytest.mark.parametrize("n,i", [(8, 8), (8, -1), (0, 0)])
def test_letter_at_out_of_range(n, i):
    with pytest.raises(OutOfRangeError):
        letter_at(PeriodSet([5, 7]), n, i)
    with pytest.raises(OutOfRangeError):
        letter_at_unbatched(PeriodSet([5, 7]), n, i)


def test_letter_at_deepest_small_pair_around_extremal_length():
    # (263, 372) has the deepest two-period descent with periods <= 400 (12
    # jumps); check every position at n = E and E + 1, E its extremal length
    ps = PeriodSet([263, 372])
    extremal = extremal_length(ps)
    assert extremal == 633
    for n in (extremal, extremal + 1):
        w = fw_fast(ps, n)
        for i in range(n):
            assert letter_at(ps, n, i) == w[i] == letter_at_unbatched(ps, n, i), (n, i)


def test_letter_at_astronomical_inputs():
    # far beyond the extremal length the word is trivial, i.e. constant 0
    # (its gcd is 1); the jumped query must see that instantly
    ps = PeriodSet([3, 10**9 + 7])
    assert 10**12 > extremal_length(ps)
    assert letter_at(ps, 10**12, 10**11 + 1) == 0
    assert letter_at(ps, 10**12, 10**12 - 1) == 0


def test_extremal_known_values():
    assert extremal_length(PeriodSet([5, 7])) == 10
    assert extremal_length(PeriodSet([2, 3])) == 3
    assert extremal_length(PeriodSet([3, 4])) == 5
    assert extremal_length(PeriodSet([4, 6])) == 7
    assert extremal_length(PeriodSet([2, 4])) is None
    assert extremal_length(PeriodSet([6])) is None
    assert extremal_length(PeriodSet([7, 11, 12])) == 14


def test_extremal_matches_oracle_scan():
    # the honest definition: the largest n whose maximal word is non-trivial
    for ps in [PeriodSet([5, 7]), PeriodSet([2, 3]), PeriodSet([6, 9]), PeriodSet([5, 7, 11])]:
        best = extremal_length(ps)
        scan = max(
            (n for n in range(1, best + 2 * ps.min_period + 1) if not is_trivial(fw_oracle(ps, n), ps)),
            default=None,
        )
        assert scan == best


def test_extremal_batched_equals_unbatched():
    for ps in grid_period_sets(14):
        assert extremal_length(ps) == extremal_length_unbatched(ps)


def test_extremal_length_deep_fibonacci_descents():
    # consecutive Fibonacci numbers near 10**250 to 10**300: one jump per
    # level, 1200 to 1436 jumps, all under the 2*sum(P) descent length
    for k in (1200, 1318, 1435):
        p, q = FIB[k], FIB[k + 1]
        assert extremal_length(PeriodSet([p, q])) == p + q - 2


def test_extremal_word_for_coprime_pair_is_palindromic():
    ps = PeriodSet([5, 7])
    w = fw_fast(ps, 10)
    assert w == fw_oracle(ps, 10) == (0, 1, 0, 1, 0, 0, 1, 0, 1, 0)
    assert is_palindrome(w)


def test_batched_reduce_jumps():
    assert batched_reduce(PeriodSet([3, 100])) == (PeriodSet([3, 4]), 32)
    assert batched_reduce(PeriodSet([5, 7])) == (PeriodSet([2, 5]), 1)
    assert batched_reduce(PeriodSet([3, 100]), 10) == (PeriodSet([3, 70]), 10)


def test_batched_reduce_equals_literal_iteration():
    cur = PeriodSet([3, 100])
    for _ in range(32):
        cur = reduce_periods(cur)
    assert batched_reduce(PeriodSet([3, 100]))[0] == cur == PeriodSet([3, 4])


def test_batched_reduce_rejects_bad_budget():
    with pytest.raises(ValueError):
        batched_reduce(PeriodSet([5, 7]), 0)
    # min == gcd: the descent stops there instead of jumping
    with pytest.raises(ValueError):
        batched_reduce(PeriodSet([5]), 3)


def test_descent_jumps_equal_literal_steps():
    # every jump (set, length, k) is k literal steps from the set, and equals
    # batched_reduce(set, k), at length - k*m, whichever way the minimum moves;
    # the grid never gets here
    rng = random.Random(10)
    cases = [rng.sample(range(1, 501), rng.randrange(2, 61)) for _ in range(150)]
    cases += [rng.sample(range(10**6, 10**7 + 1), 1000) for _ in range(3)]
    cases = [(values, rng.randrange(1, 2 * sum(values)) if len(values) < 1000 else 2 * sum(values)) for values in cases]
    # a jump's k*m would reach the length itself: the cap stops it one step short
    cases += [([3, 100], 96), ([2, 12], 10), ([7, 50, 90], 42)]
    kinds = set()
    for values, n in cases:
        ps = PeriodSet(values)
        levels = list(chain_jumps(ps, n))
        assert levels[0][:2] == (ps.periods, n)
        for (cur, length, k, end), (nxt, length2, _, _) in zip(levels, levels[1:]):
            m = cur[0]
            assert end is None
            literal = cur
            for _ in range(k):
                literal = _reduce(literal)
            # the cap keeps a jump above length 0: k*m < length
            assert nxt == literal and length2 == length - k * m and length2 > 0, (values, n, m, length)
            assert batched_reduce(PeriodSet(cur), k) == (PeriodSet(nxt), k), (values, n, m, length)
            shifted = [p - k * m for p in cur[1:]]
            if shifted[0] > m:
                kinds.add("minimum kept")
            elif shifted[0] == m:
                kinds.add("collision with the minimum")
            elif m in shifted:
                kinds.add("new minimum, old one already present")
            elif 1 < nxt.index(m) < len(nxt) - 1:
                kinds.add("new minimum, old one inserted mid-list")
        (m, *_), length, _, end = levels[-1]
        assert end is not None and (length <= m or m == ps.gcd)
    assert len(kinds) == 4, kinds


def _jump_count(p, q):
    return sum(1 for *_, end in chain_jumps(PeriodSet((p, q)), 2 * (p + q)) if end is None)


def test_two_period_descent_depth_within_lame_bound():
    # a Euclid division step takes at most two jumps, so by Lame's theorem
    # two periods p < q descend in at most 2*ceil(log_phi q) + 2 jumps
    log_phi = math.log((1 + math.sqrt(5)) / 2)

    def bound(q):
        return 2 * math.ceil(math.log(q) / log_phi) + 2

    for k in (1200, 1318, 1435):
        p, q = FIB[k], FIB[k + 1]
        # quotients of 1 take one jump each: the depth grows as log_phi q itself
        assert math.log(q) / log_phi - 3 <= _jump_count(p, q) <= bound(q)
    rng = random.Random(11)
    for _ in range(2000):
        q = rng.randrange(2, 10 ** rng.randrange(1, 40))
        p = rng.randrange(1, q)
        assert _jump_count(p, q) <= bound(q), (p, q)
