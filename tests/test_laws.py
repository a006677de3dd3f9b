"""Seeded checks past the exhaustive grid: the engines against each other on
random sets of 4-6 periods, and laws that follow from the definition checked
through letter_at on periods far beyond the oracle's reach.

Closure: a positive integer combination of periods is itself a period, and so
is any p >= n, so adding one leaves the partition, and the canonical word,
unchanged. Scaling: the classes of dP lie inside residues mod d, and residue
r carries the word for P at length ceil((n - r) / d), its positions being
r + d*j; so with r = i mod d, letter_at(dP, n, i) = d*letter_at(P,
ceil((n - r) / d), (i - r) // d) + r.
"""

import random

from fwwords import PeriodSet, extremal_length, fw_fast, fw_oracle, is_trivial, letter_at


def random_small_set(rng):
    # 4-6 periods up to 200; two sets in five are multiples of 2 or 3
    d = rng.choice((1, 1, 1, 2, 3))
    return PeriodSet(d * p for p in rng.sample(range(1, 200 // d + 1), rng.randrange(4, 7)))


def test_seeded_differential_sweep():
    rng = random.Random(20)
    for _ in range(100):
        ps = random_small_set(rng)
        extremal = extremal_length(ps)
        top = (extremal or 0) + 2 * ps.min_period
        last_nontrivial = None
        for n in range(top + 1):
            word = fw_oracle(ps, n)
            assert fw_fast(ps, n) == word, (ps, n)
            if not is_trivial(word, ps):
                last_nontrivial = n
        assert last_nontrivial == extremal, ps
        for n in {top, extremal or top, (extremal or top) + 1, rng.randrange(1, top + 1)}:
            word = fw_oracle(ps, n)
            assert tuple(letter_at(ps, n, i) for i in range(n)) == word, (ps, n)


def random_large_set(rng):
    return PeriodSet(rng.randrange(10**6, 10**12) for _ in range(rng.randrange(1, 51)))


def random_query(rng, ps, d=1):
    # a length below 2*d*(extremal + 1), where the word is still non-trivial
    # about half the time, else anywhere below 10**13
    extremal = extremal_length(ps)
    top = 10**13 if extremal is None else min(10**13, 2 * d * (extremal + 1))
    n = rng.randrange(1, top)
    return n, rng.randrange(n)


def test_scaling_law_at_scale():
    rng = random.Random(21)
    nontrivial = 0
    for _ in range(1500):
        ps, d = random_large_set(rng), rng.randrange(1, 13)
        n, i = random_query(rng, ps, d)
        r = i % d
        inner = letter_at(ps, -(-(n - r) // d), (i - r) // d)
        assert letter_at(PeriodSet(d * p for p in ps), n, i) == d * inner + r, (ps, d, n, i)
        nontrivial += inner != (i - r) // d % ps.gcd
    assert nontrivial > 300


def test_closure_law_at_scale():
    rng = random.Random(22)
    nontrivial = 0
    for _ in range(1500):
        ps = random_large_set(rng)
        n, i = random_query(rng, ps)
        letter = letter_at(ps, n, i)
        combination = sum(rng.randrange(0, 4) * p for p in ps) or ps.min_period
        for extra in (combination, n + rng.randrange(10**12)):
            assert letter_at(PeriodSet((*ps, extra)), n, i) == letter, (ps, extra, n, i)
        nontrivial += letter != i % ps.gcd
    assert nontrivial > 300
