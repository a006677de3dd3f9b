"""Seeded checks past the exhaustive grid: the engines against each other on
random sets of 4-6 periods, and laws that follow from the definition checked
through letter_at on periods far beyond the oracle's reach.

Prefix (C3) and fresh letters (C4): with m = min(P), the word for the reduced
set at length n is the prefix of the word for P at length n + m; and for
m < n < 2m no period reaches position i with n - m <= i < m, so it carries
its own letter i.

Closure: a positive integer combination of periods is itself a period, and so
is any p >= n, so adding one leaves the partition, and the canonical word,
unchanged. Scaling: the classes of dP lie inside residues mod d, and residue
r carries the word for P at length ceil((n - r) / d), its positions being
r + d*j; so with r = i mod d, letter_at(dP, n, i) = d*letter_at(P,
ceil((n - r) / d), (i - r) // d) + r.

Extremal boundary: the word at extremal_length(P) is non-trivial and the
one a letter longer is trivial, checked on the generating prefix at
min(P) up to about 10**6.

Generators: fw_oracle(P, n) and fw_fast(P, n) are the periodic extensions of
residue_labels(P, n), min(P, n) letters, and generating_prefix(P, n), at most
as many. So the fast generator, extended to min(P, n) letters, equal to the
oracle's is the whole two-engine check at any n, in O(min(P) * |P|).

Shortest generator: the fast engine's rebuild keeps a generator whose
periodic extension is the word, and a level that adds no fresh letters keeps
the one below it. A level that adds fresh letters forbids period gcd(P), so
for gcd(P) < n the generator is the residues mod gcd(P) exactly when n is
past the extremal length; for n <= gcd(P) it is the whole word, range(n).

Trivial by count: every period is a multiple of g = gcd(P), so each class
of forced-equal positions lies in one residue mod g, and a word of length
n > g has at least g letters; it has period g exactly when it has g letters.
Both engines' words are checked against this count as they are walked.

Oracle at scale: the oracle's word is its residue labels extended with
period m = min(P), so letter_at(P, n, i) = residue_labels(P, n)[i % m] at
any n, from a search that shares no code with the descent. From n = m on,
more positions join as n grows and none part, so the number of labels equal
to their own index (the word's letter count) never rises: the extremal
length is the last n at which it exceeds gcd(P), found by bisection.

Christoffel: for coprime p < q the word at the extremal length p + q - 2 is
the binary central word with periods p and q (de Luca & Mignosi, TCS 136,
1994), the mechanical word c(i) = floor((i+2)a/N) - floor((i+1)a/N) with
N = p + q and a = p^-1 mod N. Floor arithmetic only, no reduction: an oracle
for two periods at any scale.
"""

import math
import operator
import random

from fwwords import (
    PeriodSet,
    canonicalize,
    extend_periodically,
    extremal_length,
    fw_fast,
    fw_oracle,
    generating_prefix,
    is_trivial,
    letter_at,
)
from fwwords.oracle import residue_labels
from fwwords.reduction import reduce_periods
from fwwords.selftest import grid_period_sets


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
            assert is_trivial(word, ps) == (n <= ps.gcd or len(set(word)) == ps.gcd), (ps, n)
            if not is_trivial(word, ps):
                last_nontrivial = n
        assert last_nontrivial == extremal, ps
        for n in {top, extremal or top, (extremal or top) + 1, rng.randrange(1, top + 1)}:
            word = fw_oracle(ps, n)
            assert tuple(letter_at(ps, n, i) for i in range(n)) == word, (ps, n)


def random_large_set(rng, most=50):
    return PeriodSet(rng.randrange(10**6, 10**12) for _ in range(rng.randrange(1, most + 1)))


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


def test_prefix_law_at_scale():
    rng = random.Random(23)
    nontrivial = 0
    for _ in range(1500):
        ps = random_large_set(rng, 5)
        n, i = random_query(rng, ps)
        letter = letter_at(reduce_periods(ps), n, i)
        assert letter_at(ps, n + ps.min_period, i) == letter, (ps, n, i)
        nontrivial += letter != i % ps.gcd
    assert nontrivial > 300


def test_fresh_letters_at_scale():
    rng = random.Random(24)
    for _ in range(1500):
        ps = random_large_set(rng, 5)
        m = ps.min_period
        n = rng.randrange(m + 1, 2 * m)
        i = rng.randrange(n - m, m)
        assert letter_at(ps, n, i) == i, (ps, n, i)


def test_extremal_boundary_at_scale():
    # the word at extremal_length(P) is non-trivial and the next one is trivial,
    # at min(P) up to 10**6; a word of length n >= m = min(P) extends its
    # generating prefix, whose length gcd(P) divides, so it has period gcd(P)
    # exactly when the prefix does
    rng = random.Random(26)
    for _ in range(20):
        d = rng.choice((1, 1, 2, 3))
        ps = PeriodSet([1])
        while ps.gcd == ps.min_period:
            ps = PeriodSet(d * p for p in rng.sample(range(10**5 // d, 10**6 // d), rng.randrange(2, 6)))
        extremal = extremal_length(ps)
        assert extremal >= ps.min_period, ps
        assert not is_trivial(generating_prefix(ps, extremal), ps), ps
        assert is_trivial(generating_prefix(ps, extremal + 1), ps), ps


def test_engines_agree_at_every_length():
    # min(P) below 400 with gcd g, other periods up to 10**12, at the extremal
    # length L and its neighbours (1 and min(P) when there is none) and at one
    # n in [10**6, 10**13]; then a three-period Fibonacci set at L
    rng = random.Random(27)
    cases = []
    for _ in range(300):
        g = rng.choice((1, 2, 3, 6))
        values = [rng.randrange(1, 400 // g)] + [rng.randrange(1, 10**12 // g) for _ in range(rng.randrange(1, 6))]
        ps = PeriodSet(g * v for v in values)
        extremal = extremal_length(ps)
        lengths = (1, ps.min_period) if extremal is None else (extremal - 1, extremal, extremal + 1)
        cases += [(ps, n) for n in (*lengths, rng.randrange(10**6, 10**13 + 1))]
    fibonacci = PeriodSet([75025, 121393, 196423])
    assert extremal_length(fibonacci) == 196416
    cases.append((fibonacci, 196416))
    nontrivial = 0
    for ps, n in cases:
        prefix = extend_periodically(generating_prefix(ps, n), min(ps.min_period, n))
        assert residue_labels(ps, n) == prefix, (ps, n)
        nontrivial += not is_trivial(prefix, ps)
    assert nontrivial > 500


def _check_generator(ps, n, extremal):
    gen = generating_prefix(ps, n)
    word = fw_fast(ps, n)
    assert extend_periodically(gen, n) == word and len(gen) <= min(ps.min_period, n), (ps, n)
    assert (gen == tuple(range(min(ps.gcd, n)))) == (n > (extremal or -1) or n <= ps.gcd), (ps, n)
    assert is_trivial(gen, ps) == is_trivial(word, ps), (ps, n)
    assert is_trivial(word, ps) == (n <= ps.gcd or len(set(word)) == ps.gcd), (ps, n)


def test_generator_is_the_gcd_residues_exactly_past_the_extremal_length():
    # every set of at most three periods up to 12 at n < 40, then seeded sets
    # of 2-6 periods up to 3,000 (half of them multiples of 2, 3 or 6) at
    # L - 1, L, L + 1, L + 5, 2L + 3 and one n below 10**5
    for ps in grid_period_sets(12):
        extremal = extremal_length(ps)
        for n in range(40):
            _check_generator(ps, n, extremal)
    rng = random.Random(28)
    for _ in range(300):
        d = rng.choice((1, 1, 1, 2, 3, 6))
        ps = PeriodSet(d * rng.randrange(1, 3000 // d) for _ in range(rng.randrange(2, 7)))
        extremal = extremal_length(ps)
        near = () if extremal is None else (extremal - 1, extremal, extremal + 1, extremal + 5, 2 * extremal + 3)
        for n in (*near, rng.randrange(10**5)):
            _check_generator(ps, n, extremal)


def test_generating_prefix_of_wide_trivial_sets_is_the_oracle():
    # 30-100 periods in [2*10**3, 10**4] at n in [10**9, 10**12], far past their
    # extremal length: the generator is one residue per class mod gcd, and the
    # prefix it extends to min(P) letters is the oracle's residue labels
    rng = random.Random(29)
    for _ in range(12):
        d = rng.choice((1, 1, 2, 3))
        ps = PeriodSet(d * rng.randrange(2000 // d, 10**4 // d) for _ in range(rng.randrange(30, 101)))
        n = rng.randrange(10**9, 10**12)
        gen = generating_prefix(ps, n)
        assert n > extremal_length(ps) and gen == tuple(range(ps.gcd)), (ps, n)
        prefix = extend_periodically(gen, min(ps.min_period, n))
        assert prefix == residue_labels(ps, n), (ps, n)
        assert is_trivial(prefix, ps), (ps, n)


def random_oracle_set(rng, low, high):
    # min(P) in [low, high] and 2-5 more periods up to 10**12, gcd(P) < min(P) so that
    # extremal_length is defined; one set in four a multiple of 2 or 3
    ps = PeriodSet([1])
    while ps.gcd == ps.min_period:
        d = rng.choice((1, 1, 2, 3))
        m = d * rng.randrange(-(-low // d), high // d + 1)
        ps = PeriodSet([m, *(d * rng.randrange(m // d + 1, 10**12 // d) for _ in range(rng.randrange(2, 6)))])
    return ps


def test_letters_match_the_oracle_at_scale():
    # 3-6 periods with min(P) in [10**3, 3*10**4] at the extremal length L,
    # where the word is non-trivial, at L + 1, where it is trivial, and at one
    # n up to 10**13; most positions at L and L + 1
    rng = random.Random(30)
    nontrivial = 0
    for _ in range(12):
        ps = random_oracle_set(rng, 10**3, 3 * 10**4)
        extremal = extremal_length(ps)
        for n, draws in ((extremal, 400), (extremal + 1, 100), (rng.randrange(extremal + 2, 10**13), 50)):
            labels = residue_labels(ps, n)
            for i in (rng.randrange(n) for _ in range(draws)):
                letter = letter_at(ps, n, i)
                assert letter == labels[i % ps.min_period], (ps, n, i)
                nontrivial += letter != i % ps.gcd
    assert nontrivial > 300


def test_extremal_length_is_the_last_oracle_count_above_the_gcd():
    rng = random.Random(31)

    def letters(ps, n):
        labels = residue_labels(ps, n)
        return sum(map(operator.eq, labels, range(len(labels))))

    for _ in range(20):
        ps = random_oracle_set(rng, 2, rng.choice((10**2, 10**3, 10**4)))  # min(P) up to 10**2, 10**3 or 10**4
        lo, hi = ps.min_period, 2 * sum(ps)
        assert letters(ps, lo) > ps.gcd and letters(ps, hi) == ps.gcd, ps
        while hi - lo > 1:  # letters(lo) > gcd(P) == letters(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if letters(ps, mid) > ps.gcd else (lo, mid)
        assert extremal_length(ps) == lo, ps


def christoffel(p, q):
    """Letter i of the binary central word with coprime periods p < q (module docstring)."""
    modulus = p + q
    a = pow(p, -1, modulus)
    return lambda i: (i + 2) * a // modulus - (i + 1) * a // modulus


def test_christoffel_word_is_the_two_period_oracle():
    pairs = 0
    for q in range(2, 120):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                c = christoffel(p, q)
                n = p + q - 2
                assert canonicalize(map(c, range(n))) == fw_oracle(PeriodSet([p, q]), n), (p, q)
                pairs += 1
    assert pairs == 4353


def test_christoffel_word_at_scale():
    rng = random.Random(25)

    def period():  # 12 to 50 digits
        digits = rng.randrange(12, 51)
        return rng.randrange(10 ** (digits - 1), 10**digits)

    for _ in range(300):
        p = q = 1
        while p == q or math.gcd(p, q) != 1:
            p, q = sorted((period(), period()))
        ps, c, n = PeriodSet([p, q]), christoffel(p, q), p + q - 2
        assert extremal_length(ps) == n, (p, q)
        for i in (rng.randrange(n) for _ in range(5)):
            assert (letter_at(ps, n, i) == 0) == (c(i) == c(0)), (p, q, i)
