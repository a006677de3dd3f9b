import pytest

from fwwords import PeriodSet, canonicalize, fw_fast, fw_oracle, grid_period_sets, has_period
from fwwords.oracle import residue_labels
from fwwords.words import alphabet

W = (0, 1, 0, 3, 4, 0, 1, 0)


def classes(word):
    """The positions of each letter, ascending, ordered by first occurrence.

    fw_oracle's letters are its class minima, so these are its classes.
    """
    by_letter = {}
    for i, a in enumerate(word):
        by_letter.setdefault(a, []).append(i)
    return [tuple(positions) for positions in by_letter.values()]


def two_clause_partition(periods, k):
    """Independent reference: the literal two-clause relation, closed by BFS.

    Positions i, j are related when i == j (mod m), or when some in-range
    i' == i and j' == j (mod m) sit at a distance that is a period. Slow on
    purpose; used to vouch for the single-step edge generation.
    """
    periods = sorted(set(periods))
    m = periods[0]
    adjacent = [set() for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            related = (i - j) % m == 0
            if not related:
                for ip in range(i % m, k, m):
                    if related:
                        break
                    for jp in range(j % m, k, m):
                        if abs(ip - jp) in periods:
                            related = True
                            break
            if related:
                adjacent[i].add(j)
                adjacent[j].add(i)
    reps = [-1] * k
    for start in range(k):
        if reps[start] != -1:
            continue
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjacent[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        smallest = min(seen)
        for x in seen:
            reps[x] = smallest
    return tuple(reps)


def test_single_step_edges_match_two_clause_relation():
    # k runs past 2·max(P): it covers k < min(P) and edges that reach only
    # the residues x with x + p < k
    for ps in grid_period_sets(9, 4):
        for k in range(2 * max(ps) + 3):
            assert fw_oracle(ps, k) == two_clause_partition(ps.periods, k), (ps, k)


def test_two_clause_relation_confirms_gcd_3_extremal_word():
    # FW({6,9}, 11) is extremal with gcd 3: its end positions sit in classes
    # of residues 0 and 1 mod 3, so the word has no palindromic labeling
    reps = two_clause_partition((6, 9), 11)
    assert reps == fw_oracle(PeriodSet([6, 9]), 11) == (0, 1, 2, 0, 1, 5, 0, 1, 2, 0, 1)
    assert reps[0] != reps[10]


@pytest.mark.parametrize(
    "periods",
    # 900001 joins only the 99,999 residues below 10**6 - 900001
    [(7, 11), (13, 17, 19), (8, 20, 30, 35), (412000, 412001), (600000, 900001)],
)
def test_fw_oracle_matches_fw_fast_at_a_million(periods):
    ps = PeriodSet(periods)
    assert fw_oracle(ps, 10**6) == fw_fast(ps, 10**6)


def test_partition_of_worked_example():
    word = fw_oracle(PeriodSet([5, 7]), 8)
    assert word == W
    assert classes(word) == [(0, 2, 5, 7), (1, 6), (3,), (4,)]


def test_short_lengths_are_discrete():
    assert classes(fw_oracle(PeriodSet([5, 7]), 3)) == [(0,), (1,), (2,)]


def test_single_period_chains():
    assert classes(fw_oracle(PeriodSet([2]), 5)) == [(0, 2, 4), (1, 3)]


def test_empty_partition():
    assert fw_oracle(PeriodSet([3]), 0) == ()


def test_representative_invariants():
    for ps in grid_period_sets(6):
        for k in range(12):
            reps = fw_oracle(ps, k)
            for i, r in enumerate(reps):
                assert r <= i
                assert reps[r] == r


def test_fw_oracle_known_words():
    assert fw_oracle(PeriodSet([5, 7]), 8) == W
    assert fw_oracle(PeriodSet([5, 7]), 3) == (0, 1, 2)
    assert fw_oracle(PeriodSet([2, 3]), 4) == (0, 0, 0, 0)


def test_fw_oracle_has_all_periods_and_is_canonical():
    for ps in grid_period_sets(6):
        for n in range(14):
            w = fw_oracle(ps, n)
            assert all(has_period(w, p) for p in ps)
            assert has_period(w, ps.min_period)
            assert canonicalize(w) == w


def test_class_count():
    assert len(alphabet(fw_oracle(PeriodSet([5, 7]), 8))) == 4
    assert len(alphabet(fw_oracle(PeriodSet([2, 3]), 4))) == 1
    for n in range(6):
        assert len(alphabet(fw_oracle(PeriodSet([5, 7]), n))) == n  # n <= min: all singletons
    for ps in grid_period_sets(5):
        for n in range(12):
            # the extension adds no class: the residue labels hold them all
            assert len(set(residue_labels(ps, n))) == len(alphabet(fw_oracle(ps, n)))


def test_max_alphabet_known_cases(max_alphabet_exhaustive):
    assert max_alphabet_exhaustive(PeriodSet([2, 3]), 3) == (2, ((0, 1, 0),))
    assert max_alphabet_exhaustive(PeriodSet([5, 7]), 8) == (4, (W,))
    assert max_alphabet_exhaustive(PeriodSet([1]), 3) == (1, ((0, 0, 0),))


def test_max_alphabet_vacuous_period(max_alphabet_exhaustive):
    # a period >= n constrains nothing: the all-distinct word wins, uniquely
    assert max_alphabet_exhaustive(PeriodSet([3]), 3) == (3, ((0, 1, 2),))


def test_max_alphabet_empty_length(max_alphabet_exhaustive):
    assert max_alphabet_exhaustive(PeriodSet([2]), 0) == (0, ((),))


def test_max_alphabet_bound(max_alphabet_exhaustive):
    # only the min(min P, n) positions before any period reaches back branch
    assert max_alphabet_exhaustive(PeriodSet([2]), 10) == (2, (fw_oracle(PeriodSet([2]), 10),))
    count, witnesses = max_alphabet_exhaustive(PeriodSet([9, 10]), 10)
    assert count == len(alphabet(fw_oracle(PeriodSet([9, 10]), 10)))
    assert witnesses == (fw_oracle(PeriodSet([9, 10]), 10),)
