"""Acceptance suite: one test per checklist criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS` line on success (visible with
`pytest -s`); failures surface through pytest itself.

Criterion 6 checks the palindrome theorem for extremal words. Write
d = gcd(P) < min(P) and n = d(L'+1) - 1 for the extremal length, L' being
that of P/d. Reversal i -> n-1-i always maps the extremal word to a renaming
of itself, and the word is letterwise palindromic exactly when d <= 2.
Every class of positions lies inside one residue class mod d; residues
0..d-2 each carry L'+1 positions (past the extremal length of P/d, hence one
class each) and residue d-1 carries the extremal word of P/d, a palindrome
(Tijdeman & Zamboni, Indag. Math. 14, 2003). Reversal sends residue r to
(d-2-r) mod d: it fixes residue d-1 and reflects 0..d-2, which moves a
residue exactly when d >= 3. Then positions 0 and n-1 lie in different
classes, so no labeling is a palindrome: FW({6,9}, 11) = 01201501201, whose
classes {0,3,6,9}, {1,4,7,10}, {2,8}, {5} are confirmed by the independent
two-clause relation in tests/test_oracle.py.
"""

import json
import math
import time
from itertools import combinations

from fwwords import (
    PeriodSet,
    batched_reduce,
    canonicalize,
    class_count,
    extremal_length,
    extremal_length_unbatched,
    fw_fast,
    fw_oracle,
    grid_period_sets,
    is_palindrome,
    is_trivial,
    letter_at,
    letter_at_unbatched,
    max_alphabet_exhaustive,
    pref,
    reduce_periods,
    reduction_chain,
)
from fwwords.cli import main, render_chain

GRID_MAX_PERIOD = 12
GRID_MAX_N = 40

_GRID_WORDS: dict[tuple[PeriodSet, int], tuple] = {}


def grid_words():
    # shared by C2/C3/C4; built inside C2's timed region on first use
    if not _GRID_WORDS:
        for ps in grid_period_sets(GRID_MAX_PERIOD):
            for n in range(GRID_MAX_N + 1):
                _GRID_WORDS[(ps, n)] = (fw_fast(ps, n), fw_oracle(ps, n))
    return _GRID_WORDS


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c1_worked_example_bit_exact(capsys):
    ps = PeriodSet([5, 7])
    expected = (0, 1, 0, 3, 4, 0, 1, 0)

    def workload():
        return fw_fast(ps, 8), fw_oracle(ps, 8), render_chain(reduction_chain(ps, 8))

    samples = []
    for _ in range(20):
        start = time.perf_counter()
        workload()
        samples.append(time.perf_counter() - start)
    best = min(samples)
    fast, slow, chain_text = workload()
    assert fast == slow == expected
    assert "".join(str(letter) for letter in fast) == "01034010"
    assert chain_text == "Q0={5,7} n0=8\nQ1={2,5} n1=3\nQ2={2,3} n2=1\nLengthAtMostMin"
    assert main(["chain", "--periods", "5,7", "--length", "8"]) == 0
    assert capsys.readouterr().out == chain_text + "\n"
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"
    report("C1 worked example, bit exact, < 1 ms")


def test_c2_oracle_equivalence_grid():
    start = time.perf_counter()
    words = grid_words()
    assert len(words) == 12218  # 298 period sets x 41 lengths
    for (ps, n), (fast, slow) in words.items():
        assert fast == slow, f"word mismatch for periods={ps} n={n}"
        for i, letter in enumerate(fast):
            assert letter_at(ps, n, i) == letter, f"letter mismatch for periods={ps} n={n} i={i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"grid took {elapsed:.1f} s"
    report(f"C2 oracle equivalence on the full grid ({len(words)} cases, {elapsed:.1f} s)")


def test_c3_reduced_word_is_prefix():
    checked = 0
    for ps in grid_period_sets(GRID_MAX_PERIOD):
        m = ps.min_period
        reduced = reduce_periods(ps)
        for n in range(GRID_MAX_N + 1):
            assert fw_oracle(reduced, n) == pref(fw_oracle(ps, n + m), n), f"periods={ps} n={n}"
            checked += 1
    report(f"C3 prefix property ({checked} cases)")


def test_c4_forced_fresh_letters():
    checked = 0
    for (ps, n), (_, slow) in grid_words().items():
        m = ps.min_period
        if n <= m:
            continue
        for i in range(max(0, n - m), m):
            assert slow[i] == i, f"periods={ps} n={n} i={i}"
            assert slow.count(i) == 1, f"periods={ps} n={n} i={i}"
            checked += 1
    report(f"C4 forced fresh letters ({checked} positions)")


def test_c5_two_period_extremal_law():
    start = time.perf_counter()
    pairs = 0
    for q in range(2, 31):
        for p in range(1, q):
            g = math.gcd(p, q)
            ps = PeriodSet([p, q])
            if g == p:
                assert extremal_length(ps) is None
                continue
            best = extremal_length(ps)
            assert best == p + q - g - 1, f"law fails for p={p} q={q}: {best}"
            assert not is_trivial(fw_oracle(ps, best), ps), f"trivial at the extremal length, p={p} q={q}"
            for n in range(best + 1, best + 2 * p + 1):
                assert is_trivial(fw_oracle(ps, n), ps), f"non-trivial past the extremal length, p={p} q={q} n={n}"
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"two-period scan took {elapsed:.1f} s"
    report(f"C5 two-period extremal law ({pairs} pairs, {elapsed:.1f} s)")


def test_c6_extremal_words_palindromic_as_pinned():
    # Reversal is a renaming for every gcd; letterwise palindromes for gcd <= 2.
    # For gcd >= 3 reversal moves residue 0 to residue gcd-2, so the first and
    # last letters differ and no labeling is a palindrome (module docstring).
    gcd_at_least_3 = []
    for ps in grid_period_sets(GRID_MAX_PERIOD):
        if ps.gcd >= ps.min_period:
            continue
        word = fw_fast(ps, extremal_length(ps))
        text = "".join(str(a) for a in word)
        assert canonicalize(reversed(word)) == word, (
            f"reversed extremal word for periods={ps} is not a renaming: {text}"
        )
        if ps.gcd <= 2:
            assert is_palindrome(word), (
                f"extremal word for periods={ps} is not letterwise palindromic: {text}"
            )
        else:
            assert word[0] != word[-1], (
                f"extremal word for periods={ps} has equal end letters despite gcd >= 3: {text}"
            )
            gcd_at_least_3.append(ps.periods)
    assert gcd_at_least_3 == [(6, 9), (8, 12), (9, 12), (6, 9, 12)]
    report("C6 extremal palindromes (renaming for every gcd, letterwise for gcd <= 2)")


def test_c7_exhaustive_maximality_uniqueness():
    start = time.perf_counter()
    checked = 0
    for size in range(1, 9):
        for combo in combinations(range(1, 9), size):
            ps = PeriodSet(combo)
            for n in range(10):
                best, witnesses = max_alphabet_exhaustive(ps, n)
                assert best == class_count(ps, n), f"periods={ps} n={n}"
                assert witnesses == (fw_oracle(ps, n),), f"periods={ps} n={n}"
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"exhaustive sweep took {elapsed:.1f} s"
    report(f"C7 maximality and uniqueness by brute force ({checked} cases, {elapsed:.1f} s)")


def test_c8_batched_paths_equal_literal_paths():
    # jumped reduction replays exactly as iterated single steps, sets and counts
    for ps in grid_period_sets(60):
        literal = [ps]
        cur = ps
        while cur.min_period != cur.gcd:
            cur = reduce_periods(cur)
            literal.append(cur)
        cur, taken = ps, 0
        while cur.min_period != cur.gcd:
            cur, k = batched_reduce(cur)
            taken += k
            assert cur == literal[taken], f"jump diverges for periods={ps} after {taken} steps"
        assert taken == len(literal) - 1, f"step count differs for periods={ps}"
    # jumped letter queries and extremal lengths equal their literal twins
    for ps in grid_period_sets(GRID_MAX_PERIOD):
        assert extremal_length(ps) == extremal_length_unbatched(ps), f"periods={ps}"
        for n in range(GRID_MAX_N + 1):
            for i in range(n):
                assert letter_at(ps, n, i) == letter_at_unbatched(ps, n, i), f"periods={ps} n={n} i={i}"
    report("C8 batching equivalence (reduction replay <= 60; letter/extremal on the full grid)")


def test_c9_performance_budgets(capsys):
    # letter query and fast build at astronomical scale, through the bench command
    assert main([
        "bench", "--periods", "3,1000000007", "--length", str(10**12),
        "--repetitions", "5", "--format", "json",
    ]) == 0
    rows = {row["engine"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["oracle_word"]["skipped"] == "guard"
    assert rows["fast_word"]["median_ns"] is not None  # fast leg still reports timing
    assert rows["letter_at"]["median_ns"] < 10_000_000, rows["letter_at"]

    big = PeriodSet([3, 10**9 + 7])
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        value = extremal_length(big)
        samples.append(time.perf_counter() - start)
    assert value == 3 + 10**9 + 7 - 1 - 1  # two-period law at scale
    assert min(samples) < 0.010, f"extremal_length took {min(samples) * 1e3:.2f} ms"

    assert main([
        "bench", "--periods", "5,7", "--length", str(10**6),
        "--repetitions", "3", "--format", "json",
    ]) == 0
    rows = {row["engine"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["fast_word"]["median_ns"] < 100_000_000, rows["fast_word"]
    assert rows["oracle_word"]["median_ns"] is not None  # both engines complete at 1e6
    report("C9 performance budgets (letter query < 10 ms, extremal < 10 ms, 1e6 build < 100 ms)")
