"""Acceptance suite: one test per checklist criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS` line on success (visible with
`pytest -s`); failures surface through pytest itself. C2, C3, C4, C6 and C8
run the check families of `fwwords selftest` (`fwwords.selftest.FAMILIES`)
on its default grid, each family in exactly one criterion.

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

from fwwords import (
    PeriodSet,
    extremal_length,
    fw_fast,
    fw_oracle,
    grid_period_sets,
    is_trivial,
)
from fwwords.cli import main
from fwwords.reduction import chain_jumps, reduction_chain
from fwwords.selftest import DEFAULT_MAX_N, DEFAULT_MAX_PERIOD, FAMILIES

GRID = grid_period_sets(DEFAULT_MAX_PERIOD)


def run_family(name: str) -> int:
    # one of `fwwords selftest`'s check families on its default grid; the
    # counts the C-ids assert are the ones it prints, 280,025 in total
    return sum(FAMILIES[name](ps, DEFAULT_MAX_N) for ps in GRID)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c1_worked_example_bit_exact(capsys, render_chain):
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
    words = run_family("word-equivalence")
    letters = run_family("letter-queries")
    elapsed = time.perf_counter() - start
    assert words == 12218  # 298 period sets x 41 lengths
    assert letters == 244360  # 298 x (0 + 1 + ... + 40) positions, jumped and literal
    assert elapsed < 30, f"grid took {elapsed:.1f} s"
    report(f"C2 oracle equivalence on the full grid ({words} words, {letters} letters, {elapsed:.1f} s)")


def test_c3_reduced_word_is_prefix():
    checked = run_family("prefix-property")
    assert checked == 12218
    report(f"C3 prefix property ({checked} cases)")


def test_c4_forced_fresh_letters():
    checked = run_family("singleton-letters")
    assert checked == 10841  # lengths n > min(P)
    report(f"C4 forced fresh letters ({checked} words)")


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
    # Reversal is a renaming for every gcd; letterwise palindromes for gcd <= 2,
    # and for gcd >= 3 the end letters differ (module docstring)
    assert run_family("palindromes") == 194  # period sets with gcd < min
    gcd_at_least_3 = [ps.periods for ps in GRID if ps.min_period > ps.gcd >= 3]
    assert gcd_at_least_3 == [(6, 9), (8, 12), (9, 12), (6, 9, 12)]
    report("C6 extremal palindromes (renaming for every gcd, letterwise for gcd <= 2)")


def test_c7_exhaustive_maximality_uniqueness(max_alphabet_exhaustive):
    start = time.perf_counter()
    checked = 0
    for ps in grid_period_sets(8, 8):
        for n in range(17):
            best, witnesses = max_alphabet_exhaustive(ps, n)
            assert best == len(set(fw_oracle(ps, n))), f"periods={ps} n={n}"
            assert witnesses == (fw_oracle(ps, n),), f"periods={ps} n={n}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"exhaustive sweep took {elapsed:.1f} s"
    report(f"C7 maximality and uniqueness by brute force ({checked} cases, {elapsed:.1f} s)")


def test_c8_batched_paths_equal_literal_paths():
    # the production descent, each jump expanded into its k steps, replays the
    # literal chain set by set and length by length; at 2*sum(P) no jump is
    # capped and both end at min == gcd
    for ps in grid_period_sets(60):
        n = 2 * sum(ps.periods)
        literal = reduction_chain(ps, n)
        replay = []
        for (m, *rest), length, k, end in chain_jumps(ps, n):
            replay += [((m, *[p - s * m for p in rest]), length - s * m) for s in range(k)]
        assert replay == [(q.periods, length) for q, length in literal.steps], f"descent diverges for periods={ps}"
        assert end is literal.termination, f"termination differs for periods={ps}"
    # jumped extremal lengths equal their literal twins, at the triviality
    # boundary (jumped letter queries: C2's letter-queries)
    assert run_family("extremal-boundary") == 194
    report("C8 batching equivalence (production descent replay <= 60; extremal boundary on the full grid)")


def test_c9_performance_budgets(capsys):
    # letter query and fast build at astronomical scale, through the bench command
    assert main([
        "bench", "--periods", "3,1000000007", "--length", str(10**12),
        "--repetitions", "5", "--format", "json",
    ]) == 0
    rows = {row["engine"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    # both engines' generators are timed, as `word` answers this length on either
    assert rows["fast_word"]["median_ns"] is not None and rows["oracle_word"]["median_ns"] is not None
    assert rows["letter_at"]["median_ns"] < 10_000_000, rows["letter_at"]

    big = PeriodSet([3, 10**9 + 7])
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        value = extremal_length(big)
        samples.append(time.perf_counter() - start)
    assert value == 3 + 10**9 + 7 - 1 - 1  # two-period law at scale
    assert min(samples) < 0.010, f"extremal_length took {min(samples) * 1e3:.2f} ms"

    # the whole 1e6 build, timed in process: `bench` times only the engines' generators
    small = PeriodSet([5, 7])
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        word = fw_fast(small, 10**6)
        samples.append(time.perf_counter() - start)
    median = sorted(samples)[1]
    assert median < 0.100, f"fw_fast at 1e6 took {median * 1e3:.2f} ms"
    assert fw_oracle(small, 10**6) == word  # both engines complete at 1e6
    report("C9 performance budgets (letter query < 10 ms, extremal < 10 ms, 1e6 build < 100 ms)")
