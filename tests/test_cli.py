import argparse
import collections
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from itertools import combinations

import pytest

from fwwords import cli, reduction, selftest, words
from fwwords.cli import main
from fwwords import OutOfRangeError, PeriodSet, Termination, extremal_length, fw_fast, fw_oracle, is_trivial, letter_at
from fwwords.oracle import residue_labels
from fwwords.reduction import chain_jumps, generating_prefix, reduction_chain
from fwwords.words import ORACLE_MAX_LENGTH, alphabet
from fwwords.selftest import MAX_GRID_WORK, grid_period_sets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_dense_worked_example(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "8", "--format", "dense")
    assert code == 0
    assert out == "01034010\n"


def test_word_dense_short(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "3", "--format", "dense")
    assert (code, out) == (0, "012\n")


def test_word_dense_gcd_case(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "2,4", "--length", "5", "--format", "dense")
    assert (code, out) == (0, "01010\n")


def test_word_ints_default(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "8")
    assert (code, out) == (0, "0 1 0 3 4 0 1 0\n")


def test_word_dense_uses_base36_letters(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "40", "--length", "12", "--format", "dense")
    assert (code, out) == (0, "0123456789ab\n")


def test_word_engines_agree(capsys):
    _, fast_out, _ = run_cli(capsys, "word", "--periods", "6,9", "--length", "30", "--engine", "fast")
    _, oracle_out, _ = run_cli(capsys, "word", "--periods", "6,9", "--length", "30", "--engine", "oracle")
    assert fast_out == oracle_out


def test_word_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "periods": [5, 7],
        "length": 8,
        "letters": [0, 1, 0, 3, 4, 0, 1, 0],
        "alphabet_size": 4,
        "trivial": False,
    }
    # re-render the parsed letters: identical to the ints rendering
    _, ints_out, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "8", "--format", "ints")
    assert " ".join(str(v) for v in payload["letters"]) + "\n" == ints_out


def test_dense_and_ints_agree_when_dense_is_legal(capsys):
    _, dense_out, _ = run_cli(capsys, "word", "--periods", "7,9", "--length", "20", "--format", "dense")
    _, ints_out, _ = run_cli(capsys, "word", "--periods", "7,9", "--length", "20", "--format", "ints")
    assert [int(c, 36) for c in dense_out.strip()] == [int(v) for v in ints_out.split()]


def test_word_dense_alphabet_too_large(capsys):
    code, out, err = run_cli(capsys, "word", "--periods", "50", "--length", "40", "--format", "dense")
    assert code == 2
    assert out == ""
    assert "AlphabetTooLargeForDense" in err


@pytest.mark.parametrize("bad", ["0,5", "-3", "abc", "", "5,,7"])
def test_invalid_periods_exit_2(capsys, bad):
    code, _, err = run_cli(capsys, "word", "--periods", bad, "--length", "5")
    assert code == 2
    assert err != ""


def test_word_negative_length_exit_2(capsys):
    code, _, _ = run_cli(capsys, "word", "--periods", "5,7", "--length", "-1")
    assert code == 2


@pytest.mark.parametrize("fmt", ["ints", "dense", "json"])
def test_word_oracle_negative_length_exit_2(capsys, fmt):
    code, out, err = run_cli(
        capsys, "word", "--periods", "5,7", "--length", "-1", "--engine", "oracle", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert "length must be >= 0" in err


def test_usage_error_exit_2(capsys):
    assert main(["word", "--length", "8"]) == 2  # --periods missing
    capsys.readouterr()


def test_at(capsys):
    assert run_cli(capsys, "at", "--periods", "5,7", "--length", "8", "--index", "3")[:2] == (0, "3\n")
    assert run_cli(capsys, "at", "--periods", "5,7", "--length", "8", "--index", "0")[:2] == (0, "0\n")


def test_at_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "at", "--periods", "5,7", "--length", "8", "--index", "8")
    assert code == 2
    assert "out of range" in err


def test_at_huge_inputs(capsys):
    code, out, _ = run_cli(
        capsys, "at", "--periods", "3,1000000007", "--length", "1000000000000", "--index", "999999999999"
    )
    assert code == 0
    assert out.strip().isdigit()


def test_extremal(capsys):
    assert run_cli(capsys, "extremal", "--periods", "5,7")[:2] == (0, "10\n")
    assert run_cli(capsys, "extremal", "--periods", "2,4")[:2] == (0, "none\n")
    assert run_cli(capsys, "extremal", "--periods", "2,3")[:2] == (0, "3\n")


def test_extremal_prints_answer_longer_than_int_str_limit(capsys):
    # 2p - 1 for p = 9*10**4299 has 4301 digits, one past Python's default limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    p = "9" + "0" * 4299
    code, out, err = run_cli(capsys, "extremal", "--periods", f"{p},{p[:-1]}1")
    assert (code, out, err) == (0, "17" + "9" * 4299 + "\n", "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:
        # a period past the limit is still refused at parse time
        code, out, err = run_cli(capsys, "extremal", "--periods", f"9{'0' * limit},7")
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        # a limit of 0 (none, as on 3.10 before 3.10.7) is left as it is
        try:
            sys.set_int_max_str_digits(0)
            assert run_cli(capsys, "extremal", "--periods", f"{p},{p[:-1]}1") == (0, "17" + "9" * 4299 + "\n", "")
            assert sys.get_int_max_str_digits() == 0
        finally:
            sys.set_int_max_str_digits(limit)
        # at the least limit, 640, a 641-digit answer from 640-digit periods
        q = 9 * 10**639
        try:
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(capsys, "extremal", "--periods", f"{q},{q + 1}")
            assert (code, out, err) == (0, "17" + "9" * 639 + "\n", "")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
    # {2, q} for odd q answers q: past 10**64 its low 64 digits need zero-padding; below it there is no high part
    assert run_cli(capsys, "extremal", "--periods", f"2,{10**64 + 1}") == (0, "1" + "0" * 63 + "1\n", "")
    assert run_cli(capsys, "extremal", "--periods", f"2,{10**64 - 1}") == (0, "9" * 64 + "\n", "")


def test_chain_worked_example(capsys):
    code, out, _ = run_cli(capsys, "chain", "--periods", "5,7", "--length", "8")
    assert code == 0
    assert out == "Q0={5,7} n0=8\nQ1={2,5} n1=3\nQ2={2,3} n2=1\nLengthAtMostMin\n"


def test_chain_single_step_cases(capsys):
    code, out, _ = run_cli(capsys, "chain", "--periods", "2,4", "--length", "100")
    assert (code, out) == (0, "Q0={2,4} n0=100\nGcdEqualsMin\n")
    code, out, _ = run_cli(capsys, "chain", "--periods", "5,7", "--length", "4")
    assert (code, out) == (0, "Q0={5,7} n0=4\nLengthAtMostMin\n")


def test_render_chain_matches_cli(capsys, render_chain):
    text = render_chain(reduction_chain(PeriodSet([5, 7]), 8))
    _, out, _ = run_cli(capsys, "chain", "--periods", "5,7", "--length", "8")
    assert out == text + "\n"


def test_chain_streams_the_literal_chain(capsys, monkeypatch, render_chain):
    # `chain` writes from the jump descent; the literal chain is the reference.
    # {3,9,12}, {2,8,10} and {5,25,30} merge two elements at the end of a
    # multi-step jump; {2,4} at 2 is the tie that the length condition wins.
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    cases = [(values, n) for size in (1, 2, 3) for values in combinations(range(1, 13), size) for n in range(41)]
    cases += [(values, n) for values in ((3, 6, 9), (4, 6, 10), (3, 9, 12), (5, 25, 30), (8, 20, 30, 35),
                                         (12, 18, 27), (1000, 1000007)) for n in (0, 1, 99, 1000, 4321, 3000000)]
    cases.append(((2, 4), 2))
    terminations = set()
    for values, n in cases:
        chain = reduction_chain(PeriodSet(values), n)
        terminations.add(chain.termination)
        periods = ",".join(map(str, values))
        assert run_cli(capsys, "chain", "--periods", periods, "--length", str(n)) == (0, render_chain(chain) + "\n", "")
    assert terminations == set(Termination)
    code, out, err = run_cli(capsys, "chain", "--periods", "5,7", "--length", "-1")
    assert (code, out) == (2, "")
    assert "length must be >= 0" in err


def test_chain_streams_the_literal_chain_on_larger_sets(capsys, monkeypatch, render_chain):
    # 4-8 periods, so that jumps carry the periods past the second one in the
    # descent's offset list: minima change, merge and go back into the list
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    rng = random.Random(31)
    terminations = set()
    for _ in range(60):
        values = rng.sample(range(1, 60), rng.randrange(4, 9))
        periods = ",".join(map(str, values))
        for n in (rng.randrange(400), 2 * sum(values)):
            chain = reduction_chain(PeriodSet(values), n)
            terminations.add(chain.termination)
            assert run_cli(capsys, "chain", "--periods", periods, "--length", str(n)) == (0, render_chain(chain) + "\n", "")
    assert terminations == set(Termination)


class _Writes(io.StringIO):
    """A stdout that counts the lines each write holds."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def write(self, text):
        self.rows.append(text.count("\n"))
        return super().write(text)


def _chain_writes(monkeypatch, values, n):
    """`chain`'s output for the periods values at length n, and the lines per write."""
    out = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        assert main(["chain", "--periods", ",".join(map(str, values)), "--length", str(n)]) == 0
    return out.getvalue(), out.rows


def test_chain_writes_cross_their_boundaries(monkeypatch, render_chain):
    # With a budget of B bytes a write of a run holds max(1, B // width) lines,
    # width being the run's first line: at 16 and 100 bytes runs span many
    # writes, and each write is formatted on its own, from its first step.
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    rng = random.Random(24)
    cases = [((5, 1001), 1000), ((4, 9, 10, 23), 500), ((1000, 1000007), 100000)]
    for size in range(1, 9):
        for _ in range(12):
            values = rng.sample(range(1, 80), size)
            cases.append((values, rng.randrange(4 * sum(values))))
    for budget in (16, 100):
        monkeypatch.setattr(cli, "CHAIN_WRITE_BYTES", budget)
        for values, n in cases:
            text, rows = _chain_writes(monkeypatch, values, n)
            assert text == render_chain(reduction_chain(PeriodSet(values), n)) + "\n"
            expected, idx = [], 0
            for periods, length, k, _ in chain_jumps(PeriodSet(values), n):
                width = len(f"Q{idx}={{{','.join(map(str, periods))}}} n{idx}={length}\n")
                per_write = max(1, budget // width)
                expected += [per_write] * (k // per_write) + [k % per_write] * (k % per_write > 0)
                idx += k
            assert rows == [*expected, 1], (budget, values, n)
    # {5,1001} at 1000 is one run of 199 steps of 20-byte lines in 40 writes, then its last step
    _, rows = _chain_writes(monkeypatch, (5, 1001), 1000)
    assert rows == [5] * 39 + [4, 1, 1]
    # At the real budget of 2**18 bytes: 2**18 // 33 lines per write for a run of 30,000
    # two-period steps, and 2**18 // 55 for a run of 20,000 four-period steps
    monkeypatch.undo()
    assert cli.CHAIN_WRITE_BYTES == 1 << 18
    _, rows = _chain_writes(monkeypatch, (1000, 10**9 + 7), 1000 * 30001)
    assert rows == [7943, 7943, 7943, 6171, 1, 1]
    _, rows = _chain_writes(monkeypatch, (1000, 10**9 + 7, 10**9 + 14, 10**9 + 21), 1000 * 20001)
    assert rows == [4766, 4766, 4766, 4766, 936, 1, 1]


def _selftest_lines(*counts):
    """The report of a passing grid with these counts per family, in FAMILIES order."""
    return [*(f"{name}: {count}" for name, count in zip(selftest.FAMILIES, counts)), f"total-checks: {sum(counts)}"]


def test_selftest_small_grid(capsys):
    # the worked example P={5,7}, n=8 is inside this grid
    code, out, err = run_cli(capsys, "selftest", "--max-period", "7", "--max-n", "8")
    assert (code, err) == (0, "")
    assert out.splitlines() == [*_selftest_lines(567, 2268, 567, 350, 31, 31), "all checks passed"]


def test_selftest_degenerate_grid(capsys):
    code, out, err = run_cli(capsys, "selftest", "--max-period", "1", "--max-n", "5")
    assert (code, err) == (0, "")
    assert out.splitlines() == [*_selftest_lines(6, 15, 6, 4, 0, 0), "all checks passed"]


def test_selftest_reports_an_engine_that_raises(capsys, monkeypatch):
    def raising(ps, max_n):
        raise IndexError("tuple index out of range")

    monkeypatch.setitem(selftest.FAMILIES, "prefix-property", raising)
    code, out, err = run_cli(capsys, "selftest", "--max-period", "2", "--max-n", "3")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL: prefix-property raised IndexError: tuple index out of range for periods={1}"
    assert "Traceback" not in out + err


def test_selftest_reports_a_wrong_letter(capsys, monkeypatch):
    # A wrong answer, not an exception: the run stops at the first mismatch,
    # reports the counts so far and exits 1.
    monkeypatch.setattr(selftest, "letter_at", lambda ps, n, i: letter_at(ps, n, i) + 1)
    code, out, err = run_cli(capsys, "selftest", "--max-period", "2", "--max-n", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        *_selftest_lines(4, 0, 0, 0, 0, 0), "FAIL: letter_at mismatch for periods={1} n=1 position=0"
    ]
    # the literal twin's walk, wrong at position 1 only
    monkeypatch.undo()
    literal = selftest._literal_letter
    monkeypatch.setattr(selftest, "_literal_letter", lambda levels, i: literal(levels, i) + (i == 1))
    code, out, err = run_cli(capsys, "selftest", "--max-period", "3", "--max-n", "4")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "FAIL: letter_at_unbatched mismatch for periods={1} n=2 position=1"


@pytest.mark.parametrize(
    "family,patches,periods,message",
    [
        (
            "word-equivalence", {"fw_fast": lambda ps, n: fw_oracle(ps, n)[::-1]}, (5, 7),
            "fw_fast != fw_oracle for periods={5,7} n=2",
        ),
        (
            "prefix-property", {"reduce_periods": lambda ps: ps}, (5, 7),
            "reduced-set word is not a prefix for periods={5,7} n=3",
        ),
        (
            "singleton-letters", {"fw_oracle": lambda ps, n: (0,) * n}, (5, 7),
            "expected a unique fresh letter for periods={5,7} n=6 position=1",
        ),
        (
            "extremal-boundary", {"extremal_length_unbatched": lambda ps: -1}, (5, 7),
            "jumped and literal extremal lengths differ for periods={5,7}",
        ),
        (  # L({5,7}) = 10, so L + 1 names a trivial word
            "extremal-boundary", dict.fromkeys(("extremal_length", "extremal_length_unbatched"), lambda ps: 11),
            (5, 7), "extremal word is trivial for periods={5,7}",
        ),
        (
            "extremal-boundary", dict.fromkeys(("extremal_length", "extremal_length_unbatched"), lambda ps: 9),
            (5, 7), "non-trivial word past the extremal length for periods={5,7} n=10",
        ),
        (
            "palindromes", {"canonicalize": lambda letters: ()}, (5, 7),
            "reversed extremal word is not a renaming for periods={5,7}",
        ),
        (
            "palindromes", {"is_palindrome": lambda w: False}, (5, 7),
            "extremal word is not a palindrome for periods={5,7}",
        ),
        (
            "palindromes", {"fw_fast": lambda ps, n: (0,) * n}, (6, 9),
            "extremal word has equal end letters despite gcd >= 3 for periods={6,9}",
        ),
    ],
)
def test_selftest_families_name_their_counterexample(monkeypatch, family, patches, periods, message):
    # each family's own failure message, from one wrong answer patched into selftest
    for name, wrong in patches.items():
        monkeypatch.setattr(selftest, name, wrong)
    with pytest.raises(selftest._Failure) as failure:
        selftest.FAMILIES[family](PeriodSet(periods), 8)
    assert str(failure.value) == message


def test_selftest_builds_each_word_once(monkeypatch):
    # the families read every word through one memo, so a run calls each
    # engine once per (period set, length) it asks for
    calls = {}
    for name in ("fw_fast", "fw_oracle"):
        engine, counts = getattr(selftest, name), collections.Counter()

        def counted(ps, n, engine=engine, counts=counts):
            counts[ps, n] += 1
            return engine(ps, n)

        calls[name] = counts
        monkeypatch.setattr(selftest, name, counted)
    report = selftest.run_selftest(5, 8)
    assert report.ok and report.total_checks == 1518
    assert {name: (len(counts), sum(counts.values())) for name, counts in calls.items()} == {
        "fw_fast": (244, 244), "fw_oracle": (275, 275)
    }


def test_selftest_memo_serves_no_stale_word(monkeypatch):
    # A passing run fills the memo with both engines' words. A wrong engine
    # patched in afterwards is still caught, by a run and by a family alone.
    assert selftest.run_selftest(5, 8).ok
    monkeypatch.setattr(selftest, "fw_oracle", lambda ps, n: fw_oracle(ps, n)[::-1])
    with pytest.raises(selftest._Failure) as failure:
        selftest.FAMILIES["word-equivalence"](PeriodSet([3, 5]), 8)
    assert str(failure.value) == "fw_fast != fw_oracle for periods={3,5} n=2"
    report = selftest.run_selftest(5, 8)
    assert report.lines()[-1] == "FAIL: fw_fast != fw_oracle for periods={2} n=2"


@pytest.mark.parametrize("max_period,max_n", [("0", "-1"), ("3", "-5"), ("0", "5")])
def test_selftest_empty_grid_exit_2(capsys, max_period, max_n):
    code, out, err = run_cli(capsys, "selftest", "--max-period", max_period, "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "max_period >= 1 and max_n >= 0" in err


@pytest.mark.parametrize(
    "max_period,max_n", [("1000", "40"), ("12", "1000000"), ("1000", "0"), ("41", "40"), ("1", "4400")]
)
def test_selftest_grid_work_bound_exit_2(capsys, max_period, max_n):
    # refused from arithmetic alone: none of these grids is ever built
    code, out, err = run_cli(capsys, "selftest", "--max-period", max_period, "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"exceeds {MAX_GRID_WORK}" in err


@pytest.mark.parametrize("max_period,max_n", [(3, 1500), (2, 600)])
def test_selftest_work_counts_the_literal_levels(capsys, max_period, max_n):
    # the guard counts up to n // min(P) + 1 literal levels for each of the n
    # queries at length n, an upper bound on the levels the walk visits
    sets = grid_period_sets(max_period)
    levels = sum(n * (n // ps.min_period + 1) for ps in sets for n in range(max_n + 1))
    work = len(sets) * math.comb(max(max_period, max_n) + 2, 2) + levels
    code, out, err = run_cli(capsys, "selftest", "--max-period", str(max_period), "--max-n", str(max_n))
    assert (code, out, err) == (2, "", f"error: the grid's work {work} exceeds {MAX_GRID_WORK}; lower max_period or max_n\n")


@pytest.mark.parametrize(
    "argv",
    [
        *(["word", "--periods", "10000000000", "--format", fmt] for fmt in ("ints", "dense", "json")),
        ["bench", "--periods", "10000000000,10000000001"],
        *(["word", "--periods", "10000000000,10000000001", "--format", fmt] for fmt in ("ints", "dense", "json")),
        *(
            ["word", "--engine", "oracle", "--periods", "10000000000,10000000001", "--format", fmt]
            for fmt in ("ints", "dense", "json")
        ),
    ],
)
def test_generating_prefix_above_the_limit_exit_2(capsys, argv):
    # min(min P, length) = 10**10 letters: refused before the prefix is built,
    # also for {10**10, 10**10 + 1}, whose 10**11-letter word (gcd 1, extremal
    # length about 2*10**10) is trivial, and on the oracle, whose residue labels
    # are as long
    code, out, err = run_cli(capsys, *argv, "--length", "100000000000")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(ORACLE_MAX_LENGTH) in err


def test_bench_text_output(capsys):
    code, out, _ = run_cli(capsys, "bench", "--periods", "5,7", "--length", "1000", "--repetitions", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("fast_word median_ns=")
    assert lines[1].startswith("oracle_word median_ns=")
    assert lines[2].startswith("letter_at median_ns=")


def test_bench_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--periods", "5,7", "--length", "1000", "--repetitions", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["engine"] for row in rows] == ["fast_word", "oracle_word", "letter_at"]
    for row in rows:
        assert set(row) >= {"engine", "median_ns", "runs"}
        assert row["median_ns"] >= 0
        assert row["runs"] == 2


def test_bench_times_both_generators_past_the_word_cap(capsys):
    # the cap bounds the generator, min(min P, n) letters, not the word: both
    # engines are timed at a length past it, and there is no guard to set
    argv = ["bench", "--periods", "5,7", "--length", str(ORACLE_MAX_LENGTH + 1), "--repetitions", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["fast_word", "oracle_word", "letter_at"]
    assert out.count("median_ns=") == 3 and "skipped" not in out
    code, out, err = run_cli(capsys, *argv, "--oracle-guard", "5")
    assert (code, out) == (2, "") and "--oracle-guard" in err


def test_bench_zero_length(capsys):
    code, out, _ = run_cli(capsys, "bench", "--periods", "5,7", "--length", "0", "--repetitions", "1")
    assert code == 0
    assert "letter_at skipped (empty word)" in out
    code, out, err = run_cli(capsys, "bench", "--periods", "5,7", "--length", "0", "--repetitions", "0")
    assert (code, out, err) == (2, "", "error: repetitions must be >= 1, got 0\n")
    code, out, err = run_cli(capsys, "bench", "--periods", "5,7", "--length", "10", "--repetitions", "1001")
    assert (code, out, err) == (2, "", "error: repetitions must be <= 1000, got 1001\n")


def test_deterministic_output(capsys):
    first = run_cli(capsys, "word", "--periods", "9,12", "--length", "33", "--format", "json")
    second = run_cli(capsys, "word", "--periods", "9,12", "--length", "33", "--format", "json")
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fwwords", "word", "--periods", "5,7", "--length", "8", "--format", "dense"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "01034010\n"


def _loaded_modules(code, *argv):
    """The modules a fresh interpreter holds after running `code` with argv."""
    script = f"import sys\n{code}\nsys.stdout.flush()\nsys.stderr.write(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["at", "--periods", "5,7", "--length", "8", "--index", "3"],
        ["extremal", "--periods", "5,7"],
        ["chain", "--periods", "5,7", "--length", "8"],
        *(
            ["word", "--engine", "fast", "--periods", "5,7", "--length", "8", "--format", fmt]
            for fmt in ("ints", "dense", "json")
        ),
        *(
            ["word", "--engine", "oracle", "--periods", "5,7", "--length", "8", "--format", fmt]
            for fmt in ("ints", "json")
        ),
    ],
    ids=["at", "extremal", "chain", "word-ints", "word-dense", "word-json", "word-oracle-ints", "word-oracle-json"],
)
def test_query_commands_import_only_what_they_run(argv):
    # Measured against a bare interpreter, so modules that site preloads do not count.
    added = _loaded_modules("from fwwords import cli\ncli.main(sys.argv[1:])", *argv) - _loaded_modules("")
    oracle = {"fwwords.oracle"} if "oracle" in argv else set()
    assert {m for m in added if m.startswith("fwwords")} == {
        "fwwords", "fwwords.cli", "fwwords.errors", "fwwords.periods", "fwwords.reduction", "fwwords.words", *oracle
    }
    assert not added & ({"fwwords.bench", "fwwords.selftest", "fwwords.oracle", "dataclasses", "statistics"} - oracle)
    assert ("json" in added) == (argv[-1] == "json")


def _reference_output(ps, n, fmt, w):
    """What `word` prints, rendered here from the materialized word."""
    if fmt == "ints":
        return " ".join(map(str, w)) + "\n"
    if fmt == "dense":
        return "".join(cli.DENSE_DIGITS[letter] for letter in w) + "\n"
    doc = {
        "periods": list(ps.periods),
        "length": n,
        "letters": list(w),
        "alphabet_size": len(alphabet(w)),
        "trivial": is_trivial(w, ps),
    }
    return json.dumps(doc) + "\n"


def _word_or_refusal(values, n, fmt, engine):
    """What `word` writes on stdout, or the ValueError it refuses with."""
    args = argparse.Namespace(periods=",".join(map(str, values)), length=n, format=fmt, engine=engine)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli._cmd_word(args)
    except ValueError as exc:
        return "refused", str(exc)
    return "printed", out.getvalue()


def test_word_streams_the_materialized_word(monkeypatch):
    # With a 7-letter chunk, short prefixes are first repeated to one chunk
    # and prefixes of 8..12 letters span two slices; a copy written more than
    # once is kept rendered, one written once (a word of at most min(P)
    # letters is its own prefix) streams, and tails cut a slice or end on one.
    monkeypatch.setattr(cli, "STREAM_CHUNK", 7)
    cases = [(values, n) for size in (1, 2, 3) for values in combinations(range(1, 13), size) for n in range(45)]
    cases += [(values, n) for values in ((5, 7), (6, 9), (12, 18, 27), (8, 20, 30, 35)) for n in (99, 1000, 4321)]
    for values, n in cases:
        ps = PeriodSet(values)
        for engine, build in (("fast", fw_fast), ("oracle", fw_oracle)):
            w = build(ps, n)
            for fmt in ("ints", "dense", "json"):
                expected = ("printed", _reference_output(ps, n, fmt, w))
                assert _word_or_refusal(values, n, fmt, engine) == expected, (values, n, engine, fmt)


def test_word_engines_agree_across_the_extremal_length(monkeypatch):
    # The fast engine prints a word past the extremal length L from its
    # residues mod gcd, and below it from the generating prefix: both sides
    # of L match the oracle, refusals (dense with a letter of 36 or more) included.
    monkeypatch.setattr(cli, "STREAM_CHUNK", 7)
    rng = random.Random(1515)
    for _ in range(80):
        g = rng.choice((1, 2, 3, 6, 10))
        values = sorted({g * rng.randint(1, 30) for _ in range(rng.randint(2, 5))})
        ps = PeriodSet(values)
        L = extremal_length(ps)
        lengths = (0, 1, ps.min_period, 2 * sum(values)) if L is None else (L - 1, L, L + 1, L + 2, 2 * L)
        for n in lengths:
            for fmt in ("ints", "dense", "json"):
                fast = _word_or_refusal(values, n, fmt, "fast")
                assert fast == _word_or_refusal(values, n, fmt, "oracle"), (values, n, fmt)


def test_word_non_trivial_across_real_slices():
    # {20000, 30001} has gcd 1 and L = 49,999, so below L the word streams a
    # prefix of about 2.4 slices of the real STREAM_CHUNK: one copy written
    # lazily (20,000), one copy and a tail (25,000), two copies and a
    # 9,999-letter tail (L); past L it prints from the gcd residues.
    values = (20000, 30001)
    ps = PeriodSet(values)
    assert (extremal_length(ps), cli.STREAM_CHUNK) == (49_999, 8192)
    rng = random.Random(20000)
    for n in (20_000, 25_000, 49_999, 50_000):
        for fmt in ("ints", "dense", "json"):
            kind, out = _word_or_refusal(values, n, fmt, "fast")
            assert (kind, out) == _word_or_refusal(values, n, fmt, "oracle"), (n, fmt)
            assert (kind == "refused") == (fmt == "dense" and n < 49_999), (n, fmt)
            if kind == "refused":
                continue
            if fmt == "json":
                doc = json.loads(out)
                letters = doc["letters"]
                if n >= 49_999:
                    assert (doc["alphabet_size"], doc["trivial"]) == ((2, False) if n == 49_999 else (1, True))
            elif fmt == "ints":
                letters = list(map(int, out.split()))
            else:
                letters = [cli.DENSE_DIGITS.index(c) for c in out.rstrip("\n")]
            assert len(letters) == n, (n, fmt)
            for i in (0, 8191, 8192, n - 1, *rng.sample(range(n), 50)):
                assert letters[i] == letter_at(ps, n, i), (n, fmt, i)


def test_word_runs_one_descent(monkeypatch):
    # the fast engine prints every word, trivial ones included, from the
    # generator the rebuild keeps, so it runs no extremal_length descent
    cases = [((20000, 30001), n) for n in (25_000, 49_999, 50_000, 10**6)]
    cases += [(values, n) for values in ((5, 7), (6, 9), (12, 18, 27), (40,)) for n in (0, 1, 5, 12, 13, 60)]

    def refuse(ps):
        raise AssertionError(f"word ran extremal_length({ps})")

    monkeypatch.setattr(cli, "extremal_length", refuse)
    for values, n in cases:
        for fmt in ("ints", "dense", "json"):
            assert _word_or_refusal(values, n, fmt, "fast") == _word_or_refusal(values, n, fmt, "oracle"), (values, n, fmt)
    assert _word_or_refusal((20000, 30001), 10**6, "dense", "fast") == ("printed", "0" * 10**6 + "\n")


def test_word_engines_share_one_size_rule(capsys, monkeypatch):
    # `word` caps the generator, min(min P, n) letters, not the word: with the
    # cap at 10, both engines print {5,7} at lengths past it and refuse
    # {20,30} at 11 with the same line, as `bench` and the library do.
    monkeypatch.setattr(words, "ORACLE_MAX_LENGTH", 10)
    codes = []
    for periods, n in (("5,7", "11"), ("5,7", "1000"), ("20,30", "11")):
        for fmt in ("ints", "dense", "json"):
            argv = ["word", "--periods", periods, "--length", n, "--format", fmt]
            fast = run_cli(capsys, *argv, "--engine", "fast")
            assert run_cli(capsys, *argv, "--engine", "oracle") == fast, argv
            codes.append(fast[0])
    assert codes == [0] * 6 + [2] * 3
    refusal = "error: the generating prefix has 11 letters, more than the 10 any engine builds\n"
    assert fast[2] == refusal
    # `bench` times the same generators under the same rule
    assert run_cli(capsys, "bench", "--periods", "20,30", "--length", "11", "--repetitions", "1") == (2, "", refusal)
    assert run_cli(capsys, "bench", "--periods", "5,7", "--length", "1000", "--repetitions", "1")[0] == 0
    # each engine's generator keeps the rule itself, so every library entry point refuses with that line
    for build in (residue_labels, fw_oracle, fw_fast, generating_prefix):
        with pytest.raises(OutOfRangeError) as refused:
            build(PeriodSet([20, 30]), 11)
        assert f"error: {refused.value}\n" == refusal, build


def _read_head_then_close(argv, size):
    """Run `fwwords argv`, read `size` bytes of its stdout, close the pipe and
    reap the child: (head, exit code, stderr, the child's own peak RSS in KiB
    before the pipe closed)."""
    proc = subprocess.Popen([sys.executable, "-m", "fwwords", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(size)
    # The writer waits on the full pipe. Its VmHWM is its own peak, where its
    # ru_maxrss would include this process's, which a vfork+exec child inherits.
    with open(f"/proc/{proc.pid}/status") as status_file:
        peak_kb = next(int(line.split()[1]) for line in status_file if line.startswith("VmHWM:"))
    proc.stdout.close()
    deadline = time.monotonic() + 60
    while True:
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not pid:
        proc.kill()
        _, status = os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read()
    proc.stderr.close()
    assert pid, "the writer did not stop after its reader closed the pipe"
    return head, proc.returncode, err, peak_kb


def test_word_closed_pipe_streams_in_bounded_memory():
    # The word has 10**11 letters: it could never be materialized. The reader
    # takes 1 MiB and closes the pipe; the writer stops quietly with exit 0.
    ps, n, size = PeriodSet([5, 7]), 10**11, 1 << 20
    argv = ["word", "--periods", "5,7", "--length", str(n), "--format", "dense"]
    head, code, err, peak_kb = _read_head_then_close(argv, size)
    assert len(head) == size
    for i in (0, 1, 7, 12345, size - 1):
        assert head[i : i + 1].decode() == cli.DENSE_DIGITS[letter_at(ps, n, i)]
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_word_json_counts_its_alphabet_in_bounded_memory():
    # 1,000,001 distinct letters: a set of them would cost about 47 MB more
    # than the `ints` rendering of the same word, which builds no set, and a
    # copy of the generator to test the gcd as a period about 8 MB. `json`
    # counts the generator's new letters once and copies nothing.
    argv = ["word", "--periods", "1000001,1000002", "--length", "1200000", "--format"]
    peaks = {}
    for fmt in ("ints", "json"):
        head, code, err, peaks[fmt] = _read_head_then_close([*argv, fmt], 1 << 20)
        assert (len(head), code, err) == (1 << 20, 0, b"")
    assert head.startswith(b'{"periods": [1000001, 1000002], "length": 1200000, "letters": [0, ')
    assert peaks["json"] < peaks["ints"] + 2 * 1024


def test_trivial_word_streams_in_bounded_memory():
    # {9999991, 9999992} has gcd 1 and extremal length about 2*10**7, so its
    # 10**10-letter word is all 0: printed from one residue, not from its
    # 9,999,991-letter generating prefix.
    argv = ["word", "--periods", "9999991,9999992", "--length", str(10**10), "--format", "dense"]
    head, code, err, peak_kb = _read_head_then_close(argv, 1 << 20)
    assert head == b"0" * (1 << 20)
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_word_oracle_streams_in_bounded_memory():
    # The oracle writes the periodic extension of its 412,000 residue labels;
    # the 10**11-letter word could never be materialized.
    ps, n = PeriodSet([412000, 600001]), 10**11
    argv = ["word", "--engine", "oracle", "--periods", "412000,600001", "--length", str(n), "--format", "ints"]
    head, code, err, peak_kb = _read_head_then_close(argv, 1 << 20)
    letters = head.decode().split(" ")[:-1]  # the last letter may be cut
    assert len(letters) > 100_000
    assert all(letters[i] == str(letter_at(ps, n, i)) for i in (*range(0, len(letters), 1009), len(letters) - 1))
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_chain_closed_pipe_streams_in_bounded_memory():
    # 1,000,143 literal steps, all but 144 inside the first arithmetic jump;
    # holding them all as period sets takes over 400 MB.
    m, big, n = 1000, 1000000007, 10**12
    argv = ["chain", "--periods", f"{m},{big}", "--length", str(n)]
    head, code, err, peak_kb = _read_head_then_close(argv, 1 << 20)
    lines = head.decode().split("\n")[:-1]  # the last line may be cut
    assert len(lines) > 10_000
    assert lines == [f"Q{k}={{{m},{big - k * m}}} n{k}={n - k * m}" for k in range(len(lines))]
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_chain_of_many_periods_streams_in_bounded_memory():
    # A line holds all 1000 periods, about 11 kB: 8,192 such lines per write
    # would peak near 171 MiB, so a write holds the 23 lines that fit in 2**18 bytes.
    m, others, n = 1000, [10**9 + 7 * j for j in range(1, 1000)], 10**12
    argv = ["chain", "--periods", ",".join(map(str, [m, *others])), "--length", str(n)]
    head, code, err, peak_kb = _read_head_then_close(argv, 1 << 20)
    lines = head.decode().split("\n")[:-1]  # the last line may be cut
    assert len(lines) > 50
    for k, line in enumerate(lines):
        assert line == f"Q{k}={{{','.join(map(str, [m, *(p - k * m for p in others)]))}}} n{k}={n - k * m}"
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_chain_of_wide_periods_streams_in_bounded_memory():
    # A line holds two 1000-digit numbers, about 2 kB: 8,192 such lines per
    # write would peak near 47 MB, so a write holds about 256 KiB of them.
    big = n = 10**999 + 1
    head, code, err, peak_kb = _read_head_then_close(["chain", "--periods", f"3,{big}", "--length", str(n)], 1 << 20)
    lines = head.decode().split("\n")[:-1]  # the last line may be cut
    assert len(lines) > 400
    assert lines == [f"Q{k}={{3,{big - 3 * k}}} n{k}={n - 3 * k}" for k in range(len(lines))]
    assert (code, err) == (0, b"")
    assert peak_kb < 40 * 1024


def test_word_without_reader_exits_0_quietly():
    # The read end is closed before the writer starts. With buffered stdout
    # the word is still pending at interpreter exit, whose flush must not
    # fail a second time.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "fwwords", "word", "--periods", "5,7", "--length", "8"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [["word", "--periods", "5,7", "--length", str(10**6)], ["chain", "--periods", "5,1000000007", "--length", str(10**10)]],
)
def test_failed_write_exits_2_with_one_line(tmp_path, argv):
    # A 64 KiB file size limit, set in the child only, fails the write with
    # EFBIG (the interpreter ignores SIGXFSZ): an output error, not a traceback.
    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16))

    with open(tmp_path / "out", "wb") as out:
        result = subprocess.run(
            [sys.executable, "-m", "fwwords", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            preexec_fn=limit_file_size,
            timeout=60,
        )
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


SMALL_TOKENS = ("0", "-1", "1", "1_0", "  7", "", "٥")  # no value above 10**4, or none at all
FUZZ_TOKENS = (*SMALL_TOKENS, str(10**7 - 1), str(10**7 + 1), "1" + "0" * 4299, "1" + "0" * 4300)  # 4,300 and 4,301 digits


def test_main_fuzz_exits_0_or_2_with_at_most_one_error():
    # Seeded argv over every command but selftest: each field of --periods and
    # every number drawn from FUZZ_TOKENS (lengths of word, chain and bench kept
    # to 10**4), or a list of 2,000 periods. Stdout is a plain StringIO.
    rng = random.Random(32)

    def number(tokens=FUZZ_TOKENS):
        return rng.choice((*tokens, str(rng.randrange(10**4 + 1))))

    def periods():
        if rng.random() < 0.1:
            return ",".join(str(rng.randrange(1, 10**7 + 2)) for _ in range(2000))
        return ",".join(number() for _ in range(rng.randrange(1, 4)))

    codes = collections.Counter()
    for _ in range(300):
        command = rng.choice(("word", "chain", "bench", "at", "extremal"))
        argv = [command, "--periods", periods()]
        if command in ("word", "chain", "bench"):
            argv += ["--length", number(SMALL_TOKENS)]
        if command == "at":
            argv += ["--length", number(), "--index", number()]
        if command == "word":
            argv += ["--format", rng.choice(("ints", "dense", "json")), "--engine", rng.choice(("fast", "oracle"))]
        if command == "bench":
            argv += ["--repetitions", rng.choice(("0", "1", "-1", "1_0"))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        lines = err.splitlines()
        assert (code, bool(err)) in ((0, False), (2, True)), (argv, code, err)
        assert "Traceback" not in err, argv
        usage = err.startswith("usage: ") and lines[-1].startswith(f"fwwords {command}: error: ")
        assert not err or usage or (len(lines) == 1 and err.startswith("error: ")), (argv, err)
        codes[code] += 1
    assert codes[0] > 30 and codes[2] > 30, codes
