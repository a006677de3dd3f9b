"""Tests of the benchmark itself: its references, its counters, its refusal to run without sources.

    python3 -m pytest perfbench -q

The counter test runs every workload twice in traced mode (about a minute
and a half on a 2-core machine).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from fwwords import PeriodSet, cli  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize(
    "periods,n,fmt",
    [((5, 7), 8, "dense"), ((5, 7), 23, "ints"), ((5, 7), 8, "json"), ((6, 9), 11, "json"),
     ((4, 6), 13, "ints"), ((12, 18, 27), 40, "ints"), ((3,), 2, "dense")],
)
def test_reference_render_matches_cli(periods, n, fmt):
    ps = PeriodSet(periods)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["word", "--periods", ",".join(map(str, periods)), "--length", str(n), "--format", fmt])
    assert code == 0
    prefix = workloads.reduction.generating_prefix(ps, n)
    assert workloads.render(fmt, ps, prefix, n) == out.getvalue().encode()


@pytest.mark.parametrize("p,q", [(5, 7), (263, 372), (100, 250), (144, 233), (283, 387), (6, 9)])
def test_pair_jumps_match_the_descent(p, q):
    assert workloads._pair_jumps(p, q) == workloads.extremal_descent(PeriodSet((p, q)))[0]


def test_selftest_count_from_the_grid_definition():
    assert workloads.selftest_expected(10, 30) == 97135
    assert workloads.selftest_expected(12, 40) == 280025


@pytest.mark.parametrize("workload", ["word-stream", "query-deep", "reference-paths"])
def test_counters_repeat_for_one_seed(workload):
    counters = []
    for _ in range(2):
        res = run_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, res.stderr
        line = next(line for line in res.stdout.splitlines() if line.startswith("counters "))
        counters.append(json.loads(line.split(" ", 1)[1]))
    assert counters[0] == counters[1]
    assert set(counters[0]) >= {
        "reduction.depth", "reduction.literal_steps", "cli.out_bytes", "selftest.checks",
        "oracle.calls", "oracle.positions", "periods.constructs",
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = run_bench("--workload", "query-deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
