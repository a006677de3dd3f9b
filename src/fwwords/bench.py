"""Wall-clock comparison of the two engines. Report-only: no thresholds here."""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple

from .oracle import fw_oracle
from .periods import PeriodSet
from .reduction import fw_fast, generating_prefix, letter_at
from .words import ORACLE_MAX_LENGTH


class BenchRow(NamedTuple):
    engine: str
    median_ns: int | None
    runs: int
    skipped: str | None = None

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {"engine": self.engine, "median_ns": self.median_ns, "runs": self.runs}
        if self.skipped is not None:
            row["skipped"] = self.skipped
        return row

    def render(self) -> str:
        if self.skipped is not None:
            return f"{self.engine} skipped ({self.skipped})"
        return f"{self.engine} median_ns={self.median_ns} runs={self.runs}"


def _median_ns(fn: Callable[[], object], repetitions: int) -> int:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    mid = len(samples) // 2
    return samples[mid] if len(samples) % 2 else int((samples[mid - 1] + samples[mid]) / 2)  # as statistics.median


def run_bench(
    periods: PeriodSet,
    n: int,
    repetitions: int = 5,
    oracle_guard: int = ORACLE_MAX_LENGTH,
) -> list[BenchRow]:
    """Time the fast word build, the oracle word build, and one letter query.

    The oracle leg is skipped above `oracle_guard` positions (it would
    materialize O(n) state). The fast leg above the same guard times
    `generating_prefix` instead of the full build: the word itself would not
    fit in memory either, and all that the full build adds is one periodic
    copy of the prefix. A guard outside 0..ORACLE_MAX_LENGTH raises ValueError.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not 0 <= oracle_guard <= ORACLE_MAX_LENGTH:
        raise ValueError(f"the oracle guard is 0 to {ORACLE_MAX_LENGTH} positions, got {oracle_guard}")
    rows = []
    if n <= oracle_guard:
        rows.append(BenchRow("fast_word", _median_ns(lambda: fw_fast(periods, n), repetitions), repetitions))
        rows.append(BenchRow("oracle_word", _median_ns(lambda: fw_oracle(periods, n), repetitions), repetitions))
    else:
        rows.append(
            BenchRow("fast_word", _median_ns(lambda: generating_prefix(periods, n), repetitions), repetitions)
        )
        rows.append(BenchRow("oracle_word", None, 0, skipped="guard"))
    if n > 0:
        rows.append(
            BenchRow("letter_at", _median_ns(lambda: letter_at(periods, n, n - 1), repetitions), repetitions)
        )
    else:
        rows.append(BenchRow("letter_at", None, 0, skipped="empty word"))
    return rows
