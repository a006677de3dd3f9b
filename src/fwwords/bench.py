"""Wall-clock comparison of the two engines. Report-only: no thresholds here."""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple

from .oracle import residue_labels
from .periods import PeriodSet
from .reduction import generating_prefix, letter_at

MAX_REPETITIONS = 1000  # every sample is kept for the median, so the run and its memory stay bounded


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


def run_bench(periods: PeriodSet, n: int, repetitions: int = 5) -> list[BenchRow]:
    """Time each engine's generator, the prefix `word` renders (`generating_prefix`, at most
    min(min_period, n) letters, and `residue_labels`, exactly that many), and one letter query.
    Either engine's word is its generator's periodic extension, so the rows leave that copy
    out. A generator too long to build refuses itself before the first timing, as in `word`.
    """
    if not 1 <= repetitions <= MAX_REPETITIONS:
        bound = ">= 1" if repetitions < 1 else f"<= {MAX_REPETITIONS}"
        raise ValueError(f"repetitions must be {bound}, got {repetitions}")
    rows = [
        BenchRow("fast_word", _median_ns(lambda: generating_prefix(periods, n), repetitions), repetitions),
        BenchRow("oracle_word", _median_ns(lambda: residue_labels(periods, n), repetitions), repetitions),
    ]
    if n > 0:
        rows.append(
            BenchRow("letter_at", _median_ns(lambda: letter_at(periods, n, n - 1), repetitions), repetitions)
        )
    else:
        rows.append(BenchRow("letter_at", None, 0, skipped="empty word"))
    return rows
