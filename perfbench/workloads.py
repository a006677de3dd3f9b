"""The three workloads: inputs made from a seed, one timed pass, and the checks.

Every input comes from ``random.Random(seed)``. A pass runs the workload's
fixed operation list once; ``run.py`` repeats passes for the run's duration.
CLI commands run as child processes through ``children.Children`` (argv to
reaped exit, interpreter start included); library calls run in this process
through the public functions, looked up on their modules at call time so
that a traced pass sees them wrapped.

Checks never use the code path they check: word output is compared with a
reference rendered here from ``generating_prefix`` and spot-checked against
``letter_at``; two-period answers against the Fine–Wilf law; small descents
against the literal twins; the first pass of query answers against
independent properties, and every later pass against the first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
import time
from collections import defaultdict
from itertools import combinations

from fwwords import periods, reduction
from tracer import Tracer

DENSE_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
CHILD_TIMEOUT_S = 120.0
SPOT_CHECKS = 64
TRACER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")


# --- references and counters, computed outside any timed region -------------


def periodic_has_period(prefix: tuple[int, ...], n: int, g: int) -> bool:
    """Whether the length-n periodic extension of prefix has period g.

    Row i of the check equals row i - len(prefix), so one period of rows decides.
    """
    if g >= n:
        return True
    size = len(prefix)
    return all(prefix[i % size] == prefix[(i + g) % size] for i in range(min(n - g, size)))


def render(fmt: str, ps: periods.PeriodSet, prefix: tuple[int, ...], n: int) -> bytes:
    """What ``fwwords word`` prints for the periodic extension of prefix to length n."""
    q, r = divmod(n, len(prefix))
    if fmt == "dense":
        block = "".join(DENSE_DIGITS[letter] for letter in prefix)
        body = block * q + block[:r]
    elif fmt == "ints":
        tokens = [str(letter) for letter in prefix]
        body = " ".join([" ".join(tokens)] * q + ([" ".join(tokens[:r])] if r else []))
    else:
        body = json.dumps(
            {
                "periods": list(ps.periods),
                "length": n,
                "letters": list(prefix) * q + list(prefix[:r]),
                "alphabet_size": len(set(prefix)),
                "trivial": periodic_has_period(prefix, n, ps.gcd),
            }
        )
    return (body + "\n").encode()


def prefix_descent(ps: periods.PeriodSet, n: int) -> tuple[int, int]:
    """(jumps, literal steps) of the descent generating_prefix and the chain take."""
    jumps = steps = 0
    while n > ps.min_period != ps.gcd:
        m = ps.min_period
        ps, k = reduction.batched_reduce(ps, (n - 1) // m)
        n -= k * m
        jumps, steps = jumps + 1, steps + k
    return jumps, steps


def letter_descent(ps: periods.PeriodSet, n: int, i: int) -> tuple[int, int]:
    """(jumps, literal steps) of the descent letter_at takes for position i."""
    jumps = steps = 0
    while n > ps.min_period != ps.gcd:
        m = ps.min_period
        i %= m
        if i >= n - m:
            break
        ps, k = reduction.batched_reduce(ps, (n - i - 1) // m)
        n -= k * m
        jumps, steps = jumps + 1, steps + k
    return jumps, steps


def extremal_descent(ps: periods.PeriodSet) -> tuple[int, int]:
    """(jumps, literal steps) of the descent extremal_length takes."""
    jumps = steps = 0
    while ps.min_period != ps.gcd:
        ps, k = reduction.batched_reduce(ps)
        jumps, steps = jumps + 1, steps + k
    return jumps, steps


def two_period_extremal(p: int, q: int) -> int:
    """Fine and Wilf: p + q - gcd(p, q) - 1 is the longest length without period gcd."""
    return p + q - math.gcd(p, q) - 1


def selftest_expected(max_period: int, max_n: int) -> int:
    """The number of checks ``fwwords selftest`` runs on its grid, counted from its definition."""
    total = 0
    for size in (1, 2, 3):
        for ps in combinations(range(1, max_period + 1), size):
            m = ps[0]
            total += 2 * (max_n + 1) + max_n * (max_n + 1) // 2 + max(0, max_n - m)
            total += 2 if math.gcd(*ps) < m else 0
    return total


# --- one pass -----------------------------------------------------------------


class Pass:
    """Timings, failures and (when traced) layer aggregates of one pass."""

    def __init__(self, kids, traced: bool, trace_dir: str, deadline: float) -> None:
        self.kids = kids
        self.traced = traced
        self.trace_dir = trace_dir
        self.deadline = deadline
        self.legs: dict[str, list[float]] = defaultdict(list)
        self.rss_mb: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.out_bytes = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.oracle_positions = 0
        self.import_ms: list[float] = []
        self.wall_s = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message if len(message) <= 300 else message[:297] + "...")

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def child(self, leg: str, args: list[str], check, rss_leg: str | None = None) -> dict:
        """Run one fwwords command; check(result) returns a problem string or None."""
        prefix = os.path.join(self.trace_dir, f"child{self.attempted}")
        if self.traced:
            argv = [sys.executable, TRACER_SCRIPT, prefix, *args]
        else:
            argv = [sys.executable, "-m", "fwwords", *args]
        timeout = max(0.1, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        res = self.kids.run(argv, timeout)
        self.attempted += 1
        self.legs[leg].append(res["wall_s"])
        rss = res["maxrss_kb"] / 1024
        self.rss_mb["peak"] = max(self.rss_mb.get("peak", 0.0), rss)
        if rss_leg:
            self.rss_mb[rss_leg] = max(self.rss_mb.get(rss_leg, 0.0), rss)
        self.out_bytes += res["bytes"]
        if res["timed_out"]:
            problem = f"timed out after {timeout:.0f} s"
        elif res["exit"] != 0:
            problem = f"exit {res['exit']}: {res['stderr'].strip()[-300:]}"
        else:
            problem = check(res)
        if problem:
            self.fail(f"{leg} {' '.join(args)[:120]}: {problem}")
        if self.traced and not res["timed_out"]:
            self._absorb_child_trace(prefix)
        return res

    def _absorb_child_trace(self, prefix: str) -> None:
        try:
            with open(prefix + ".json") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(f"no trace from child: {exc}")
            return
        self.absorb(doc)
        self.import_ms.append(doc["import_ns"] / 1e6)

    def absorb(self, summary: dict) -> None:
        for name, ns in summary["self_ns"].items():
            self.self_ns[name] += ns
        for name, count in summary["calls"].items():
            self.calls[name] += count
        self.oracle_positions += summary["oracle_positions"]


def digest_check(expected: tuple[str, int]):
    def check(res: dict) -> str | None:
        if (res["sha256"], res["bytes"]) != expected:
            return f"output differs from the reference ({res['bytes']} bytes, expected {expected[1]})"
        return None

    return check


def answer_check(expected: str):
    def check(res: dict) -> str | None:
        got = res["head"].strip()
        return None if got == expected else f"printed {got[:40]!r}, expected {expected[:40]!r}"

    return check


def spot_check(p: Pass, ps, n: int, prefix, positions, what: str) -> None:
    """Letters of the reference against letter_at at seeded positions."""
    for i in positions:
        p.expect(
            reduction.letter_at(ps, n, i) == prefix[i % len(prefix)],
            f"{what}: reference letter at {i} disagrees with letter_at",
        )


def _periods_arg(values) -> str:
    return ",".join(str(v) for v in values)


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    # (metric, unit) printed for this workload: "s" legs are child wall times,
    # "ms" legs per-pass sums of in-process call times, "MB" child peak RSS.
    named: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.counters: dict[str, int] = {}

    def warm(self) -> None:
        """Touch every code path a pass uses once, untimed by the pass."""

    def prepare(self, p: Pass) -> None:
        """Build references (recording any disagreement in p) and the exact counters."""

    def run(self, p: Pass) -> None:
        raise NotImplementedError

    def check_first(self, p: Pass) -> None:
        """Deeper checks of the first pass's answers; later passes compare against it."""


class WordStream(Workload):
    """`fwwords word --engine fast` on large outputs: rendering and writing dominate."""

    name = "word-stream"
    named = (
        ("word_dense_s", "s"),
        ("word_ints_s", "s"),
        ("word_json_s", "s"),
        ("word_gcd_ints_s", "s"),
        ("word_rss_mb", "MB"),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        g = 4 * self.rng.choice([p for p in range(7700, 8100) if all(p % d for d in range(2, 90))])
        self.cases = [
            ("word_dense_s", (5, 7), 10**7, "dense"),
            ("word_ints_s", (5, 7), 10**7, "ints"),
            ("word_json_s", (5, 7), 10**6, "json"),
            ("word_gcd_ints_s", (13 * g, 17 * g, 19 * g), 2 * 10**6, "ints"),
        ]
        self.positions = [self.rng.randrange(10**6) for _ in range(SPOT_CHECKS)]

    def args(self, case) -> list[str]:
        _, values, n, fmt = case
        return ["word", "--engine", "fast", "--periods", _periods_arg(values), "--length", str(n), "--format", fmt]

    def prepare(self, p: Pass) -> None:
        self.expected = []
        depth = steps = 0
        for case in self.cases:
            _, values, n, fmt = case
            ps = periods.PeriodSet(values)
            prefix = reduction.generating_prefix(ps, n)
            data = render(fmt, ps, prefix, n)
            self.expected.append((hashlib.sha256(data).hexdigest(), len(data)))
            spot_check(p, ps, n, prefix, self.positions, case[0])
            jumps, k = prefix_descent(ps, n)
            depth, steps = depth + jumps, steps + k
        self.counters = {"reduction.depth": depth, "reduction.literal_steps": steps}

    def run(self, p: Pass) -> None:
        for case, expected in zip(self.cases, self.expected):
            p.child(case[0], self.args(case), digest_check(expected), rss_leg="word_rss_mb")


class QueryDeep(Workload):
    """In-process closed loop of letter, extremal and prefix queries, plus a CLI slice."""

    name = "query-deep"
    named = (
        ("letter_pass_ms", "ms"),
        ("extremal_pass_ms", "ms"),
        ("prefix_pass_ms", "ms"),
        ("cli_query_s", "s"),
    )

    FIB_QUERIES = 40  # Fibonacci pairs near 10**250..10**300: about 1200-1435 jumps each
    WIDE_QUERIES = 12  # 1000 periods in [1e6, 1e7]: about 15-20 jumps, 1e6-letter prefix
    SMALL_QUERIES = 200  # two periods in [100, 400] with a descent of at least 10 jumps
    LONG_QUERIES = 200  # (small, 1e9..1e10) at n near 1e12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        fib = [0, 1]
        while len(fib) < 1440:
            fib.append(fib[-1] + fib[-2])
        self.queries: list[tuple[str, tuple[int, ...], int, int]] = []
        for _ in range(self.FIB_QUERIES):
            k = rng.randrange(1199, 1437)
            p, q = fib[k], fib[k + 1]
            # within 10**6 of the extremal length, a position below 10**6
            # defers through all but the last ~30 levels of the descent
            n = two_period_extremal(p, q) - rng.randrange(10**6)
            self.queries.append(("fib", (p, q), n, rng.randrange(10**6)))
        for _ in range(self.WIDE_QUERIES):
            values = tuple(rng.sample(range(10**6, 10**7), 1000))
            n = rng.randrange(10**11, 10**12)
            self.queries.append(("wide", values, n, rng.randrange(n)))
        small = 0
        while small < self.SMALL_QUERIES:
            p, q = sorted(rng.sample(range(100, 401), 2))
            if _pair_jumps(p, q) >= 10:
                n = rng.randrange(q, two_period_extremal(p, q) + 1)
                self.queries.append(("small", (p, q), n, rng.randrange(n)))
                small += 1
        for _ in range(self.LONG_QUERIES):
            s, b = rng.randrange(2, 1001), rng.randrange(10**9, 10**10)
            b += b % s == 0  # the law below needs gcd < min
            values = (s, b)
            n = rng.randrange(9 * 10**11, 10**12)
            self.queries.append(("long", values, n, rng.randrange(n)))
        self.answers: list[tuple[int, int | None, int | None]] | None = None

    def warm(self) -> None:
        seen = set()
        for family, values, n, i in self.queries:
            if family not in seen:
                seen.add(family)
                ps = periods.PeriodSet(values)
                reduction.letter_at(ps, n, i)
                reduction.extremal_length(ps)

    def _cli_cases(self):
        fib = [q for q in self.queries if q[0] == "fib"]
        wide = next(q for q in self.queries if q[0] == "wide")
        long_ = next(q for q in self.queries if q[0] == "long")
        return [("at", fib[0]), ("at", long_), ("extremal", fib[1]), ("extremal", wide)]

    def prepare(self, p: Pass) -> None:
        depth = steps = 0
        for family, values, n, i in self.queries:
            ps = periods.PeriodSet(values)
            for jumps, k in (letter_descent(ps, n, i), extremal_descent(ps)):
                depth, steps = depth + jumps, steps + k
            if family == "wide":
                jumps, k = prefix_descent(ps, n)
                depth, steps = depth + jumps, steps + k
        for command, (_, values, n, i) in self._cli_cases():
            ps = periods.PeriodSet(values)
            jumps, k = letter_descent(ps, n, i) if command == "at" else extremal_descent(ps)
            depth, steps = depth + jumps, steps + k
        self.counters = {"reduction.depth": depth, "reduction.literal_steps": steps}

    def run(self, p: Pass) -> None:
        clock = time.perf_counter_ns
        letter_ns = extremal_ns = prefix_ns = 0
        answers = []
        tracer = Tracer() if p.traced else None
        if tracer:
            tracer.install()
        try:
            for family, values, n, i in self.queries:
                ps = periods.PeriodSet(values)
                t0 = clock()
                letter = reduction.letter_at(ps, n, i)
                t1 = clock()
                extremal = reduction.extremal_length(ps)
                t2 = clock()
                letter_ns += t1 - t0
                extremal_ns += t2 - t1
                spot = None
                if family == "wide":
                    t0 = clock()
                    prefix = reduction.generating_prefix(ps, n)
                    prefix_ns += clock() - t0
                    spot = prefix[i % len(prefix)]
                    del prefix
                answers.append((letter, extremal, spot))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            p.absorb(tracer.summary())
            tracer.dump(os.path.join(p.trace_dir, "inprocess"))
        p.legs["letter_pass_ms"].append(letter_ns / 1e6)
        p.legs["extremal_pass_ms"].append(extremal_ns / 1e6)
        p.legs["prefix_pass_ms"].append(prefix_ns / 1e6)
        p.attempted += len(answers)
        if self.answers is None:
            self.answers = answers  # checked by check_first
        else:
            for query, got, want in zip(self.queries, answers, self.answers):
                if got != want:
                    p.fail(f"{query[0]} query n={query[2]} i={query[3]} answered {got}, first pass {want}")
        for command, query in self._cli_cases():
            _, values, n, i = query
            letter, extremal, _ = self.answers[self.queries.index(query)]
            if command == "at":
                args = ["at", "--periods", _periods_arg(values), "--length", str(n), "--index", str(i)]
                p.child("cli_query_s", args, answer_check(str(letter)))
            else:
                args = ["extremal", "--periods", _periods_arg(values)]
                p.child("cli_query_s", args, answer_check("none" if extremal is None else str(extremal)))

    def check_first(self, p: Pass) -> None:
        for query, answer in zip(self.queries, self.answers):
            problem = self._problem(*query, *answer)
            if problem:
                p.fail(f"{query[0]} periods {_periods_arg(query[1])[:60]} n={query[2]} i={query[3]}: {problem}")

    @staticmethod
    def _problem(family, values, n, i, letter, extremal, spot) -> str | None:
        ps = periods.PeriodSet(values)
        if family == "wide":
            # letter_at against the rebuilt prefix; extremal against the
            # trivial/non-trivial boundary of the words on either side
            if letter != spot:
                return f"letter_at {letter} != prefix letter {spot}"
            below = reduction.generating_prefix(ps, extremal)
            above = reduction.generating_prefix(ps, extremal + 1)
            if periodic_has_period(below, extremal, ps.gcd) or not periodic_has_period(above, extremal + 1, ps.gcd):
                return f"{extremal} is not the trivial/non-trivial boundary"
            return None
        a, b = values
        if extremal != two_period_extremal(a, b):
            return f"extremal {extremal} breaks Fine-Wilf"
        if family == "small":
            if (letter, extremal) != (reduction.letter_at_unbatched(ps, n, i), reduction.extremal_length_unbatched(ps)):
                return "jumped and literal answers differ"
            return None
        # canonical labels: a letter is the position of its first occurrence,
        # and both periods carry it to the neighbours inside the word
        same = [j for j in (letter, i - a, i + a, i - b, i + b) if 0 <= j < n]
        if letter > i or any(reduction.letter_at(ps, n, j) != letter for j in same):
            return f"letter {letter} is not the canonical letter at {i}"
        return None


def _pair_jumps(p: int, q: int) -> int:
    """Jumps extremal_length takes on {p, q}, p < q.

    Counted on plain integers, not with batched_reduce, so that the inputs a
    seed selects never depend on the code being measured.
    """
    jumps = 0
    while q % p:
        k = max(1, (q - p) // p)
        p, q = sorted((p, q - k * p))
        jumps += 1
    return jumps


class ReferencePaths(Workload):
    """Selftest grid, the union-find oracle and the literal chain, as CLI processes."""

    name = "reference-paths"
    named = (
        ("selftest_s", "s"),
        ("oracle_word_s", "s"),
        ("oracle_rss_mb", "MB"),
        ("chain_s", "s"),
    )

    SELFTEST = (10, 22)
    ORACLE_N = 10**6
    CHAIN_STEPS = 200_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        a = rng.randrange(5, 10)
        self.oracle_periods = (a, rng.randrange(a + 1, 2 * a))
        m = rng.randrange(900, 1101)
        big = rng.randrange(10**9, 2 * 10**9)
        while big % m == 0:
            big += 1
        # n = m * (steps + 1) keeps the minimum for exactly `steps` literal steps
        self.chain = ((m, big), m * (self.CHAIN_STEPS + 1))
        self.positions = [rng.randrange(self.ORACLE_N) for _ in range(SPOT_CHECKS)]

    def prepare(self, p: Pass) -> None:
        ps = periods.PeriodSet(self.oracle_periods)
        prefix = reduction.generating_prefix(ps, self.ORACLE_N)
        data = render("ints", ps, prefix, self.ORACLE_N)
        self.oracle_expected = (hashlib.sha256(data).hexdigest(), len(data))
        spot_check(p, ps, self.ORACLE_N, prefix, self.positions, "oracle reference")
        (m, big), n = self.chain
        lines = [f"Q{k}={{{m},{big - k * m}}} n{k}={n - k * m}" for k in range(self.CHAIN_STEPS + 1)]
        data = ("\n".join(lines) + "\nLengthAtMostMin\n").encode()
        self.chain_expected = (hashlib.sha256(data).hexdigest(), len(data))
        jumps, steps = prefix_descent(periods.PeriodSet((m, big)), n)
        p.expect(steps == self.CHAIN_STEPS, f"chain reference: {steps} literal steps, expected {self.CHAIN_STEPS}")
        self.counters = {"reduction.depth": jumps, "reduction.literal_steps": steps}
        self.selftest_checks = selftest_expected(*self.SELFTEST)

    def _selftest_check(self, res: dict) -> str | None:
        lines = res["head"].splitlines()
        counts = dict(line.split(": ", 1) for line in lines if ": " in line)
        if lines[-1:] != ["all checks passed"]:
            return f"last line {lines[-1:]!r}"
        if counts.get("total-checks") != str(self.selftest_checks):
            return f"total-checks {counts.get('total-checks')}, expected {self.selftest_checks}"
        self.families = {k: int(v) for k, v in counts.items() if k != "total-checks"}
        return None

    def _chain_check(self, res: dict) -> str | None:
        if res["lines"] != self.CHAIN_STEPS + 2:
            return f"{res['lines']} lines for {self.CHAIN_STEPS} steps"
        return digest_check(self.chain_expected)(res)

    def run(self, p: Pass) -> None:
        max_period, max_n = self.SELFTEST
        p.child("selftest_s", ["selftest", "--max-period", str(max_period), "--max-n", str(max_n)], self._selftest_check)
        p.child(
            "oracle_word_s",
            ["word", "--engine", "oracle", "--periods", _periods_arg(self.oracle_periods),
             "--length", str(self.ORACLE_N), "--format", "ints"],
            digest_check(self.oracle_expected),
            rss_leg="oracle_rss_mb",
        )
        (m, big), n = self.chain
        p.child("chain_s", ["chain", "--periods", f"{m},{big}", "--length", str(n)], self._chain_check)


WORKLOADS = {w.name: w for w in (WordStream, QueryDeep, ReferencePaths)}


# --- per-layer metrics from a traced pass ----------------------------------------


def layer_metrics(p: Pass) -> dict[str, float]:
    """Self times (ms) and counts per layer, from the spans of one traced pass."""
    ms = {name: ns / 1e6 for name, ns in p.self_ns.items()}
    constructs = p.calls.get("periods.PeriodSet", 0)
    return {
        "cli.import_ms": statistics.median(p.import_ms) if p.import_ms else 0.0,
        "cli.self_ms": ms.get("cli.main", 0.0),
        "words.extend_ms": ms.get("words.extend_periodically", 0.0),
        "words.scan_ms": ms.get("words.alphabet", 0.0) + ms.get("words.is_trivial", 0.0),
        "reduction.self_ms": sum(v for k, v in ms.items() if k.startswith("reduction.")),
        "reduction.descent_ms": ms.get("reduction.letter_at", 0.0) + ms.get("reduction.extremal_length", 0.0),
        "reduction.prefix_ms": ms.get("reduction.generating_prefix", 0.0),
        "reduction.chain_ms": ms.get("reduction.reduction_chain", 0.0),
        "oracle.build_ms": ms.get("oracle.fw_oracle", 0.0),
        "selftest.self_ms": ms.get("selftest.run_selftest", 0.0),
        "periods.construct_us": 1e3 * ms.get("periods.PeriodSet", 0.0) / constructs if constructs else 0.0,
    }


def traced_counters(p: Pass) -> dict[str, int]:
    return {
        "oracle.calls": p.calls.get("oracle.fw_oracle", 0),
        "oracle.positions": p.oracle_positions,
        "periods.constructs": p.calls.get("periods.PeriodSet", 0),
    }
