"""fwwords benchmark: one run of one workload.

    python3 perfbench/run.py --workload word-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports and runs
``fwwords`` from ``src/`` there and refuses to run (exit 2, no result) when
it is missing. Workloads, metrics and layers are described in
``perfbench/README.md``.

A run sets up nine times (a fresh interpreter importing ``fwwords.cli``,
input generation from the seed, warm-up) and reports the median as
``setup_s``; builds the references for its checks; then repeats passes over
the workload's fixed operation list until ``--seconds`` is used up. With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and the difference of the two medians is the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, sample count and spread, plus the run's metadata and
exact counters. The same record, with the per-pass samples, is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

# Metrics in the final JSON line; the names and units in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.out_bytes", "count"),
    ("words.extend_ms", "ms"),
    ("reduction.self_ms", "ms"),
    ("reduction.prefix_ms", "ms"),
    ("reduction.depth", "count"),
    ("reduction.literal_steps", "count"),
    ("periods.construct_us", "us"),
    ("periods.constructs", "count"),
    ("trace.overhead_s", "s"),
)
# Layer metrics printed by a traced run but kept out of the JSON line: each
# is zero on a workload that never enters its layer.
LAYER_EXTRA = (
    ("words.scan_ms", "ms"),
    ("reduction.descent_ms", "ms"),
    ("reduction.chain_ms", "ms"),
    ("oracle.build_ms", "ms"),
    ("oracle.calls", "count"),
    ("oracle.positions", "count"),
    ("selftest.self_ms", "ms"),
    ("selftest.checks", "count"),
)


def spread(samples: list[float]) -> str:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    text = f"n={len(samples)}"
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            ordered = sorted(samples)
            text += f" p{pct:g}={ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]:.6g}"
            break
    return text


def calibration_s() -> float:
    """A fixed pure-Python loop; metadata only, it shows how fast the host is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i & 7
    return time.perf_counter() - start


def source_stamp() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fwwords").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = {"src_sha256": digest.hexdigest()[:16], "commit": "unknown"}
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            stamp["commit"] = res.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return stamp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fwwords" / "cli.py").is_file():
        print(f"perfbench: no fwwords sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from children import Children
    from workloads import WORKLOADS, Pass, layer_metrics, traced_counters

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    trace_dir = OUT / "trace" / args.workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    with Children(env, str(ROOT)) as kids:
        setup = []
        probe = [sys.executable, "-c", "import fwwords.cli; print(fwwords.cli.__file__)"]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            res = kids.run(probe, 60)
            workload = WORKLOADS[args.workload](args.seed)
            workload.warm()
            setup.append(time.perf_counter() - t0)
            if res["exit"] != 0 or Path(res["head"].strip()).resolve() != SRC / "fwwords" / "cli.py":
                print(f"perfbench: fwwords.cli does not import from {SRC}: {res['stderr'] or res['head']}", file=sys.stderr)
                return 2

        checks = Pass(kids, False, str(trace_dir), deadline)
        workload.prepare(checks)
        calibration = calibration_s()

        passes: list[Pass] = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = Pass(kids, traced, str(trace_dir), deadline)
            t0 = time.perf_counter()
            workload.run(p)
            p.wall_s = time.perf_counter() - t0
            passes.append(p)
            if len(passes) == 1:
                workload.check_first(p)
            next_traced = bool(args.trace) and len(passes) % 2 == 1
            estimate = statistics.median([q.wall_s for q in passes if q.traced == next_traced] or [p.wall_s])
            now = time.monotonic()
            still_needed = args.trace and not any(q.traced for q in passes)
            if now + estimate > deadline or (not still_needed and sum(q.wall_s for q in passes) + estimate > args.seconds):
                break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    all_passes = [checks, *passes]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    errors = [e for p in all_passes for e in p.errors]

    # exact counters: per pass, and identical on every pass of their kind
    counters = dict(workload.counters)
    out_bytes = {p.out_bytes for p in passes}
    counters["cli.out_bytes"] = plain[0].out_bytes
    if len(out_bytes) != 1:
        failed += 1
        errors.append(f"output bytes differ between passes: {sorted(out_bytes)}")
    families = getattr(workload, "families", {})
    counters["selftest.checks"] = sum(families.values())
    if traced_passes:
        seen = [traced_counters(p) for p in traced_passes]
        if any(c != seen[0] for c in seen):
            failed += 1
            errors.append(f"traced counters differ between passes: {seen}")
        counters.update(seen[0])

    end_to_end = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p.wall_s for p in plain),
        "peak_rss_mb": statistics.median(p.rss_mb["peak"] for p in plain),
    }
    stamp = source_stamp()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **stamp,
        "calibration_s": round(calibration, 6),
        "passes": len(plain),
        "traced_passes": len(traced_passes),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    rows = [("setup_s", "s", setup), ("pass_s", "s", [p.wall_s for p in plain])]
    for name, unit in workload.named:
        if unit == "MB":
            rows.append((name, unit, [p.rss_mb[name] for p in plain]))
        else:
            rows.append((name, unit, [x for p in plain for x in p.legs[name]]))
    rows.append(("peak_rss_mb", "MB", [p.rss_mb["peak"] for p in plain]))
    for name, unit, samples in rows:
        print(f"{name} {statistics.median(samples):.6g} {unit} {spread(samples)}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio failed={failed} attempted={attempted}")
    print("counters " + json.dumps(counters, sort_keys=True))
    if families:
        print("selftest.checks " + json.dumps(families))

    layers: dict[str, float] = {}
    if traced_passes:
        per_pass = [layer_metrics(p) for p in traced_passes]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_s"] = statistics.median(p.wall_s for p in traced_passes) - end_to_end["pass_s"]
        for name in ("cli.out_bytes", "reduction.depth", "reduction.literal_steps", "periods.constructs",
                     "oracle.calls", "oracle.positions", "selftest.checks"):
            layers[name] = counters[name]
        for name, unit in PER_LAYER + LAYER_EXTRA:
            print(f"layer {name} {layers[name]:.6g} {unit}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    record = {"meta": meta, "counters": counters, "layers": layers, "errors": errors,
              "samples": {name: samples for name, _, samples in rows}, "end_to_end": end_to_end}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
