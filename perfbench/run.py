"""ionquench benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload presets|deep_sums|verify_full \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
`./src`.  Each sample is a fresh interpreter (`child.py`), because that is
what a CLI user pays for: the import, and the process-global coupling cache
in `thermo` starting cold.  Samples run one after another, single-threaded
(BLAS pinned to one thread), until S seconds have passed.

--trace 0 reports the end-to-end metrics: setup_s (median import time of
`ionquench.cli`), wall_min_s (shortest time of the workload after set-up),
rows_per_s (rows or verify checks per second of wall_min_s) and peak_rss_mb
(median peak resident memory of a sample).  The workload time is gated on
its minimum because the speed of the host drifts by tens of percent from one
minute to the next; the report above the JSON line still gives its median,
quartiles and tail.  --trace 1 alternates untraced and traced samples and
reports the per-layer metrics of `spans.per_layer` (medians over the traced
samples) and trace.overhead_frac (median over back-to-back pairs).

Every output is checked against `refs/`.  The human-readable report goes to
stdout first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 result printed, 2 the checkout
has no `src/ionquench` or the program could not be imported from it, 1 no
sample produced timings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "wall_min_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(root: Path, workload: str, seed: int, sample_dir: Path, traced: bool) -> dict | None:
    """One fresh-interpreter sample; None when it wrote no result."""
    sample_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(sample_dir), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    result_path = sample_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def tail(values: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    k = len(values) - 10
    if k < 1:
        return None
    return math.floor(100 * k / len(values)), sorted(values)[k - 1]


def describe(name: str, unit: str, values: list[float]) -> str:
    line = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  p25 {q1:.6g}  p75 {q3:.6g}"
    hi = tail(values)
    line += f"  p{hi[0]} {hi[1]:.6g}" if hi else "  (tail: needs more than 10 samples)"
    return line + f"  n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ionquench" / "cli.py").is_file():
        print(f"no src/ionquench under {root}: run from the root of an ionquench checkout", file=sys.stderr)
        return 2
    scratch = root / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))

    untraced, traced = [], []
    # trace.overhead_frac: each traced sample against the untraced one just
    # before it, so a drift of the host's speed cancels out of the pair.
    overheads: list[float] = []
    prev = None
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    try:
        for n in itertools.count():
            is_traced = bool(args.trace) and n % 2 == 1
            result = run_child(root, args.workload, args.seed, run_dir / f"sample-{n}", is_traced)
            if result is None:
                ops = workloads.build_ops(args.workload, args.seed, str(run_dir))
                attempted += sum(op.attempted for op in ops)
                failed += sum(op.attempted for op in ops)
            else:
                attempted += result["attempted"]
                failed += result["failed"]
                errors += result["errors"]
                (traced if is_traced else untraced).append(result)
                if is_traced and prev is not None:
                    overheads.append(result["wall_s"] / prev["wall_s"] - 1.0)
            prev = None if is_traced else result
            elapsed = time.perf_counter() - start
            enough = len(untraced) >= MIN_SAMPLES and (not args.trace or len(overheads) >= MIN_SAMPLES)
            if (elapsed >= args.seconds and enough) or elapsed >= HARD_LIMIT_S:
                break
        if args.trace and traced:
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(traced[-1]["spans"]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not untraced or (args.trace and not overheads):
        print("no sample produced timings", file=sys.stderr)
        return 1

    for err in errors[:20]:
        print(f"error: {err}")
    print(f"workload {args.workload}  seed {args.seed}  samples {len(untraced)} untraced, {len(traced)} traced")
    print(f"error_rate     {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    series = {
        "setup_s": ("s", [r["setup_s"] for r in untraced]),
        "wall_s": ("s", [r["wall_s"] for r in untraced]),
        "rows_per_s": ("1/s", [r["attempted"] / r["wall_s"] for r in untraced]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in untraced]),
    }
    for name, (unit, vals) in series.items():
        print(describe(name, unit, vals))
    wall_min_s = min(series["wall_s"][1])

    if args.trace:
        units = spans.per_layer_units(workloads.verify_check_names())
        values = spans.median_metrics([r["per_layer"] for r in traced])
        values["trace.overhead_frac"] = statistics.median(overheads)
        for name, value in values.items():
            print(f"{name:<52} {value:.6g} {units[name]}")
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(series["setup_s"][1]),
            "wall_min_s": wall_min_s,
            "rows_per_s": max(series["rows_per_s"][1]),
            "peak_rss_mb": statistics.median(series["peak_rss_mb"][1]),
        }
        print(f"{'wall_min_s':<14} {wall_min_s:.6g} s   rows_per_s at it {values['rows_per_s']:.6g} 1/s")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
