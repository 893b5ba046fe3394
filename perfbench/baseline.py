"""Record a baseline: two sets of ten untraced runs per workload, and one traced run each.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Each run lasts BENCHMARK.json's
run_seconds.  Within a set, seeds go round-robin over the workloads, so a
slow spell of the machine touches every workload alike.  For each
end-to-end metric and set it reports the median and quartiles over the runs
and their spread, (q3 - q1) / median, against the bound in BENCHMARK.json.
It then compares the second set's median with the first's: by how much it
is worse, as a share of the first, which must also stay within the bound.
The traced run (seed 1) gives the per-layer table.  Writes
perfbench/baseline.json and perfbench/BASELINE.md.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's JSON result, plus the median wall_s from its report as `wall_s_median`."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s_median"] = next(float(line.split()[2]) for line in lines if line.startswith("wall_s "))
    return result


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": run.SINGLE_THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
    }


def summarize(rows: list[dict], names: list[str], bounds: dict) -> dict:
    out = {"error_rate": sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows)}
    for name in names:
        q1, med, q3 = statistics.quantiles([r[name] for r in rows], n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bounds.get(name)}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = [*bounds, "wall_s_median"]

    sets = []
    for seeds in SEED_SETS:
        runs: dict[str, list[dict]] = {w: [] for w in workloads.WORKLOADS}
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                result = run_once(workload, seed, seconds, 0)
                runs[workload].append({"seed": seed, "correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
                                       "wall_s_median": result["wall_s_median"], **{k: v["value"] for k, v in result["metrics"].items()}})  # fmt: skip
                print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        summary = {w: summarize(rows, names, bounds) for w, rows in runs.items()}
        sets.append({"seeds": seeds, "summary": summary, "runs": runs})

    # How much worse the second set's median is than the first's (negative: better).
    first, second = sets[0]["summary"], sets[1]["summary"]
    agreement = {
        w: {n: (1 if better[n] == "lower" else -1) * (second[w][n]["median"] / first[w][n]["median"] - 1) for n in bounds}
        for w in workloads.WORKLOADS
    }
    traced = {w: {k: v["value"] for k, v in run_once(w, SEED_SETS[0][0], seconds, 1)["metrics"].items()} for w in workloads.WORKLOADS}

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]} | {"wall_s_median": "s"}
    out = {"environment": environment(), "run_seconds": seconds, "sets": sets, "agreement": agreement, "traced_seed": SEED_SETS[0][0], "per_layer": traced}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")

    env = out["environment"]
    lines = [
        "# Baseline",
        "",
        f"Python {env['python']}, numpy {env['numpy']} ({env['blas']}, {env['blas_threads']} BLAS thread), "
        f"nproc {env['nproc']}, {env['cpu']}.  {seconds} s per run, one fresh interpreter per sample.  "
        "Made by `python3 perfbench/baseline.py`.",
        "",
        "`wall_s_median` is each run's median sample time. It is shown for reference and not gated; the gated workload time is `wall_min_s`.",
    ]
    for k, s in enumerate(sets, 1):
        lines += [
            "",
            f"## End to end, set {k}: seeds {s['seeds'][0]}-{s['seeds'][-1]} (medians and quartiles over the runs)",
            "",
            "| workload | metric | median | q1 | q3 | spread | bound |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for workload, metrics in s["summary"].items():
            lines.append(f"| {workload} | error_rate | {metrics['error_rate']:.3g} | | | | |")
            for name in names:
                m = metrics[name]
                lines.append(f"| {workload} | {name} ({units[name]}) | {m['median']:.4g} | {m['q1']:.4g} | {m['q3']:.4g} | {m['spread']:.3f} | {m['bound'] or 'not gated'} |")
    lines += ["", "## Set 2 against set 1: how much worse the median is (negative: better)", "", "| metric | bound | " + " | ".join(workloads.WORKLOADS) + " |", "| --- | --- |" + " --- |" * len(workloads.WORKLOADS)]
    for name in bounds:
        lines.append(f"| {name} | {bounds[name]} | " + " | ".join(f"{agreement[w][name]:+.3f}" for w in workloads.WORKLOADS) + " |")
    lines += ["", f"## Per layer (traced run, seed {SEED_SETS[0][0]})", "", "| metric | unit | " + " | ".join(workloads.WORKLOADS) + " |", "| --- | --- |" + " --- |" * len(workloads.WORKLOADS)]
    for name in traced[workloads.WORKLOADS[0]]:
        lines.append(f"| {name} | {units[name]} | " + " | ".join(f"{traced[w][name]:.4g}" for w in workloads.WORKLOADS) + " |")
    (HERE / "BASELINE.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
