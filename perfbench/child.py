"""One benchmark sample, run in a fresh interpreter by `run.py`.

    python3 perfbench/child.py WORKLOAD SEED SAMPLE_DIR TRACE

Times `import ionquench.cli` (the set-up every CLI call pays), runs the
workload's CLI calls through `ionquench.cli.main`, then checks every output
against the references and writes `SAMPLE_DIR/result.json`.  With TRACE=1
the layer functions are wrapped before the calls and the result also holds
the spans and the per-layer metrics built from them.

Exit codes: 0 sample written, 3 `ionquench` was not imported from `./src`.
"""

from __future__ import annotations

# Only sys and time are loaded before the import of ionquench.cli is timed:
# every other module the child needs is imported after it, so set-up pays
# for all of the program's own imports.
import sys
import time


def run_ops(main, ops: list) -> tuple[list, list[str]]:
    """Call `main(argv)` for each op; an exception fails its op, not the run."""
    codes, errors = [], []
    for op in ops:
        try:
            code = main(list(op.argv))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            code = None
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        codes.append(code)
    return codes, errors


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import ionquench.cli as cli

    setup_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    import spans
    import workloads

    workload, seed, sample_dir, trace = argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1"
    ops = workloads.build_ops(workload, seed, str(sample_dir))
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"ionquench was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install()
    t1 = time.perf_counter()
    # Look cli.main up per call, so a traced run goes through its wrapper.
    codes, errors = run_ops(lambda args: cli.main(args), ops)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [workloads.failed_ops(op, code) for op, code in zip(ops, codes)]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(failed),
        "calls": [{"label": op.label, "exit": code, "failed": f} for op, code, f in zip(ops, codes, failed)],
        "errors": errors,
    }
    if recorder is not None:
        result["per_layer"] = spans.per_layer(recorder.spans, workloads.verify_check_names())
        result["spans"] = recorder.spans
    (sample_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
