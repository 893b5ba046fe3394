"""Record the correctness references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the root of a checkout whose outputs are known to be right.  It
writes, under perfbench/refs/:

* presets/figN.csv      `ionquench lag --preset figN` output, compared byte for byte
* deep_sums_pool.json   lag, n_used, converged and divergence_predicted of every
                        (m, eta, branch, nbar) in the deep_sums pool
* verify_full.json      the names of the `verify full` checks, which must all pass
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import workloads

COMMAND = "PYTHONPATH=src python3 perfbench/make_refs.py"


def main() -> int:
    import ionquench.cli as cli

    refs = workloads.REFS
    (refs / "presets").mkdir(parents=True, exist_ok=True)
    for name in workloads.PRESETS:
        code = cli.main(list(workloads.preset_argv(name, str(workloads.preset_ref_path(name)))))
        if code != 0:
            raise SystemExit(f"{name} exited {code}")

    rows = []
    nbars = workloads.deep_pool_nbars()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pool.csv"
        for m, eta in workloads.DEEP_KEYS:
            code = cli.main(list(workloads.deep_argv(m, eta, nbars, str(out))))
            if code != 0:
                raise SystemExit(f"deep_sums key {(m, eta)} exited {code}")
            head, lines = workloads.split_csv(out.read_text())
            keys = workloads.deep_keys(m, eta, nbars)
            for key, row in zip(keys, csv.DictReader([head[-1], *lines]), strict=True):
                row = workloads.deep_row(row)
                if not workloads.deep_row_matches(row, key):
                    raise SystemExit(f"row {row[:4]} does not answer {key}")
                rows.append([*key, *row[4:]])
        body = ",\n".join(json.dumps(row) for row in rows)
        (refs / "deep_sums_pool.json").write_text(
            f'{{"command": {json.dumps(COMMAND)}, "lag_rel_tol": {workloads.DEEP_LAG_RTOL!r},\n'
            f'"columns": {json.dumps(workloads.DEEP_COLUMNS)},\n"rows": [\n{body}\n]}}\n'
        )

        report = Path(tmp) / "verify.json"
        with redirect_stdout(io.StringIO()):
            code = cli.main(list(workloads.verify_argv(0, str(report))))
        checks = json.loads(report.read_text())["checks"]
        if code != 0 or not all(c["passed"] for c in checks):
            raise SystemExit("verify full does not pass; refusing to record it")
        names = [c["name"] for c in checks]
        (refs / "verify_full.json").write_text(json.dumps({"command": COMMAND, "checks": names}, indent=1) + "\n")
    print(f"wrote {len(workloads.PRESETS)} preset CSVs, {len(rows)} deep_sums rows, {len(names)} verify checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
