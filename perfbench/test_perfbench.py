"""Tests of the benchmark's own failure accounting and span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py

They need no ionquench import: the program's outputs are stood in for by
temporary copies of the stored references.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _error_rate(ops_and_codes) -> float:
    attempted = sum(op.attempted for op, _ in ops_and_codes)
    return sum(workloads.failed_ops(op, code) for op, code in ops_and_codes) / attempted


# -- presets: byte-for-byte CSV comparison --------------------------------------


@pytest.fixture
def preset_op(tmp_path):
    out = tmp_path / "fig4.csv"
    shutil.copy(workloads.preset_ref_path("fig4"), out)
    return workloads.Op("fig4", (), str(out), ("fig4",))


def _edit_rows(path: str, edit) -> None:
    head, rows = workloads.split_csv(Path(path).read_text())
    Path(path).write_text("\n".join(head + edit(rows)) + "\n")


def test_presets_copy_of_reference_passes(preset_op):
    assert preset_op.attempted == 124
    assert _error_rate([(preset_op, 0)]) == 0.0


def test_presets_perturbed_lag_fails_its_row(preset_op):
    def perturb(rows):
        cells = rows[7].split(",")  # column 13 is lag
        cells[13] = format(float(cells[13]) * 1.000001 + 1e-12, ".17g")
        return rows[:7] + [",".join(cells)] + rows[8:]

    _edit_rows(preset_op.out, perturb)
    assert workloads.failed_ops(preset_op, 0) == 1


def test_presets_dropped_row_fails(preset_op):
    _edit_rows(preset_op.out, lambda rows: rows[:-1])
    assert workloads.failed_ops(preset_op, 0) == 1
    _edit_rows(preset_op.out, lambda rows: rows[1:])
    assert workloads.failed_ops(preset_op, 0) >= 1


def test_presets_nonzero_exit_fails_every_row(preset_op):
    assert _error_rate([(preset_op, 3)]) == 1.0


def test_presets_missing_output_fails_every_row(preset_op):
    Path(preset_op.out).unlink()
    assert workloads.failed_ops(preset_op, 0) == preset_op.attempted


# -- deep_sums: pool references with a lag tolerance ----------------------------


def _deep_csv(keys, pool, path: Path) -> None:
    lines = [",".join(workloads.DEEP_COLUMNS)]
    for m, eta, branch, nbar in keys:
        lag, n_used, converged, diverges = pool[(m, eta, branch, nbar)]
        cells = [m, repr(eta), branch, repr(nbar), repr(lag), n_used, str(converged).lower(), str(diverges).lower()]
        lines.append(",".join(str(c) for c in cells))
    path.write_text("# command = sweep\n" + "\n".join(lines) + "\n")


@pytest.fixture
def deep_op(tmp_path):
    op = workloads.build_ops("deep_sums", 5, str(tmp_path))[0]
    _deep_csv(op.expect, workloads.deep_pool(), Path(op.out))
    return op


def test_deep_sums_draw_depends_on_seed_only(tmp_path):
    a = workloads.build_ops("deep_sums", 5, str(tmp_path))
    b = workloads.build_ops("deep_sums", 5, str(tmp_path))
    c = workloads.build_ops("deep_sums", 6, str(tmp_path))
    assert a == b and a != c
    pool = workloads.deep_pool()
    assert all(key in pool for op in a + c for key in op.expect)
    assert sum(op.attempted for op in a) == len(workloads.DEEP_MS) * workloads.DEEP_STRATA * 2


def test_deep_sums_reference_rows_pass(deep_op):
    assert workloads.failed_ops(deep_op, 0) == 0


def test_deep_sums_perturbed_lag_fails(deep_op):
    def perturb(rows):
        cells = rows[3].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-6))
        return rows[:3] + [",".join(cells)] + rows[4:]

    _edit_rows(deep_op.out, perturb)
    assert workloads.failed_ops(deep_op, 0) == 1


def test_deep_sums_lag_within_tolerance_passes(deep_op):
    def nudge(rows):
        cells = rows[3].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-12))
        return rows[:3] + [",".join(cells)] + rows[4:]

    _edit_rows(deep_op.out, nudge)
    assert workloads.failed_ops(deep_op, 0) == 0


def test_deep_sums_exact_columns_and_dropped_row_fail(deep_op):
    def flip(rows):
        cells = rows[0].split(",")
        cells[5] = str(int(cells[5]) + 512)
        return [",".join(cells)] + rows[1:]

    _edit_rows(deep_op.out, flip)
    assert workloads.failed_ops(deep_op, 0) == 1
    _edit_rows(deep_op.out, lambda rows: rows[:-1])
    assert workloads.failed_ops(deep_op, 0) == 2
    assert workloads.failed_ops(deep_op, 2) == deep_op.attempted


# -- verify_full ------------------------------------------------------------------


def test_verify_report_accounting(tmp_path):
    op = workloads.build_ops("verify_full", 1, str(tmp_path))[0]
    names = list(op.expect)
    checks = [{"name": n, "passed": True, "detail": ""} for n in names]
    Path(op.out).write_text(json.dumps({"checks": checks}))
    assert workloads.failed_ops(op, 0) == 0
    checks[3]["passed"] = False
    Path(op.out).write_text(json.dumps({"checks": checks[:-1]}))
    assert workloads.failed_ops(op, 0) == 2
    assert workloads.failed_ops(op, 1) == len(names)


# -- exceptions are counted, not fatal ---------------------------------------------


def test_exceptions_are_counted_and_the_run_continues(tmp_path):
    ops = workloads.build_ops("presets", 0, str(tmp_path))
    for op in ops:
        shutil.copy(workloads.preset_ref_path(op.label), op.out)
    seen = []

    def fake_main(argv):
        seen.append(argv[2])
        if argv[2] == "fig2":
            raise RuntimeError("boom")
        if argv[2] == "fig5":
            raise SystemExit(2)
        return 0

    codes, errors = child.run_ops(fake_main, ops)
    assert seen == list(workloads.PRESETS)
    assert codes == [0, None, 0, 0, 2, 0]
    assert errors == ["fig2: RuntimeError: boom"]
    failed = sum(workloads.failed_ops(op, code) for op, code in zip(ops, codes))
    assert failed == ops[1].attempted + ops[4].attempted


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["sweep.evaluate_point", 1.0, 5.0, 0, None],
        ["thermo.lag", 2.0, 4.0, 1, {"terms": 40, "converged": True}],
        ["numerics.coupling", 2.5, 3.0, 2, {"terms": 512, "key": [1, 0.5]}],
        ["sweep.evaluate_point", 6.0, 9.0, 0, None],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.5, 0.5, 3.0]
    metrics = spans.per_layer(recorded, ["a_check"])
    assert metrics["cli.self_s"] == 3.0
    assert metrics["sweep.self_s"] == 5.0
    assert metrics["thermo.lag.self_s"] == 1.5
    assert metrics["numerics.coupling.terms_per_row"] == 256.0
    assert metrics["verify.check.a_check.s"] == 0


def test_recorder_nests_spans_and_keeps_results():
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    wrapped_inner = rec.wrap("sweep.evaluate_point", inner)
    outer = rec.wrap("cli.main", lambda x: wrapped_inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in rec.spans] == [("cli.main", -1), ("sweep.evaluate_point", 0)]
    with pytest.raises(ZeroDivisionError):
        rec.wrap("params.reduce", lambda: 1 / 0)()
    assert rec.spans[-1][0] == "params.reduce" and rec.spans[-1][2] >= rec.spans[-1][1]


# -- BENCHMARK.json agrees with what run.py prints ---------------------------------


def test_benchmark_json_lists_every_printed_metric():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    units = spans.per_layer_units(workloads.verify_check_names())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
