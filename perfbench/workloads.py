"""Workload definitions and output checks for the ionquench benchmark.

A workload is a list of CLI calls (`Op`), each passed to `ionquench.cli.main`
in one fresh interpreter.  Every call carries the operations it is expected
to produce (output rows, or verify checks), and `failed_ops` compares what it
wrote against the references under `refs/`.

This module uses the standard library only.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("presets", "deep_sums", "verify_full")

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

# deep_sums pool: adaptive nbar sweeps at the fig1 physical block.  A sample
# sweeps one key per sideband m in DEEP_MS, with eta drawn from DEEP_ETAS, and
# gives every key one nbar value per log-spaced stratum of [1e3, 1e5].  The
# candidates of a stratum lie within 1% of each other.  So every seed sums
# about the same number of terms (n_used grows with nbar and does not depend
# on the key) and builds coupling arrays of the same shapes.
DEEP_MS = (1, 2, 3, 4)
DEEP_ETAS = (0.3, 0.8, 1.5, 2.5)
DEEP_KEYS = tuple((m, eta) for m in DEEP_MS for eta in DEEP_ETAS)
DEEP_STRATA = 12
DEEP_CANDIDATES = 3
DEEP_BRANCHES = ("jc", "ajc")
# Relative tolerance on the lag column; n_used, converged and
# divergence_predicted must match exactly.
DEEP_LAG_RTOL = 1e-9
DEEP_COLUMNS = ("m", "eta", "branch", "nbar", "lag", "n_used", "converged", "divergence_predicted")


def deep_nbar(stratum: int, candidate: int) -> float:
    """Pool value `candidate` of log-spaced stratum `stratum` in [1e3, 1e5]."""
    frac = (stratum + 0.5 + 0.02 * (candidate - 1)) / DEEP_STRATA
    return 10.0 ** (3.0 + 2.0 * frac)


def deep_pool_nbars() -> list[float]:
    return [deep_nbar(s, c) for s in range(DEEP_STRATA) for c in range(DEEP_CANDIDATES)]


@dataclass(frozen=True)
class Op:
    """One `ionquench.cli.main(argv)` call and the operations it must produce.

    `expect` is the preset name for `presets`, the (m, eta, branch, nbar)
    row keys for `deep_sums`, and the check names for `verify_full`.
    """

    label: str
    argv: tuple[str, ...]
    out: str
    expect: tuple

    @property
    def attempted(self) -> int:
        if self.label in PRESETS:
            return preset_row_count(self.label)
        return len(self.expect)


# The command lines, shared by `build_ops` and `make_refs.py` so the
# references are recorded from the same calls the benchmark makes.

def preset_argv(name: str, out: str) -> tuple[str, ...]:
    return ("lag", "--preset", name, "--out", out, "--threads", "1")


def deep_argv(m: int, eta: float, nbars: list[float], out: str) -> tuple[str, ...]:
    """One adaptive nbar sweep of key (m, eta) on both branches; rows are nbar-major."""
    return (
        "sweep", "--axis", "nbar", "--values", ",".join(repr(v) for v in nbars),
        "--branch", ",".join(DEEP_BRANCHES), "--m", str(m), "--eta", repr(eta),
        "--out", out, "--threads", "1",
    )  # fmt: skip


def deep_keys(m: int, eta: float, nbars: list[float]) -> tuple[tuple, ...]:
    """The (m, eta, branch, nbar) of each row `deep_argv` writes, in order."""
    return tuple((m, eta, b, v) for v in nbars for b in DEEP_BRANCHES)


def verify_argv(seed: int, out: str) -> tuple[str, ...]:
    return ("verify", "full", "--seed", str(seed), "--out", out)


def build_ops(workload: str, seed: int, tmpdir: str) -> list[Op]:
    """The CLI calls one sample of `workload` makes; `seed` picks the inputs."""
    tmp = Path(tmpdir)
    if workload == "presets":
        return [Op(name, preset_argv(name, str(tmp / f"{name}.csv")), str(tmp / f"{name}.csv"), (name,)) for name in PRESETS]
    if workload == "deep_sums":
        rng = random.Random(seed)
        ops = []
        for i, m in enumerate(DEEP_MS):
            eta = rng.choice(DEEP_ETAS)
            nbars = [deep_nbar(s, rng.randrange(DEEP_CANDIDATES)) for s in range(DEEP_STRATA)]
            out = str(tmp / f"deep{i}.csv")
            ops.append(Op(f"deep{i}", deep_argv(m, eta, nbars, out), out, deep_keys(m, eta, nbars)))
        return ops
    if workload == "verify_full":
        out = str(tmp / "verify.json")
        return [Op("verify", verify_argv(seed, out), out, verify_check_names())]
    raise ValueError(f"unknown workload {workload!r}")


# -- references ---------------------------------------------------------------

def preset_ref_path(name: str) -> Path:
    return REFS / "presets" / f"{name}.csv"


def split_csv(text: str) -> tuple[list[str], list[str]]:
    """(header lines: '#' comments and the column line, data rows)."""
    lines = text.splitlines()
    n_head = 0
    while n_head < len(lines) and lines[n_head].startswith("#"):
        n_head += 1
    return lines[: n_head + 1], lines[n_head + 1 :]


@functools.cache
def preset_row_count(name: str) -> int:
    return len(split_csv(preset_ref_path(name).read_text())[1])


@functools.cache
def deep_pool() -> dict:
    """(m, eta, branch, nbar) -> (lag, n_used, converged, divergence_predicted)."""
    data = json.loads((REFS / "deep_sums_pool.json").read_text())
    return {tuple(row[:4]): tuple(row[4:]) for row in data["rows"]}


@functools.cache
def verify_check_names() -> tuple[str, ...]:
    return tuple(json.loads((REFS / "verify_full.json").read_text())["checks"])


# -- checks -------------------------------------------------------------------


def failed_ops(op: Op, exit_code: int | None) -> int:
    """How many of `op`'s operations failed.

    A call that raised (`exit_code` None) or exited non-zero fails every
    operation it carries.  Otherwise each expected row or check that is
    missing or differs from its reference counts once.
    """
    if exit_code != 0:
        return op.attempted
    try:
        text = Path(op.out).read_text()
    except OSError:
        return op.attempted
    if op.label in PRESETS:
        return presets_failed(text, preset_ref_path(op.label).read_text())
    if op.label.startswith("deep"):
        return deep_failed(text, op.expect, deep_pool())
    return verify_failed(text, op.expect)


def presets_failed(text: str, ref_text: str) -> int:
    """Rows that differ byte for byte from the reference CSV.

    A differing header fails every row; extra or missing rows fail one each.
    """
    head, rows = split_csv(text)
    ref_head, ref_rows = split_csv(ref_text)
    if head != ref_head:
        return len(ref_rows)
    bad = sum(1 for i, ref in enumerate(ref_rows) if i >= len(rows) or rows[i] != ref)
    return min(len(ref_rows), bad + max(0, len(rows) - len(ref_rows)))


def deep_row(row: dict) -> tuple:
    """(m, eta, branch, nbar, lag, n_used, converged, divergence_predicted) of a CSV row."""
    return (
        int(row["m"]), float(row["eta"]), row["branch"], float(row["nbar"]), float(row["lag"]),
        int(row["n_used"]), row["converged"] == "true", row["divergence_predicted"] == "true",
    )  # fmt: skip


def deep_row_matches(row: tuple, key: tuple) -> bool:
    """Whether an output row is the one asked for by key (m, eta, branch, nbar).

    The nbar column is recomputed from beta, so it may differ from the
    requested value in the last bits.
    """
    return row[:3] == key[:3] and math.isclose(row[3], key[3], rel_tol=1e-12)


def deep_failed(text: str, keys: tuple, pool: dict) -> int:
    """Expected rows that are missing or disagree with the pool reference.

    Rows come out in request order (nbar-major, then branch), so the i-th
    row answers keys[i].
    """
    head, lines = split_csv(text)
    rows = list(csv.DictReader([head[-1], *lines])) if head else []
    bad = 0
    for i, key in enumerate(keys):
        ref = pool.get(key)
        try:
            row = deep_row(rows[i])
        except (IndexError, KeyError, TypeError, ValueError):
            row = None
        if ref is None or row is None or not deep_row_matches(row, key):
            bad += 1
            continue
        lag_ok = math.isclose(row[4], ref[0], rel_tol=DEEP_LAG_RTOL, abs_tol=0.0)
        bad += not (lag_ok and row[5:] == tuple(ref[1:]))
    return bad


def verify_failed(text: str, names: tuple) -> int:
    """Expected checks that are missing from the report or did not pass."""
    try:
        checks = {c["name"]: c["passed"] for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError):
        return len(names)
    return sum(1 for name in names if checks.get(name) is not True)
