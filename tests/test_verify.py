"""The `verify` checks are the shared invariant set: pytest runs each one.

Tests elsewhere keep what no check asserts: frozen reference values,
property-based draws, error paths and timing.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ionquench import numerics, thermo, verify, workstats
from ionquench.verify import FAST_CHECKS, FULL_ONLY_CHECKS


@pytest.mark.parametrize("check", FAST_CHECKS + FULL_ONLY_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    result = check(np.random.default_rng(0))
    assert result.passed, f"{result.name}: {result.detail}"


def test_verify_full_prints_the_recorded_margins():
    # Re-record tests/golden/verify_full_seed1.stdout only with a change that means to move these digits.
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ionquench.cli", "verify", "full", "--seed", "1"],
        env=env, capture_output=True, timeout=300,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (root / "tests" / "golden" / "verify_full_seed1.stdout").read_bytes()


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the running count."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestWorkCounts:
    """Each check builds a coupling table, lag grid or matrix norm once, and only where it is read."""

    @pytest.mark.parametrize(
        "check, runs",
        [
            (verify.check_coupling_reconstruction, 35),  # one per (m, eta) key
            (verify.check_eigenvector_completeness, 3),  # one per case
            (verify.check_eigenvector_residuals, 6 + 6),  # one per dense build and one per eigenpair table
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_recurrence_runs(self, monkeypatch, check, runs):
        calls = _counted(monkeypatch, numerics, "_laguerre_extend")
        assert check(np.random.default_rng(1)).passed
        assert len(calls) == runs

    @pytest.mark.parametrize(
        "check, grids",
        [(verify.check_lag_nonnegative_spots, 1), (verify.check_lag_monotone_in_omega, 3)],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_one_kernel_call_per_lag_grid(self, monkeypatch, check, grids):
        calls = _counted(monkeypatch, thermo, "lag_columns")
        assert check(np.random.default_rng(1)).passed
        assert len(calls) == grids

    def test_no_norm_for_a_zero_first_moment(self, monkeypatch):
        calls = _counted(monkeypatch, np.linalg, "eigvalsh")
        result = verify.check_moment_oracle(np.random.default_rng(1))
        assert result.passed and result.detail.startswith("m1 0.0e+00,")
        assert calls == []

    def test_nonzero_first_moment_is_scaled_by_the_norm(self, monkeypatch):
        moments_numeric = workstats.moments_numeric

        def shifted(ops, order, use_full=True):
            est = moments_numeric(ops, order, use_full)
            return replace(est, value=1.0) if order == 1 else est

        monkeypatch.setattr(workstats, "moments_numeric", shifted)
        calls = _counted(monkeypatch, np.linalg, "eigvalsh")
        result = verify.check_moment_oracle(np.random.default_rng(1))
        assert not result.passed
        assert len(calls) == 5 and all(args[0].shape == (162, 162) for args in calls)
