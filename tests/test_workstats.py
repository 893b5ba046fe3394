import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionquench import numerics
from ionquench.params import Branch, reduce
from ionquench.spectra import dense_hamiltonians, truncation_tail_warning
from ionquench.workstats import moments_analytic, moments_numeric, work_pmf_sideband
from conftest import FIG1, desk_reduced, eager_full_hamiltonian


class TestAnalyticMoments:
    def test_mean_always_zero(self):
        for eta, nbar in ((0.0, 0.38), (2.0, 5.0), (0.7, 0.01)):
            assert moments_analytic(desk_reduced(0, Branch.CARRIER, eta, nbar=nbar)).mean == 0.0

    def test_second_moment_rabi_only(self):
        # omega_rabi = 2 nu gives exactly one squared trap quantum.
        rp = desk_reduced(0, Branch.CARRIER, 0.5, r_om=2.0)
        assert moments_analytic(rp).second == pytest.approx(1.0, rel=1e-15)
        # Independent of temperature and eta.
        assert moments_analytic(desk_reduced(0, Branch.CARRIER, 1.9, nbar=9.0, r_om=2.0)).second == 1.0

    def test_third_moment_desk_value(self):
        # (r_om/2)^2 (eta^2 + r_w0 tanh(b_w0/2)) at the shared desk point,
        # recomputed with 60-digit arithmetic.
        rp = desk_reduced(0, Branch.CARRIER, 0.5)
        assert moments_analytic(rp).third == pytest.approx(2.56248746818376, rel=1e-14)

    def test_third_moment_cold_limit(self):
        cold = desk_reduced(0, Branch.CARRIER, 0.5, nbar=1e-9)
        expected = 0.25 * (0.25 + 10.0)
        assert moments_analytic(cold).third == pytest.approx(expected, rel=1e-9)

    def test_third_positive_everywhere(self):
        for eta in (0.0, 0.5, 2.5):
            for nbar in (0.01, 0.38, 20.0):
                assert moments_analytic(desk_reduced(0, Branch.CARRIER, eta, nbar=nbar)).third > 0.0

    def test_skewness_halves_when_rabi_doubles(self):
        lo = moments_analytic(desk_reduced(0, Branch.CARRIER, 0.5, r_om=1.0))
        hi = moments_analytic(desk_reduced(0, Branch.CARRIER, 0.5, r_om=2.0))
        assert hi.skewness == pytest.approx(0.5 * lo.skewness, rel=1e-12)

    def test_third_independent_of_trap_frequency_with_geometry_eta(self):
        # Keep beta fixed and derive eta from the geometry; the trap frequency
        # then cancels out of the third moment (in absolute units).
        beta = 2.5e30
        vals = []
        for nu in (5e3, 1e4):
            rp = reduce(dict(FIG1, nu=nu, beta=beta), 0, Branch.CARRIER)
            # Convert from (hbar nu)^3 units back to an absolute scale.
            vals.append(moments_analytic(rp).third * nu**3)
        assert vals[1] == pytest.approx(vals[0], rel=1e-10)

    def test_third_nu_independence_on_sideband(self):
        beta = 2.5e30
        vals = []
        for nu in (5e3, 1e4):
            rp = reduce(dict(FIG1, nu=nu, beta=beta), 1, Branch.JC)
            vals.append(moments_analytic(rp).third * nu**3)
        assert vals[1] == pytest.approx(vals[0], rel=1e-10)


def fresh_build_moment(rp, n_trunc, order, use_full):
    """<W^order> with operators built afresh for this one call, as moments_numeric once did."""
    ops = dense_hamiltonians(rp, n_trunc)
    h_f = eager_full_hamiltonian(rp, n_trunc) if use_full else ops.h_final_sideband
    h_i_diag = np.real(np.diag(ops.h_initial))
    weights = np.real(np.diag(ops.rho_initial))
    powers_diag = [np.ones_like(h_i_diag)]
    mat = np.eye(h_f.shape[0], dtype=complex)
    for _ in range(order):
        mat = mat @ h_f
        powers_diag.append(np.real(np.diag(mat)))
    total = 0.0
    largest = 0.0
    for k in range(order + 1):
        term = math.comb(order, k) * float(np.sum(powers_diag[order - k] * h_i_diag**k * weights))
        total += (-1) ** k * term
        largest = max(largest, abs(term))
    return total, largest


class TestNumericMoments:
    @pytest.mark.parametrize("m, branch, eta", [(0, Branch.CARRIER, 0.5), (1, Branch.JC, 0.7), (2, Branch.AJC, 1.2)])
    def test_shared_operators_equal_fresh_builds(self, m, branch, eta):
        rp = desk_reduced(m, branch, eta)
        ops = dense_hamiltonians(rp, 40)
        for use_full in (True, False):
            for order in range(1, 5):
                est = moments_numeric(ops, order, use_full=use_full)
                assert (est.value, est.largest_term) == fresh_build_moment(rp, 40, order, use_full)

    def test_shared_powers_keep_each_target_and_order_apart(self):
        # Orders out of sequence, repeated, and the two targets interleaved on one object.
        rp = desk_reduced(1, Branch.JC, 0.7)
        ops = dense_hamiltonians(rp, 40)
        for order in (3, 1, 4, 2, 3):
            for use_full in (True, False):
                est = moments_numeric(ops, order, use_full=use_full)
                want = fresh_build_moment(rp, 40, order, use_full)
                assert (est.value.hex(), est.largest_term.hex()) == tuple(v.hex() for v in want)

    def test_first_moment_vanishes(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.5)
        ops = dense_hamiltonians(rp, 80)
        h_norm = np.linalg.norm(ops.h_final_full, 2)
        for use_full in (True, False):
            est = moments_numeric(ops, 1, use_full=use_full)
            assert abs(est.value) <= 1e-10 * h_norm

    def test_second_matches_closed_form(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.5)
        est = moments_numeric(dense_hamiltonians(rp, 80), 2)
        assert est.value == pytest.approx(0.25, rel=1e-8)

    def test_third_matches_closed_form(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.5)
        est = moments_numeric(dense_hamiltonians(rp, 80), 3)
        assert est.value == pytest.approx(moments_analytic(rp).third, rel=1e-6)

    def test_sideband_first_moment_null(self):
        for m, branch in ((1, Branch.JC), (2, Branch.AJC)):
            rp = desk_reduced(m, branch, 0.7)
            ops = dense_hamiltonians(rp, 70)
            h_norm = np.linalg.norm(ops.h_final_sideband, 2)
            est = moments_numeric(ops, 1, use_full=False)
            assert abs(est.value) <= 1e-10 * h_norm

    def test_order_capped(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.5)
        ops = dense_hamiltonians(rp, 40)
        with pytest.raises(ValueError):
            moments_numeric(ops, 5)
        moments_numeric(ops, 4)

    def test_cancellation_flag_at_extreme_ratio(self):
        # At a deliberately large frequency ratio the binomial terms cancel
        # many digits and the estimate must say so.
        rp = desk_reduced(0, Branch.CARRIER, 0.5, r_w0=1e8)
        est = moments_numeric(dense_hamiltonians(rp, 40), 2)
        assert est.cancellation_ratio > 1e6
        assert est.cancellation_warning


class TestWorkPMF:
    @pytest.mark.parametrize("m, branch", [(0, Branch.CARRIER), (2, Branch.AJC)])
    def test_one_coupling_recurrence_per_call(self, m, branch, monkeypatch):
        calls = []
        real = numerics._laguerre_extend
        monkeypatch.setattr(numerics, "_laguerre_extend", lambda *a: calls.append(a[1]) or real(*a))
        work_pmf_sideband(desk_reduced(m, branch, 0.7), 60)
        assert calls == [60]

    def test_negative_truncation_rejected(self):
        # It used to return an empty distribution with total 0.0.
        with pytest.raises(ValueError, match="nonnegative"):
            work_pmf_sideband(desk_reduced(1, Branch.JC, 0.7), -1)

    def test_no_quench_gives_point_mass_at_zero(self):
        rp = desk_reduced(1, Branch.JC, 0.5, r_om=0.0)
        pmf = work_pmf_sideband(rp, 50)
        assert pmf.values.tolist() == [0.0]
        assert pmf.probabilities.tolist() == pytest.approx([1.0], abs=1e-12)

    def test_normalized(self):
        for m, branch in ((0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)):
            rp = desk_reduced(m, branch, 0.9)
            pmf = work_pmf_sideband(rp, 60)
            assert pmf.total == pytest.approx(1.0, abs=1e-10)
            assert np.all(pmf.probabilities >= 0.0)
            assert np.all(np.diff(pmf.values) > 0)

    def test_first_moment_zero(self):
        rp = desk_reduced(1, Branch.JC, 0.6)
        pmf = work_pmf_sideband(rp, 60)
        assert abs(pmf.moment(1)) <= 1e-10

    def test_tail_warning(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.5, nbar=30.0)
        pmf = work_pmf_sideband(rp, 20)
        assert pmf.tail_warning

    def test_tail_warning_agrees_with_the_dense_operators(self):
        # b_nu = ln 2: the weight past n_trunc = 33 is 2^-34.  The two flags used to
        # disagree at 33 and 39 (the PMF read 1e-10, the dense operators the weight from n_trunc up).
        rp = desk_reduced(1, Branch.JC, 0.5, nbar=1.0)
        for n_trunc, warns in ((33, True), (39, False), (40, False)):
            flags = (work_pmf_sideband(rp, n_trunc).tail_warning, dense_hamiltonians(rp, n_trunc).tail_warning)
            assert flags == (warns, warns) and truncation_tail_warning(rp, n_trunc) is warns

    def test_edge_states_contribute_zero_work(self):
        # JC leaves |n, g> with n < m untouched; their two-point work is zero.
        rp = desk_reduced(2, Branch.JC, 0.0001, nbar=0.38)
        pmf = work_pmf_sideband(rp, 50)
        idx = int(np.argmin(np.abs(pmf.values)))
        p_zero = pmf.probabilities[idx]
        # At nearly zero coupling everything sits at zero work.
        assert pmf.values[idx] == pytest.approx(0.0, abs=1e-12)
        assert p_zero == pytest.approx(1.0, abs=1e-6)


def test_work_moments_demo_prints_the_recorded_digits():
    # Re-record tests/golden/work_moments.stdout only with a change that means to move these digits.
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(root / "demos" / "work_moments.py")],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (root / "tests" / "golden" / "work_moments.stdout").read_bytes()
