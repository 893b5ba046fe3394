import math
from dataclasses import replace

import numpy as np
import pytest

from ionquench.numerics import coupling_f
from ionquench.params import Branch, reduced_from_ratios
from ionquench import spectra
from ionquench.spectra import (
    dense_hamiltonians,
    displacement_matrix,
    edge_eigenvalues,
    ket_index,
    sideband_eigenvalues,
    sideband_eigenvectors,
    spectrum_table,
)
from conftest import branch_for, desk_reduced, eager_full_hamiltonian


class TestSidebandEigenvalues:
    def test_zero_rabi_limit(self):
        rp = desk_reduced(1, Branch.JC, 0.5, r_om=0.0)
        mu, gamma = sideband_eigenvalues(3, rp)
        r_wl = rp.r_w0 - 1
        assert mu == pytest.approx(3.5 - r_wl / 2, rel=1e-14)
        assert gamma == pytest.approx(3.5 + r_wl / 2, rel=1e-14)

    def test_trace_identity(self):
        for m, branch in ((1, Branch.JC), (3, Branch.AJC), (0, Branch.CARRIER)):
            rp = desk_reduced(m, branch, 1.1)
            for n in (0, 2, 9):
                mu, gamma = sideband_eigenvalues(n, rp)
                assert mu + gamma == pytest.approx(2 * (n + m / 2), rel=1e-13)

    def test_ordering(self):
        rp = desk_reduced(2, Branch.AJC, 0.9)
        table = spectrum_table(rp, 30)
        assert np.all(table.mu <= table.gamma)
        assert len(table.edge) == 2

    def test_negative_laser_frequency_regime(self):
        # Trap frequency above the transition frequency: omega_L < 0 for JC m=2.
        rp = reduced_from_ratios(1.0 / 1.2, 0.5e9 / 1.2e8, 1.5, 2, Branch.JC, nbar=0.5)
        mu, gamma = sideband_eigenvalues(0, rp)
        s = math.hypot(rp.r_wl, rp.r_om * coupling_f(0, 2, 1.5).magnitude)
        assert gamma - mu == pytest.approx(s, rel=1e-13)


class TestEdgeEigenvalues:
    def test_carrier_has_no_edge(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.4)
        assert edge_eigenvalues(rp).size == 0

    def test_jc_edge_values(self):
        rp = desk_reduced(2, Branch.JC, 0.4)
        edge = edge_eigenvalues(rp)
        assert edge.tolist() == pytest.approx([-rp.r_w0 / 2, 1 - rp.r_w0 / 2], rel=1e-14)

    def test_ajc_edge_values(self):
        rp = desk_reduced(1, Branch.AJC, 0.4)
        edge = edge_eigenvalues(rp)
        assert edge.tolist() == pytest.approx([rp.r_w0 / 2], rel=1e-14)


class TestSidebandEigenvectors:
    def test_decoupled_limit_returns_bare_kets(self):
        rp = desk_reduced(2, Branch.JC, 0.7, r_om=0.0)
        lo, hi = sideband_eigenvectors(1, rp)
        assert lo.amplitudes == {(3, "g"): 1.0 + 0.0j}
        assert hi.amplitudes == {(1, "e"): 1.0 + 0.0j}
        assert lo.value < hi.value

    def test_orthonormal_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(0, 4))
            branch = branch_for(m, Branch.JC if rng.integers(0, 2) else Branch.AJC)
            rp = desk_reduced(m, branch, float(rng.uniform(0.01, 2.5)), r_om=float(rng.uniform(0.1, 20.0)))
            n = int(rng.integers(0, 12))
            lo, hi = sideband_eigenvectors(n, rp)
            vec_lo, vec_hi = lo.as_dense(n + m), hi.as_dense(n + m)
            assert np.vdot(vec_lo, vec_lo) == pytest.approx(1.0, abs=1e-12)
            assert np.vdot(vec_hi, vec_hi) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(vec_lo, vec_hi)) < 1e-12

    def test_residual_against_dense(self):
        n_trunc = 40
        for m, branch, eta in ((1, Branch.JC, 0.9), (2, Branch.AJC, 1.4), (0, Branch.CARRIER, 0.3)):
            rp = desk_reduced(m, branch, eta)
            dense = dense_hamiltonians(rp, n_trunc)
            h = dense.h_final_sideband
            h_norm = np.linalg.norm(h, 2)
            for n in (0, 3, 10):
                for pair in sideband_eigenvectors(n, rp):
                    vec = pair.as_dense(n_trunc)
                    assert np.linalg.norm(h @ vec - pair.value * vec) <= 1e-10 * h_norm

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.9, 1.7])
    def test_values_equal_sideband_eigenvalues(self, eta):
        # The coupling is read once per call; the pair values keep their bits.
        for m in range(4):
            for branch in (Branch.JC, Branch.AJC):
                rp = desk_reduced(m, branch_for(m, branch), eta, r_om=3.0)
                for n in range(61):
                    lo, hi = sideband_eigenvectors(n, rp)
                    assert (lo.value, hi.value) == sideband_eigenvalues(n, rp)

    def test_coupling_zero_fallback(self):
        # L_1(x) = 1 - x vanishes at x = 1, and eta = 1 squares to it exactly;
        # the carrier block at n = 1 is then diagonal.
        assert coupling_f(1, 0, 1.0).sign == 0
        rp = desk_reduced(0, Branch.CARRIER, 1.0)
        lo, hi = sideband_eigenvectors(1, rp)
        assert set(lo.amplitudes) | set(hi.amplitudes) == {(1, "e"), (1, "g")}
        assert lo.value == pytest.approx(1 - rp.r_w0 / 2, rel=1e-14)
        assert hi.value == pytest.approx(1 + rp.r_w0 / 2, rel=1e-14)


class TestDisplacement:
    def test_identity_at_zero_eta(self):
        mat = displacement_matrix(12, 0.0)
        assert mat[4, 4] == 1.0
        assert mat[5, 4] == 0.0
        assert np.array_equal(mat, np.eye(13, dtype=complex))

    def test_vacuum_expectation(self):
        for eta in (0.2, 1.0, 2.5):
            assert displacement_matrix(4, eta)[0, 0] == pytest.approx(math.exp(-eta * eta / 2), rel=1e-14)

    def test_symmetric_matrix(self):
        mat = displacement_matrix(20, 0.8)
        assert np.array_equal(mat, mat.T)

    def test_unitary_inverse_is_negated_argument(self):
        n = 25
        fwd = displacement_matrix(n, 0.6)
        # Interior block of U(eta) U(eta)^dag is the identity up to truncation leakage.
        prod = fwd @ fwd.conj().T
        interior = slice(0, 10)
        assert np.allclose(prod[interior, interior], np.eye(n + 1)[interior, interior], atol=1e-12)


class TestDenseHamiltonians:
    def test_zero_rabi_collapses_to_initial(self):
        rp = desk_reduced(1, Branch.JC, 0.5, r_om=0.0)
        ops = dense_hamiltonians(rp, 20)
        assert np.array_equal(ops.h_final_full, ops.h_initial)
        assert np.array_equal(ops.h_final_sideband, ops.h_initial)

    def test_gibbs_trace_normalized(self):
        rp = desk_reduced(2, Branch.AJC, 0.8)
        ops = dense_hamiltonians(rp, 60)
        assert np.trace(ops.rho_initial).real == pytest.approx(1.0, abs=1e-12)
        assert not ops.tail_warning

    def test_tail_warning_flag(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.2, nbar=40.0)
        ops = dense_hamiltonians(rp, 12)
        assert ops.tail_warning

    def test_truncation_precondition(self):
        rp = desk_reduced(3, Branch.JC, 0.5)
        with pytest.raises(ValueError):
            dense_hamiltonians(rp, 4)

    def test_full_coupling_built_on_first_read_only(self, monkeypatch):
        calls = []
        real = spectra.displacement_matrix
        monkeypatch.setattr(spectra, "displacement_matrix", lambda *a: calls.append(a) or real(*a))
        ops = dense_hamiltonians(desk_reduced(1, Branch.JC, 0.7), 30)
        np.linalg.eigvalsh(ops.h_final_sideband)
        assert calls == []
        first = ops.h_final_full
        assert calls == [(30, 0.7)]
        assert ops.h_final_full is first
        assert len(calls) == 1

    @pytest.mark.parametrize("n_trunc", [20, 80])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("m, branch", [(0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)])
    def test_full_coupling_equals_eager_build(self, m, branch, eta, n_trunc):
        rp = desk_reduced(m, branch, eta, r_om=2.0)
        assert np.array_equal(dense_hamiltonians(rp, n_trunc).h_final_full, eager_full_hamiltonian(rp, n_trunc))

    def test_full_coupling_hermiticity_checked_on_read(self, monkeypatch):
        monkeypatch.setattr(spectra, "displacement_matrix", lambda n_trunc, eta: np.full((n_trunc + 1,) * 2, np.nan))
        ops = dense_hamiltonians(desk_reduced(0, Branch.CARRIER, 0.5), 12)
        with pytest.raises(RuntimeError, match="h_final_full failed the Hermiticity check"):
            ops.h_final_full

    def test_hermitian(self):
        rp = desk_reduced(1, Branch.AJC, 1.2)
        ops = dense_hamiltonians(rp, 30)
        for mat in (ops.h_initial, ops.h_final_full, ops.h_final_sideband):
            assert np.allclose(mat, mat.conj().T, atol=1e-12 * np.abs(mat).max())

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("branch", [Branch.JC, Branch.AJC])
    def test_block_sparsity_pattern_exact(self, branch, m):
        n_trunc = 24
        rp = desk_reduced(m, branch, 0.9)
        h = dense_hamiltonians(rp, n_trunc).h_final_sideband.copy()
        for n in range(n_trunc + 1):
            h[ket_index(n, "g"), ket_index(n, "g")] = 0.0
            h[ket_index(n, "e"), ket_index(n, "e")] = 0.0
        # JC couples |n,e> to |n+m,g>; AJC couples |n+m,e> to |n,g>.
        for n in range(n_trunc + 1 - m):
            if branch is Branch.JC:
                ket_e, ket_g = ket_index(n, "e"), ket_index(n + m, "g")
            else:
                ket_e, ket_g = ket_index(n + m, "e"), ket_index(n, "g")
            assert h[ket_e, ket_g] != 0.0
            h[ket_e, ket_g] = 0.0
            h[ket_g, ket_e] = 0.0
        assert np.abs(h).max() == 0.0


class TestSpectrumOracle:
    def test_interior_band_statement(self):
        # The analytic pairs alone cover the dense spectrum away from the
        # truncation boundary band (n > n_trunc - m - 1).
        m, n_trunc = 1, 50
        rp = desk_reduced(m, Branch.JC, 0.5)
        dense = dense_hamiltonians(rp, n_trunc)
        evals = np.sort(np.linalg.eigvalsh(dense.h_final_sideband))
        table = spectrum_table(rp, n_trunc)
        interior = np.sort(
            np.concatenate(
                [edge_eigenvalues(rp), table.mu[: n_trunc - m + 1], table.gamma[: n_trunc - m + 1]]
            )
        )
        # Every interior analytic value appears in the dense spectrum.
        for val in interior:
            assert np.min(np.abs(evals - val)) <= 1e-10 * max(1.0, abs(val))

    def test_carrier_branch_paths_coincide(self):
        rp = desk_reduced(0, Branch.CARRIER, 0.7)
        as_jc, as_ajc = replace(rp, branch=Branch.JC), replace(rp, branch=Branch.AJC)
        for n in (0, 5, 17):
            assert sideband_eigenvalues(n, as_jc) == sideband_eigenvalues(n, as_ajc)
