"""Bitwise pins of the sideband block code.

The reference functions below are copies of the earlier form of the code,
which decided the pairing, the bare energies and the AJC orientation
separately at each site.  The one-rule form in spectra and workstats must
give the same bits: values, probabilities, matrix elements and eigenvalues
compared by tobytes(), signed zeros included.
"""

import math

import numpy as np
import pytest

from ionquench.numerics import coupling_f, coupling_logabs_sequence, sqrt_shift
from ionquench.params import Branch
from ionquench.spectra import (
    analytic_dense_spectrum,
    dense_hamiltonians,
    ket_index,
    sideband_eigenvalues,
    sideband_eigenvectors,
    spectrum_table,
)
from ionquench.workstats import work_pmf_sideband
from conftest import desk_reduced

CASES = [
    (m, branch)
    for m in range(4)
    for branch in ((Branch.CARRIER,) if m == 0 else (Branch.JC, Branch.AJC))
]
# eta = 1 squares to the zero of L_1(x) = 1 - x: the carrier coupling vanishes at n = 1.
ETAS = [1e-4, 0.7, 1.0, 2.5]
R_OMS = [0.0, 3.0]
NBARS = [0.05, 1.0, 30.0]


def _reference_eigenvectors(n, rp):
    """(value, {ket: amplitude}) pairs of block n, branch by branch."""
    m = rp.m
    if rp.branch is Branch.AJC and m > 0:
        ket_e, ket_g = (n + m, "e"), (n, "g")
    else:
        ket_e, ket_g = (n, "e"), (n + m, "g")
    a = ket_e[0] + 0.5 * rp.r_w0
    b = ket_g[0] - 0.5 * rp.r_w0
    f_c = coupling_f(n, m, rp.eta).as_complex()
    if rp.branch is Branch.AJC and m > 0:
        f_c = f_c.conjugate()
    c = 0.5 * rp.r_om * f_c
    mu_val, gamma_val = sideband_eigenvalues(n, rp)
    if c == 0:
        lo, hi = ((ket_e, a), (ket_g, b)) if a <= b else ((ket_g, b), (ket_e, a))
        return [(lo[1], {lo[0]: 1.0 + 0.0j}), (hi[1], {hi[0]: 1.0 + 0.0j})]
    r_wl = a - b
    aw = abs(r_wl)
    excess = sqrt_shift(aw, 2.0 * abs(c), aw)
    if r_wl >= 0:
        d_mu, d_gamma = -0.5 * (2.0 * aw + excess), 0.5 * excess
    else:
        d_mu, d_gamma = -0.5 * excess, 0.5 * (2.0 * aw + excess)
    out = []
    for value, d in ((mu_val, d_mu), (gamma_val, d_gamma)):
        norm = math.hypot(abs(c), abs(d))
        out.append((value, {ket_e: c / norm, ket_g: complex(d / norm)}))
    return out


def _reference_block(n, level, rp):
    m = rp.m
    if rp.branch is Branch.AJC and m > 0:
        if level == "g":
            return n
        return n - m if n >= m else None
    if level == "e":
        return n
    return n - m if n >= m else None


def _reference_pmf(rp, n_trunc):
    """(values, probabilities, tail_warning) of the work distribution, event by event."""
    thermal_base = -math.expm1(-rp.b_nu)
    p_g = 1.0 / (1.0 + math.exp(-rp.b_w0))
    p_e = 1.0 - p_g
    events_w, events_p = [], []
    max_abs_e = 0.0

    def emit(prob, work, *energies):
        nonlocal max_abs_e
        if prob == 0.0:
            return
        events_w.append(work)
        events_p.append(prob)
        for e in energies:
            max_abs_e = max(max_abs_e, abs(e))

    for n in range(n_trunc + 1):
        p_th = thermal_base * math.exp(-rp.b_nu * n)
        e_g = n - 0.5 * rp.r_w0
        e_e = n + 0.5 * rp.r_w0
        for level, e_init, p_level in (("g", e_g, p_g), ("e", e_e, p_e)):
            prob0 = p_th * p_level
            block_n = _reference_block(n, level, rp)
            if block_n is None:
                emit(prob0, 0.0, e_init)
                continue
            for value, amps in _reference_eigenvectors(block_n, rp):
                emit(prob0 * abs(amps.get((n, level), 0.0)) ** 2, value - e_init, e_init, value)

    order = np.argsort(np.asarray(events_w), kind="stable")
    tol = 1e-9 * max_abs_e
    merged_w, merged_p = [], []
    for w, p in zip(np.asarray(events_w)[order], np.asarray(events_p)[order]):
        if merged_w and w - merged_w[-1] <= tol:
            merged_p[-1] += p
        else:
            merged_w.append(float(w))
            merged_p.append(float(p))
    tail = math.exp(-rp.b_nu * (n_trunc + 1))
    return np.asarray(merged_w), np.asarray(merged_p), tail > 1e-10


def _reference_h_sideband(rp, n_trunc):
    m = rp.m
    ns = np.arange(n_trunc + 1, dtype=float)
    diag = np.empty(2 * (n_trunc + 1))
    diag[0::2] = ns - 0.5 * rp.r_w0
    diag[1::2] = ns + 0.5 * rp.r_w0
    h_side = np.diag(diag).astype(complex)
    signs, log_mags = coupling_logabs_sequence(n_trunc - m, m, rp.eta)
    f_vals = (1j ** (m % 4)) * signs * np.exp(log_mags)
    ks = np.arange(n_trunc + 1 - m)
    if rp.branch is Branch.AJC and m > 0:
        rows, cols = ket_index(m, "e") + 2 * ks, ket_index(0, "g") + 2 * ks
        h_side[rows, cols] += 0.5 * rp.r_om * f_vals.conj()
        h_side[cols, rows] += 0.5 * rp.r_om * f_vals
    else:
        rows, cols = ket_index(0, "e") + 2 * ks, ket_index(m, "g") + 2 * ks
        h_side[rows, cols] += 0.5 * rp.r_om * f_vals
        h_side[cols, rows] += 0.5 * rp.r_om * f_vals.conj()
    return h_side


def _reference_dense_spectrum(rp, n_trunc):
    m = rp.m
    table = spectrum_table(rp, n_trunc)
    inside = slice(0, n_trunc - m + 1)
    if m == 0:
        edge = np.empty(0)
    elif rp.branch is Branch.AJC:
        edge = np.arange(m, dtype=float) + 0.5 * rp.r_w0
    else:
        edge = np.arange(m, dtype=float) - 0.5 * rp.r_w0
    vals = [edge, table.mu[inside], table.gamma[inside]]
    if m > 0:
        ns = np.arange(n_trunc - m + 1, n_trunc + 1, dtype=float)
        vals.append(ns - 0.5 * rp.r_w0 if rp.branch is Branch.AJC else ns + 0.5 * rp.r_w0)
    return np.sort(np.concatenate(vals))


def _bits(arr):
    return np.asarray(arr).tobytes()


@pytest.mark.parametrize("r_om", R_OMS)
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("m, branch", CASES)
class TestSameBitsAsBranchByBranchCode:
    # The thermal weights enter only the work distribution.
    @pytest.mark.parametrize("nbar", NBARS)
    def test_work_pmf(self, m, branch, eta, r_om, nbar):
        rp = desk_reduced(m, branch, eta, nbar=nbar, r_om=r_om)
        pmf = work_pmf_sideband(rp, 30)
        values, probs, tail_warning = _reference_pmf(rp, 30)
        assert _bits(pmf.values) == _bits(values)
        assert _bits(pmf.probabilities) == _bits(probs)
        assert pmf.tail_warning is tail_warning

    def test_eigenvectors(self, m, branch, eta, r_om):
        rp = desk_reduced(m, branch, eta, r_om=r_om)
        for n in range(12):
            got = [(pair.value, pair.amplitudes) for pair in sideband_eigenvectors(n, rp)]
            want = _reference_eigenvectors(n, rp)
            for (value, amps), (ref_value, ref_amps) in zip(got, want, strict=True):
                assert _bits(value) == _bits(ref_value)
                assert list(amps) == list(ref_amps)
                assert _bits(list(amps.values())) == _bits(list(ref_amps.values()))

    def test_h_final_sideband(self, m, branch, eta, r_om):
        rp = desk_reduced(m, branch, eta, r_om=r_om)
        got = dense_hamiltonians(rp, 24).h_final_sideband
        assert _bits(got) == _bits(_reference_h_sideband(rp, 24))

    def test_analytic_dense_spectrum(self, m, branch, eta, r_om):
        rp = desk_reduced(m, branch, eta, r_om=r_om)
        assert _bits(analytic_dense_spectrum(rp, 24)) == _bits(_reference_dense_spectrum(rp, 24))
