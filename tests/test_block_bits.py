"""Bitwise pins of the sideband block code.

The reference functions below are copies of the earlier form of the code,
which decided the pairing, the bare energies and the AJC orientation
separately at each site.  The one-rule form in spectra and workstats must
give the same bits: values, probabilities, matrix elements and eigenvalues
compared by tobytes(), signed zeros included.

The excess sums of thermo are summed in blocks of rows that mix sideband
indices; each row of such a block must have the bits of its one-row
nonequilibrium_lag.
"""

import math

import numpy as np
import pytest

from ionquench import thermo
from ionquench.numerics import coupling_f, coupling_logabs_sequence, sqrt_shift
from ionquench.params import Branch, reduce
from ionquench.presets import figure_presets
from ionquench.spectra import (
    analytic_dense_spectrum,
    dense_hamiltonians,
    ket_index,
    sideband_eigenvalues,
    sideband_eigenvectors,
    spectrum_table,
)
from ionquench.thermo import TruncationPolicy, lag_columns, nonequilibrium_lag
from ionquench.workstats import work_pmf_sideband
from conftest import branch_for, desk_reduced, fig1_reduced

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


# -- excess blocks that mix sideband indices ----------------------------------

MIXED_M_POLICIES = [
    TruncationPolicy(n_pinned=40),
    TruncationPolicy(n_pinned=5000),
    TruncationPolicy(),
    TruncationPolicy(tol=1e-6),
    TruncationPolicy(n_cap=700, error_on_nonconverged=False),  # some rows stop on the cap
]


def _mixed_m_rows():
    """Rows over m = 0..3 and both branches, in an order that interleaves m and temperature:
    at the fig1 block, where each 16-row block holds rows that stop after 1 to 11 chunks,
    and at desk scale, where the edge factor of the excess is kept."""
    rows = []
    for eta in (0.5, 1.5):
        for branch in (Branch.JC, Branch.AJC):
            for nbar in (0.05, 0.38, 30.0, 1e3):
                rows += [fig1_reduced(m, branch_for(m, branch), eta, nbar=nbar) for m in (3, 0, 2, 1)]
    for m in range(4):
        rows += [desk_reduced(m, branch_for(m, branch), 0.8, nbar=3.0) for branch in (Branch.JC, Branch.AJC)]
    return rows


def _lag_bits(result):
    """(lag, tail_bound_log, n_used, converged, divergence_predicted, stop_reason) of a row, the floats as hex."""
    report = result.truncation
    hexes = result.value.hex(), report.tail_bound_log.hex()
    return *hexes, report.n_used, report.converged, result.divergence_predicted, report.stop_reason


def _rows_bits(rps, policy):
    """_lag_bits of each row of lag_columns(rps, policy)."""
    return [
        (value.hex(), tail.hex(), n_used, converged, diverges, reason)
        for value, n_used, tail, converged, reason, diverges in zip(*lag_columns(rps, policy))
    ]


def _block_ms(monkeypatch):
    """The sideband indices of each excess block summed after the call, in order."""
    blocks = []
    real = thermo._excess_block

    def excess_block(cols, policy):
        blocks.append(cols.m.tolist())
        return real(cols, policy)

    monkeypatch.setattr(thermo, "_excess_block", excess_block)
    return blocks


@pytest.mark.parametrize("policy", MIXED_M_POLICIES, ids=["pinned40", "pinned5000", "adaptive", "tol1e-6", "cap700"])
class TestMixedSidebandBlocks:
    def test_rows_keep_their_one_row_bits(self, policy, monkeypatch):
        rps = _mixed_m_rows()
        one_row = [_lag_bits(nonequilibrium_lag(rp, policy)) for rp in rps]
        blocks = _block_ms(monkeypatch)
        assert _rows_bits(rps, policy) == one_row
        # Blocks in input order, each over all four sideband indices: as many rows as fit
        # 8192 terms on their first call, so all 72 rows pinned at 40 terms, else 16 rows.
        assert [len(block) for block in blocks] == ([72] if policy.n_pinned == 40 else [16, 16, 16, 16, 8])
        assert all(set(block) == {0, 1, 2, 3} for block in blocks)

    def test_fig6_sideband_sweep_keeps_its_one_row_bits(self, policy, monkeypatch):
        # fig6 sweeps m = 0..29 on both branches: a 16-row block holds 8 consecutive m of each branch,
        # and the 60 rows pinned at 40 terms fit one block.
        for spec in figure_presets()["fig6"].specs:
            rps = [reduce(point, point["m"], point["branch"], point["eta"]) for point in spec.points()]
            assert max(rp.m for rp in rps) == 29
            one_row = [_lag_bits(nonequilibrium_lag(rp, policy)) for rp in rps]
            blocks = _block_ms(monkeypatch)
            assert _rows_bits(rps, policy) == one_row
            assert len(blocks) == (1 if policy.n_pinned == 40 else 4) and all(len(set(block)) > 1 for block in blocks)


def test_pinned_stop_reason_is_the_rows_own():
    # 16 fig1-block rows over m = 0..3: alone each asks 16 chunks (8192 >= 5000 terms) in one
    # call, in the block one chunk per call.  The settle test runs at every chunk edge either way,
    # so a row that settles reads "settled" alone too.
    policy = TruncationPolicy(n_pinned=5000)
    rps = _mixed_m_rows()[:16]
    alone = [_lag_bits(nonequilibrium_lag(rp, policy)) for rp in rps]
    assert _rows_bits(rps, policy) == alone
    assert any(bits[-1] == "settled" for bits in alone)


@pytest.mark.parametrize("preset", ["fig1", "fig3"])
def test_preset_rows_keep_every_field_of_the_one_row_path(preset):
    for spec in figure_presets()[preset].specs:
        policy = TruncationPolicy(n_pinned=spec.n_pinned)
        rps = [reduce(point, point["m"], point["branch"], point.get("eta")) for point in spec.points()]
        one_row = [_lag_bits(nonequilibrium_lag(rp, policy)) for rp in rps]
        assert _rows_bits(rps, policy) == one_row
