"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import csv
import math
import time

import mpmath as mp
import numpy as np
import pytest

from ionquench.numerics import log_sum_exp, sqrt_shift
from ionquench.params import Branch, reduce, reduced_from_ratios
from ionquench.spectra import analytic_dense_spectrum, dense_hamiltonians, sideband_eigenvectors
from ionquench.thermo import (
    divergence_predicate_reduced,
    ln_partition_final,
    low_temperature_limit,
    nonequilibrium_lag,
    phi_reduced,
)
from ionquench.workstats import moments_analytic, moments_numeric
from ionquench.cli import main as cli_main
from conftest import FIG1, branch_for, fig1_reduced


def record(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def load_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


@pytest.fixture(scope="module")
def fig_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("figures")
    t0 = time.monotonic()
    paths = {}
    for name in ("fig1", "fig2", "fig3", "fig6"):
        paths[name] = base / f"{name}.csv"
        assert cli_main(["lag", "--preset", name, "--out", str(paths[name])]) == 0
    paths["elapsed"] = time.monotonic() - t0
    return paths


def test_criterion_1_closed_form_moments():
    t0 = time.monotonic()
    cases = [
        (10.0, 1.0, 0.5, 0.38),
        (10.0, 2.0, 0.2, 0.38),
        (50.0, 1.0, 0.8, 0.38),
        (10.0, 1.0, 1.5, 1.0),
        (1000.0, 0.5, 0.4, 0.1),
    ]
    worst1 = worst2 = worst3 = 0.0
    for r_w0, r_om, eta, nbar in cases:
        rp = reduced_from_ratios(r_w0, r_om, eta, 0, Branch.CARRIER, nbar=nbar)
        analytic = moments_analytic(rp)
        ops = dense_hamiltonians(rp, 80)
        h_norm = float(np.linalg.norm(ops.h_final_full, 2))
        worst1 = max(worst1, abs(moments_numeric(ops, 1).value) / h_norm)
        worst2 = max(worst2, abs(moments_numeric(ops, 2).value - analytic.second) / analytic.second)
        worst3 = max(worst3, abs(moments_numeric(ops, 3).value - analytic.third) / analytic.third)
    elapsed = time.monotonic() - t0
    ok = worst1 <= 1e-10 and worst2 <= 1e-8 and worst3 <= 1e-6 and elapsed < 10.0
    record(
        "criterion-1 closed-form moments",
        ok,
        f"mean/|H| {worst1:.1e} (<=1e-10), second rel {worst2:.1e} (<=1e-8), "
        f"third rel {worst3:.1e} (<=1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_spectrum_oracle():
    t0 = time.monotonic()
    n_trunc = 60
    worst_val = worst_vec = 0.0
    for m in (0, 1, 2, 3):
        for preferred in (Branch.JC, Branch.AJC):
            branch = branch_for(m, preferred)
            for eta in (0.1, 0.5, 1.5):
                rp = reduced_from_ratios(10.0, 1.0, eta, m, branch, nbar=0.38)
                dense = dense_hamiltonians(rp, n_trunc)
                evals = np.linalg.eigvalsh(dense.h_final_sideband)
                pred = analytic_dense_spectrum(rp, n_trunc)
                worst_val = max(worst_val, float(np.max(np.abs(pred - evals) / np.maximum(np.abs(evals), 1.0))))
                h_norm = float(np.linalg.norm(dense.h_final_sideband, 2))
                for n in (0, 5, 20):
                    for pair in sideband_eigenvectors(n, rp):
                        vec = pair.as_dense(n_trunc)
                        resid = float(np.linalg.norm(dense.h_final_sideband @ vec - pair.value * vec))
                        worst_vec = max(worst_vec, resid / h_norm)
    elapsed = time.monotonic() - t0
    ok = worst_val <= 1e-10 and worst_vec <= 1e-10 and elapsed < 60.0
    record(
        "criterion-2 spectrum oracle",
        ok,
        f"eigenvalue rel dev {worst_val:.1e} (<=1e-10), eigenvector residual {worst_vec:.1e} (<=1e-10), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_3_partition_oracle():
    worst = 0.0
    for m in (0, 1, 2):
        for preferred in (Branch.JC, Branch.AJC):
            branch = branch_for(m, preferred)
            rp = reduced_from_ratios(10.0, 1.0, 0.8, m, branch, nbar=0.38)
            dense = dense_hamiltonians(rp, 70)
            evals = np.linalg.eigvalsh(dense.h_final_sideband)
            ref = log_sum_exp(-rp.b_nu * evals) - 0.5 * rp.b_w0
            got = ln_partition_final(rp).shifted_log
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-3))
    record("criterion-3 partition oracle", worst <= 1e-8, f"max rel dev {worst:.1e} (<=1e-8)")


def test_criterion_4_carrier_closed_form():
    rp = fig1_reduced(0, Branch.CARRIER, 0.0)
    lag = nonequilibrium_lag(rp).value
    closed = 0.5 * sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0)
    rel = abs(lag - closed) / closed
    plane_ratio = lag / 1.5e-7
    ok = rel <= 1e-10 and abs(lag - 2.4644829826440320e-07) <= 1e-10 * lag and 0.1 < plane_ratio < 10.0
    record(
        "criterion-4 carrier closed form",
        ok,
        f"lag {lag:.6e} vs closed form rel {rel:.1e} (<=1e-10), x{plane_ratio:.2f} of the 1.5e-7 plane",
    )


def test_criterion_5_limit_suite():
    worst_hot = 0.0
    for m in (0, 1, 2):
        for preferred in (Branch.JC, Branch.AJC):
            branch = branch_for(m, preferred)
            worst_hot = max(worst_hot, nonequilibrium_lag(fig1_reduced(m, branch, 0.5, nbar=1e6)).value)
    hot_ok = worst_hot <= 1e-6

    worst_large_eta = max(
        nonequilibrium_lag(fig1_reduced(m, branch_for(m, pref), 50.0)).value
        for m in (0, 1, 2)
        for pref in (Branch.JC, Branch.AJC)
    )
    large_eta_ok = worst_large_eta <= 1e-12

    worst_jc = max(nonequilibrium_lag(fig1_reduced(m, Branch.JC, 1e-6)).value for m in (1, 2))
    jc_ok = worst_jc <= 1e-8

    carrier_small = nonequilibrium_lag(fig1_reduced(0, Branch.CARRIER, 1e-6)).value
    carrier_ref = nonequilibrium_lag(fig1_reduced(0, Branch.CARRIER, 0.0)).value
    carrier_ok = abs(carrier_small - carrier_ref) <= 1e-6 * carrier_ref

    ok = hot_ok and large_eta_ok and jc_ok and carrier_ok
    record(
        "criterion-5 limit suite",
        ok,
        f"hot {worst_hot:.1e} (<=1e-6), eta=50 {worst_large_eta:.1e} (<=1e-12), "
        f"JC eta->0 {worst_jc:.1e} (<=1e-8), carrier eta->0 rel dev "
        f"{abs(carrier_small - carrier_ref) / carrier_ref:.1e} (<=1e-6)",
    )


def test_criterion_6_divergence_classification():
    left = dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=0.5e9)
    right = dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=1.0e9)

    def rp_at(block, m, branch, eta):
        # The zero-temperature classification does not depend on nbar.
        return reduce(dict(block, nbar=0.5), m, branch, eta)

    # Left panel: the first m = 1 block dips negative, all m = 2 blocks stay up.
    left_m1 = left["nu"] * phi_reduced(0, rp_at(left, 1, Branch.JC, 1.5)) <= 0
    left_m2 = all(left["nu"] * phi_reduced(n, rp_at(left, 2, Branch.JC, 1.5)) >= 0 for n in range(80))
    left_pred = (
        divergence_predicate_reduced(rp_at(left, 1, Branch.JC, 1.5)).diverges
        and not divergence_predicate_reduced(rp_at(left, 2, Branch.JC, 1.5)).diverges
    )

    # Right panel: both sidebands dip negative in their first block.
    right_m1 = right["nu"] * phi_reduced(0, rp_at(right, 1, Branch.JC, 1.0)) <= 0
    right_m2 = right["nu"] * phi_reduced(0, rp_at(right, 2, Branch.JC, 1.0)) <= 0
    right_pred = all(divergence_predicate_reduced(rp_at(right, m, Branch.JC, 1.0)).diverges for m in (1, 2))

    ajc_always = all(
        divergence_predicate_reduced(rp_at(block, m, Branch.AJC, eta)).diverges
        for m in (1, 2, 3)
        for block in (FIG1, left, right)
        for eta in (0.3, 1.0, 2.5)
    )

    fig1_limits = [low_temperature_limit(rp_at(FIG1, m, Branch.JC, 0.5)) for m in (1, 2)]
    fig1_finite = all(lim.finite and lim.zero_count == 0 and lim.limit_value == 0.0 for lim in fig1_limits)

    ok = left_m1 and left_m2 and left_pred and right_m1 and right_m2 and right_pred and ajc_always and fig1_finite
    record(
        "criterion-6 divergence classification",
        ok,
        f"left pattern {left_m1 and left_m2}, right pattern {right_m1 and right_m2}, "
        f"AJC always diverges {ajc_always}, shared-preset JC k=0 {fig1_finite}",
    )


def _curve(rows, branch: str, m: int, x_key: str):
    # The m = 0 carrier line belongs to both panels and is emitted twice;
    # keying by the abscissa collapses the duplicates.
    pts = {float(r[x_key]): float(r["lag"]) for r in rows if r["branch"] == branch and int(r["m"]) == m}
    xs = sorted(pts)
    return [pts[x] for x in xs], xs


def test_criterion_7_figure_shapes(fig_outputs):
    t0 = time.monotonic()

    # fig1: AJC m-ordering inverts as eta grows; JC ordering persists.
    rows1 = load_rows(fig_outputs["fig1"])
    lag1 = {(round(float(r["eta"]), 10), r["branch"], int(r["m"])): float(r["lag"]) for r in rows1}

    def l1(eta, branch, m):
        return lag1[(round(eta, 10), "carrier" if m == 0 else branch, m)]

    small, large = 0.2, 3.0
    ajc_small_ordered = l1(small, "ajc", 0) > l1(small, "ajc", 1) > l1(small, "ajc", 2)
    ajc_large_inverted = l1(large, "ajc", 2) > l1(large, "ajc", 1) > l1(large, "ajc", 0)
    etas = sorted({round(float(r["eta"]), 10) for r in rows1})
    jc_persists = all(
        l1(eta, "jc", 0) >= l1(eta, "jc", 1) >= l1(eta, "jc", 2) for eta in etas
    )
    fig1_ok = ajc_small_ordered and ajc_large_inverted and jc_persists and len(etas) >= 30

    # fig2: lag strictly increasing in the Rabi frequency for every curve.
    rows2 = load_rows(fig_outputs["fig2"])
    fig2_ok = True
    curves2 = {(r["branch"], int(r["m"])) for r in rows2}
    for branch, m in curves2:
        vals, omegas = _curve(rows2, branch, m, "omega_rabi")
        fig2_ok &= len(vals) >= 30 and all(b > a for a, b in zip(vals, vals[1:]))

    # fig3: AJC grows without saturation toward nbar -> 0; JC sidebands stay bounded.
    rows3 = load_rows(fig_outputs["fig3"])
    fig3_ok = True
    for branch, m in (("ajc", 1), ("ajc", 2), ("carrier", 0)):
        vals, nbars = _curve(rows3, branch, m, "nbar")
        fig3_ok &= len(vals) >= 30
        # Values at nbar = 1e-4, 1e-3, 1e-2 lie at indices 0, 7, 14 of the grid.
        inc_last = vals[0] - vals[7]
        inc_prev = vals[7] - vals[14]
        fig3_ok &= inc_last > 0 and inc_prev > 0 and 0.6 < inc_last / inc_prev < 1.7
    jc_max = max(v for m in (1, 2) for v in _curve(rows3, "jc", m, "nbar")[0])
    fig3_ok &= jc_max <= 1e-7  # own computation: peaks at ~1.7e-8

    # fig6: AJC develops an interior maximum whose position moves right with eta.
    rows6 = load_rows(fig_outputs["fig6"])
    lag6 = {(round(float(r["eta"]), 10), r["branch"], int(r["m"])): float(r["lag"]) for r in rows6}

    def curve6(eta, branch):
        return [lag6[(round(eta, 10), "carrier" if m == 0 else branch, m)] for m in range(30)]

    argmax_25 = int(np.argmax(curve6(2.5, "ajc")))
    argmax_35 = int(np.argmax(curve6(3.5, "ajc")))
    jc_monotone = all(
        b <= a * (1 + 1e-9) + 1e-18
        for eta in (2.5, 3.5)
        for a, b in zip(curve6(eta, "jc"), curve6(eta, "jc")[1:])
    )
    fig6_ok = 0 < argmax_25 < 29 and argmax_35 > argmax_25 and jc_monotone

    elapsed = fig_outputs["elapsed"] + (time.monotonic() - t0)
    ok = fig1_ok and fig2_ok and fig3_ok and fig6_ok and elapsed < 300.0
    record(
        "criterion-7 figure shapes",
        ok,
        f"fig1 inversion {fig1_ok}, fig2 monotone {fig2_ok}, fig3 divergence split {fig3_ok}, "
        f"fig6 argmax {argmax_25}->{argmax_35} {fig6_ok}, {elapsed:.0f}s (<300s)",
    )


def test_criterion_8_nonnegativity_sweep():
    # Cross product of the fig1 eta grid and the fig3 occupation grid over all
    # branch/sideband combinations: 71 * 36 * 6 = 15336 points.
    etas = np.linspace(0.0, 3.5, 71)
    nbars = np.geomspace(1e-4, 10.0, 36)
    r_w0 = FIG1["omega0"] / FIG1["nu"]
    r_om = FIG1["omega_rabi"] / FIG1["nu"]
    worst = math.inf
    count = 0
    for eta in etas:
        for nbar in nbars:
            b_nu = math.log1p(1.0 / float(nbar))
            for m in (0, 1, 2):
                for preferred in (Branch.JC, Branch.AJC):
                    branch = branch_for(m, preferred)
                    rp = reduced_from_ratios(r_w0, r_om, float(eta), m, branch, b_nu=b_nu)
                    worst = min(worst, nonequilibrium_lag(rp, n_pinned=40).value)
                    count += 1
    ok = worst >= -1e-12 and count >= 10_000
    record("criterion-8 nonnegativity sweep", ok, f"min lag {worst:.2e} (>=-1e-12) over {count} points")


def test_criterion_9_sqrt_shift_regression():
    w = 822.0 * math.pi * 1e12
    u = math.pi * 1e6
    naive = math.sqrt(w * w + u * u) - w
    safe = sqrt_shift(w, u, w)
    # 60-digit reference: 1.910944436490141871837146e-3.
    ref_ok = abs(safe - 1.9109444364901419e-3) <= 1e-12 * safe
    # The naive path returns exactly zero, so the two differ by far more than
    # a factor 1e6 in relative terms.
    differs = naive == 0.0 and safe > 0.0
    record(
        "criterion-9 cancellation regression",
        ref_ok and differs,
        f"safe {safe:.6e} vs naive {naive:.1e}",
    )


def _mp_fig1_lag(rp, couplings):
    """Independent direct sum of log(Z_final / Z_initial) in 60-digit arithmetic.

    couplings holds f_n^m for n = 0..len-1 from mp.laguerre, and the sum
    stops there.  b_wl is formed in mp from the float b_w0 and b_nu, so the
    reference carries no rounding of the float b_wl; the decoupled edge term
    is added in closed form.  At nbar = 0.38 the thermal weight beyond 200
    terms is below 1e-110.
    """
    with mp.workdps(60):
        b_nu, b_w0, b_om = mp.mpf(rp.b_nu), mp.mpf(rp.b_w0), mp.mpf(rp.b_om)
        sign, m = rp.branch.sideband_sign, rp.m
        b_wl = b_w0 + sign * m * b_nu
        nbar_1 = 1 / -mp.expm1(-b_nu)
        z_f = nbar_1 * -mp.expm1(-m * b_nu) * mp.exp(-sign * b_w0 / 2)  # JC: |n<m, g>, AJC: |n<m, e>
        for n, f in enumerate(couplings):
            z_f += 2 * mp.exp(-b_nu * (n + mp.mpf(m) / 2)) * mp.cosh(mp.sqrt(b_wl**2 + (b_om * f) ** 2) / 2)
        z_i = 2 * nbar_1 * mp.cosh(b_w0 / 2)
        return mp.log(z_f / z_i)


def _mp_couplings(m, eta, n_terms=200):
    with mp.workdps(60):
        eta, x = mp.mpf(eta), mp.mpf(eta) ** 2
        return [
            eta**m * mp.sqrt(mp.factorial(n) / mp.factorial(n + m)) * mp.exp(-x / 2) * mp.laguerre(n, m, x)
            for n in range(n_terms)
        ]


def test_criterion_10_headline_claim_at_experimental_ratios(fig_outputs):
    # The paper's headline: on the sidebands the lag is not monotonic in eta.
    # It vanishes at eta = 0, peaks at an interior eta and then falls, here on
    # the fig1 block (omega0/nu ~ 5e11) against an independent mpmath sum.
    t0 = time.monotonic()
    rows = load_rows(fig_outputs["fig1"])
    shape_ok = True
    peaks = {}
    for branch in ("jc", "ajc"):
        for m, peak_eta in ((1, 0.85), (2, 1.25)):
            vals, etas = _curve(rows, branch, m, "eta")
            top = int(np.argmax(vals))
            peaks[branch, m] = etas[top]
            shape_ok &= vals[0] == 0.0 and etas[0] == 0.0 and etas[-1] == 3.5
            shape_ok &= abs(etas[top] - peak_eta) < 1e-9
            shape_ok &= all(b > a for a, b in zip(vals[: top + 1], vals[1 : top + 1]))
            shape_ok &= all(b < a for a, b in zip(vals[top:], vals[top + 1 :]))

    pinned = {(r["branch"], int(r["m"]), float(r["eta"])): float(r["lag"]) for r in rows}
    worst = 0.0
    for m in (1, 2):
        for eta in (0.3, 0.85, 1.25, 2.0, 3.5):
            grid_eta = next(e for (_, mm, e) in pinned if mm == m and abs(e - eta) < 1e-9)
            couplings = _mp_couplings(m, grid_eta)
            for branch in (Branch.JC, Branch.AJC):
                rp = fig1_reduced(m, branch, grid_eta)
                ref = _mp_fig1_lag(rp, couplings)
                for got in (pinned[branch.value, m, grid_eta], nonequilibrium_lag(rp).value):
                    worst = max(worst, float(abs(got - ref) / ref))
    elapsed = time.monotonic() - t0
    ok = shape_ok and worst <= 1e-12
    record(
        "criterion-10 headline claim at experimental ratios",
        ok,
        f"rise-peak-fall {shape_ok} (peaks {peaks}), lag vs 60-digit direct sum max rel dev {worst:.1e} "
        f"(<=1e-12), {elapsed:.1f}s",
    )


def test_criterion_10_oracle_at_higher_sidebands_and_occupation():
    # The adaptive lag against the same 60-digit direct sum, at m = 3..5 and
    # at nbar = 5 as well as 0.38.  The reference keeps n_terms terms, with
    # (nbar/(nbar+1))^n_terms <= 1e-30 so that its own truncation stays far
    # below the tolerance: 200 terms at nbar = 0.38, 500 at nbar = 5.
    t0 = time.monotonic()
    worst = 0.0
    for m in (3, 4, 5):
        for eta in (0.3, 1.25, 3.5):
            couplings = _mp_couplings(m, eta, n_terms=500)
            for nbar, n_terms in ((0.38, 200), (5.0, 500)):
                assert (nbar / (nbar + 1)) ** n_terms <= 1e-30
                for branch in (Branch.JC, Branch.AJC):
                    rp = fig1_reduced(m, branch, eta, nbar=nbar)
                    ref = _mp_fig1_lag(rp, couplings[:n_terms])
                    worst = max(worst, float(abs(nonequilibrium_lag(rp).value - ref) / ref))
    elapsed = time.monotonic() - t0
    record(
        "criterion-10 oracle at m <= 5 and nbar = 5",
        worst <= 1e-12,
        f"adaptive lag vs 60-digit direct sum max rel dev {worst:.1e} (<=1e-12) over 36 points, {elapsed:.1f}s",
    )
