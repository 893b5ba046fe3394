import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ionquench.numerics import coupling_f, coupling_logabs_sequence, log_sum_exp, sqrt_excess, sqrt_shift
from ionquench.params import Branch, reduce, reduced_from_ratios
from ionquench.presets import desk_scale_point, figure_presets
from ionquench.spectra import dense_hamiltonians
from ionquench import thermo
from ionquench.cli import main
from ionquench.sweep import SweepSpec, evaluate_point, run_specs
from ionquench.thermo import (
    TruncationError,
    TruncationPolicy,
    divergence_predicate_reduced,
    ln_partition_final,
    ln_partition_initial,
    low_temperature_limit,
    lag_columns,
    nonequilibrium_lag,
    phi_reduced,
)
from conftest import FIG1, branch_for, desk_reduced, fig1_reduced

FIG4_LEFT = dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=0.5e9)
FIG4_RIGHT = dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=1.0e9)


def _lag_rows(rps, policy=None):
    """The rows of lag_columns(rps, policy), each a LagColumns that holds one row's fields."""
    return [thermo.LagColumns._make(row) for row in zip(*lag_columns(rps, policy))]


def classify_rp(block, m, branch, eta, nbar=0.5):
    """Reduced parameters for the zero-temperature classification; nbar does not enter it."""
    return reduce(dict(block, nbar=nbar), m, branch, eta)


class TestPartitionInitial:
    def test_degenerate_levels_high_occupation(self):
        # b_w0 = 0 with nbar = 1: Z = 4 and the shift vanishes.
        rp = reduced_from_ratios(0.0, 0.0, 0.0, 0, Branch.CARRIER, nbar=1.0)
        part = ln_partition_initial(rp)
        assert part.shifted_log == pytest.approx(math.log(4.0), rel=1e-14)

    def test_fig1_shifted_value(self):
        # The electronic excited weight underflows; only log(nbar + 1) remains.
        rp = fig1_reduced(0, Branch.CARRIER, 0.0)
        assert ln_partition_initial(rp).shifted_log == pytest.approx(math.log(1.38), rel=1e-13)

    def test_high_temperature_form(self):
        rp = reduced_from_ratios(2.0, 0.0, 0.0, 0, Branch.CARRIER, nbar=1e9)
        got = ln_partition_initial(rp).shifted_log
        expected = math.log(2.0 * (rp.nbar + 1.0) * math.cosh(rp.b_w0 / 2)) - rp.b_w0 / 2
        assert got == pytest.approx(expected, rel=1e-12)


class TestPartitionFinal:
    def test_carrier_zero_eta_closed_form(self):
        rp = fig1_reduced(0, Branch.CARRIER, 0.0)
        got = ln_partition_final(rp).shifted_log
        # All couplings equal 1, the motional sum is geometric; the shifted
        # log-cosh needs the cancellation-safe root difference.
        x = 0.5 * math.hypot(rp.b_w0, rp.b_om)
        expected = rp.ln_nbar_plus_1 + 0.5 * sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0) + math.log1p(math.exp(-2 * x))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_no_quench_equals_initial(self):
        for m, preferred in ((0, Branch.CARRIER), (1, Branch.JC), (3, Branch.AJC)):
            branch = branch_for(m, preferred)
            rp = desk_reduced(m, branch, 0.9, r_om=0.0)
            zi = ln_partition_initial(rp).shifted_log
            zf = ln_partition_final(rp).shifted_log
            assert zf == pytest.approx(zi, abs=1e-12)

    def test_large_eta_collapses_to_initial(self):
        for m, preferred in ((0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)):
            branch = branch_for(m, preferred)
            rp = fig1_reduced(m, branch, 50.0)
            zi = ln_partition_initial(rp).shifted_log
            zf = ln_partition_final(rp).shifted_log
            assert zf == pytest.approx(zi, rel=1e-12)

    def test_dense_oracle_desk_scale(self):
        for m in (0, 1, 2):
            for preferred in (Branch.JC, Branch.AJC):
                branch = branch_for(m, preferred)
                rp = desk_reduced(m, branch, 0.8)
                dense = dense_hamiltonians(rp, 70)
                evals = np.linalg.eigvalsh(dense.h_final_sideband)
                ref = log_sum_exp(-rp.b_nu * evals) - 0.5 * rp.b_w0
                got = ln_partition_final(rp).shifted_log
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_pinned_term_count_respected(self):
        rp = fig1_reduced(1, Branch.AJC, 0.5)
        part = ln_partition_final(rp, policy=TruncationPolicy(n_pinned=40))
        assert part.truncation.n_used == 40
        assert part.truncation.converged

    def test_converged_flag_implies_tail_bound(self):
        # Whenever the report claims convergence, the recorded tail bound is
        # actually below the policy tolerance.
        for rp in (
            fig1_reduced(1, Branch.AJC, 0.5),
            fig1_reduced(2, Branch.JC, 2.0, nbar=1e6),
            desk_reduced(0, Branch.CARRIER, 0.8),
        ):
            part = ln_partition_final(rp)
            assert part.truncation.converged
            assert part.truncation.tail_bound_log <= math.log(1e-12)

    def test_nonconvergent_adaptive_raises(self):
        rp = reduced_from_ratios(10.0, 1e4, 0.5, 0, Branch.CARRIER, nbar=1e8)
        with pytest.raises(TruncationError) as err:
            ln_partition_final(rp, policy=TruncationPolicy(n_cap=1000))
        assert not err.value.report.converged
        # The policy can downgrade the error to a flagged report.
        part = ln_partition_final(rp, policy=TruncationPolicy(n_cap=1000, error_on_nonconverged=False))
        assert not part.truncation.converged


class TestTruncationPolicy:
    def test_pinned_count_above_cap_rejected(self):
        with pytest.raises(ValueError, match="pinned term count 200001"):
            TruncationPolicy(n_pinned=TruncationPolicy().n_cap + 1)
        with pytest.raises(ValueError, match="pinned term count"):
            TruncationPolicy(n_pinned=50, n_cap=40)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_tolerances_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            TruncationPolicy(tol=value)


class TestLag:
    def test_zero_rabi_is_exactly_zero(self):
        rp = desk_reduced(1, Branch.JC, 0.7, r_om=0.0)
        assert nonequilibrium_lag(rp).value == 0.0

    def test_carrier_closed_form_fig1(self):
        rp = fig1_reduced(0, Branch.CARRIER, 0.0)
        got = nonequilibrium_lag(rp).value
        closed = 0.5 * sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0)
        assert got == pytest.approx(closed, rel=1e-10)
        # 60-digit reference value; same order as the displayed 1.5e-7 plane.
        assert got == pytest.approx(2.4644829826440320e-07, rel=1e-12)

    def test_high_temperature_reversible(self):
        for m, preferred in ((0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)):
            branch = branch_for(m, preferred)
            rp = fig1_reduced(m, branch, 0.5, nbar=1e6)
            assert nonequilibrium_lag(rp).value <= 1e-6

    @pytest.mark.parametrize("ratio", [1e-14, 1e-17, 1e-20])
    def test_extreme_temperature_carrier(self, ratio):
        # b_w0 ~ ratio: below ~1e-16, e^(-2a) rounds to 1 in every excess term
        # and in the tail bound.  For tiny arguments the lag
        # log(cosh(X)/cosh(b_w0/2)) is b_om^2/8 to relative order b_om^2.
        rp = desk_reduced(0, Branch.CARRIER, 0.0, nbar=1.0, r_w0=ratio, r_om=ratio)
        result = nonequilibrium_lag(rp)
        assert result.truncation.converged
        assert result.value == pytest.approx(rp.b_om**2 / 8, rel=1e-9)

    def test_jc_small_eta_reversible(self):
        for m in (1, 2):
            rp = fig1_reduced(m, Branch.JC, 1e-6)
            assert nonequilibrium_lag(rp).value <= 1e-8

    def test_nonnegative_on_random_grid(self):
        rng = np.random.default_rng(7)
        policy = TruncationPolicy(n_pinned=48)
        for _ in range(60):
            m = int(rng.integers(0, 4))
            branch = branch_for(m, Branch.JC if rng.integers(0, 2) else Branch.AJC)
            rp = fig1_reduced(m, branch, float(rng.uniform(0, 3.5)), nbar=float(rng.uniform(0.01, 4.0)))
            assert nonequilibrium_lag(rp, policy=policy).value >= -1e-12

    def test_monotone_in_rabi(self):
        base = fig1_reduced(0, Branch.CARRIER, 0.5)
        for m, preferred in ((0, Branch.CARRIER), (1, Branch.JC), (1, Branch.AJC), (2, Branch.AJC)):
            branch = branch_for(m, preferred)
            prev = -1.0
            for r_om in np.linspace(0.0, 2500.0, 11):
                rp = reduced_from_ratios(base.r_w0, float(r_om), 0.5, m, branch, b_nu=base.b_nu)
                val = nonequilibrium_lag(rp, policy=TruncationPolicy(n_pinned=40)).value
                assert val >= prev - 1e-18
                prev = val

    def test_ajc_exceeds_jc_in_preset_regime(self):
        for m in (1, 2):
            for eta in (0.3, 0.8, 1.5, 2.8):
                jc = nonequilibrium_lag(fig1_reduced(m, Branch.JC, eta), policy=TruncationPolicy(n_pinned=40))
                ajc = nonequilibrium_lag(fig1_reduced(m, Branch.AJC, eta), policy=TruncationPolicy(n_pinned=40))
                assert ajc.value > jc.value

    def test_ajc_cold_growth_rate(self):
        # On a beta-doubling ladder the lag grows without saturating and the
        # slope per unit b_nu approaches |Phi_min| / (2 nu).
        m, eta = 1, 0.5
        base = fig1_reduced(m, Branch.AJC, eta)
        phi_min = min(phi_reduced(n, base) for n in range(40))
        assert phi_min < 0
        b_nus = [base.b_nu * 2**k for k in range(6, 10)]
        lags = []
        for b in b_nus:
            rp = reduced_from_ratios(base.r_w0, base.r_om, eta, m, Branch.AJC, b_nu=b)
            lags.append(nonequilibrium_lag(rp).value)
        assert all(b > a for a, b in zip(lags, lags[1:]))
        slope = (lags[-1] - lags[-2]) / (b_nus[-1] - b_nus[-2])
        assert slope == pytest.approx(abs(phi_min) / 2.0, rel=0.05)

    def test_divergence_flag_attached(self):
        res = nonequilibrium_lag(fig1_reduced(1, Branch.AJC, 0.5), policy=TruncationPolicy(n_pinned=40))
        assert res.divergence_predicted is True
        res = nonequilibrium_lag(fig1_reduced(1, Branch.JC, 0.5), policy=TruncationPolicy(n_pinned=40))
        assert res.divergence_predicted is False


class TestPhi:
    def test_zero_rabi_values(self):
        block = dict(mass=1e-25, nu=10.0, omega0=1e4, omega_rabi=0.0)
        nu = block["nu"]
        assert nu * phi_reduced(2, classify_rp(block, 1, Branch.JC, 0.5)) == pytest.approx(2 * 10.0 * 3, rel=1e-14)
        assert nu * phi_reduced(2, classify_rp(block, 1, Branch.AJC, 0.5)) == pytest.approx(2 * 10.0 * 2, rel=1e-14)
        assert nu * phi_reduced(0, classify_rp(block, 1, Branch.AJC, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_fig4_left_sign_pattern(self):
        # Recomputed: the first coupled block of m = 1 is pushed negative,
        # every m = 2 block stays nonnegative.
        assert phi_reduced(0, classify_rp(FIG4_LEFT, 1, Branch.JC, 1.5)) < 0
        rp = classify_rp(FIG4_LEFT, 2, Branch.JC, 1.5)
        for n in range(60):
            assert phi_reduced(n, rp) >= 0

    def test_fig4_right_sign_pattern(self):
        for m in (1, 2):
            assert phi_reduced(0, classify_rp(FIG4_RIGHT, m, Branch.JC, 1.0)) < 0

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_bad_level_index_rejected(self, n):
        # -1 used to raise IndexError and 2.5 TypeError.
        with pytest.raises(ValueError, match="nonnegative integer"):
            phi_reduced(n, classify_rp(FIG4_RIGHT, 1, Branch.JC, 1.0))

    def test_sign_reliable_at_experimental_scale(self):
        # The value is ~1e-12 of omega0 yet must come out with a stable sign.
        cfg = dict(FIG1)
        value = cfg["nu"] * phi_reduced(0, classify_rp(cfg, 1, Branch.AJC, 0.5))
        assert value < 0
        naive = cfg["nu"] * (2 * 0 + 1) + cfg["omega0"] - math.hypot(
            cfg["omega0"] + cfg["nu"], cfg["omega_rabi"] * coupling_f(0, 1, 0.5).magnitude
        )
        # The naive expression cannot even resolve the magnitude.
        assert abs(value) < 1e-2 * cfg["omega0"] * 1e-9


class TestDivergencePredicate:
    def test_ajc_always_diverges_with_live_coupling(self):
        for m in (1, 2, 5):
            for cfg in (FIG1, FIG4_RIGHT):
                assert divergence_predicate_reduced(classify_rp(cfg, m, Branch.AJC, 0.5)).diverges

    def test_carrier_always_diverges(self):
        assert divergence_predicate_reduced(classify_rp(FIG1, 0, Branch.CARRIER, 0.0)).diverges

    def test_dead_coupling_does_not_diverge(self):
        silent = {**FIG1, "omega_rabi": 0.0}
        assert not divergence_predicate_reduced(classify_rp(silent, 1, Branch.AJC, 0.5)).diverges
        # AJC sideband with eta = 0 has no coupling at all.
        assert not divergence_predicate_reduced(classify_rp(FIG1, 2, Branch.AJC, 0.0)).diverges

    def test_fig1_jc_finite(self):
        for m in (1, 2):
            report = divergence_predicate_reduced(classify_rp(FIG1, m, Branch.JC, 0.5))
            assert not report.diverges
            assert report.witnesses == []

    def test_fig4_witnesses(self):
        assert divergence_predicate_reduced(classify_rp(FIG4_LEFT, 1, Branch.JC, 1.5)).witnesses == [0]
        assert divergence_predicate_reduced(classify_rp(FIG4_LEFT, 2, Branch.JC, 1.5)).witnesses == []
        assert divergence_predicate_reduced(classify_rp(FIG4_RIGHT, 1, Branch.JC, 1.0)).witnesses == [0]
        assert divergence_predicate_reduced(classify_rp(FIG4_RIGHT, 2, Branch.JC, 1.0)).witnesses == [0]

    def test_witnesses_independent_of_nbar(self):
        # Only the frequency ratios enter the classification; the temperature
        # of rp, here across nine decades of nbar, must not move it.
        reports = [
            divergence_predicate_reduced(classify_rp(FIG4_RIGHT, 2, Branch.JC, 1.0, nbar=nbar))
            for nbar in (1e-4, 0.5, 1e5)
        ]
        assert all(report.diverges and report.witnesses == [0] for report in reports)

    def test_sweep_rows_carry_the_predicate(self):
        # Rows take divergence_predicted from a memo keyed by the frequency
        # ratios, eta and m; every row of every preset must match a fresh scan
        # (fig4 has rows that diverge and rows that do not).
        policy = TruncationPolicy(error_on_nonconverged=False)
        flags = []
        for preset in figure_presets().values():
            for spec in preset.specs:
                for point, row in zip(spec.points(), run_specs([spec], policy)):
                    rp = reduce(point, point["m"], point["branch"], point.get("eta"))
                    assert row.divergence_predicted == divergence_predicate_reduced(rp).diverges, (preset.name, point)
                    flags.append(row.divergence_predicted)
        assert len(flags) == 1440 and True in flags and False in flags


@st.composite
def _jc_rows_about_the_skip_edge(draw):
    """JC rows with r_om on both sides of the edge sqrt(2 min(m, r_w0) |r_wl|) of _jc_phi_positive."""
    m = draw(st.integers(1, 30))
    r_w0 = 10.0 ** draw(st.floats(math.log10(0.5), 12.0))
    edge = math.sqrt(2.0 * min(m, r_w0) * abs(r_w0 - m))
    r_om = max(edge, 1e-3) * 10.0 ** draw(st.floats(-1.0, 1.0))
    eta = 10.0 ** draw(st.floats(-2.0, math.log10(5.0)))
    return reduced_from_ratios(r_w0, r_om, eta, m, Branch.JC, nbar=0.5)


class TestJcScanSkip:
    """A JC row whose |f| <= 1 bound rules out every witness is not scanned."""

    @settings(deadline=None, max_examples=300)
    @given(_jc_rows_about_the_skip_edge())
    def test_skip_agrees_with_the_full_scan(self, rp):
        negative, zeros = thermo._phi_scan(rp)
        report = divergence_predicate_reduced(rp)
        assert (report.diverges, report.witnesses) == (bool(negative), negative)
        # The limit that the full scan gives, skipped or not.
        if negative:
            full = thermo.LowTemperatureLimit(False, None, len(zeros), negative)
        else:
            full = thermo.LowTemperatureLimit(True, math.log1p(len(zeros)), len(zeros), [])
        assert low_temperature_limit(rp) == full
        if thermo._jc_phi_positive(rp):
            assert negative == [] and zeros == []
            # The proof's margin: Phi_n stays above half its ladder.
            ladder, excess = thermo._phi_parts(rp, thermo.default_scan_bound(rp.m))
            assert np.all(ladder - excess >= 0.5 * ladder * (1.0 - 1e-12))

    def test_fig1_block_is_not_scanned(self, monkeypatch):
        monkeypatch.setattr(thermo, "_phi_parts", lambda rp, n_max: pytest.fail("scanned"))
        rps = [classify_rp(FIG1, m, Branch.JC, eta) for m in (1, 2, 29) for eta in (0.5, 3.5)]
        assert all(thermo._jc_phi_positive(rp) for rp in rps)
        assert not any(row.divergence_predicted for row in _lag_rows(rps, _pinned(40)))
        assert all(divergence_predicate_reduced(rp) == thermo.DivergenceReport(False, []) for rp in rps)

    def test_fig4_blocks_keep_their_scan(self):
        rps = [classify_rp(FIG4_LEFT, m, Branch.JC, 1.5) for m in (1, 2)]
        rps += [classify_rp(FIG4_RIGHT, m, Branch.JC, 1.0) for m in (1, 2)]
        assert not any(thermo._jc_phi_positive(rp) for rp in rps)
        assert [divergence_predicate_reduced(rp).witnesses for rp in rps] == [[0], [], [0], [0]]

    def test_low_temperature_limit_skips_the_scan_too(self, monkeypatch):
        monkeypatch.setattr(thermo, "_phi_parts", lambda rp, n_max: pytest.fail("scanned"))
        rp = classify_rp(FIG1, 1, Branch.JC, 0.5)
        assert thermo._jc_phi_positive(rp)
        assert low_temperature_limit(rp) == thermo.LowTemperatureLimit(True, 0.0, 0, [])


class TestLowTemperatureLimit:
    def test_all_positive_gives_zero(self):
        limit = low_temperature_limit(classify_rp(FIG1, 1, Branch.JC, 0.5))
        assert limit.finite and limit.limit_value == 0.0 and limit.zero_count == 0

    def test_constructed_zero_crossing_gives_ln2(self):
        # Tune the Rabi frequency so Phi_1^1 sits exactly on its zero.
        nu, omega0, eta, n, m = 10.0, 100.0, 0.8, 1, 2
        f = coupling_f(n, m, eta).magnitude
        target = nu * (2 * n + m) + omega0
        omega_l = omega0 - m * nu
        omega_rabi = math.sqrt(target**2 - omega_l**2) / f
        block = dict(mass=1e-25, nu=nu, omega0=omega0, omega_rabi=omega_rabi)
        limit = low_temperature_limit(classify_rp(block, m, Branch.JC, eta))
        assert limit.finite
        assert limit.zero_count == 1
        assert limit.limit_value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_ajc_never_finite(self):
        assert not low_temperature_limit(classify_rp(FIG1, 1, Branch.AJC, 0.5)).finite
        assert not low_temperature_limit(classify_rp(FIG1, 0, Branch.CARRIER, 0.5)).finite

    def test_jc_negative_phi_not_finite(self):
        assert not low_temperature_limit(classify_rp(FIG4_RIGHT, 1, Branch.JC, 1.0)).finite

    def test_dead_coupling_is_trivially_finite(self):
        silent = {**FIG1, "omega_rabi": 0.0}
        limit = low_temperature_limit(classify_rp(silent, 1, Branch.AJC, 0.5))
        assert limit.finite and limit.limit_value == 0.0

    @pytest.mark.parametrize(
        "block, eta", [(FIG1, 0.5), (FIG4_LEFT, 1.5), (FIG4_RIGHT, 1.0)], ids=["fig1", "fig4_left", "fig4_right"]
    )
    @pytest.mark.parametrize(
        "m, branch", [(1, Branch.JC), (2, Branch.JC), (1, Branch.AJC), (2, Branch.AJC), (0, Branch.CARRIER)]
    )
    def test_witnesses_match_divergence_predicate(self, block, eta, m, branch):
        # Both classifiers follow one rule; at the fig4 right block AJC has witnesses [0, 1].
        rp = classify_rp(block, m, branch, eta)
        report = divergence_predicate_reduced(rp)
        limit = low_temperature_limit(rp)
        assert limit.negative_witnesses == report.witnesses
        assert limit.finite is not report.diverges


class TestNuToZeroLimit:
    def test_generic_lag_approaches_limit_as_nu_shrinks(self):
        # Shrink nu tenfold twice at fixed beta and eta = 0; the generic lag
        # stays within 1% of the carrier closed form, its nu -> 0 limit (here:
        # exactly on it).
        beta = math.log1p(1 / 0.38) / (1.054571817e-34 * FIG1["nu"])
        rp = fig1_reduced(0, Branch.CARRIER, 0.0)
        limit_val = 0.5 * sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0)
        for factor in (1.0, 0.1, 0.01):
            rp = reduce(dict(FIG1, nu=FIG1["nu"] * factor, beta=beta), 0, Branch.CARRIER, 0.0)
            lag = nonequilibrium_lag(rp).value
            assert lag == pytest.approx(limit_val, rel=1e-2)


def _growth(start, stop):
    """(n_max, resume.n) of the recurrence calls that grow a key from n = start to stop, _TERM_BUDGET terms at most each."""
    calls = []
    while start < stop:
        calls.append((min(stop, start + thermo._TERM_BUDGET), start))
        start = calls[-1][0]
    return calls


class TestCouplingCache:
    """The coupling cache resumes the Laguerre recurrence instead of rerunning it."""

    def test_adaptive_sweep_runs_each_step_once(self, monkeypatch):
        calls = []
        real = thermo.coupling_logabs_sequence

        def counting(n_max, m, eta, *, resume=None):
            calls.append(((m, eta), n_max, resume.n if resume is not None else -1))
            return real(n_max, m, eta, resume=resume)

        monkeypatch.setattr(thermo, "coupling_logabs_sequence", counting)
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        fixed = {key: FIG1[key] for key in ("mass", "nu", "omega0", "omega_rabi")}
        spec = SweepSpec(
            axis="nbar", grid=(30.0, 300.0, 3000.0), fixed={**fixed, "eta": 0.8},
            branches=(Branch.JC, Branch.AJC), m_values=(1, 3),
        )  # fmt: skip
        rows = run_specs([spec], TruncationPolicy())
        assert max(row.n_used for row in rows) > 2 * 512  # the cache had to grow
        for key in {(1, 0.8), (3, 0.8)}:
            mine = [(n_max, start) for k, n_max, start in calls if k == key]
            # The 12 rows make one block, and an adaptive row's stop is known when its block
            # starts: each key grows once, to the furthest stop among its rows.
            assert mine == _growth(-1, max(row.n_used for row in rows if row.m == key[0]) - 1)

    def test_adaptive_blocks_grow_each_key_once_per_block(self, monkeypatch):
        calls = []
        real = thermo.coupling_logabs_sequence

        def counting(n_max, m, eta, *, resume=None):
            calls.append(((m, eta), n_max, resume.n if resume is not None else -1))
            return real(n_max, m, eta, resume=resume)

        monkeypatch.setattr(thermo, "coupling_logabs_sequence", counting)
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        # 24 rows of one key in two 16-row blocks, the longer stops in the second.
        fixed = {key: FIG1[key] for key in ("mass", "nu", "omega0", "omega_rabi")}
        nbars = tuple(np.geomspace(1e2, 1e4, 12).tolist())
        spec = SweepSpec(
            axis="nbar", grid=nbars, fixed={**fixed, "eta": 0.8}, branches=(Branch.JC, Branch.AJC), m_values=(2,)
        )  # fmt: skip
        rows = run_specs([spec], TruncationPolicy())
        firsts, seconds = rows[:16], rows[16:]
        assert max(row.n_used for row in seconds) > max(row.n_used for row in firsts)
        # Each block grows the key once, resuming where the last call stopped: no step runs twice.
        first_reach, reach = max(row.n_used for row in firsts) - 1, max(row.n_used for row in rows) - 1
        growths = _growth(-1, first_reach) + _growth(first_reach, reach)
        assert [(n_max, start) for _, n_max, start in calls] == growths

    def test_full_cache_keeps_the_keys_of_a_running_block(self, monkeypatch):
        # 16 adaptive rows of 16 keys make one block.  With 505 keys cached its keys pass the
        # 512-key cap: room is made once, before the block grows them, so each key still grows
        # once, as from an empty cache.  A clear per new key used to drop keys the block had
        # just grown, which then regrew piece by piece: 158 recurrence calls, not 32.
        rps = [fig1_reduced(1, Branch.JC, eta, nbar=2e3) for eta in np.linspace(0.30, 0.45, 16).tolist()]
        calls = []
        real = thermo.coupling_logabs_sequence

        def counting(n_max, m, eta, *, resume):
            calls.append(((m, eta), n_max, resume.n))
            return real(n_max, m, eta, resume=resume)

        monkeypatch.setattr(thermo, "coupling_logabs_sequence", counting)
        runs = []
        for cached in (0, 505):
            monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
            thermo._coupling_upto({(2, 0.5 + k / 1024): 0 for k in range(cached)})
            calls.clear()
            runs.append(([row.value for row in _lag_rows(rps)], list(calls)))
        assert runs[0] == runs[1] and len(runs[1][1]) == 32
        assert set(thermo._COUPLING_CACHE) == {(rp.m, rp.eta) for rp in rps}

    def test_pinned_row_needs_one_recurrence_call(self, monkeypatch):
        # The first fill covers the pinned terms; this JC row needs no divergence scan.
        calls = []
        real = thermo.coupling_logabs_sequence
        monkeypatch.setattr(thermo, "coupling_logabs_sequence", lambda *a, **k: calls.append(a) or real(*a, **k))
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        rp = fig1_reduced(2, Branch.JC, 0.6)
        nonequilibrium_lag(rp, policy=TruncationPolicy(n_pinned=40))
        assert [a[0] for a in calls] == [39]

    def test_cached_values_equal_one_shot(self, monkeypatch):
        # The cache keeps |f_n^m|, exponentiated once per grown segment: the bits of a one-shot run's.
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        for m, eta in ((2, 1.1), (0, 1.0), (3, 2.0), (1, 0.0)):  # L_1(1) = 0, L_1^3(4) = 0, f = 0 at eta = 0
            for n_max in (39, 700, 1300, 5000, 20000, 4000):
                ((key, abs_f),) = thermo._coupling_upto({(m, eta): n_max}).items()
                assert key == (m, eta) and abs_f.size > n_max
                signs, log_mags = thermo.coupling_logabs_sequence(abs_f.size - 1, m, eta)
                assert abs_f.tobytes() == np.where(signs == 0, 0.0, np.exp(log_mags)).tobytes()
                assert ((abs_f == 0.0) == (signs == 0)).all()

    @pytest.mark.parametrize(
        "m, eta, n_max, case",
        [(0, 1.0, 9000, "zero"), (2, 1.1, 3 * 8192 + 5, "plain"), (0, 50.0, 3000, "rescale"), (3, 2.0, 8193, "zero")],
    )
    def test_sign_free_growth_is_the_exp_of_the_one_shot_logs(self, monkeypatch, m, eta, n_max, case):
        # The cache is grown from resumed calls, which build no signs, a first fill then extensions
        # across the _TERM_BUDGET segment edges: its |f| is np.exp of a one-shot call's log
        # magnitudes, bit for bit, at an exact zero (L_1(1) = 0, L_1^3(4) = 0) and past a rescale.
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        for reach in (39, n_max // 2, n_max):
            abs_f = thermo._coupling_upto({(m, eta): reach})[(m, eta)]
        assert abs_f.size == n_max + 1
        assert abs_f.tobytes() == np.exp(coupling_logabs_sequence(n_max, m, eta)[1]).tobytes()
        offset = thermo._COUPLING_CACHE[(m, eta)][1].offset
        assert {"zero": abs_f[1] == 0.0, "rescale": offset > 0.0, "plain": abs_f.all()}[case]


def _never(n):
    """A tail bound that never certifies a stop."""
    return False


def _stops(policy, bounds):
    """thermo._stops of rows whose bounds are given as one predicate per row on a single edge."""
    reached = lambda edges: np.array([[bound(n) for bound in bounds] for n in edges.ravel().tolist()])  # noqa: E731
    return thermo._stops(policy, reached, len(bounds))


def _log_sums(term_logs, stops, tails=None):
    """(log of the sum, terms used, stop reason) of each row of thermo._log_sums, with stops from _stops."""
    ends, reasons = stops
    sums, settled = thermo._log_sums(term_logs, ends, tails)
    return [
        (log_sum, n_used, "settled" if settles else reason)
        for log_sum, n_used, reason, settles in zip(sums.tolist(), ends.tolist(), reasons, settled.tolist())
    ]


def _one_chunk_at_a_time(term_logs, policy, bound_reached=None):
    """The chunked log-sum loop as it was before terms came in blocks: the reference."""
    running = -math.inf
    n_done = 0
    target = policy.n_pinned if policy.n_pinned is not None else policy.n_cap
    while n_done < target:
        n_hi = min(n_done + thermo._CHUNK, target)
        xs = term_logs(n_done, n_hi)
        if (xs > -math.inf).any():
            hi = float(np.max(xs))
            running = float(np.logaddexp(running, hi + math.log(float(np.sum(np.exp(xs - hi))))))
        n_done = n_hi
        if policy.n_pinned is None and bound_reached is not None and bound_reached(n_done):
            return running, n_done, "bound"
    return running, n_done, "pinned" if policy.n_pinned is not None else "cap"


def _draw_terms(draw, size):
    """size term logs: a level, a slope and noise, with runs of -inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.01, 0.2]))
    terms = draw(st.floats(-50.0, 50.0)) - slope * np.arange(size) + draw(st.floats(0.0, 30.0)) * rng.standard_normal(size)
    for _ in range(draw(st.integers(0, 4))):  # runs of -inf, some longer than a chunk
        start = draw(st.integers(0, size - 1))
        terms[start : start + draw(st.integers(1, 3 * thermo._CHUNK))] = -np.inf
    return terms


def _draw_size(draw, max_chunks):
    chunk = thermo._CHUNK
    return max(1, draw(st.sampled_from(range(max_chunks + 1))) * chunk + draw(st.sampled_from([0, 1, 63, 300, chunk - 1])))


@st.composite
def _term_sums(draw):
    """(terms, policy, bound_reached edges or None) for a chunked log sum."""
    chunk = thermo._CHUNK
    size = _draw_size(draw, 40)
    terms = _draw_terms(draw, size)
    target = max(1, round(size * draw(st.sampled_from([1.0, 0.9, 0.5, 0.1, 0.01]))))
    if draw(st.booleans()):
        return terms, TruncationPolicy(n_pinned=target, n_cap=size), None
    fires = None
    if draw(st.booleans()):
        edges = list(range(chunk, target, chunk)) + [target]
        fires = set(draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3)))
    return terms, TruncationPolicy(n_cap=target), fires


@st.composite
def _term_blocks(draw):
    """(2 to 20 rows of terms, policy, per-row bound edges or None) for one multi-row log sum."""
    chunk = thermo._CHUNK
    size = _draw_size(draw, 20)
    rows = [_draw_terms(draw, size) for _ in range(draw(st.integers(2, 20)))]
    target = max(1, round(size * draw(st.sampled_from([1.0, 0.9, 0.5, 0.1, 0.01]))))
    if draw(st.booleans()):
        return rows, TruncationPolicy(n_pinned=target, n_cap=size), None
    edges = list(range(chunk, target, chunk)) + [target]
    return rows, TruncationPolicy(n_cap=target), [set(draw(st.lists(st.sampled_from(edges), max_size=3))) for _ in rows]


class TestBlockedLogSum:
    """Terms come in blocks of chunks; every decision is still made per chunk."""

    @settings(deadline=None, max_examples=200)
    @given(_term_sums())
    def test_bitwise_equal_to_one_chunk_at_a_time(self, case):
        terms, policy, fires = case
        bound = None if fires is None else fires.__contains__
        asked = []

        def term_logs(lo, hi):
            asked.append((lo, hi))
            return terms[lo:hi].copy()

        stops = _stops(policy, [bound or _never])
        (got,) = _log_sums(lambda live, lo, hi: term_logs(lo, hi)[None, :], stops)
        ref = _one_chunk_at_a_time(lambda lo, hi: terms[lo:hi].copy(), policy, bound)
        assert (got[0].hex(), got[1:]) == (ref[0].hex(), ref[1:])
        # Blocks tile [0, end) in order, at most _WIDE_BUDGET terms each (no row
        # is tested for settling), and never run past a pinned, capped or bound stop.
        assert [lo for lo, _ in asked] == [0] + [hi for _, hi in asked[:-1]]
        assert all(hi - lo <= thermo._WIDE_BUDGET for lo, hi in asked)
        assert asked[-1][1] == got[1]

    @settings(deadline=None, max_examples=100)
    @given(_term_blocks())
    def test_rows_of_a_block_bitwise_equal_to_one_chunk_at_a_time(self, case):
        rows, policy, fires = case
        bounds = None if fires is None else [row_fires.__contains__ for row_fires in fires]
        calls = []

        def term_logs(live, lo, hi):
            calls.append((list(live), lo, hi))
            return np.stack([rows[row][lo:hi] for row in live])

        got = _log_sums(term_logs, _stops(policy, bounds or [_never] * len(rows)))
        for row, (terms, (log_sum, n_used, stop_reason)) in enumerate(zip(rows, got)):
            ref = _one_chunk_at_a_time(lambda lo, hi: terms[lo:hi].copy(), policy, None if fires is None else bounds[row])
            assert (log_sum.hex(), n_used, stop_reason) == (ref[0].hex(), *ref[1:]), row
            # A row is asked for until it stops, and never past a pinned, cap or bound stop.
            assert [row in live for live, _, _ in calls] == [lo < n_used for _, lo, _ in calls]
            assert max(hi for live, _, hi in calls if row in live) == n_used
        # Calls tile [0, end) in order, each within _WIDE_BUDGET terms, or one chunk a live row.
        assert [lo for _, lo, _ in calls] == [0] + [hi for _, _, hi in calls[:-1]]
        assert all(len(live) * (hi - lo) <= max(thermo._WIDE_BUDGET, len(live) * thermo._CHUNK) for live, lo, hi in calls)

    @pytest.mark.parametrize("policy", [TruncationPolicy(n_pinned=3000), TruncationPolicy(n_cap=3000)])
    def test_nan_terms_fold_as_one_chunk_at_a_time(self, policy):
        # A chunk's max is nan when it holds a nan: such a chunk is folded iff it
        # also holds a term above -inf, exactly as before.
        chunk = thermo._CHUNK
        rows = [np.linspace(-5.0, -60.0, 3000) for _ in range(4)]
        rows[0][chunk + 7] = np.nan  # nan among finite terms: the running sum turns nan
        rows[1][chunk : 2 * chunk] = np.nan  # an all-nan chunk is skipped
        rows[2][:chunk] = -np.inf
        rows[2][3] = np.nan  # nan and -inf only: skipped too
        rows[3][2 * chunk - 1] = np.nan  # a nan last term
        with np.errstate(invalid="ignore"):
            stops = _stops(policy, [_never] * len(rows))
            got = _log_sums(lambda live, lo, hi: np.stack([rows[row][lo:hi] for row in live]), stops)
            refs = [_one_chunk_at_a_time(lambda lo, hi: terms[lo:hi].copy(), policy) for terms in rows]
        for (log_sum, n_used, stop_reason), ref in zip(got, refs):
            assert (log_sum.hex(), n_used, stop_reason) == (ref[0].hex(), *ref[1:])
        assert math.isnan(got[0][0]) and not math.isnan(got[1][0]) and not math.isnan(got[2][0])

    @pytest.mark.parametrize(
        "bound, stop",
        [(_never, (100 * thermo._CHUNK + 300, "cap")), (lambda n: n >= 97 * thermo._CHUNK, (97 * thermo._CHUNK, "bound"))],
    )
    @pytest.mark.parametrize(
        "tails, budget",
        [(None, thermo._WIDE_BUDGET), (lambda n: np.array([math.inf]), thermo._TERM_BUDGET)],  # +inf never settles
    )
    def test_one_row_takes_the_budget_of_its_settle_test_per_call(self, bound, stop, tails, budget):
        asked = []
        terms = np.zeros(100 * thermo._CHUNK + 300)
        stops = _stops(TruncationPolicy(n_cap=terms.size), [bound])
        assert (stops[0].tolist(), stops[1]) == ([stop[0]], [stop[1]])
        term_logs = lambda live, lo, hi: asked.append((lo, hi)) or terms[None, lo:hi]  # noqa: E731
        ((_, n_used, stop_reason),) = _log_sums(term_logs, stops, tails)
        # Every call but the last asks for the whole budget: _TERM_BUDGET when rows are tested
        # for settling, _WIDE_BUDGET when not.  The calls tile [0, stop) and end exactly at it.
        assert len(asked) > 1 and all(hi - lo == budget for lo, hi in asked[:-1])
        assert [lo for lo, _ in asked] == [0] + [hi for _, hi in asked[:-1]]
        assert asked[-1][1] == n_used == stop[0] and stop_reason == stop[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_row_wise_sum_equals_one_dimensional_sum(self, seed):
        # Full chunks, and the partial last chunks a pinned block reduces (40, 50, 392, 464 at the presets).
        rng = np.random.default_rng(seed)
        for width in (thermo._CHUNK, 1, 7, 40, 50, 129, 392, 464, 511):
            for k in (1, 2, 5, 16, 204):
                rows = np.exp(rng.uniform(-700.0, 0.0, size=(k, width)) * rng.uniform(0.0, 1.0, size=(k, 1)))
                sums = rows.sum(axis=1)
                for row, total in zip(rows, sums):
                    assert np.sum(np.ascontiguousarray(row)).tobytes() == total.tobytes()

    # exp, log and log1p, and the other elementwise functions the term formulas use.
    @pytest.mark.parametrize("ufunc", [np.exp, np.log, np.log1p, np.expm1, np.sinh, lambda v: np.hypot(3.7, v)])
    def test_elementwise_bits_do_not_depend_on_position(self, ufunc):
        rng = np.random.default_rng(11)
        values = np.concatenate((rng.uniform(-745.0, 709.0, 300), rng.uniform(-1.0, 1.0, 300), rng.uniform(0.0, 1e-8, 300)))
        values = np.abs(values) if ufunc is np.log else values
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whole = ufunc(values)
            for offset in range(1, 18):  # shifts an element across vector lanes and tails
                padded = ufunc(np.concatenate((np.full(offset, 0.5), values)))
                assert padded[offset:].tobytes() == whole.tobytes()
                assert ufunc(values[offset:]).tobytes() == whole[offset:].tobytes()
            assert ufunc(values[:896].reshape(28, 32)).tobytes() == whole[:896].tobytes()
            assert all(ufunc(values[i : i + 1]).tobytes() == whole[i : i + 1].tobytes() for i in range(0, values.size, 7))


def _lnsinh_masked(x):
    """numerics.lnsinh as it was before its all-small fast path."""
    small = x < 20.0
    out = np.empty_like(x)
    with np.errstate(divide="ignore"):
        out[small] = np.log(np.sinh(x[small]))
    out[~small] = x[~small] - math.log(2.0) + np.log1p(-np.exp(-2.0 * x[~small]))
    return out


def _one_row(rp, policy):
    """(lag, n_used, tail_bound_log, converged, divergence_predicted, stop_reason) of one row,
    computed as the one-row path did before rows were summed in blocks: the reference."""
    diverges = divergence_predicate_reduced(rp).diverges
    if rp.b_om == 0.0 or (rp.m > 0 and rp.eta == 0.0):
        return 0.0, 0, -math.inf, True, diverges, "exact"
    delta = rp.branch.sideband_sign * rp.m * rp.b_nu  # b_wl - b_w0, exact
    abs_bwl, d_aw = (rp.b_wl, delta) if rp.b_wl >= 0 else (-rp.b_wl, -2.0 * rp.b_w0 - delta)
    coupling = [np.zeros(0), np.zeros(0)]  # signs and log |f_n^m| for n = 0..size-1

    def term_logs(n_lo, n_hi):
        if coupling[0].size < n_hi:  # a one-shot recurrence, not thermo's cache; its length doubles
            coupling[:] = coupling_logabs_sequence(max(n_hi - 1, 2 * coupling[0].size), rp.m, rp.eta)
        signs, log_mags = coupling
        u = np.where(signs[n_lo:n_hi] == 0, 0.0, rp.b_om * np.exp(log_mags[n_lo:n_hi]))
        b_quarter = 0.25 * sqrt_excess(abs_bwl, u)
        a_shifted = 0.5 * d_aw + b_quarter
        ns = np.arange(n_lo, n_hi, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (
                math.log(2.0)
                - rp.b_nu * (ns + 0.5 * rp.m)
                + a_shifted
                + thermo._log1m_exp_neg2(a_shifted + 0.5 * rp.b_w0)
                + _lnsinh_masked(b_quarter)
            )
        return np.where(b_quarter == 0.0, -np.inf, out)

    b_quarter = 0.25 * float(sqrt_excess(abs_bwl, rp.b_om))
    if b_quarter == 0.0:
        tail = lambda n_from: -math.inf  # noqa: E731
    else:
        a_shifted = 0.5 * d_aw + b_quarter
        log_edge = thermo._log1m_exp_neg2(a_shifted + 0.5 * rp.b_w0)
        log_sinh = float(_lnsinh_masked(np.array([b_quarter]))[0])
        tail = lambda n_from: (  # noqa: E731
            math.log(2.0) - rp.b_nu * (n_from + 0.5 * rp.m) + a_shifted + log_edge + log_sinh
        )
    bound_reached = lambda n: tail(n) - math.log1p(math.exp(-rp.b_w0)) <= math.log(policy.tol)  # noqa: E731
    log_sum, n_done, stop_reason = _one_chunk_at_a_time(term_logs, policy, bound_reached)
    ln_zi = rp.ln_nbar_plus_1 + math.log1p(math.exp(-rp.b_w0))
    lag = float(np.logaddexp(0.0, log_sum - ln_zi))
    tail_bound_log = tail(n_done) + rp.ln_nbar_plus_1 - (ln_zi + lag)
    converged = tail_bound_log <= math.log(policy.tol) or bound_reached(n_done)
    return lag, n_done, tail_bound_log, converged, diverges, stop_reason


def _ref_lag_report(rp, policy):
    """(lag, report) of _one_row, the one-chunk-at-a-time reference."""
    lag, n_used, tail_bound_log, converged, _, stop_reason = _one_row(rp, policy)
    return lag, thermo.TruncationReport(n_used, tail_bound_log, converged, stop_reason)


def _pinned(n_pinned):
    return TruncationPolicy(n_pinned=n_pinned, error_on_nonconverged=False)


_ETAS = (0.0, 0.05, 0.3, 0.5, 0.7, 0.85, 1.0, 1.25, 2.0, 2.7, 3.5, 6.0)


@st.composite
def _pinned_spec_groups(draw):
    """Pinned sweep specs whose rows mix eta (with 0), m, branch and temperature.

    With all 12 etas and both branches a sideband index has more live rows
    than one block holds; with 2 to 8 rows a block asks for several chunks
    per row in one call.
    """
    block = dict(draw(st.sampled_from([FIG1, FIG4_LEFT, FIG4_RIGHT])))
    block["omega_rabi"] = draw(st.sampled_from([block["omega_rabi"], block["omega_rabi"], 0.0]))
    if draw(st.booleans()):
        block["nbar"] = 10.0 ** draw(st.floats(-4.0, 5.0))
    else:
        block["beta"] = draw(st.sampled_from([2.0, 1e20, 1e30]))  # 2 /J: e^(-2a) rounds to 1
    etas = draw(st.sets(st.sampled_from(_ETAS), min_size=1, max_size=len(_ETAS))) if draw(st.booleans()) else _ETAS
    kind = draw(st.sampled_from(["carrier", "one branch", "both branches"]))
    if kind == "carrier":
        branches, ms = (Branch.CARRIER,), (0,)
    else:
        both = (Branch.JC, Branch.AJC)
        branches = both if kind == "both branches" else (draw(st.sampled_from(both)),)
        ms = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=2, unique=True)))
    n_pinned = draw(st.sampled_from([1, 40, 511, 512, 513, 1500, 5000]))
    return SweepSpec(
        axis="eta", grid=tuple(sorted(etas)), fixed=block, branches=branches, m_values=ms, n_pinned=n_pinned
    )


class TestBatchedPinnedRows:
    """A pinned spec's rows are summed in blocks; each row keeps the bits of the one-row path."""

    @settings(deadline=None, max_examples=60)
    @given(_pinned_spec_groups())
    def test_bitwise_equal_to_one_row_at_a_time(self, spec):
        rows = run_specs([spec], TruncationPolicy(error_on_nonconverged=False))
        for point, row in zip(spec.points(), rows):
            rp = reduce(point, point["m"], point["branch"], point["eta"])
            lag, n_used, tail_bound_log, converged, diverges, _ = _one_row(rp, _pinned(spec.n_pinned))
            got = (row.lag.hex(), row.n_used, row.tail_bound_log.hex(), row.converged, row.divergence_predicted)
            assert got == (lag.hex(), n_used, tail_bound_log.hex(), converged, diverges), point

    def test_one_point_path_pins_through_its_policy(self):
        # The pin reaches a point only through the policy: points carry no copy of it.
        spec = figure_presets()["fig4"].specs[0]
        points = list(spec.points())
        assert spec.n_pinned == 50 and not any("n_pinned" in point for point in points)
        rows = run_specs([spec])
        assert [repr(evaluate_point(point, TruncationPolicy(n_pinned=50))) for point in points] == list(map(repr, rows))

    def test_groups_span_several_blocks(self):
        # 11 live etas x 2 branches = 22 rows per sideband index (eta = 0 is
        # dead): a block of 16 rows, one chunk each per call, then a block of
        # 6 rows with two chunks each per call and a partial last chunk.
        spec = SweepSpec(
            axis="eta", grid=_ETAS, fixed=dict(FIG1, nbar=0.38),
            branches=(Branch.JC, Branch.AJC), m_values=(1, 2), n_pinned=1500,
        )  # fmt: skip
        rows = run_specs([spec], TruncationPolicy(error_on_nonconverged=False))
        assert len(rows) == 48
        for point, row in zip(spec.points(), rows):
            rp = reduce(point, point["m"], point["branch"], point["eta"])
            lag, n_used, tail_bound_log, converged, diverges, _ = _one_row(rp, _pinned(1500))
            assert (row.lag.hex(), row.n_used, row.tail_bound_log.hex()) == (lag.hex(), n_used, tail_bound_log.hex())
            assert (row.converged, row.divergence_predicted) == (converged, diverges)

    def test_extreme_temperature_takes_the_expm1_branch(self, monkeypatch):
        # beta = 2 /J: a_full is below 1e-16, so e^(-2a) rounds to 1 in every term.
        seen = []
        real = thermo._log1m_exp_neg2
        monkeypatch.setattr(
            thermo, "_log1m_exp_neg2", lambda a: seen.append(np.all(np.exp(-2.0 * np.asarray(a)) == 1.0)) or real(a)
        )
        spec = SweepSpec(
            axis="eta", grid=(0.3, 1.0), fixed=dict(FIG1, beta=2.0),
            branches=(Branch.JC, Branch.AJC), m_values=(0, 1), n_pinned=40,
        )  # fmt: skip
        rows = run_specs([spec], TruncationPolicy(error_on_nonconverged=False))
        assert seen and all(seen)
        for point, row in zip(spec.points(), rows):
            rp = reduce(point, point["m"], point["branch"], point["eta"])
            assert row.lag.hex() == _one_row(rp, _pinned(40))[0].hex()


def _fig3_rows():
    """(policy, rows) of each fig3 spec: AJC pinned at 2000 terms, JC at 5000, nbar 1e-4 to 10."""
    for spec in figure_presets()["fig3"].specs:
        yield _pinned(spec.n_pinned), [reduce(point, point["m"], point["branch"], point["eta"]) for point in spec.points()]


def _report_bits(lag, report):
    return lag.hex(), report.n_used, report.tail_bound_log.hex(), report.converged


@st.composite
def _fig3_like_blocks(draw):
    """(pinned policy, 1 to 20 rows of one m and branch) at the fig3 block and pins.

    nbar runs from fig3's 1e-4 up to 1e3, where rows settle late or not at all.
    """
    n_pinned, branch = draw(st.sampled_from([(5000, Branch.JC), (2000, Branch.AJC)]))
    m = draw(st.integers(0, 2))
    eta = draw(st.sampled_from([0.5, 0.5, 0.3, 1.5]))
    top = draw(st.sampled_from([1.0, 3.0]))
    nbars = draw(st.lists(st.floats(-4.0, top).map(lambda x: 10.0**x), min_size=1, max_size=20))
    return _pinned(n_pinned), [fig1_reduced(m, branch_for(m, branch), eta, nbar=nbar) for nbar in nbars]


class TestSettledPinnedRows:
    """A pinned row leaves its block once its remaining terms cannot change a bit of its sum."""

    def test_fig3_settles_with_the_bits_of_the_full_sum(self, monkeypatch):
        asked = []
        real = thermo._excess_logs
        monkeypatch.setattr(
            thermo, "_excess_logs", lambda rows, lo, hi: asked.append(len(rows.keys) * (hi - lo)) or real(rows, lo, hi)
        )
        for policy, rps in _fig3_rows():
            asked.clear()
            results = _lag_rows(rps, policy)
            reports = [row for row in results if row.stop_reason != "exact"]
            assert sum(asked) < len(reports) * policy.n_pinned
            assert "settled" in {report.stop_reason for report in reports}
            assert all(report.n_used == policy.n_pinned for report in reports)
            for rp, row in zip(rps, results):
                assert _report_bits(row.value, row) == _report_bits(*_ref_lag_report(rp, policy)), rp

    @settings(deadline=None, max_examples=30)
    @given(_fig3_like_blocks())
    def test_blocks_bitwise_equal_to_one_chunk_at_a_time(self, case):
        policy, rps = case
        for rp, row in zip(rps, _lag_rows(rps, policy)):
            assert _report_bits(row.value, row) == _report_bits(*_ref_lag_report(rp, policy)), rp

    def test_settled_row_reports_its_pin(self):
        # One row takes 16 chunks per call, so it can settle at 8192 of its 10000 terms.
        report = nonequilibrium_lag(fig1_reduced(1, Branch.JC, 0.5, nbar=0.1), _pinned(10000)).truncation
        assert (report.stop_reason, report.n_used, report.converged) == ("settled", 10000, True)

    def test_running_of_minus_inf_or_zero_never_settles(self):
        assert not thermo._settled(-math.inf, -math.inf)
        assert not thermo._settled(0.0, -1e300)
        assert not thermo._settled(math.nan, -1e300)
        assert thermo._settled(1.0, -40.0) and not thermo._settled(1.0, -30.0)
        # Rows whose first chunk sums to e^-inf, e^0 and e^1, then only terms the tail calls negligible.
        chunk = thermo._CHUNK
        rows = [np.full(3 * chunk, -np.inf) for _ in range(16)]
        rows[1][0] = 0.0
        rows[2][0] = 1.0
        for terms in rows:
            terms[chunk:] = -1e3
        policy = _pinned(3 * chunk)
        sums = _log_sums(
            lambda live, lo, hi: np.stack([rows[row][lo:hi] for row in live]),
            _stops(policy, [_never] * len(rows)), tails=lambda n: np.full(len(rows), -500.0),
        )  # fmt: skip
        assert [stop for _, _, stop in sums[:3]] == ["pinned", "pinned", "settled"]
        assert sums[2] == (1.0, 3 * chunk, "settled")

    def test_adaptive_policy_never_reads_the_tails(self, monkeypatch):
        # An excess block hands _log_sums its tails only under a pin, so no adaptive row settles.
        handed = []
        real = thermo._log_sums
        monkeypatch.setattr(
            thermo, "_log_sums", lambda term_logs, stops, tails=None: handed.append(tails) or real(term_logs, stops, tails)
        )
        rps = [fig1_reduced(1, Branch.JC, 0.5, nbar=0.1), fig1_reduced(2, Branch.AJC, 1.0, nbar=3.0)]
        adaptive = _lag_rows(rps, TruncationPolicy(n_cap=4000, error_on_nonconverged=False))
        assert handed == [None] and {row.stop_reason for row in adaptive} <= {"bound", "cap"}
        _lag_rows(rps, _pinned(4000))
        assert len(handed) == 2 and handed[1](512).shape == (len(rps),)
        # Without tails no row settles: it runs to its stop.
        terms = np.linspace(0.0, -100.0, 4000)
        (got,) = _log_sums(lambda live, lo, hi: terms[None, lo:hi], _stops(_pinned(4000), [_never]))
        assert got[1:] == (4000, "pinned")


_ADAPTIVE_POLICIES = (
    TruncationPolicy(error_on_nonconverged=False),
    TruncationPolicy(n_cap=700, error_on_nonconverged=False),  # "cap" with a partial last chunk
    TruncationPolicy(tol=1e-6, error_on_nonconverged=False),
    TruncationPolicy(tol=1e-300, n_cap=3000, error_on_nonconverged=False),  # "cap" after several calls
)


@st.composite
def _adaptive_spec_groups(draw):
    """(adaptive sweep specs, policy): one to three specs over eta (with 0) or nbar, mixing m and branch."""
    block = dict(draw(st.sampled_from([FIG1, FIG4_LEFT, FIG4_RIGHT, desk_scale_point()])))
    block.pop("eta", None)
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        nbars = sorted(draw(st.sets(st.floats(-3.0, 3.0).map(lambda x: 10.0**x), min_size=1, max_size=4)))
        etas = sorted(draw(st.sets(st.sampled_from(_ETAS), min_size=1, max_size=4)))
        if draw(st.booleans()):
            axis, grid, fixed = "eta", etas, dict(block, nbar=nbars[0])
        else:
            axis, grid, fixed = "nbar", nbars, dict(block, eta=etas[0])
        if draw(st.booleans()):
            branches, ms = (Branch.CARRIER,), (0,)
        else:
            branches = tuple(draw(st.sets(st.sampled_from((Branch.JC, Branch.AJC)), min_size=1)))
            ms = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)))
        specs.append(SweepSpec(axis=axis, grid=tuple(grid), fixed=fixed, branches=branches, m_values=ms))
    return specs, draw(st.sampled_from(_ADAPTIVE_POLICIES))


class TestBatchedAdaptiveRows:
    """Adaptive rows are summed in blocks too; each keeps the bits and the stop of the one-row path."""

    @settings(deadline=None, max_examples=40)
    @given(_adaptive_spec_groups())
    def test_bitwise_equal_to_one_row_at_a_time(self, case):
        specs, policy = case
        points = [point for spec in specs for point in spec.points()]
        rps = [reduce(point, point["m"], point["branch"], point.get("eta")) for point in points]
        for point, rp, row in zip(points, rps, _lag_rows(rps, policy)):
            lag, n_used, tail_bound_log, converged, diverges, stop_reason = _one_row(rp, policy)
            got = (row.value.hex(), row.n_used, row.tail_bound_log.hex(), row.converged)
            assert got == (lag.hex(), n_used, tail_bound_log.hex(), converged), point
            assert (row.divergence_predicted, row.stop_reason) == (diverges, stop_reason), point

    @settings(deadline=None, max_examples=40)
    @given(_adaptive_spec_groups())
    def test_every_stop_but_the_cap_is_converged(self, case):
        specs, policy = case
        rps = [reduce(point, point["m"], point["branch"], point.get("eta")) for spec in specs for point in spec.points()]
        for rp, row in zip(rps, _lag_rows(rps, policy)):
            assert row.stop_reason == "cap" or row.converged, rp

    def test_error_names_the_first_failing_point_in_sweep_order(self):
        # At 512 terms the m = 1 tail lies above the m = 2 tail, and tol is set
        # between them: at nbar 10 the m = 2 row stops on the bound while the
        # m = 1 row hits the cap, and at nbar 30 both fail.  The lags (about
        # 1e-4) move the tails relative to Z_final far less than the half-gap.
        fixed = dict(desk_scale_point(), eta=0.8)
        spec = SweepSpec(axis="nbar", grid=(10.0, 30.0), fixed=fixed, branches=(Branch.JC,), m_values=(2, 1))
        points = list(spec.points())
        rps = [reduce(point, point["m"], point["branch"], point["eta"]) for point in points]
        edges = [thermo._excess_tails(thermo._rows_of([rp]))(512)[0] - math.log1p(math.exp(-rp.b_w0)) for rp in rps]
        assert edges[0] < edges[1]
        policy = TruncationPolicy(n_cap=512, tol=math.exp(0.5 * (edges[0] + edges[1])))
        lenient = replace(policy, error_on_nonconverged=False)
        assert [row.converged for row in run_specs([spec], lenient)] == [True, False, False, False]
        with pytest.raises(TruncationError) as excinfo:
            run_specs([spec], policy)
        assert excinfo.value.report == nonequilibrium_lag(rps[1], lenient).truncation
        assert str(excinfo.value) == "partition sum not converged after 512 terms (cap)"


class TestSumWorkBounds:
    # Recurrence steps per key: TestCouplingCache.test_adaptive_sweep_runs_each_step_once.

    def test_adaptive_sums_stop_on_the_bound_without_overrun(self, monkeypatch):
        asked = []
        real = thermo._excess_logs
        monkeypatch.setattr(thermo, "_excess_logs", lambda rp, lo, hi: asked.append(hi) or real(rp, lo, hi))
        for m in (1, 3):
            for branch in (Branch.JC, Branch.AJC):
                for nbar in (1e3, 1e4, 3e4):
                    asked.clear()
                    report = nonequilibrium_lag(fig1_reduced(m, branch, 0.8, nbar=nbar)).truncation
                    assert report.stop_reason == "bound"
                    assert max(asked) == report.n_used > 5 * thermo._CHUNK

    def test_direct_sums_stop_on_the_bound_without_overrun(self, monkeypatch):
        # A direct sum used to stop on the terms themselves, one or more chunks
        # after the call that computed them: 1024 terms used of 1536 at desk scale.
        asked = []
        real = thermo._direct_term_logs
        monkeypatch.setattr(thermo, "_direct_term_logs", lambda rp, lo, hi: asked.append(hi) or real(rp, lo, hi))
        for m, branch in ((0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)):
            for nbar in (0.38, 3.0, 30.0, 300.0):
                asked.clear()
                report = ln_partition_final(desk_reduced(m, branch, 0.8, nbar=nbar), assembly="direct").truncation
                assert report.stop_reason == "bound" and report.converged
                assert max(asked) == report.n_used

    @pytest.mark.parametrize("n_pinned, calls", [(40, 1), (5000, 1), (8192, 1), (8193, 2)])
    def test_pinned_row_makes_one_term_call_up_to_sixteen_chunks(self, monkeypatch, n_pinned, calls):
        # At nbar 1e4 the terms fall by e^(-0.8) over 8192 terms: the row is not settled there.
        asked = []
        real = thermo._excess_logs
        monkeypatch.setattr(thermo, "_excess_logs", lambda rp, lo, hi: asked.append((lo, hi)) or real(rp, lo, hi))
        rp = fig1_reduced(1, Branch.JC, 0.8, nbar=1e4)
        report = nonequilibrium_lag(rp, policy=TruncationPolicy(n_pinned=n_pinned)).truncation
        assert len(asked) == calls and asked[-1][1] == report.n_used == n_pinned


    @pytest.mark.parametrize(
        "preset, steps, terms, blocks",
        [
            ("fig1", 8440, 16880, 3), ("fig2", 120, 7440, 1), ("fig3", 1536, 110592, 14),
            ("fig4", 464, 6200, 2), ("fig5", 4096, 126976, 16), ("fig6", 4800, 9600, 4),
        ],
    )  # fmt: skip
    def test_preset_work(self, monkeypatch, tmp_path, preset, steps, terms, blocks):
        # Laguerre recurrence steps, excess terms and excess blocks of lag --preset, from a cold cache.
        # A block holds as many rows as fit 8192 terms on their first call, of any sideband index:
        # each of fig6's four 60-row specs over m = 0..29 takes one block of 40 pinned terms a row.
        work = {"steps": 0, "terms": 0, "blocks": 0}
        real_sequence, real_logs, real_block = thermo.coupling_logabs_sequence, thermo._excess_logs, thermo._excess_block

        def sequence(n_max, m, eta, *, resume):
            work["steps"] += n_max - resume.n
            return real_sequence(n_max, m, eta, resume=resume)

        def excess_logs(rows, n_lo, n_hi):
            work["terms"] += len(rows.keys) * (n_hi - n_lo)
            return real_logs(rows, n_lo, n_hi)

        def excess_block(rps, policy):
            work["blocks"] += 1
            return real_block(rps, policy)

        monkeypatch.setattr(thermo, "coupling_logabs_sequence", sequence)
        monkeypatch.setattr(thermo, "_excess_logs", excess_logs)
        monkeypatch.setattr(thermo, "_excess_block", excess_block)
        monkeypatch.setattr(thermo, "_COUPLING_CACHE", {})
        assert main(["lag", "--preset", preset, "--out", str(tmp_path / "rows.csv")]) == 0
        assert (work["steps"], work["terms"], work["blocks"]) == (steps, terms, blocks)


class TestBlockShape:
    """An excess block is finished as columns: one fold per chunk column, and no result object per row."""

    def test_fig1_folds_by_column_and_builds_no_row_objects(self, monkeypatch):
        counts = dict.fromkeys(("columns", "blocks", "logaddexp", "objects"), 0)
        real_logs, real_block, real_logaddexp = thermo._excess_logs, thermo._excess_block, np.logaddexp

        def excess_logs(rows, n_lo, n_hi):
            counts["columns"] += -(-(n_hi - n_lo) // thermo._CHUNK)
            return real_logs(rows, n_lo, n_hi)

        def excess_block(rps, policy):
            counts["blocks"] += 1
            return real_block(rps, policy)

        def counted(key, real):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(thermo, "_excess_logs", excess_logs)
        monkeypatch.setattr(thermo, "_excess_block", excess_block)
        monkeypatch.setattr(np, "logaddexp", counted("logaddexp", real_logaddexp))
        for name in ("LagResult", "TruncationReport"):
            monkeypatch.setattr(thermo, name, counted("objects", getattr(thermo, name)))
        rows = run_specs(figure_presets()["fig1"].specs)
        assert counts["objects"] == 0
        # One fold per chunk column of each term call, and one call per block for its lags.
        assert counts["logaddexp"] == counts["columns"] + counts["blocks"] == 6 < len(rows)


class TestStopReason:
    def test_adaptive_deep_row_stops_on_the_bound(self):
        report = nonequilibrium_lag(fig1_reduced(2, Branch.AJC, 1.5, nbar=1e4)).truncation
        assert report.stop_reason == "bound" and report.converged

    def test_row_runs_on_to_the_bound_edge(self):
        # Its terms fall below 1e-16 of the running sum well before 1536 terms,
        # where the tail bound first certifies it: it used to stop there at
        # 1024 terms, report converged=False and raise.
        rp = reduced_from_ratios(10.0, 1000.0, 0.5, 1, Branch.JC, nbar=30.0)
        result = nonequilibrium_lag(rp)
        report = result.truncation
        assert (report.stop_reason, report.n_used, report.converged) == ("bound", 1536, True)
        assert result.value.hex() == nonequilibrium_lag(rp, policy=TruncationPolicy(n_pinned=1536)).value.hex()

    def test_pinned_row(self):
        report = nonequilibrium_lag(fig1_reduced(2, Branch.JC, 1.5), policy=TruncationPolicy(n_pinned=40)).truncation
        assert report.stop_reason == "pinned"

    def test_other_reports(self):
        assert nonequilibrium_lag(fig1_reduced(1, Branch.JC, 0.0)).truncation.stop_reason == "exact"
        assert ln_partition_initial(fig1_reduced(1, Branch.JC, 0.5)).truncation.stop_reason == "exact"
        direct = ln_partition_final(desk_reduced(1, Branch.JC, 0.8), assembly="direct").truncation
        assert direct.stop_reason == "bound" and direct.converged
        capped = ln_partition_final(
            reduced_from_ratios(10.0, 1e4, 0.5, 0, Branch.CARRIER, nbar=1e8),
            policy=TruncationPolicy(n_cap=1000, error_on_nonconverged=False),
        ).truncation
        assert capped.stop_reason == "cap" and capped.n_used == 1000


def _excess_logs_reference(rows, n_lo, n_hi):
    """thermo._excess_logs with every pass: the guarded sqrt difference and the edge on every row."""
    with np.errstate(over="ignore"):
        u = rows.b_om * thermo._coupling_rows(rows.keys, n_lo, n_hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        b_quarter = 0.25 * np.where(u == 0.0, 0.0, u * u / (np.hypot(rows.abs_bwl, u) + rows.abs_bwl))
    a_shifted = 0.5 * rows.d_aw + b_quarter
    out = rows.b_nu * (np.arange(n_lo, n_hi, dtype=float) + rows.half_m)
    np.subtract(math.log(2.0), out, out=out)
    out += a_shifted
    with np.errstate(divide="ignore", invalid="ignore"):
        out += thermo._log1m_exp_neg2(a_shifted + 0.5 * rows.b_w0)
        out += _lnsinh_masked(b_quarter)
    out[b_quarter == 0.0] = -np.inf
    return out, b_quarter


class TestExcessKernel:
    """thermo._excess_logs skips only passes that cannot change a bit."""

    FIG1_ROWS = [fig1_reduced(m, b, 0.8, nbar=nbar) for m in (1, 2) for b in (Branch.JC, Branch.AJC) for nbar in (1e3, 3e4)]
    DESK_ROWS = [desk_reduced(m, Branch.JC, eta) for m in (1, 2) for eta in (0.3, 1.5)]  # |b_wl| ~ 13: edge kept
    BIG_SINH_ROWS = [reduced_from_ratios(10.0, 200.0, eta, 1, b, b_nu=2.0) for eta in (0.3, 0.8) for b in (Branch.JC, Branch.AJC)]
    DEAD_ROWS = [reduced_from_ratios(10.0, 0.0, 0.5, 1, Branch.JC, nbar=0.38)]  # b_om = 0
    # b_wl = 0 at a zero of the coupling (L_1^3(4) = 0): sqrt_excess must keep its u = 0 guard.
    RESONANT_ROWS = [reduced_from_ratios(3.0, 1.0, 2.0, 3, Branch.JC, nbar=0.38)]

    @pytest.mark.parametrize(
        "rps", [FIG1_ROWS, DESK_ROWS, BIG_SINH_ROWS, DEAD_ROWS, RESONANT_ROWS, FIG1_ROWS + DESK_ROWS + DEAD_ROWS]
    )
    @pytest.mark.parametrize("n_lo, n_hi", [(0, 512), (512, 2100)])
    def test_bitwise_equal_to_every_pass(self, rps, n_lo, n_hi):
        # The whole list as one block, which mixes m, and the rows of each m alone.
        by_m = {}
        for rp in rps:
            by_m.setdefault(rp.m, []).append(rp)
        for block in (rps, *by_m.values()):
            rows = thermo._rows_of(block)
            ref, _ = _excess_logs_reference(rows, n_lo, n_hi)
            assert thermo._excess_logs(rows, n_lo, n_hi).tobytes() == ref.tobytes()

    def test_rows_reach_each_case(self):
        def edge_skipped(rps):
            rows = thermo._rows_of(rps)
            return bool(np.all(0.5 * (rows.d_aw + rows.b_w0) > 400.0))

        assert edge_skipped(self.FIG1_ROWS) and not edge_skipped(self.DESK_ROWS)
        _, b_quarter = _excess_logs_reference(thermo._rows_of(self.BIG_SINH_ROWS), 0, 512)
        assert (b_quarter >= 20.0).any() and (b_quarter < 20.0).any()
        _, b_quarter = _excess_logs_reference(thermo._rows_of(self.DEAD_ROWS), 0, 512)
        assert (b_quarter == 0.0).all()
        assert self.RESONANT_ROWS[0].b_wl == 0.0 and thermo._coupling_rows(((3, 2.0),), 0, 512)[0, 1] == 0.0


def _excess_logs_unfused(rows, n_lo, n_hi):
    """thermo._excess_logs as it was before it was fused into buffers, one fresh array per operation: the reference."""
    u = rows.b_om * thermo._coupling_rows(rows.keys, n_lo, n_hi)
    b_quarter = 0.25 * sqrt_excess(rows.abs_bwl, u)
    a_shifted = 0.5 * rows.d_aw + b_quarter
    out = rows.b_nu * (np.arange(n_lo, n_hi, dtype=float) + rows.half_m)
    np.subtract(math.log(2.0), out, out=out)
    out += a_shifted
    with np.errstate(divide="ignore", invalid="ignore"):
        if rows.edge:
            out += thermo._log1m_exp_neg2(a_shifted + 0.5 * rows.b_w0)
        out += _lnsinh_masked(b_quarter)
    out[b_quarter == 0.0] = -np.inf
    return out


_KERNEL_ETAS = [0.0, 0.3, 1.0, 2.0, 3.5]  # eta = 0 on a sideband: dead coupling; L_1(1) = L_1^3(4) = 0


@st.composite
def _excess_blocks(draw):
    """(rows, n_lo, n_hi): a block of one (m, eta) key or of several, over every case of the kernel.

    r_w0 = m on a JC sideband gives b_wl = 0; desk-scale r_w0 and b_nu keep the edge
    factor (|b_wl|/2 <= 400); r_om up to 500 puts b_quarter past lnsinh's branch at 20;
    r_om = 0 or a dead key gives rows of -inf.
    """
    key = (draw(st.integers(0, 4)), draw(st.sampled_from(_KERNEL_ETAS)))
    one_key = draw(st.booleans())
    rps = []
    for _ in range(draw(st.integers(1, 6))):
        m, eta = key if one_key else (draw(st.integers(0, 4)), draw(st.sampled_from(_KERNEL_ETAS)))
        branch = branch_for(m, draw(st.sampled_from([Branch.JC, Branch.AJC])))
        r_w0 = draw(st.sampled_from([float(m), 0.5, 10.0, 1e3, 1e7]) | st.floats(0.01, 1e4))
        r_om = draw(st.sampled_from([0.0, 1.0, 30.0, 200.0]) | st.floats(0.0, 500.0))
        rps.append(reduced_from_ratios(r_w0, r_om, eta, m, branch, b_nu=draw(st.floats(1e-4, 5.0))))
    n_lo = draw(st.sampled_from([0, 1, 300, 2048]))
    return thermo._rows_of(rps), n_lo, n_lo + draw(st.sampled_from([1, 40, 512, 1300]))


def _cache_bytes():
    return {key: (abs_f.tobytes(), state) for key, (abs_f, state) in thermo._COUPLING_CACHE.items()}


class TestFusedExcessKernel:
    """The fused thermo._excess_logs has the bits of the unfused formula and never writes into the cache."""

    MIXED = TestExcessKernel.RESONANT_ROWS + TestExcessKernel.DESK_ROWS + TestExcessKernel.BIG_SINH_ROWS
    MIXED += TestExcessKernel.DEAD_ROWS + TestExcessKernel.FIG1_ROWS

    @settings(deadline=None, max_examples=150)
    @given(_excess_blocks())
    @example((thermo._rows_of(MIXED), 0, 1300))  # every case in one block: mixed m, several keys
    @example((thermo._rows_of(TestExcessKernel.DESK_ROWS[:1] * 3), 300, 812))  # one key, edge kept
    def test_bitwise_equal_to_the_unfused_formula(self, case):
        rows, n_lo, n_hi = case
        with np.errstate(over="ignore"):
            ref = _excess_logs_unfused(rows, n_lo, n_hi)
            cached = _cache_bytes()
            got = thermo._excess_logs(rows, n_lo, n_hi)
        assert got.tobytes() == ref.tobytes()
        assert _cache_bytes() == cached

    def test_mixed_block_reaches_each_case(self):
        rows = thermo._rows_of(self.MIXED)
        _, b_quarter = _excess_logs_reference(rows, 0, 1300)
        assert len(set(rows.keys)) > 1 and len({m for m, _ in rows.keys}) > 1
        assert (rows.abs_bwl == 0.0).any() and rows.edge and (0.5 * (rows.d_aw + rows.b_w0) <= 400.0).any()
        assert (b_quarter >= 20.0).any() and (b_quarter == 0.0).all(axis=1).any()


# lag, tail_bound_log (float.hex), n_used and stop_reason of adaptive fig1-block
# rows, as the kernels gave them before the per-term passes were cut.
_DEEP_ROW_BITS = {
    (1, "JC", 1000.0): ("0x1.8e2dec6356bd6p-38", "-0x1.c0249cb4a7977p+4", 5632, "bound"),
    (1, "AJC", 1000.0): ("0x1.8e93db78ea8dfp-38", "-0x1.c02084a753f88p+4", 5632, "bound"),
    (1, "JC", 10000.0): ("0x1.8ea91395bc26ep-43", "-0x1.ba6833ba546f6p+4", 29696, "bound"),
    (1, "AJC", 10000.0): ("0x1.8eb3483ef7341p-43", "-0x1.ba67cae0209a2p+4", 29696, "bound"),
    (2, "JC", 1000.0): ("0x1.2aa433c0631b0p-39", "-0x1.c028b4c1fb1a3p+4", 5632, "bound"),
    (2, "AJC", 1000.0): ("0x1.2b3d2ed9c2b25p-39", "-0x1.c02084a753dc6p+4", 5632, "bound"),
    (2, "JC", 10000.0): ("0x1.2adde24a4561dp-44", "-0x1.ba689c948864dp+4", 29696, "bound"),
    (2, "AJC", 10000.0): ("0x1.2aed2fcab97c4p-44", "-0x1.ba67cae020ba5p+4", 29696, "bound"),
    (3, "JC", 1000.0): ("0x1.3e6b7a908cd8fp-40", "-0x1.c02ccccf4ec9cp+4", 5632, "bound"),
    (3, "AJC", 1000.0): ("0x1.3f604513acce8p-40", "-0x1.c02084a753ed0p+4", 5632, "bound"),
    (3, "JC", 10000.0): ("0x1.3ec1763d00896p-45", "-0x1.ba69056ebc5b8p+4", 29696, "bound"),
    (3, "AJC", 10000.0): ("0x1.3ed9f1db66dc6p-45", "-0x1.ba67cae020dbcp+4", 29696, "bound"),
    (4, "JC", 1000.0): ("0x1.7dab9aae55c8bp-41", "-0x1.c030e4dca282cp+4", 5632, "bound"),
    (4, "AJC", 1000.0): ("0x1.7f3305724000bp-41", "-0x1.c02084a754070p+4", 5632, "bound"),
    (4, "JC", 10000.0): ("0x1.7e8010e970381p-46", "-0x1.ba696e48f052ap+4", 29696, "bound"),
    (4, "AJC", 10000.0): ("0x1.7ea73d6e2e859p-46", "-0x1.ba67cae020fdap+4", 29696, "bound"),
}


def test_adaptive_deep_rows_keep_their_bits():
    etas = {1: 0.3, 2: 0.8, 3: 1.5, 4: 2.5}  # one per m, as the deep_sums benchmark draws them
    keys = list(_DEEP_ROW_BITS)
    rps = [fig1_reduced(m, Branch[branch], etas[m], nbar=nbar) for m, branch, nbar in keys]
    for key, row in zip(keys, _lag_rows(rps)):
        got = (row.value.hex(), row.tail_bound_log.hex(), row.n_used, row.stop_reason)
        assert got == _DEEP_ROW_BITS[key], key
