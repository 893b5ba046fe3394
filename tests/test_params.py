import math

import pytest
from hypothesis import given, strategies as st

from ionquench import cli, params, sweep
from ionquench.params import HBAR, SPEED_OF_LIGHT, Branch, reduce, reduced_from_ratios
from ionquench.presets import figure_presets
from ionquench.sweep import SweepSpec, run_specs
from conftest import FIG1


def fig1_point(**changes):
    return {**FIG1, "nbar": 0.38, **changes}


def geometric_eta(m=0, branch=Branch.CARRIER, **changes):
    return reduce(fig1_point(**changes), m, branch).eta


class TestEtaFromGeometry:
    def test_perpendicular_laser_gives_zero(self):
        # cos(pi/2) carries the rounding of pi/2 itself, ~1e-16 of the on-axis value.
        assert geometric_eta(phi_angle=math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_fig1_axis_scale(self):
        # Recomputed directly from the definition; consistent with a sweep
        # axis that extends to ~3.5.
        eta = geometric_eta()
        expected = (FIG1["omega0"] / SPEED_OF_LIGHT) * math.sqrt(HBAR / (2 * FIG1["mass"] * FIG1["nu"]))
        assert eta == pytest.approx(expected, rel=1e-14)
        assert eta == pytest.approx(3.343413161156333, rel=1e-12)
        assert 3.3 < eta < 3.5

    def test_mass_scaling(self):
        assert geometric_eta(mass=FIG1["mass"] * 1e6) == pytest.approx(1e-3 * geometric_eta(), rel=1e-12)

    def test_monotonicities(self):
        base = geometric_eta()
        for phi in (0.3, 0.8, 1.4):
            assert geometric_eta(phi_angle=phi) < base
        assert geometric_eta(mass=2 * FIG1["mass"]) < base
        assert geometric_eta(nu=2 * FIG1["nu"]) < base
        # Larger laser frequency (AJC side) raises eta.
        assert geometric_eta(3, Branch.JC) < base < geometric_eta(3, Branch.AJC)

    def test_laser_below_zero_frequency_needs_explicit_eta(self):
        point = dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=0.5e9, nbar=0.5)
        with pytest.raises(ValueError, match="supply eta explicitly"):
            reduce(point, 1, Branch.JC)
        assert reduce(point, 1, Branch.JC, 1.5).eta == 1.5


class TestThermalConversion:
    def test_ln2_gives_unit_occupation(self):
        beta = math.log(2.0) / (HBAR * 1.0)
        rp = reduce({**FIG1, "nu": 1.0, "beta": beta}, 0, Branch.CARRIER, 0.0)
        assert rp.nbar == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        # log(1 + 1/0.38) recomputed with 60-digit arithmetic.
        assert reduce(fig1_point(), 0, Branch.CARRIER, 0.0).b_nu == pytest.approx(1.2896675254308189, rel=1e-15)

    def test_high_temperature_limit(self):
        rp = reduce(fig1_point(nu=1e6, nbar=1e12), 0, Branch.CARRIER, 0.0)
        assert rp.b_nu == pytest.approx(1e-12, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reduce(fig1_point(nbar=-0.5), 0, Branch.CARRIER, 0.0)
        with pytest.raises(ValueError):
            reduce({**FIG1, "beta": 0.0}, 0, Branch.CARRIER, 0.0)
        with pytest.raises(ValueError):
            reduce(FIG1, 0, Branch.CARRIER, 0.0)

    def test_nbar_wins_over_beta(self):
        rp = reduce(fig1_point(beta=1e30), 0, Branch.CARRIER, 0.0)
        assert rp.b_nu == reduce(fig1_point(), 0, Branch.CARRIER, 0.0).b_nu

    @given(st.floats(min_value=1e-9, max_value=1e9))
    def test_roundtrip_involutive(self, nbar):
        rp = reduce(fig1_point(nbar=nbar), 0, Branch.CARRIER, 0.0)
        beta = rp.b_nu / (HBAR * FIG1["nu"])
        back = reduce({**FIG1, "beta": beta}, 0, Branch.CARRIER, 0.0).nbar
        assert back == pytest.approx(nbar, rel=1e-14)


class TestTransition:
    def test_m_zero_normalizes_to_carrier(self):
        assert reduce(fig1_point(), 0, Branch.JC, 0.1).branch is Branch.CARRIER
        assert reduce(fig1_point(), 0, Branch.AJC, 0.1).branch is Branch.CARRIER
        assert reduced_from_ratios(10.0, 1.0, 0.1, 0, Branch.JC, nbar=0.38).branch is Branch.CARRIER

    def test_carrier_requires_m_zero(self):
        with pytest.raises(ValueError, match="carrier transitions have m = 0"):
            reduce(fig1_point(), 2, Branch.CARRIER, 0.1)
        with pytest.raises(ValueError, match="carrier transitions have m = 0"):
            reduced_from_ratios(10.0, 1.0, 0.1, 2, Branch.CARRIER, nbar=0.38)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError, match="sideband index must be nonnegative"):
            reduce(fig1_point(), -1, Branch.JC, 0.1)


class TestReduce:
    def test_fig1_b_w0(self):
        rp = reduce(fig1_point(), 0, Branch.CARRIER, 0.5)
        assert rp.b_w0 == pytest.approx(666084687857.94, rel=1e-12)

    def test_carrier_with_zero_eta(self):
        rp = reduce(fig1_point(), 0, Branch.CARRIER, 0.0)
        assert rp.eta == 0.0
        assert rp.b_wl == rp.b_w0

    def test_jc_branch_shift(self):
        rp = reduce(fig1_point(), 2, Branch.JC, 0.1)
        assert rp.b_wl == pytest.approx(rp.b_w0 - 2 * rp.b_nu, abs=1e-9 * rp.b_w0)

    def test_geometry_route_matches_override(self):
        # JC at m = 1: the laser sits one trap quantum below the transition.
        omega_l = FIG1["omega0"] - FIG1["nu"]
        expected = (omega_l / SPEED_OF_LIGHT) * math.sqrt(HBAR / (2.0 * FIG1["mass"] * FIG1["nu"]))
        rp = reduce(fig1_point(), 1, Branch.JC)
        assert rp.eta == pytest.approx(expected, rel=1e-15)
        assert reduce(fig1_point(), 1, Branch.JC, rp.eta) == rp

    def test_overflow_rejected(self):
        point = dict(mass=1e-30, nu=1e-300, omega0=1e300, omega_rabi=0.0, beta=1e300)
        with pytest.raises(ValueError, match="overflowed"):
            reduce(point, 0, Branch.CARRIER, 0.0)

    @pytest.mark.parametrize("b_nu", [709.0, 710.0, 740.0, 12654.861804])
    def test_nbar_at_low_temperature(self, b_nu):
        # nbar = 1/(e^b_nu - 1) = e^(-b_nu) to double precision here; e^b_nu
        # overflows past b_nu ~ 709.8, where nbar used to raise OverflowError.
        rp = reduced_from_ratios(0.8, 4.0, 0.5, 1, Branch.JC, b_nu=b_nu)
        assert rp.nbar == pytest.approx(math.exp(-b_nu), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_nonfinite_eta_override_rejected(self, eta):
        with pytest.raises(ValueError, match="Lamb-Dicke parameter must be finite"):
            reduce(fig1_point(), 1, Branch.JC, eta)

    @pytest.mark.parametrize("m, branch, sign", [(0, Branch.CARRIER, 0), (2, Branch.JC, -1), (3, Branch.AJC, +1)])
    @given(r_w0=st.floats(0.1, 1e12), nbar=st.floats(1e-3, 1e6))
    def test_r_wl_is_r_w0_plus_or_minus_m(self, m, branch, sign, r_w0, nbar):
        # One formula, bit for bit: b_wl / b_nu differs from it in the last bit at many ratios.
        rp = reduced_from_ratios(r_w0, 1.0, 0.4, m, branch, nbar=nbar)
        assert rp.r_wl.hex() == (rp.r_w0 + sign * m).hex()

    def test_r_wl_at_a_ratio_where_b_wl_over_b_nu_rounds_apart(self):
        rp = params.ReducedParams(
            b_nu=0.002876145663227698, b_w0=0.12133095261990702, b_om=0.0, eta=0.5, m=4, branch=Branch.AJC
        )
        assert rp.r_wl == rp.r_w0 + 4 != rp.b_wl / rp.b_nu

    @given(st.integers(min_value=1, max_value=9))
    def test_branch_sign_rule(self, m):
        jc = reduced_from_ratios(1e3, 1.0, 0.4, m, Branch.JC, nbar=0.7)
        ajc = reduced_from_ratios(1e3, 1.0, 0.4, m, Branch.AJC, nbar=0.7)
        assert jc.b_wl < jc.b_w0 < ajc.b_wl


class TestValidation:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"mass": 0.0}, "ion mass must be positive"),
            ({"mass": -1.0}, "ion mass must be positive"),
            ({"mass": math.nan}, "ion mass must be positive"),
            ({"nu": 0.0}, "trap frequency must be positive"),
            ({"nu": -5e3}, "trap frequency must be positive"),
            ({"omega0": 0.0}, "transition frequency must be positive"),
            ({"omega_rabi": -1.0}, "Rabi frequency must be nonnegative"),
            ({"phi_angle": -0.1}, r"laser angle must lie in \[0, pi/2\]"),
            ({"phi_angle": 1.6}, r"laser angle must lie in \[0, pi/2\]"),
            ({"nbar": 0.0}, "nbar must be positive and finite"),
            ({"nbar": -0.5}, "nbar must be positive and finite"),
            ({"nbar": math.nan}, "nbar must be positive and finite"),
            ({"nbar": None, "beta": 0.0}, "beta must be positive and finite"),
            ({"nbar": None, "beta": -1e30}, "beta must be positive and finite"),
            ({"nbar": None, "beta": math.nan}, "beta must be positive and finite"),
            ({"nbar": None}, "give nbar or beta"),
        ],
    )
    def test_bad_field_message(self, changes, message):
        with pytest.raises(ValueError, match=message):
            reduce(fig1_point(**changes), 1, Branch.JC, 0.3)

    def test_sweep_point_without_temperature(self):
        spec = SweepSpec(axis="eta", grid=(0.1, 0.2), fixed=dict(FIG1), branches=(Branch.JC,), m_values=(1,))
        with pytest.raises(ValueError, match="give nbar or beta"):
            run_specs([spec])


# A valid row; each case below changes some of its fields.
_VALID_ROW = dict(b_nu=1.0, b_w0=2.0, b_om=3.0, eta=0.5, m=1, branch=Branch.JC)


class TestReducedParamsMessages:
    """Every check of ReducedParams, and which message wins when several fail."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"b_nu": math.nan}, "b_nu must be finite"),
            ({"b_nu": math.inf, "b_w0": math.nan}, "b_nu must be finite"),
            ({"b_w0": math.inf}, "b_w0 must be finite"),
            ({"b_w0": -math.inf, "b_nu": -1.0}, "b_w0 must be finite"),
            ({"b_om": math.nan, "eta": -1.0}, "b_om must be finite"),
            ({"b_om": -math.inf}, "b_om must be finite"),
            # b_wl = b_w0 + m b_nu overflows on the AJC branch, though both are finite.
            ({"b_w0": 1e308, "b_nu": 1e308, "branch": Branch.AJC}, "b_wl must be finite"),
            ({"b_w0": 1e308, "b_nu": 1e308, "branch": Branch.AJC, "b_om": -1.0}, "b_wl must be finite"),
            ({"b_nu": 0.0}, "b_nu must be positive"),
            ({"b_nu": -1.0, "b_w0": -1.0}, "b_nu must be positive"),
            ({"b_w0": -1.0, "b_om": -1.0}, "b_w0 must be nonnegative"),
            ({"b_om": -1.0, "eta": math.nan}, "b_om must be nonnegative"),
            ({"b_om": 1e155, "eta": math.nan}, "b_om 1e+155 is too large: b_om^2 overflows"),
            # The next double above sqrt(sys.float_info.max):
            ({"b_om": 1.3407807929942597e154}, "b_om 1.3407807929942597e+154 is too large: b_om^2 overflows"),
            # r_om = b_om/b_nu is checked right after b_om; its square, or the ratio itself, overflows.
            ({"b_om": 1e100, "b_nu": 1e-60, "eta": math.nan}, "r_om = b_om/b_nu = 1e+160 is too large: r_om^2 overflows"),
            ({"b_om": 1e10, "b_nu": 1e-300}, "r_om = b_om/b_nu = inf is too large: r_om^2 overflows"),
            ({"b_om": 1e155, "b_nu": 1e-300}, "b_om 1e+155 is too large: b_om^2 overflows"),
            ({"b_om": 1.3407807929942597e154 / 2, "b_nu": 0.5, "m": -1},
             "r_om = b_om/b_nu = 1.3407807929942597e+154 is too large: r_om^2 overflows"),
            ({"eta": math.nan, "m": -1}, "Lamb-Dicke parameter must be finite"),
            ({"eta": math.inf}, "Lamb-Dicke parameter must be finite"),
            ({"eta": -0.5, "m": -1}, "Lamb-Dicke parameter must be nonnegative"),
            ({"m": -1}, "sideband index must be nonnegative"),
        ],
    )
    def test_message(self, changes, message):
        with pytest.raises(ValueError) as excinfo:
            params.ReducedParams(**{**_VALID_ROW, **changes})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"b_om": 1.3407807929942596e154},  # sqrt of the largest double: its square is finite
            {"b_om": 1.3407807929942596e154 / 2, "b_nu": 0.5},  # r_om at the same bound
            {"b_w0": 0.0, "b_om": 0.0, "eta": 0.0, "m": 0, "branch": Branch.CARRIER},
            {"b_w0": -0.0},
            {"b_w0": 1e308, "b_nu": 1e308},  # b_wl = 0 on the JC branch
        ],
    )
    def test_valid_row(self, changes):
        rp = params.ReducedParams(**{**_VALID_ROW, **changes})
        assert math.isfinite(rp.b_om * rp.b_om) and math.isfinite(rp.r_om * rp.r_om) and math.isfinite(rp.b_wl)


class TestCallersBindReduce:
    """sweep calls reduce_grid once per spec, and cli calls reduce once per resolved point, through their own bindings."""

    @staticmethod
    def count_calls(monkeypatch, module, name="reduce"):
        calls = []
        real = getattr(params, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_sweep_resolves_each_spec_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, sweep, "reduce_grid")
        scalar_calls = self.count_calls(monkeypatch, params)
        specs = figure_presets()["fig3"].specs
        rows = run_specs(specs)
        assert len(rows) == 216 and len(calls) == len(specs) == 2 and not scalar_calls

    def test_spectrum_resolves_each_transition_once(self, monkeypatch, capsys):
        calls = self.count_calls(monkeypatch, cli)
        assert cli.main(["spectrum", "--m", "1,2", "--branch", "jc"]) == 0
        assert [args[1:3] for args in calls] == [(1, Branch.JC), (2, Branch.JC)]


def test_params_exports_one_si_entry():
    # reduce_grid is the SI entry, and reduce its one-point case.
    assert params.__all__ == [
        "HBAR", "SPEED_OF_LIGHT", "Branch", "ReducedParams", "ReducedColumns", "reduce", "reduce_grid", "reduced_from_ratios"
    ]  # fmt: skip
