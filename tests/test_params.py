import math

import pytest
from hypothesis import given, strategies as st

from ionquench.params import (
    HBAR,
    SPEED_OF_LIGHT,
    Branch,
    QuenchSpec,
    ThermalSpec,
    TrapIonConfig,
    eta_from_geometry,
    nbar_beta_convert,
    reduce,
    reduced_from_ratios,
)
from conftest import FIG1


class TestEtaFromGeometry:
    def test_perpendicular_laser_gives_zero(self, fig1_cfg):
        # cos(pi/2) carries the rounding of pi/2 itself, ~1e-16 of the on-axis value.
        cfg = TrapIonConfig(**{**FIG1, "phi_angle": math.pi / 2})
        assert eta_from_geometry(cfg, QuenchSpec(0, Branch.CARRIER)) == pytest.approx(0.0, abs=1e-15)

    def test_fig1_axis_scale(self, fig1_cfg):
        # Recomputed directly from the definition; consistent with a sweep
        # axis that extends to ~3.5.
        eta = eta_from_geometry(fig1_cfg, QuenchSpec(0, Branch.CARRIER))
        expected = (FIG1["omega0"] / SPEED_OF_LIGHT) * math.sqrt(HBAR / (2 * FIG1["mass"] * FIG1["nu"]))
        assert eta == pytest.approx(expected, rel=1e-14)
        assert eta == pytest.approx(3.343413161156333, rel=1e-12)
        assert 3.3 < eta < 3.5

    def test_mass_scaling(self, fig1_cfg):
        heavy = TrapIonConfig(**{**FIG1, "mass": FIG1["mass"] * 1e6})
        q = QuenchSpec(0, Branch.CARRIER)
        assert eta_from_geometry(heavy, q) == pytest.approx(1e-3 * eta_from_geometry(fig1_cfg, q), rel=1e-12)

    def test_monotonicities(self, fig1_cfg):
        q = QuenchSpec(0, Branch.CARRIER)
        base = eta_from_geometry(fig1_cfg, q)
        for phi in (0.3, 0.8, 1.4):
            assert eta_from_geometry(TrapIonConfig(**{**FIG1, "phi_angle": phi}), q) < base
        assert eta_from_geometry(TrapIonConfig(**{**FIG1, "mass": 2 * FIG1["mass"]}), q) < base
        assert eta_from_geometry(TrapIonConfig(**{**FIG1, "nu": 2 * FIG1["nu"]}), q) < base
        # Larger laser frequency (AJC side) raises eta.
        jc = eta_from_geometry(fig1_cfg, QuenchSpec(3, Branch.JC))
        ajc = eta_from_geometry(fig1_cfg, QuenchSpec(3, Branch.AJC))
        assert jc < base < ajc


class TestThermalConversion:
    def test_ln2_gives_unit_occupation(self):
        beta = math.log(2.0) / (HBAR * 1.0)
        assert nbar_beta_convert(ThermalSpec(beta=beta), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        # log(1 + 1/0.38) recomputed with 60-digit arithmetic.
        assert ThermalSpec(nbar=0.38).b_nu(FIG1["nu"]) == pytest.approx(1.2896675254308189, rel=1e-15)

    def test_high_temperature_limit(self):
        assert ThermalSpec(nbar=1e12).b_nu(1e6) == pytest.approx(1e-12, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ThermalSpec(nbar=-0.5)
        with pytest.raises(ValueError):
            ThermalSpec(beta=0.0)
        with pytest.raises(ValueError):
            ThermalSpec(beta=1e30, nbar=0.5)
        with pytest.raises(ValueError):
            ThermalSpec()

    @given(st.floats(min_value=1e-9, max_value=1e9))
    def test_roundtrip_involutive(self, nbar):
        nu = 5e3
        beta = nbar_beta_convert(ThermalSpec(nbar=nbar), nu)
        back = nbar_beta_convert(ThermalSpec(beta=beta), nu)
        assert back == pytest.approx(nbar, rel=1e-14)


class TestQuenchSpec:
    def test_m_zero_normalizes_to_carrier(self):
        assert QuenchSpec(0, Branch.JC).branch is Branch.CARRIER
        assert QuenchSpec(0, Branch.AJC).branch is Branch.CARRIER

    def test_carrier_requires_m_zero(self):
        with pytest.raises(ValueError):
            QuenchSpec(2, Branch.CARRIER)

    def test_laser_frequency_signs(self):
        assert QuenchSpec(2, Branch.JC).laser_frequency(10.0, 1e4) == 1e4 - 20.0
        assert QuenchSpec(2, Branch.AJC).laser_frequency(10.0, 1e4) == 1e4 + 20.0


class TestReduce:
    def test_fig1_b_w0(self, fig1_cfg):
        rp = reduce(fig1_cfg, QuenchSpec(0, Branch.CARRIER), ThermalSpec(nbar=0.38), eta_override=0.5)
        assert rp.b_w0 == pytest.approx(666084687857.94, rel=1e-12)

    def test_carrier_with_zero_eta(self, fig1_cfg):
        rp = reduce(fig1_cfg, QuenchSpec(0, Branch.CARRIER), ThermalSpec(nbar=0.38), eta_override=0.0)
        assert rp.eta == 0.0
        assert rp.b_wl == rp.b_w0

    def test_jc_branch_shift(self, fig1_cfg):
        rp = reduce(fig1_cfg, QuenchSpec(2, Branch.JC), ThermalSpec(nbar=0.38), eta_override=0.1)
        assert rp.b_wl == pytest.approx(rp.b_w0 - 2 * rp.b_nu, abs=1e-9 * rp.b_w0)

    def test_geometry_route_matches_override(self, fig1_cfg):
        q = QuenchSpec(1, Branch.JC)
        rp = reduce(fig1_cfg, q, ThermalSpec(nbar=0.38))
        assert rp.eta == pytest.approx(eta_from_geometry(fig1_cfg, q), rel=1e-15)

    def test_overflow_rejected(self):
        cfg = TrapIonConfig(mass=1e-30, nu=1e-300, omega0=1e300, omega_rabi=0.0)
        with pytest.raises(ValueError):
            reduce(cfg, QuenchSpec(0, Branch.CARRIER), ThermalSpec(beta=1e300), eta_override=0.0)

    @pytest.mark.parametrize("b_nu", [709.0, 710.0, 740.0, 12654.861804])
    def test_nbar_at_low_temperature(self, b_nu):
        # nbar = 1/(e^b_nu - 1) = e^(-b_nu) to double precision here; e^b_nu
        # overflows past b_nu ~ 709.8, where nbar used to raise OverflowError.
        rp = reduced_from_ratios(0.8, 4.0, 0.5, 1, Branch.JC, b_nu=b_nu)
        assert rp.nbar == pytest.approx(math.exp(-b_nu), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_nonfinite_eta_override_rejected(self, fig1_cfg, eta):
        with pytest.raises(ValueError, match="Lamb-Dicke parameter must be finite"):
            reduce(fig1_cfg, QuenchSpec(1, Branch.JC), ThermalSpec(nbar=0.38), eta_override=eta)

    @given(st.integers(min_value=1, max_value=9))
    def test_branch_sign_rule(self, m):
        jc = reduced_from_ratios(1e3, 1.0, 0.4, m, Branch.JC, nbar=0.7)
        ajc = reduced_from_ratios(1e3, 1.0, 0.4, m, Branch.AJC, nbar=0.7)
        assert jc.b_wl < jc.b_w0 < ajc.b_wl
