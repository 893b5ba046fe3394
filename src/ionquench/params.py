"""Physical parameters, unit conventions, and reduced dimensionless groups.

All frequencies in this package are angular (rad/s).  Quantities quoted in
the "1.0 pi MHz" style are ingested verbatim as angular values
(pi x 1e6 rad/s).  Every computation downstream of :func:`reduce` consumes
only the dimensionless groups collected in :class:`ReducedParams`; SI
magnitudes never enter the numerical kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "Branch",
    "TrapIonConfig",
    "QuenchSpec",
    "ThermalSpec",
    "ReducedParams",
    "eta_from_geometry",
    "nbar_beta_convert",
    "reduce",
    "reduce_point",
    "reduced_from_ratios",
]

# CODATA fixed constants; not configurable, for reproducibility.
HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m/s


class Branch(enum.Enum):
    """Which effective coupling the laser detuning selects.

    JC exchanges the electronic flip against absorbing m motional quanta
    (red sideband, laser below the transition), AJC against emitting them
    (blue sideband), CARRIER flips the electronic state alone (m = 0).
    """

    JC = "jc"
    AJC = "ajc"
    CARRIER = "carrier"

    @property
    def sideband_sign(self) -> int:
        """+1 if the laser sits above the transition (AJC), -1 below (JC)."""
        if self is Branch.JC:
            return -1
        if self is Branch.AJC:
            return +1
        return 0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class TrapIonConfig:
    """Ion, trap, and laser parameters in SI units (angular frequencies).

    mass        ion mass (kg)
    nu          trap angular frequency (rad/s)
    omega0      electronic transition angular frequency (rad/s)
    omega_rabi  classical Rabi angular frequency (rad/s)
    phi_angle   angle between laser wave vector and trap axis (rad)
    """

    mass: float
    nu: float
    omega0: float
    omega_rabi: float
    phi_angle: float = 0.0

    def __post_init__(self) -> None:
        _require(self.mass > 0, "ion mass must be positive")
        _require(self.nu > 0, "trap frequency must be positive")
        _require(self.omega0 > 0, "transition frequency must be positive")
        _require(self.omega_rabi >= 0, "Rabi frequency must be nonnegative")
        _require(0.0 <= self.phi_angle <= math.pi / 2, "laser angle must lie in [0, pi/2]")


@dataclass(frozen=True)
class QuenchSpec:
    """Sideband index plus branch selector; together they fix the laser frequency.

    m = 0 is normalized to the carrier regardless of the requested branch;
    JC/AJC require m >= 1.
    """

    m: int
    branch: Branch

    def __post_init__(self) -> None:
        _require(self.m >= 0, "sideband index must be nonnegative")
        if self.m == 0 and self.branch is not Branch.CARRIER:
            object.__setattr__(self, "branch", Branch.CARRIER)
        if self.branch is Branch.CARRIER:
            _require(self.m == 0, "carrier transitions have m = 0")

    def laser_frequency(self, nu: float, omega0: float) -> float:
        return omega0 + self.branch.sideband_sign * self.m * nu


@dataclass(frozen=True)
class ThermalSpec:
    """Initial Gibbs state, given as exactly one of beta (1/J) or nbar.

    beta = infinity is rejected; zero-temperature behavior lives in the
    dedicated asymptotic operations so the generic numeric path never sees a
    non-finite value.
    """

    beta: float | None = None
    nbar: float | None = None

    def __post_init__(self) -> None:
        given = (self.beta is not None) + (self.nbar is not None)
        _require(given == 1, "give exactly one of beta or nbar")
        if self.beta is not None:
            _require(math.isfinite(self.beta) and self.beta > 0, "beta must be positive and finite")
        if self.nbar is not None:
            _require(math.isfinite(self.nbar) and self.nbar > 0, "nbar must be positive and finite")

    def b_nu(self, nu: float) -> float:
        """Dimensionless beta * hbar * nu for a trap frequency nu."""
        _require(nu > 0, "trap frequency must be positive")
        if self.beta is not None:
            return self.beta * HBAR * nu
        return math.log1p(1.0 / self.nbar)

    def beta_for(self, nu: float) -> float:
        if self.beta is not None:
            return self.beta
        return self.b_nu(nu) / (HBAR * nu)

    def nbar_for(self, nu: float) -> float:
        if self.nbar is not None:
            return self.nbar
        return 1.0 / math.expm1(self.b_nu(nu))


def nbar_beta_convert(thermal: ThermalSpec, nu: float) -> float:
    """Return whichever of beta or nbar the thermal state does not already carry.

    Uses nbar = 1/(exp(beta*hbar*nu) - 1) and its inverse
    beta*hbar*nu = log(1 + 1/nbar); the round trip is exact to ulp scale.
    """
    if thermal.beta is not None:
        return thermal.nbar_for(nu)
    return thermal.beta_for(nu)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless groups consumed by all numerical kernels.

    b_nu   beta * hbar * nu
    b_w0   beta * hbar * omega0
    b_om   beta * hbar * omega_rabi
    eta    Lamb-Dicke parameter
    m, branch  the transition the laser drives

    b_wl = beta * hbar * omega_laser is derived from these (see the property).
    It may be negative when m*nu exceeds omega0 (strong-coupling regimes);
    only its square enters the spectra.
    """

    b_nu: float
    b_w0: float
    b_om: float
    eta: float
    m: int
    branch: Branch

    def __post_init__(self) -> None:
        for name in ("b_nu", "b_w0", "b_om", "b_wl"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        _require(self.b_nu > 0, "b_nu must be positive")
        _require(self.b_w0 >= 0, "b_w0 must be nonnegative")
        _require(self.b_om >= 0, "b_om must be nonnegative")
        _require(math.isfinite(self.eta), "Lamb-Dicke parameter must be finite")
        _require(self.eta >= 0, "Lamb-Dicke parameter must be nonnegative")
        _require(self.m >= 0, "sideband index must be nonnegative")

    @property
    def b_wl(self) -> float:
        """beta * hbar * omega_laser = b_w0 -+ m*b_nu (JC: -, AJC: +)."""
        return self.b_w0 + self.branch.sideband_sign * self.m * self.b_nu

    @property
    def nbar(self) -> float:
        try:
            return 1.0 / math.expm1(self.b_nu)
        except OverflowError:  # e^b_nu overflows; 1/(e^b_nu - 1) is e^(-b_nu) to double precision
            return math.exp(-self.b_nu)

    @property
    def ln_nbar_plus_1(self) -> float:
        # log(nbar + 1) = -log(1 - exp(-b_nu)), stable for both tiny and huge b_nu
        return -math.log(-math.expm1(-self.b_nu))

    @property
    def r_w0(self) -> float:
        """omega0 / nu."""
        return self.b_w0 / self.b_nu

    @property
    def r_om(self) -> float:
        """omega_rabi / nu."""
        return self.b_om / self.b_nu

    @property
    def r_wl(self) -> float:
        """omega_laser / nu (may be negative)."""
        return self.b_wl / self.b_nu


def eta_from_geometry(cfg: TrapIonConfig, quench: QuenchSpec) -> float:
    """Lamb-Dicke parameter from the trap geometry and the sideband choice.

    eta = (omega_L / c) * sqrt(hbar / (2 M nu)) * cos(phi), with the laser
    frequency fixed by the branch: omega_L = omega0 -+ m nu.
    """
    omega_l = quench.laser_frequency(cfg.nu, cfg.omega0)
    _require(omega_l > 0, "sideband detuning exceeds the transition frequency; supply eta explicitly")
    return (omega_l / SPEED_OF_LIGHT) * math.sqrt(HBAR / (2.0 * cfg.mass * cfg.nu)) * math.cos(cfg.phi_angle)


def reduce(
    cfg: TrapIonConfig,
    quench: QuenchSpec,
    thermal: ThermalSpec,
    eta_override: float | None = None,
) -> ReducedParams:
    """Collect all dimensionless groups for one parameter point.

    eta_override bypasses the geometric Lamb-Dicke value; sweeps that treat
    eta as the independent variable use it.
    """
    b_nu = thermal.b_nu(cfg.nu)
    beta_hbar = b_nu / cfg.nu
    b_w0 = beta_hbar * cfg.omega0
    b_om = beta_hbar * cfg.omega_rabi
    eta = eta_override if eta_override is not None else eta_from_geometry(cfg, quench)
    for name, val in (("b_nu", b_nu), ("b_w0", b_w0), ("b_om", b_om)):
        if not math.isfinite(val):
            raise ValueError(f"dimensionless group {name} overflowed to a non-finite value")
    return ReducedParams(b_nu=b_nu, b_w0=b_w0, b_om=b_om, eta=eta, m=quench.m, branch=quench.branch)


def reduce_point(
    point: Mapping, m: int, branch: Branch, eta: float | None = None
) -> tuple[TrapIonConfig, ReducedParams]:
    """Resolve one parameter point in SI units to its configuration and reduced groups.

    This is the single path from raw parameters to ReducedParams.  point
    holds mass, nu, omega0, omega_rabi, optional phi_angle, and nbar or beta;
    when both are present nbar wins, so a sweep over nbar may keep a fixed
    beta in its held block.  eta, when given, overrides the geometric
    Lamb-Dicke value.
    """
    cfg = TrapIonConfig(
        mass=float(point["mass"]),
        nu=float(point["nu"]),
        omega0=float(point["omega0"]),
        omega_rabi=float(point["omega_rabi"]),
        phi_angle=float(point.get("phi_angle", 0.0)),
    )
    if point.get("nbar") is not None:
        thermal = ThermalSpec(nbar=float(point["nbar"]))
    else:
        thermal = ThermalSpec(beta=float(point["beta"]))
    rp = reduce(cfg, QuenchSpec(int(m), branch), thermal, eta_override=None if eta is None else float(eta))
    return cfg, rp


def reduced_from_ratios(
    omega0_over_nu: float,
    omega_rabi_over_nu: float,
    eta: float,
    m: int,
    branch: Branch,
    nbar: float | None = None,
    b_nu: float | None = None,
) -> ReducedParams:
    """Build reduced parameters straight from frequency ratios.

    Convenient for desk-scale oracle work where no SI configuration exists.
    Give exactly one of nbar or b_nu.
    """
    _require((nbar is None) != (b_nu is None), "give exactly one of nbar or b_nu")
    if b_nu is None:
        assert nbar is not None
        _require(nbar > 0, "nbar must be positive")
        b_nu = math.log1p(1.0 / nbar)
    _require(b_nu > 0, "b_nu must be positive")
    quench = QuenchSpec(m, branch)
    return ReducedParams(
        b_nu=b_nu,
        b_w0=b_nu * omega0_over_nu,
        b_om=b_nu * omega_rabi_over_nu,
        eta=eta,
        m=quench.m,
        branch=quench.branch,
    )
