"""Physical parameters, unit conventions, and reduced dimensionless groups.

All frequencies in this package are angular (rad/s).  Quantities quoted in
the "1.0 pi MHz" style are ingested verbatim as angular values
(pi x 1e6 rad/s).  :func:`reduce` is the one path from a parameter point
in SI units to the dimensionless groups of :class:`ReducedParams`;
:func:`reduced_from_ratios` builds them from frequency ratios instead.
Every computation downstream consumes only those groups; SI magnitudes never
enter the numerical kernels.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "Branch",
    "ReducedParams",
    "reduce",
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


# The largest b_om, and r_om, whose square is finite: the excess terms square the
# coupling u <= b_om, and the divergence scan u <= r_om.
_B_OM_MAX = math.sqrt(sys.float_info.max)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


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
        # One pass for a valid row (a nan fails every comparison); a failing
        # row runs the ordered checks, which pick its message.
        valid = (
            0.0 < self.b_nu < math.inf
            and 0.0 <= self.b_w0 < math.inf
            and 0.0 <= self.b_om <= _B_OM_MAX
            and self.r_om <= _B_OM_MAX
            and 0.0 <= self.eta < math.inf
            and self.m >= 0
            and math.isfinite(self.b_wl)
        )
        if not valid:
            self._check()

    def _check(self) -> None:
        for name in ("b_nu", "b_w0", "b_om", "b_wl"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        _require(self.b_nu > 0, "b_nu must be positive")
        _require(self.b_w0 >= 0, "b_w0 must be nonnegative")
        _require(self.b_om >= 0, "b_om must be nonnegative")
        _require(self.b_om <= _B_OM_MAX, f"b_om {self.b_om!r} is too large: b_om^2 overflows")
        _require(self.r_om <= _B_OM_MAX, f"r_om = b_om/b_nu = {self.r_om!r} is too large: r_om^2 overflows")
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
        """omega_laser / nu = r_w0 -+ m (JC: -, AJC: +); may be negative."""
        return self.r_w0 + self.branch.sideband_sign * self.m


def _transition(m: int, branch: Branch) -> tuple[int, Branch]:
    """The sideband index and branch, with m = 0 normalized to the carrier.

    JC/AJC require m >= 1; the carrier requires m = 0.
    """
    _require(m >= 0, "sideband index must be nonnegative")
    if m == 0:
        branch = Branch.CARRIER
    if branch is Branch.CARRIER:
        _require(m == 0, "carrier transitions have m = 0")
    return m, branch


def reduce(point: Mapping, m: int, branch: Branch, eta: float | None = None) -> ReducedParams:
    """Resolve one parameter point in SI units to its reduced groups.

    This is the single path from raw parameters to ReducedParams.  point
    holds mass (kg), nu, omega0 and omega_rabi (rad/s), optional phi_angle
    (rad, the angle between the laser wave vector and the trap axis), and
    nbar or beta (1/J); when both are present nbar wins, so a sweep over
    nbar may keep a fixed beta in its held block.  eta, when given,
    overrides the geometric Lamb-Dicke value
    eta = (omega_L / c) * sqrt(hbar / (2 M nu)) * cos(phi), whose laser
    frequency the branch fixes: omega_L = omega0 -+ m nu.
    """
    mass = float(point["mass"])
    nu = float(point["nu"])
    omega0 = float(point["omega0"])
    omega_rabi = float(point["omega_rabi"])
    phi_angle = float(point.get("phi_angle", 0.0))
    _require(mass > 0, "ion mass must be positive")
    _require(nu > 0, "trap frequency must be positive")
    _require(omega0 > 0, "transition frequency must be positive")
    _require(omega_rabi >= 0, "Rabi frequency must be nonnegative")
    _require(0.0 <= phi_angle <= math.pi / 2, "laser angle must lie in [0, pi/2]")
    if point.get("nbar") is not None:
        nbar = float(point["nbar"])
        _require(math.isfinite(nbar) and nbar > 0, "nbar must be positive and finite")
        b_nu = math.log1p(1.0 / nbar)
    elif point.get("beta") is not None:
        beta = float(point["beta"])
        _require(math.isfinite(beta) and beta > 0, "beta must be positive and finite")
        b_nu = beta * HBAR * nu
    else:
        raise ValueError("give nbar or beta for the initial temperature")
    m, branch = _transition(int(m), branch)
    beta_hbar = b_nu / nu
    b_w0 = beta_hbar * omega0
    b_om = beta_hbar * omega_rabi
    if eta is None:
        omega_l = omega0 + branch.sideband_sign * m * nu
        _require(omega_l > 0, "sideband detuning exceeds the transition frequency; supply eta explicitly")
        two_mass_nu = 2.0 * mass * nu  # 0.0 when the product underflows
        eta = math.inf
        if two_mass_nu > 0:
            eta = (omega_l / SPEED_OF_LIGHT) * math.sqrt(HBAR / two_mass_nu) * math.cos(phi_angle)
        _require(
            math.isfinite(eta),
            "the geometric Lamb-Dicke parameter is not finite at this mass and trap frequency; supply eta explicitly",
        )
    for name, val in (("b_nu", b_nu), ("b_w0", b_w0), ("b_om", b_om)):
        if not math.isfinite(val):
            raise ValueError(f"dimensionless group {name} overflowed to a non-finite value")
    return ReducedParams(b_nu=b_nu, b_w0=b_w0, b_om=b_om, eta=float(eta), m=m, branch=branch)


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
    m, branch = _transition(m, branch)
    return ReducedParams(
        b_nu=b_nu,
        b_w0=b_nu * omega0_over_nu,
        b_om=b_nu * omega_rabi_over_nu,
        eta=eta,
        m=m,
        branch=branch,
    )
