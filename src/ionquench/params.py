"""Physical parameters, unit conventions, and reduced dimensionless groups.

All frequencies in this package are angular (rad/s).  Quantities quoted in
the "1.0 pi MHz" style are ingested verbatim as angular values
(pi x 1e6 rad/s).  :func:`reduce_grid` is the one path from parameter points
in SI units to the dimensionless groups, as :class:`ReducedColumns`;
:func:`reduce` is its one-point case, a :class:`ReducedParams`, and
:func:`reduced_from_ratios` builds one from frequency ratios instead.
Every computation downstream consumes only those groups; SI magnitudes never
enter the numerical kernels.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .numerics import each_distinct

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "Branch",
    "ReducedParams",
    "ReducedColumns",
    "reduce",
    "reduce_grid",
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


def _groups_ok(b_nu: float, b_w0: float, b_om: float) -> bool:
    """Whether b_nu, b_w0 and b_om pass the checks of ReducedParams (a nan fails every comparison)."""
    return 0.0 < b_nu < math.inf and 0.0 <= b_w0 < math.inf and 0.0 <= b_om <= _B_OM_MAX and b_om / b_nu <= _B_OM_MAX


# The math steps of a row, which ReducedParams takes per row and reduce_grid once per distinct value.
def _nbar(b_nu: float) -> float:
    try:
        return 1.0 / math.expm1(b_nu)
    except OverflowError:  # e^b_nu overflows; 1/(e^b_nu - 1) is e^(-b_nu) to double precision
        return math.exp(-b_nu)


def _ln_nbar_plus_1(b_nu: float) -> float:
    return -math.log(-math.expm1(-b_nu))  # -log(1 - e^(-b_nu)), stable for tiny and huge b_nu


def _zi_edge(b_w0: float) -> float:
    return math.log1p(math.exp(-b_w0))


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
            _groups_ok(self.b_nu, self.b_w0, self.b_om)
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
        return _nbar(self.b_nu)

    @property
    def ln_nbar_plus_1(self) -> float:
        return _ln_nbar_plus_1(self.b_nu)

    @property
    def zi_edge(self) -> float:
        """log(1 + e^(-b_w0)): log Z_initial - b_w0/2 - log(nbar + 1)."""
        return _zi_edge(self.b_w0)

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


_BRANCHES = (Branch.JC, Branch.CARRIER, Branch.AJC)  # by sideband_sign + 1


def _transition(m: int, branch: Branch) -> tuple[str | None, int, int]:
    """(message of the failing check or None, m, sideband sign): m = 0 is the carrier, which needs m = 0."""
    if m < 0:
        return "sideband index must be nonnegative", m, 0
    if m and branch is Branch.CARRIER:
        return "carrier transitions have m = 0", m, 0
    return None, m, branch.sideband_sign if m else 0


class ReducedColumns(NamedTuple):
    """Reduced groups of many points as columns, each row with the bits of its own ReducedParams.

    The branch is kept as its sideband_sign; nbar, ln_nbar_plus_1 and zi_edge are the properties' columns.
    """

    b_nu: np.ndarray
    b_w0: np.ndarray
    b_om: np.ndarray
    eta: np.ndarray
    m: np.ndarray
    sign: np.ndarray
    nbar: np.ndarray
    ln_nbar_plus_1: np.ndarray
    zi_edge: np.ndarray

    @classmethod
    def of(cls, rps) -> ReducedColumns:
        """rps if it is already columns, else the columns of a sequence of ReducedParams."""
        if isinstance(rps, ReducedColumns):
            return rps
        rows = [
            (p.b_nu, p.b_w0, p.b_om, p.eta, p.m, p.branch.sideband_sign, p.nbar, p.ln_nbar_plus_1, p.zi_edge)
            for p in rps
        ]
        columns = np.array(rows, dtype=float).reshape(-1, len(cls._fields)).T
        return cls(*columns[:4], *columns[4:6].astype(int), *columns[6:])

    @property
    def b_wl(self) -> np.ndarray:
        return self.b_w0 + self.sign * self.m * self.b_nu

    @property
    def r_w0(self) -> np.ndarray:
        return self.b_w0 / self.b_nu

    @property
    def r_om(self) -> np.ndarray:
        return self.b_om / self.b_nu

    def take(self, rows) -> ReducedColumns:
        return ReducedColumns(*(column[rows] for column in self))

    def params(self, rows=slice(None)) -> list[ReducedParams]:
        """One ReducedParams per row, or per row listed in rows."""
        branches = [_BRANCHES[sign + 1] for sign in self.sign[rows].tolist()]
        return [ReducedParams(*row) for row in zip(*(column[rows].tolist() for column in self[:5]), branches)]


_SI_AXES = ("omega_rabi", "nbar", "nu")  # the axes along which a point's SI parameters change


def _si_groups(point: Mapping) -> tuple:
    """((b_nu, b_w0, b_om), (mass, nu, omega0, cos(phi))) of point, after its SI checks, which raise ValueError."""
    mass, nu, omega0, omega_rabi = (float(point[key]) for key in ("mass", "nu", "omega0", "omega_rabi"))
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
    beta_hbar = b_nu / nu
    return (b_nu, beta_hbar * omega0, beta_hbar * omega_rabi), (mass, nu, omega0, math.cos(phi_angle))


def _resolve(fixed: Mapping, axis: str, grid: Sequence, branches: Sequence[Branch], m_values: Sequence[int]) -> tuple:
    """The checked points of reduce_grid: (b_nu, b_w0, b_om) per grid value, eta per point, (_, m, sign) per point."""

    def transitions(ms) -> list:  # _transition of each point's branch and m, in point order
        return [_transition(m, branch) for branch in branches for m in map(int, ms)]

    _require(axis in (*_SI_AXES, "eta", "m"), f"axis must be one of {(*_SI_AXES, 'eta', 'm')}")
    points, block = transitions(m_values), None
    geometric = axis != "eta" and fixed.get("eta") is None
    eta = None if axis == "eta" or geometric else float(fixed["eta"])
    groups_of, etas, pairs, etas_of = [], [], [], {}  # groups_of: (b_nu, b_w0, b_om) of each grid value
    for value in grid:
        points = transitions((value,)) if axis == "m" else points
        if not points:  # no branch, or no m: no point to check
            break
        if block is None or axis in _SI_AXES:  # a point's SI checks come before its other checks
            block = _si_groups({**fixed, axis: float(value)} if axis in _SI_AXES else fixed)
        eta = float(value) if axis == "eta" else eta
        groups, geometry = block
        b_nu, b_w0, b_om = groups
        groups_ok = _groups_ok(*groups)
        for problem, m, sign in points:
            _require(problem is None, problem)
            if geometric and (geometry, m, sign) not in etas_of:  # (omega_L / c) sqrt(hbar / (2 M nu)) cos(phi)
                mass, nu, omega0, cos_phi = geometry
                omega_l = omega0 + sign * m * nu
                _require(omega_l > 0, "sideband detuning exceeds the transition frequency; supply eta explicitly")
                two_mass_nu = 2.0 * mass * nu  # 0.0 when the product underflows
                root = math.sqrt(HBAR / two_mass_nu) if two_mass_nu > 0 else math.inf
                etas_of[geometry, m, sign] = eta = (omega_l / SPEED_OF_LIGHT) * root * cos_phi
                _require(math.isfinite(eta), "the geometric Lamb-Dicke parameter is not finite at this mass and trap "
                         "frequency; supply eta explicitly")  # fmt: skip
            eta = etas_of[geometry, m, sign] if geometric else eta
            if not (groups_ok and 0.0 <= eta < math.inf and abs(b_w0 + sign * m * b_nu) < math.inf):
                for name, group in zip(("b_nu", "b_w0", "b_om"), groups):
                    _require(math.isfinite(group), f"dimensionless group {name} overflowed to a non-finite value")
                ReducedParams(b_nu, b_w0, b_om, eta, m, _BRANCHES[sign + 1])  # raises: its checks give the message
            etas.append(eta)
        groups_of.append(groups)
        pairs += points if axis == "m" else []
    return groups_of, etas, pairs if axis == "m" else points * len(groups_of)


def reduce_grid(
    fixed: Mapping, axis: str, grid: Sequence, branches: Sequence[Branch], m_values: Sequence[int]
) -> ReducedColumns:
    """The ReducedColumns of a sweep's points in SI units: the one path from raw parameters to reduced groups.

    The points are grid-major, then branch, then m: fixed with its axis parameter set to each grid value, or on
    the "m" axis each value as the sideband index (m_values unused); m = 0 is the carrier on any branch.  fixed
    holds mass (kg), nu, omega0 and omega_rabi (rad/s), optional phi_angle (rad, from the trap axis to the laser
    wave vector), and nbar or beta (1/J); nbar wins, so a sweep over nbar may hold a beta.  A given eta (fixed or
    the axis) overrides the geometric eta = (omega_L / c) sqrt(hbar / (2 M nu)) cos(phi), omega_L = omega0 -+ m nu.
    The points are checked in order, so a ValueError names the first failing check of the first invalid point;
    the SI checks and each math step run once per distinct value (per grid value on an SI axis, else once).
    """
    groups_of, etas, pairs = _resolve(fixed, axis, grid, branches, m_values)
    m, sign = (np.array([pair[k] for pair in pairs], dtype=int) for k in (1, 2))
    b_nu, b_w0, b_om = np.array(groups_of, dtype=float).reshape(-1, 3).T
    derived = each_distinct(_nbar, b_nu), each_distinct(_ln_nbar_plus_1, b_nu), each_distinct(_zi_edge, b_w0)
    at = np.arange(len(groups_of)).repeat(len(pairs) // max(len(groups_of), 1))  # each point's grid value
    return ReducedColumns(b_nu[at], b_w0[at], b_om[at], np.array(etas, dtype=float), m, sign, *(c[at] for c in derived))


def reduce(point: Mapping, m: int, branch: Branch, eta: float | None = None) -> ReducedParams:
    """The reduced groups of one point: reduce_grid's one-point case, point its fixed block, and eta if given."""
    ((groups,), (eta,), ((_, m, sign),)) = _resolve(dict(point, eta=eta), "m", (m,), (branch,), ())
    return ReducedParams(*groups, eta, m, _BRANCHES[sign + 1])


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
    problem, m, sign = _transition(m, branch)
    _require(problem is None, problem)
    return ReducedParams(
        b_nu=b_nu,
        b_w0=b_nu * omega0_over_nu,
        b_om=b_nu * omega_rabi_over_nu,
        eta=eta,
        m=m,
        branch=_BRANCHES[sign + 1],
    )
