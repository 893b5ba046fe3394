"""Parameter sweeps over grids of lag evaluations, with plot-ready rows.

Rows come out in a fixed order: spec by spec, and within a spec grid-major,
then branch, then sideband index.  A spec's lags come from one
thermo.lag_columns call (see run_specs); evaluate_point is the
one-point form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, NamedTuple

from .params import Branch, ReducedParams, reduce
from .thermo import TruncationPolicy, lag_columns, nonequilibrium_lag

__all__ = ["SweepSpec", "ResultRow", "RESULT_COLUMNS", "run_specs", "evaluate_point", "spec_fixed_columns"]

SWEEP_AXES = ("eta", "omega_rabi", "nbar", "nu", "m")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, and the held-fixed parameter block.

    fixed holds raw SI parameters (nu, omega0, omega_rabi, mass, optional
    phi_angle) plus exactly one of nbar/beta, plus eta when the Lamb-Dicke
    parameter is pinned rather than derived from the geometry.  m_values is
    ignored when the axis itself is "m".
    """

    axis: str
    grid: tuple
    fixed: Mapping[str, float]
    branches: tuple[Branch, ...]
    m_values: tuple[int, ...]
    n_pinned: int | None = None

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("sweep grid must be strictly monotone")
        if not self.branches:
            raise ValueError("at least one branch is required")
        if self.axis != "m" and not self.m_values:
            raise ValueError("at least one sideband index is required")

    def points(self) -> Iterator[dict]:
        """Parameter points in grid-major, then branch, then m order."""
        for value in self.grid:
            for branch in self.branches:
                ms = (int(value),) if self.axis == "m" else self.m_values
                for m in ms:
                    point = dict(self.fixed)
                    if self.axis != "m":
                        point[self.axis] = float(value)
                    point["m"] = m
                    point["branch"] = branch
                    yield point


class ResultRow(NamedTuple):
    """One evaluated grid point, as a tuple in output column order; column set is fixed and documented."""

    nu: float
    omega0: float
    omega_rabi: float
    mass: float
    phi_angle: float
    eta: float
    nbar: float
    b_nu: float
    b_w0: float
    b_om: float
    b_wl: float
    m: int
    branch: str
    lag: float
    n_used: int
    tail_bound_log: float
    converged: bool
    divergence_predicted: bool


# The output columns, in the field order of ResultRow.
RESULT_COLUMNS = ResultRow._fields
# The SI columns, which lead a row; a spec holds all of them but its axis fixed.
SI_COLUMNS = RESULT_COLUMNS[:5]


def spec_fixed_columns(spec: SweepSpec) -> tuple[int, ...]:
    """Positions in RESULT_COLUMNS of the SI columns every row of spec shares: all but its axis."""
    return tuple(i for i, name in enumerate(SI_COLUMNS) if name != spec.axis)


def evaluate_point(point: Mapping, policy: TruncationPolicy | None = None) -> ResultRow:
    """Evaluate the lag at one point; policy alone sets its truncation, its pin included."""
    rp = reduce(point, point["m"], point["branch"], point.get("eta"))
    result = nonequilibrium_lag(rp, policy=policy)
    report = result.truncation
    lag = result.value, report.n_used, report.tail_bound_log, report.converged, result.divergence_predicted
    return _row(_si_values(point), rp, *lag)


def _si_values(point: Mapping) -> list[float]:
    """The SI columns of a point, in SI_COLUMNS order; they echo the point, phi_angle is NaN when eta was given."""
    phi_angle = math.nan if point.get("eta") is not None else float(point.get("phi_angle", 0.0))
    return [float(point["nu"]), float(point["omega0"]), float(point["omega_rabi"]), float(point["mass"]), phi_angle]


def _row(si_values: list[float], rp: ReducedParams, *lag: float | int | bool) -> ResultRow:
    """The row of a point with SI columns si_values, reduced parameters rp and its lag columns, in row order."""
    return ResultRow(*si_values, rp.eta, rp.nbar, rp.b_nu, rp.b_w0, rp.b_om, rp.b_wl, rp.m, rp.branch.value, *lag)


def run_specs(specs: Iterable[SweepSpec], policy: TruncationPolicy | None = None) -> list[ResultRow]:
    """Evaluate every point of every spec, in spec order and then spec.points() order.

    Each spec's points are resolved first, then all their lags come from one
    thermo.lag_columns call, which sums them in blocks of live rows in
    point order (see thermo's truncation constants), and the rows are built
    straight from its columns, with no result object per row.  A spec's SI
    columns are converted once; only its axis column is set per point.  A
    TruncationError names the first failing point of the first spec that
    has one.
    """
    policy = policy or TruncationPolicy()
    rows: list[ResultRow] = []
    for spec in specs:
        spec_policy = policy if spec.n_pinned is None else replace(policy, n_pinned=spec.n_pinned)
        points = list(spec.points())
        rps = [reduce(p, p["m"], p["branch"], p.get("eta")) for p in points]
        lags = lag_columns(rps, spec_policy)
        si_values = _si_values(points[0])
        axis = SI_COLUMNS.index(spec.axis) if spec.axis in SI_COLUMNS else None
        columns = (lags.value, lags.n_used, lags.tail_bound_log, lags.converged, lags.divergence_predicted)
        for point, rp, *lag in zip(points, rps, *columns):
            if axis is not None:
                si_values[axis] = point[spec.axis]
            rows.append(_row(si_values, rp, *lag))
    return rows
