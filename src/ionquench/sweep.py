"""Parameter sweeps over grids of lag evaluations, with plot-ready rows.

Rows come out in a fixed order: spec by spec, and within a spec grid-major,
then branch, then sideband index.  A spec's reduced groups come from one
params.reduce_grid call and its lags from one thermo.lag_columns call (see
run_specs); evaluate_point is the one-point form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .params import Branch, reduce_grid
from .thermo import TruncationPolicy, lag_columns

__all__ = ["SweepSpec", "ResultRow", "RESULT_COLUMNS", "run_specs", "evaluate_point"]

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
# Branch.value by sideband_sign + 1.
_BRANCH_TEXTS = np.array([Branch.JC.value, Branch.CARRIER.value, Branch.AJC.value])


def evaluate_point(point: Mapping, policy: TruncationPolicy | None = None) -> ResultRow:
    """The row of one point, as the one row of a one-point spec; policy alone sets its truncation, pin included."""
    spec = SweepSpec(axis="m", grid=(point["m"],), fixed=point, branches=(point["branch"],), m_values=())
    return run_specs([spec], policy)[0]


def run_specs(specs: Iterable[SweepSpec], policy: TruncationPolicy | None = None) -> list[ResultRow]:
    """Evaluate every point of every spec, in spec order and then spec.points() order.

    Each spec's points are resolved by one params.reduce_grid call, and all
    their lags come from one thermo.lag_columns call, which sums them in
    blocks of live rows in point order (see thermo's truncation constants).
    The rows are zipped straight from those columns: no point, reduced
    parameters or result object per row.  The SI columns echo the spec;
    phi_angle is NaN when eta is given.  A TruncationError names the first
    failing point of the first spec that has one.
    """
    policy = policy or TruncationPolicy()
    rows: list[ResultRow] = []
    for spec in specs:
        spec_policy = policy if spec.n_pinned is None else replace(policy, n_pinned=spec.n_pinned)
        cols = reduce_grid(spec.fixed, spec.axis, spec.grid, spec.branches, spec.m_values)
        lags = lag_columns(cols, spec_policy)
        eta_given = spec.axis == "eta" or spec.fixed.get("eta") is not None
        phi_angle = math.nan if eta_given else float(spec.fixed.get("phi_angle", 0.0))
        si = [repeat(float(spec.fixed[name])) for name in SI_COLUMNS[:4] if name != spec.axis]
        if spec.axis in SI_COLUMNS:
            grid = np.array(spec.grid, dtype=float)
            si.insert(SI_COLUMNS.index(spec.axis), np.repeat(grid, cols.m.size // grid.size).tolist())
        branch = _BRANCH_TEXTS[cols.sign + 1]
        reduced = (cols.eta, cols.nbar, cols.b_nu, cols.b_w0, cols.b_om, cols.b_wl, cols.m, branch)
        lag = (lags.value, lags.n_used, lags.tail_bound_log, lags.converged, lags.divergence_predicted)
        rows += map(ResultRow._make, zip(*si, repeat(phi_angle), *(column.tolist() for column in reduced), *lag))
    return rows
