"""reduce_grid, the batch form of reduce, against a straight-line per-point oracle.

Every row of a grid has the bits of its point resolved alone, and a grid
with an invalid point raises the message of the first such point, in point
order.  The oracle below resolves one point with math and Python floats,
check by check, as a reference that shares no code with reduce_grid but
ReducedParams.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ionquench.params import HBAR, SPEED_OF_LIGHT, Branch, ReducedParams, reduce, reduce_grid
from ionquench.sweep import SWEEP_AXES

from conftest import FIG1


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _oracle(point, m, branch, eta):
    """One point's ReducedParams, each check in its order, with Python floats and math."""
    mass, nu, omega0, omega_rabi = (float(point[k]) for k in ("mass", "nu", "omega0", "omega_rabi"))
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
    m = int(m)
    _require(m >= 0, "sideband index must be nonnegative")
    branch = Branch.CARRIER if m == 0 else branch
    _require(branch is not Branch.CARRIER or m == 0, "carrier transitions have m = 0")
    b_w0, b_om = b_nu / nu * omega0, b_nu / nu * omega_rabi
    if eta is None:
        omega_l = omega0 + branch.sideband_sign * m * nu
        _require(omega_l > 0, "sideband detuning exceeds the transition frequency; supply eta explicitly")
        two_mass_nu = 2.0 * mass * nu
        eta = math.inf
        if two_mass_nu > 0:
            eta = (omega_l / SPEED_OF_LIGHT) * math.sqrt(HBAR / two_mass_nu) * math.cos(phi_angle)
        _require(
            math.isfinite(eta),
            "the geometric Lamb-Dicke parameter is not finite at this mass and trap frequency; supply eta explicitly",
        )
    for name, val in (("b_nu", b_nu), ("b_w0", b_w0), ("b_om", b_om)):
        _require(math.isfinite(val), f"dimensionless group {name} overflowed to a non-finite value")
    return ReducedParams(b_nu=b_nu, b_w0=b_w0, b_om=b_om, eta=float(eta), m=m, branch=branch)


def _points(fixed, axis, grid, branches, m_values):
    """(point, m, branch, eta) in grid-major, then branch, then m order."""
    for value in grid:
        for branch in branches:
            for m in (int(value),) if axis == "m" else m_values:
                point = dict(fixed)
                if axis != "m":
                    point[axis] = float(value)
                yield point, m, branch, point.get("eta")


def _bits(rp):
    floats = (rp.b_nu, rp.b_w0, rp.b_om, rp.eta, rp.nbar, rp.ln_nbar_plus_1, rp.zi_edge)
    return (*map(float.hex, floats), rp.m, rp.branch)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


# Valid values first, then values that fail some check, or overflow a group, or underflow one.
_VALUES = {
    "mass": [7.0e-26, 1.0e-25, 0.0, -1.0, math.nan, 1e-320],
    "nu": [5.0e3, 1.2e8, 0.0, -5e3, 1e-300, 1e300],
    "omega0": [822.0 * math.pi * 1e12, 1.0e8, 0.0, 1e305],
    "omega_rabi": [math.pi * 1e6, 0.0, 1e9, -1.0, 1e200],
    "phi_angle": [0.0, 0.3, -0.1, 2.0, math.nan],
    "nbar": [0.38, 1e-4, 1e6, 0.0, -0.5, math.nan, math.inf, 5e-324],
    "beta": [2.4e30, 2.0, 0.0, -1.0, math.nan, 1e300],
    "eta": [0.5, 0.0, 3.5, -0.5, math.nan, math.inf],
}


@st.composite
def grids(draw):
    axis = draw(st.sampled_from(SWEEP_AXES))
    fixed = dict(FIG1)
    for key in ("mass", "nu", "omega0", "omega_rabi", "phi_angle"):
        if draw(st.integers(0, 3)) == 0:  # mostly the shared block, sometimes any listed value
            fixed[key] = draw(st.sampled_from(_VALUES[key]))
    temperature = draw(st.sampled_from(["nbar", "beta", "both", "none"]))
    for key in ("nbar", "beta"):
        if temperature in (key, "both"):
            fixed[key] = draw(st.sampled_from(_VALUES[key][:3] if draw(st.booleans()) else _VALUES[key]))
    if draw(st.booleans()):
        fixed["eta"] = draw(st.sampled_from(_VALUES["eta"]))
    if axis == "m":
        grid = draw(st.lists(st.integers(-1, 4), min_size=1, max_size=4))
    else:
        grid = draw(st.lists(st.sampled_from(_VALUES.get(axis, _VALUES["nu"])), min_size=1, max_size=4))
    branches = draw(st.lists(st.sampled_from(list(Branch)), min_size=1, max_size=3))
    m_values = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
    return fixed, axis, grid, branches, m_values


def _expected(fixed, axis, grid, branches, m_values):
    rows = []
    for args in _points(fixed, axis, grid, branches, m_values):
        row = _outcome(lambda: _oracle(*args))
        if isinstance(row, str):
            return row
        rows.append(_bits(row))
    return rows


def _batch(fixed, axis, grid, branches, m_values):
    def rows():
        return [_bits(rp) for rp in reduce_grid(fixed, axis, grid, branches, m_values).params()]

    return _outcome(rows)


@settings(max_examples=400, deadline=None)
@given(grids())
@example((dict(FIG1, nbar=0.38), "eta", [0.0, 1.75, 3.5], list(Branch), [0, 1, 2]))  # fig1-like, m = 0 twice
@example((dict(FIG1, nbar=0.38), "nbar", [1e-4, -1.0, 0.0], [Branch.JC], [1, -1]))  # two bad points, two checks
@example((dict(FIG1, eta=0.5), "nu", [5e2, 5e5], [Branch.CARRIER], [0]))  # no temperature on any point
@example((dict(FIG1, beta=2.0, eta=0.5), "omega_rabi", [1e6, 1e200], [Branch.AJC], [1]))  # b_om too large
def test_batch_equals_oracle_bit_for_bit_and_first_message(case):
    expected = _expected(*case)
    assert _batch(*case) == expected
    # reduce is the one-point case: each point alone agrees with the oracle too.
    for args in _points(*case[:3], case[3], case[4]):
        alone = _outcome(lambda: _bits(reduce(*args)))
        oracle = _outcome(lambda: _bits(_oracle(*args)))
        assert alone == oracle


def test_nbar_wins_over_beta_on_every_row():
    both = dict(FIG1, nbar=0.38, beta=1.0)
    cols = reduce_grid(both, "eta", [0.1, 0.2], [Branch.JC], [1, 2])
    alone = reduce_grid(dict(FIG1, nbar=0.38), "eta", [0.1, 0.2], [Branch.JC], [1, 2])
    assert all(np.array_equal(a, b) for a, b in zip(cols, alone))


def test_math_columns_keep_the_bits_of_math_where_numpy_differs():
    # At desk scale (omega0 = 10 nu) b_w0 is small, and numpy's exp, expm1 and log differ from math's in the
    # last bit at some of these temperatures: each column must still be math's, as the scalar properties are.
    point = dict(FIG1, omega0=FIG1["nu"] * 10.0, eta=0.5)
    cols = reduce_grid(point, "nbar", np.geomspace(0.05, 50, 400).tolist(), [Branch.JC], [1])
    cases = [
        (cols.nbar, cols.b_nu, lambda b: 1.0 / math.expm1(b), lambda b: 1.0 / np.expm1(b)),
        (cols.ln_nbar_plus_1, cols.b_nu, lambda b: -math.log(-math.expm1(-b)), lambda b: -np.log(-np.expm1(-b))),
        (cols.zi_edge, cols.b_w0, lambda b: math.log1p(math.exp(-b)), lambda b: np.log1p(np.exp(-b))),
    ]
    for column, groups, with_math, with_numpy in cases:
        expected = [with_math(b) for b in groups.tolist()]
        assert column.tolist() == expected
        assert with_numpy(groups).tolist() != expected
