"""Figure presets: parameter blocks and sweep grids for the reference plots.

Quoted frequencies are read as angular ("1.0 pi MHz" means pi x 1e6 rad/s).
Where a reference plot pins the number of summation terms, the preset pins it
too; grids the references leave unspecified (the Rabi sweep range, the
occupation grid, the Lamb-Dicke values of the sideband-number sweep) are
reconstructions chosen to expose the same features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import HBAR, Branch
from .sweep import SweepSpec

__all__ = ["FigurePreset", "FIG1_CONFIG", "figure_presets", "desk_scale_point"]

# Shared physical block: Ca+-style trap drive.
FIG1_CONFIG = {
    "mass": 7.0e-26,  # kg
    "nu": 5.0e3,  # rad/s
    "omega0": 822.0 * math.pi * 1e12,  # rad/s
    "omega_rabi": 1.0 * math.pi * 1e6,  # rad/s
    "nbar": 0.38,
}

# Strong-coupling block used for the zero-temperature divergence panels.
_FIG4_LEFT = {"mass": 7.0e-26, "nu": 1.2e8, "omega0": 1.0e8, "omega_rabi": 0.5e9, "eta": 1.5}
_FIG4_RIGHT = {"mass": 7.0e-26, "nu": 1.2e8, "omega0": 1.0e8, "omega_rabi": 1.0e9, "eta": 1.0}


@dataclass(frozen=True)
class FigurePreset:
    name: str
    description: str
    specs: tuple[SweepSpec, ...]


def _fig1() -> FigurePreset:
    grid = tuple(np.linspace(0.0, 3.5, 71).tolist())
    spec = SweepSpec(
        axis="eta",
        grid=grid,
        fixed=dict(FIG1_CONFIG),
        branches=(Branch.AJC, Branch.JC),
        m_values=(0, 1, 2),
        n_pinned=40,
    )
    return FigurePreset("fig1", "lag vs Lamb-Dicke parameter, m = 0..2, both branches", (spec,))


def _fig2() -> FigurePreset:
    grid = tuple(np.geomspace(math.pi * 1e4, math.pi * 1e7, 31).tolist())
    fixed = {k: v for k, v in FIG1_CONFIG.items() if k != "omega_rabi"}
    fixed["eta"] = 0.5
    spec = SweepSpec(
        axis="omega_rabi",
        grid=grid,
        fixed=fixed,
        branches=(Branch.AJC, Branch.JC),
        m_values=(0, 1, 2),
        n_pinned=40,
    )
    return FigurePreset("fig2", "lag vs Rabi frequency at eta = 0.5", (spec,))


def _fig3() -> FigurePreset:
    grid = tuple(np.geomspace(1e-4, 10.0, 36).tolist())
    fixed = {k: v for k, v in FIG1_CONFIG.items() if k != "nbar"}
    fixed["eta"] = 0.5
    specs = (
        SweepSpec(axis="nbar", grid=grid, fixed=fixed, branches=(Branch.AJC,), m_values=(0, 1, 2), n_pinned=2000),
        SweepSpec(axis="nbar", grid=grid, fixed=fixed, branches=(Branch.JC,), m_values=(0, 1, 2), n_pinned=5000),
    )
    return FigurePreset("fig3", "lag vs initial occupation at eta = 0.5", specs)


def _fig4() -> FigurePreset:
    # Occupations up to 1: the zero-temperature divergence is the point here,
    # and the pinned 50-term sum stays tail-certified on this range.
    grid = tuple(np.geomspace(1e-4, 1.0, 31).tolist())
    specs = tuple(
        SweepSpec(
            axis="nbar",
            grid=grid,
            fixed=dict(block),
            branches=(Branch.JC,),
            m_values=(1, 2),
            n_pinned=50,
        )
        for block in (_FIG4_LEFT, _FIG4_RIGHT)
    )
    return FigurePreset("fig4", "lag vs occupation in the strong-coupling divergence regime", specs)


def _fig5() -> FigurePreset:
    # Trap-frequency sweep at fixed eta; beta is held at the value the shared
    # block implies (nbar = 0.38 at nu = 5 kHz), so the reduced temperature
    # tracks nu.
    beta = math.log1p(1.0 / FIG1_CONFIG["nbar"]) / (HBAR * FIG1_CONFIG["nu"])
    grid = tuple(np.geomspace(5e2, 5e5, 31).tolist())
    fixed_base = {k: v for k, v in FIG1_CONFIG.items() if k not in ("nu", "nbar")}
    specs = tuple(
        SweepSpec(
            axis="nu",
            grid=grid,
            fixed=dict(fixed_base, beta=beta, eta=eta),
            branches=(Branch.CARRIER,),
            m_values=(0,),
            n_pinned=None,
        )
        for eta in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
    )
    return FigurePreset("fig5", "carrier lag vs trap frequency at fixed eta and beta", specs)


def _fig6() -> FigurePreset:
    grid = tuple(range(0, 30))
    specs = tuple(
        SweepSpec(
            axis="m",
            grid=grid,
            fixed=dict(FIG1_CONFIG, eta=eta),
            branches=(Branch.JC, Branch.AJC),
            m_values=(),
            n_pinned=40,
        )
        for eta in (0.5, 1.5, 2.5, 3.5)
    )
    return FigurePreset("fig6", "lag vs sideband number for several Lamb-Dicke values", specs)


_BUILDERS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6}


def figure_presets(*names: str) -> dict[str, FigurePreset]:
    """The presets called names (fig1 to fig6), or all six when none is named, each built afresh."""
    return {name: _BUILDERS[name]() for name in names or _BUILDERS}


def desk_scale_point() -> dict:
    """Moderate frequency ratios where the dense oracle keeps full accuracy."""
    return {
        "mass": 1.0e-25,
        "nu": 1.0e6,
        "omega0": 1.0e7,
        "omega_rabi": 1.0e6,
        "nbar": 0.38,
        "eta": 0.5,
    }
