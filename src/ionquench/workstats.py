"""Statistical moments of the sudden-quench work distribution.

Closed forms exist for the full-coupling quench: the mean vanishes, the
second moment is (hbar omega_rabi / 2)^2 independent of temperature, and the
third moment is (hbar^3 omega_rabi^2 / 4)(nu eta^2 + omega0 tanh(b_w0/2)).
The numeric route evaluates the binomial two-point-measurement trace formula

    <W^n> = sum_k (-1)^k C(n,k) Tr[H_f^(n-k) H_i^k rho_i]

on the dense truncated operators, and the sideband work distribution itself
comes from the analytic eigenpairs.  All work values are in hbar*nu units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import eta_squared
from .params import ReducedParams
from .spectra import DenseQuench, EigenPair, edge_level, ket_energy, sideband_eigenvectors, truncation_tail_warning

__all__ = [
    "WorkMoments",
    "MomentEstimate",
    "WorkPMF",
    "moments_analytic",
    "moments_numeric",
    "work_pmf_sideband",
]

MAX_NUMERIC_ORDER = 4  # closed forms stop at 3; order 4 kept for exploration


@dataclass(frozen=True)
class WorkMoments:
    """First three work moments (units (hbar nu)^k) plus the skewness."""

    mean: float
    second: float
    third: float
    skewness: float


@dataclass(frozen=True)
class MomentEstimate:
    """Numeric moment with a cancellation diagnostic.

    cancellation_ratio is the largest binomial term over the result; above
    1e6 roughly six digits have been lost and the warning flag is set.
    """

    order: int
    value: float
    largest_term: float
    cancellation_ratio: float
    cancellation_warning: bool


def moments_analytic(rp: ReducedParams) -> WorkMoments:
    """Closed-form moments for the full-coupling sudden quench, in hbar*nu units.

    Raises ValueError when eta^2, a moment or the skewness overflows.
    """
    half_om = 0.5 * rp.r_om
    second = half_om * half_om
    third = second * (eta_squared(rp.eta) + rp.r_w0 * math.tanh(0.5 * rp.b_w0))
    skew = third / second**1.5 if second > 0 else 0.0
    if not (math.isfinite(third) and math.isfinite(skew)):
        raise ValueError(f"work moments overflow at Lamb-Dicke parameter {rp.eta!r}")
    return WorkMoments(mean=0.0, second=second, third=third, skewness=skew)


def moments_numeric(ops: DenseQuench, order: int, use_full: bool = True) -> MomentEstimate:
    """Binomial trace evaluation of <W^order> on the dense truncated operators ops.

    use_full selects the full exponential coupling as the quench target;
    otherwise the resonant sideband coupling is used.  Build ops once with
    dense_hamiltonians and pass it to every order.  Intended for desk-scale
    frequency ratios: at experimental ratios the alternating binomial terms
    cancel far beyond double precision.
    """
    if not 1 <= order <= MAX_NUMERIC_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_NUMERIC_ORDER}")
    h_f = ops.h_final_full if use_full else ops.h_final_sideband
    h_i_diag = np.real(np.diag(ops.h_initial))
    weights = np.real(np.diag(ops.rho_initial))

    # Tr[H_f^(order-k) H_i^k rho] with H_i and rho diagonal.
    powers_diag = [np.ones_like(h_i_diag)]  # diagonals of H_f^0, H_f^1, ...
    mat = np.eye(h_f.shape[0], dtype=complex)
    for _ in range(order):
        mat = mat @ h_f
        powers_diag.append(np.real(np.diag(mat)))

    total = 0.0
    largest = 0.0
    for k in range(order + 1):
        term = math.comb(order, k) * float(np.sum(powers_diag[order - k] * h_i_diag**k * weights))
        total += (-1) ** k * term
        largest = max(largest, abs(term))
    ratio = largest / abs(total) if total != 0.0 else math.inf if largest > 0 else 0.0
    return MomentEstimate(
        order=order,
        value=total,
        largest_term=largest,
        cancellation_ratio=ratio,
        cancellation_warning=ratio > 1e6,
    )


@dataclass(frozen=True)
class WorkPMF:
    """Two-point-measurement work distribution, collated and sorted.

    values/probabilities are parallel arrays sorted by work value, with
    nearby values merged.  tail_warning is spectra.truncation_tail_warning: the
    Gibbs weight of the initial levels past the truncation (not renormalized)
    is at least 1e-12.
    """

    values: np.ndarray
    probabilities: np.ndarray
    tail_warning: bool

    def moment(self, order: int) -> float:
        return float(np.sum(self.probabilities * self.values**order))

    @property
    def total(self) -> float:
        return float(np.sum(self.probabilities))


def work_pmf_sideband(rp: ReducedParams, n_trunc: int) -> WorkPMF:
    """Work distribution for a sideband quench from the analytic eigenpairs.

    Initial energy eigenstates |n, g/e> are drawn from the Gibbs weights; the
    final energies and overlaps come from the exact 2x2 blocks, so no dense
    diagonalization is involved.  Work values within 1e-9 of the largest
    energy magnitude are merged (exact degeneracies, e.g. zero-work edge
    events, collapse to one atom).
    """
    thermal_base = -math.expm1(-rp.b_nu)
    p_g = 1.0 / (1.0 + math.exp(-rp.b_w0))
    p_e = 1.0 - p_g

    edge = edge_level(rp)
    events_w: list[float] = []
    events_p: list[float] = []
    max_abs_e = 0.0
    for n in range(n_trunc + 1):
        p_th = thermal_base * math.exp(-rp.b_nu * n)
        for level, p_level in (("g", p_g), ("e", p_e)):
            e_init = ket_energy(n, level, rp)
            block_n = n - rp.m if level == edge else n
            # An edge ket (no block) is an eigenstate of both Hamiltonians: zero work.
            finals = sideband_eigenvectors(block_n, rp) if block_n >= 0 else (EigenPair(e_init, {(n, level): 1.0}),)
            for pair in finals:
                prob = p_th * p_level * abs(pair.amplitudes.get((n, level), 0.0)) ** 2
                if prob != 0.0:
                    events_w.append(pair.value - e_init)
                    events_p.append(prob)
                    max_abs_e = max(max_abs_e, abs(e_init), abs(pair.value))

    order = np.argsort(np.asarray(events_w), kind="stable")
    w_sorted = np.asarray(events_w)[order]
    p_sorted = np.asarray(events_p)[order]

    tol = 1e-9 * max_abs_e
    merged_w: list[float] = []
    merged_p: list[float] = []
    for w, p in zip(w_sorted, p_sorted):
        if merged_w and w - merged_w[-1] <= tol:
            merged_p[-1] += p
        else:
            merged_w.append(float(w))
            merged_p.append(float(p))

    return WorkPMF(
        values=np.asarray(merged_w),
        probabilities=np.asarray(merged_p),
        tail_warning=truncation_tail_warning(rp, n_trunc),
    )
