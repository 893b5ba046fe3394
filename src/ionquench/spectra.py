"""Exact block eigendecomposition of the sideband Hamiltonians at the quench
instant, plus dense truncated-Fock builders used as a brute-force oracle.

Internal energy unit is hbar*nu throughout, so matrix norms stay near
omega0/nu instead of absolute SI magnitudes.  The product basis is ordered
|0,g>, |0,e>, |1,g>, |1,e>, ... and the dense oracle is meant for desk-scale
frequency ratios (omega0/nu up to ~1e4); at experimental ratios the spectral
spread destroys dense-solver accuracy and the analytic formulas take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import CouplingValue, coupling_f, coupling_logabs_sequence, sqrt_shift
from .params import Branch, ReducedParams

__all__ = [
    "EigenPair",
    "SpectrumTable",
    "DenseQuench",
    "ket_index",
    "sideband_eigenvalues",
    "edge_eigenvalues",
    "sideband_eigenvectors",
    "spectrum_table",
    "displacement_matrix",
    "dense_hamiltonians",
    "analytic_dense_spectrum",
]


def ket_index(n: int, level: str) -> int:
    """Index of |n, level> in the ordered product basis |0,g>, |0,e>, |1,g>, ..."""
    if level not in ("g", "e"):
        raise ValueError("level must be 'g' or 'e'")
    return 2 * n + (1 if level == "e" else 0)


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue (units of hbar*nu) with amplitudes over labeled kets."""

    value: float
    amplitudes: dict[tuple[int, str], complex]

    def as_dense(self, n_trunc: int) -> np.ndarray:
        vec = np.zeros(2 * (n_trunc + 1), dtype=complex)
        for (n, level), amp in self.amplitudes.items():
            if n <= n_trunc:
                vec[ket_index(n, level)] = amp
        return vec


@dataclass(frozen=True)
class SpectrumTable:
    """Edge eigenvalues (n = 0..m-1) and coupled-pair eigenvalues (mu_n, gamma_n)."""

    branch: Branch
    m: int
    n_trunc: int
    edge: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.mu.tolist(), self.gamma.tolist()))


def sideband_eigenvalues(n: int, rp: ReducedParams) -> tuple[float, float]:
    """Eigenvalue pair (mu, gamma) of the coupled block {n, n+m}, in hbar*nu units.

    mu = (n + m/2) - s/2 and gamma = (n + m/2) + s/2 with
    s = sqrt((omega_L/nu)^2 + (omega_rabi/nu)^2 |f_n^m|^2); the carrier is the
    m = 0 case of either branch.
    """
    return _pair_values(n, rp, coupling_f(n, rp.m, rp.eta))


def _pair_values(n: int, rp: ReducedParams, f: CouplingValue) -> tuple[float, float]:
    """(mu, gamma) of block n from its coupling f = f_n^m."""
    s = math.hypot(_branch_r_wl(rp), rp.r_om * f.magnitude)
    center = n + 0.5 * rp.m
    return center - 0.5 * s, center + 0.5 * s


def _branch_r_wl(rp: ReducedParams) -> float:
    """omega_L/nu formed as r_w0 -+ m.

    rp.r_wl = b_wl / b_nu differs from this in the last bit at many
    frequency ratios, which would change the printed spectra.
    """
    return rp.r_w0 + rp.branch.sideband_sign * rp.m


def edge_eigenvalues(rp: ReducedParams) -> np.ndarray:
    """Decoupled edge eigenvalues for n = 0..m-1 in hbar*nu units.

    JC leaves |n,g> untouched at n - omega0/(2 nu); AJC leaves |n,e> at
    n + omega0/(2 nu).  Empty for m = 0.
    """
    if rp.m == 0:
        return np.empty(0)
    ns = np.arange(rp.m, dtype=float)
    if rp.branch is Branch.AJC:
        return ns + 0.5 * rp.r_w0
    return ns - 0.5 * rp.r_w0


def _block_kets(n: int, m: int, branch: Branch) -> tuple[tuple[int, str], tuple[int, str]]:
    """Kets of the coupled block, ordered (higher electronic ket, ground ket)."""
    if branch is Branch.AJC and m > 0:
        return (n + m, "e"), (n, "g")
    return (n, "e"), (n + m, "g")


def sideband_eigenvectors(n: int, rp: ReducedParams) -> tuple[EigenPair, EigenPair]:
    """Normalized eigenvectors of the coupled 2x2 block, as (mu pair, gamma pair).

    At a coupling zero (f_n^m = 0) the block is already diagonal and the bare
    kets are returned with their diagonal energies.
    """
    ket_e, ket_g = _block_kets(n, rp.m, rp.branch)
    a = ket_e[0] + 0.5 * rp.r_w0  # excited-ket diagonal energy
    b = ket_g[0] - 0.5 * rp.r_w0
    f = coupling_f(n, rp.m, rp.eta)
    f_c = f.as_complex()
    if rp.branch is Branch.AJC and rp.m > 0:
        f_c = f_c.conjugate()
    c = 0.5 * rp.r_om * f_c

    mu_val, gamma_val = _pair_values(n, rp, f)
    if c == 0:
        lo, hi = ((ket_e, a), (ket_g, b)) if a <= b else ((ket_g, b), (ket_e, a))
        return (
            EigenPair(value=lo[1], amplitudes={lo[0]: 1.0 + 0.0j}),
            EigenPair(value=hi[1], amplitudes={hi[0]: 1.0 + 0.0j}),
        )

    # Component along the ground ket is E - a; build it cancellation-free.
    r_wl = a - b
    u = 2.0 * abs(c)
    aw = abs(r_wl)
    excess = sqrt_shift(aw, u, aw)  # s - |r_wl| >= 0
    if r_wl >= 0:
        d_mu = -0.5 * (2.0 * aw + excess)
        d_gamma = 0.5 * excess
    else:
        d_mu = -0.5 * excess
        d_gamma = 0.5 * (2.0 * aw + excess)

    def _normalized(value: float, d: float) -> EigenPair:
        norm = math.hypot(abs(c), abs(d))
        return EigenPair(value=value, amplitudes={ket_e: c / norm, ket_g: complex(d / norm)})

    return _normalized(mu_val, d_mu), _normalized(gamma_val, d_gamma)


def spectrum_table(rp: ReducedParams, n_trunc: int) -> SpectrumTable:
    """Analytic spectrum: edge values plus (mu_n, gamma_n) for n = 0..n_trunc."""
    signs, log_mags = coupling_logabs_sequence(n_trunc, rp.m, rp.eta)
    u = rp.r_om * np.where(signs == 0, 0.0, np.exp(log_mags))
    s = np.hypot(_branch_r_wl(rp), u)
    centers = np.arange(n_trunc + 1, dtype=float) + 0.5 * rp.m
    return SpectrumTable(
        branch=rp.branch,
        m=rp.m,
        n_trunc=n_trunc,
        edge=edge_eigenvalues(rp),
        mu=centers - 0.5 * s,
        gamma=centers + 0.5 * s,
    )


def displacement_matrix(n_trunc: int, eta: float) -> np.ndarray:
    """Truncated matrix of exp(i eta (a + a^dag)), filled one diagonal at a time."""
    dim = n_trunc + 1
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        signs, log_mags = coupling_logabs_sequence(dim - 1 - m, m, eta)
        vals = (1j ** (m % 4)) * signs * np.exp(log_mags)
        ks = np.arange(dim - m)
        mat[ks + m, ks] = vals
        mat[ks, ks + m] = vals
    return mat


@dataclass(frozen=True)
class DenseQuench:
    """Dense truncated operators for one parameter point (hbar*nu units).

    rp                the quench point the operators describe
    h_initial         bare Hamiltonian, diagonal
    h_final_sideband  quench target with the resonant m-quantum coupling
    rho_initial       thermal x electronic Gibbs state of h_initial
    thermal_tail      neglected thermal weight exp(-b_nu * n_trunc)
    h_final_full      quench target with the full exponential coupling; built
                      and checked for Hermiticity on first read, since its
                      displacement matrix costs about dim^2/2 recurrence steps
    """

    rp: ReducedParams
    n_trunc: int
    h_initial: np.ndarray
    h_final_sideband: np.ndarray
    rho_initial: np.ndarray
    thermal_tail: float
    tail_warning: bool

    @cached_property
    def h_final_full(self) -> np.ndarray:
        # Full coupling: (omega_rabi / 2 nu) (sigma_+ D + sigma_- D^dag).
        d_mat = displacement_matrix(self.n_trunc, self.rp.eta)
        h_full = self.h_initial.copy()
        h_full[1::2, 0::2] += 0.5 * self.rp.r_om * d_mat
        h_full[0::2, 1::2] += 0.5 * self.rp.r_om * d_mat.conj().T
        _check_hermitian("h_final_full", h_full)
        return h_full


def _check_hermitian(name: str, mat: np.ndarray) -> None:
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(mat).max()))):
        raise RuntimeError(f"{name} failed the Hermiticity check")


def dense_hamiltonians(rp: ReducedParams, n_trunc: int) -> DenseQuench:
    """Build the dense pre/post-quench operators and the initial Gibbs state.

    Requires n_trunc >= m + 2.  Sets tail_warning when the thermal occupation
    beyond the truncation exceeds 1e-12 of the total.
    """
    m = rp.m
    if n_trunc < m + 2:
        raise ValueError("n_trunc must be at least m + 2")
    dim = 2 * (n_trunc + 1)
    ns = np.arange(n_trunc + 1, dtype=float)

    diag = np.empty(dim)
    diag[0::2] = ns - 0.5 * rp.r_w0
    diag[1::2] = ns + 0.5 * rp.r_w0
    h_initial = np.diag(diag).astype(complex)

    # Sideband coupling: only the resonant m-quantum diagonal of D survives.
    h_side = h_initial.copy()
    signs, log_mags = coupling_logabs_sequence(n_trunc - m, m, rp.eta)
    f_vals = (1j ** (m % 4)) * signs * np.exp(log_mags)
    ks = np.arange(n_trunc + 1 - m)
    if rp.branch is Branch.AJC and m > 0:
        rows, cols = ket_index(m, "e") + 2 * ks, ket_index(0, "g") + 2 * ks
        h_side[rows, cols] += 0.5 * rp.r_om * f_vals.conj()
        h_side[cols, rows] += 0.5 * rp.r_om * f_vals
    else:
        rows, cols = ket_index(0, "e") + 2 * ks, ket_index(m, "g") + 2 * ks
        h_side[rows, cols] += 0.5 * rp.r_om * f_vals
        h_side[cols, rows] += 0.5 * rp.r_om * f_vals.conj()

    thermal = np.exp(-rp.b_nu * ns) * (-math.expm1(-rp.b_nu))
    p_g = 1.0 / (1.0 + math.exp(-rp.b_w0))
    weights = np.empty(dim)
    weights[0::2] = thermal * p_g
    weights[1::2] = thermal * (1.0 - p_g)
    rho = np.diag(weights).astype(complex)

    _check_hermitian("h_initial", h_initial)
    _check_hermitian("h_final_sideband", h_side)

    tail = math.exp(-rp.b_nu * n_trunc)
    return DenseQuench(
        rp=rp,
        n_trunc=n_trunc,
        h_initial=h_initial,
        h_final_sideband=h_side,
        rho_initial=rho,
        thermal_tail=tail,
        tail_warning=tail >= 1e-12,
    )


def analytic_dense_spectrum(rp: ReducedParams, n_trunc: int) -> np.ndarray:
    """Predicted eigenvalue multiset of the truncated sideband Hamiltonian.

    Edge values, coupled pairs for blocks fully inside the truncation, and the
    bare diagonal energies of the boundary kets whose partners fall outside.
    Sorted ascending; length equals the dense dimension 2(n_trunc + 1).
    """
    m = rp.m
    table = spectrum_table(rp, n_trunc)
    inside = slice(0, n_trunc - m + 1)
    vals = [table.edge, table.mu[inside], table.gamma[inside]]
    if m > 0:
        ns = np.arange(n_trunc - m + 1, n_trunc + 1, dtype=float)
        if rp.branch is Branch.AJC:
            vals.append(ns - 0.5 * rp.r_w0)  # unpaired ground kets
        else:
            vals.append(ns + 0.5 * rp.r_w0)  # unpaired excited kets
    return np.sort(np.concatenate(vals))
