"""Exact block eigendecomposition of the sideband Hamiltonians at the quench
instant, plus dense truncated-Fock builders used as a brute-force oracle.

The sideband Hamiltonian splits into 2x2 blocks {|n,e>, |n+m,g>} (JC) or
{|n+m,e>, |n,g>} (AJC) plus the m uncoupled edge kets of the level that
carries the +m.  This module is the one place that knows that structure:
edge_level names the level, ket_energy gives the bare energies, and the
work distribution and the checks read both from here.

Internal energy unit is hbar*nu throughout, so matrix norms stay near
omega0/nu instead of absolute SI magnitudes.  The product basis is ordered
|0,g>, |0,e>, |1,g>, |1,e>, ... and the dense oracle is meant for desk-scale
frequency ratios (omega0/nu up to ~1e4); at experimental ratios the spectral
spread destroys dense-solver accuracy and the analytic formulas take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import coupling_values, sqrt_excess
from .params import Branch, ReducedParams

__all__ = [
    "EigenPair",
    "SpectrumTable",
    "DenseQuench",
    "ket_index",
    "edge_level",
    "ket_energy",
    "truncation_tail_warning",
    "sideband_eigenvalues",
    "edge_eigenvalues",
    "sideband_eigenvectors",
    "spectrum_table",
    "eigenvector_table",
    "displacement_matrix",
    "dense_hamiltonians",
    "analytic_dense_spectrum",
]


def ket_index(n, level: str):
    """Index of |n, level> in the ordered product basis |0,g>, |0,e>, |1,g>, ...; n may be an array."""
    if level not in ("g", "e"):
        raise ValueError("level must be 'g' or 'e'")
    return 2 * n + (1 if level == "e" else 0)


def edge_level(rp: ReducedParams) -> str:
    """The level whose ket in block n is |n+m, level>; its kets with n < m are the edge kets.

    "e" for AJC and "g" otherwise (the carrier pairs |n,e> with |n,g> either way).
    """
    return "e" if rp.branch is Branch.AJC and rp.m > 0 else "g"


def truncation_tail_warning(rp: ReducedParams, n_trunc: int) -> bool:
    """Whether exp(-b_nu (n_trunc + 1)), the Gibbs weight of the levels past n_trunc, is at least 1e-12."""
    return math.exp(-rp.b_nu * (n_trunc + 1)) >= 1e-12


def ket_energy(n, level: str, rp: ReducedParams):
    """Bare energy n +- omega0/(2 nu) of |n, level> in hbar*nu units; n may be an array."""
    return n + 0.5 * rp.r_w0 if level == "e" else n - 0.5 * rp.r_w0


def _block_kets(n, rp: ReducedParams) -> tuple[tuple, tuple]:
    """Kets of the coupled block n, ordered (excited ket, ground ket); n may be an array."""
    edge = edge_level(rp)
    return tuple((n + rp.m if level == edge else n, level) for level in ("e", "g"))


def _oriented(f, rp: ReducedParams):
    """<e|H|g> coupling factor of a block from f_n^m: conjugated when the excited ket carries the +m."""
    return f.conjugate() if edge_level(rp) == "e" else f


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
    m = 0 case of either branch.  Element n of spectrum_table(rp, n), bit for
    bit; for a range of n, call spectrum_table once.
    """
    return spectrum_table(rp, n).pairs[n]


def _pairs(rp: ReducedParams, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, gamma) of blocks 0..len(f)-1 from their couplings f_n^m: the one pair formula."""
    s = np.hypot(rp.r_wl, rp.r_om * np.abs(f))  # |f| is exact: one part of each f is zero
    centers = np.arange(f.size, dtype=float) + 0.5 * rp.m
    return centers - 0.5 * s, centers + 0.5 * s


def edge_eigenvalues(rp: ReducedParams) -> np.ndarray:
    """Decoupled edge eigenvalues for n = 0..m-1 in hbar*nu units.

    The edge kets |n, edge_level> keep their bare energies.  Empty for m = 0.
    """
    return ket_energy(np.arange(rp.m, dtype=float), edge_level(rp), rp)


def sideband_eigenvectors(n: int, rp: ReducedParams) -> tuple[EigenPair, EigenPair]:
    """Normalized eigenvectors of the coupled 2x2 block, as (mu pair, gamma pair).

    At a coupling zero (f_n^m = 0) the block is already diagonal and the bare
    kets are returned with their diagonal energies.  Element n of
    eigenvector_table(rp, n), bit for bit; for a range of blocks, call
    eigenvector_table once.
    """
    return _block_eigenvectors(n, rp, *(column[n] for column in _block_columns(rp, n)))


def eigenvector_table(rp: ReducedParams, n_trunc: int) -> list[tuple[EigenPair, EigenPair]]:
    """sideband_eigenvectors of blocks n = 0..n_trunc, from one coupling recurrence run."""
    return [_block_eigenvectors(n, rp, *block) for n, block in enumerate(zip(*_block_columns(rp, n_trunc)))]


def _block_columns(rp: ReducedParams, n_trunc: int) -> tuple[list, ...]:
    """(c, mu, gamma, d_mu, d_gamma) of blocks 0..n_trunc, each as a list.

    c is the block's <e|H|g> element; d is the ground-ket component E - a of
    the eigenvector of value E, a the excited ket's bare energy, built
    cancellation-free from s - |r_wl| = sqrt_excess(|r_wl|, 2|c|).
    """
    f = coupling_values(n_trunc, rp.m, rp.eta)
    mu, gamma = _pairs(rp, f)
    c = 0.5 * rp.r_om * _oriented(f, rp)
    ket_e, ket_g = _block_kets(np.arange(n_trunc + 1, dtype=float), rp)
    r_wl = ket_energy(*ket_e, rp) - ket_energy(*ket_g, rp)
    excess = sqrt_excess(np.abs(r_wl), 2.0 * np.abs(c))
    wide, up = 2.0 * np.abs(r_wl) + excess, r_wl >= 0
    d_mu, d_gamma = np.where(up, -0.5 * wide, -0.5 * excess), np.where(up, 0.5 * excess, 0.5 * wide)
    return tuple(column.tolist() for column in (c, mu, gamma, d_mu, d_gamma))


def _block_eigenvectors(n: int, rp: ReducedParams, c: complex, mu: float, gamma: float, d_mu: float, d_gamma: float):
    """(mu pair, gamma pair) of block n from its columns (see _block_columns)."""
    ket_e, ket_g = _block_kets(n, rp)
    if c == 0:
        a, b = ket_energy(*ket_e, rp), ket_energy(*ket_g, rp)
        lo, hi = ((ket_e, a), (ket_g, b)) if a <= b else ((ket_g, b), (ket_e, a))
        return (
            EigenPair(value=lo[1], amplitudes={lo[0]: 1.0 + 0.0j}),
            EigenPair(value=hi[1], amplitudes={hi[0]: 1.0 + 0.0j}),
        )

    def _normalized(value: float, d: float) -> EigenPair:
        norm = math.hypot(abs(c), abs(d))
        return EigenPair(value=value, amplitudes={ket_e: c / norm, ket_g: complex(d / norm)})

    return _normalized(mu, d_mu), _normalized(gamma, d_gamma)


def spectrum_table(rp: ReducedParams, n_trunc: int) -> SpectrumTable:
    """Analytic spectrum: edge values plus (mu_n, gamma_n) for n = 0..n_trunc."""
    mu, gamma = _pairs(rp, coupling_values(n_trunc, rp.m, rp.eta))
    return SpectrumTable(edge=edge_eigenvalues(rp), mu=mu, gamma=gamma)


def displacement_matrix(n_trunc: int, eta: float) -> np.ndarray:
    """Truncated matrix of exp(i eta (a + a^dag)), filled one diagonal at a time.

    The main diagonal comes first, so coupling_values checks n_trunc.
    """
    mat = np.diag(coupling_values(n_trunc, 0, eta))
    dim = len(mat)
    for m in range(1, dim):
        vals = coupling_values(dim - 1 - m, m, eta)
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
    tail_warning      truncation_tail_warning(rp, n_trunc): the Gibbs weight
                      of the levels past n_trunc is at least 1e-12
    h_final_full      quench target with the full exponential coupling; built
                      and checked for Hermiticity on first read, since its
                      displacement matrix costs about dim^2/2 recurrence steps
    """

    rp: ReducedParams
    n_trunc: int
    h_initial: np.ndarray
    h_final_sideband: np.ndarray
    rho_initial: np.ndarray
    tail_warning: bool
    # use_full -> (real diagonals of H_f^0..H_f^k, H_f^k) for the highest k formed so far
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def power_diagonals(self, order: int, use_full: bool) -> list[np.ndarray]:
        """Real diagonals of H_f^0..H_f^order of one quench target, as a new list.

        use_full picks h_final_full, otherwise h_final_sideband.  Each power
        is formed once per object, as the power below it times H_f; the object
        keeps every diagonal and only the highest power.
        """
        h_f = self.h_final_full if use_full else self.h_final_sideband
        diags, top = self._powers.get(use_full, ([np.ones(h_f.shape[0])], None))
        while len(diags) <= order:
            top = h_f if top is None else top @ h_f
            diags = [*diags, top.diagonal().real.copy()]
            self._powers[use_full] = (diags, top)
        return diags[: order + 1]

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
    """Raise unless max|A - A^H| <= 1e-12 max(1, max|A|) < inf; a NaN or infinite entry fails."""
    atol = 1e-12 * max(1.0, float(np.abs(mat).max()))
    # |conj(A) - A^T| equals |A - A^H| entry for entry; numpy reuses the conj(A) temporary for the difference.
    # An infinite entry fails through atol; keep numpy from warning about the inf - inf it may form first.
    with np.errstate(invalid="ignore"):
        skew = float(np.abs(mat.conj() - mat.T).max())
    if not skew <= atol < math.inf:
        raise RuntimeError(f"{name} failed the Hermiticity check")


def dense_hamiltonians(rp: ReducedParams, n_trunc: int) -> DenseQuench:
    """Build the dense pre/post-quench operators and the initial Gibbs state.

    Requires n_trunc >= m + 2.  Sets tail_warning as truncation_tail_warning.
    """
    m = rp.m
    if n_trunc < m + 2:
        raise ValueError("n_trunc must be at least m + 2")
    dim = 2 * (n_trunc + 1)
    ns = np.arange(n_trunc + 1, dtype=float)

    diag = np.empty(dim)
    diag[0::2] = ket_energy(ns, "g", rp)
    diag[1::2] = ket_energy(ns, "e", rp)
    h_initial = np.diag(diag).astype(complex)

    # Sideband coupling: only the resonant m-quantum diagonal of D survives.
    h_side = h_initial.copy()
    c_eg = 0.5 * rp.r_om * _oriented(coupling_values(n_trunc - m, m, rp.eta), rp)
    ket_e, ket_g = _block_kets(np.arange(n_trunc + 1 - m), rp)
    rows, cols = ket_index(*ket_e), ket_index(*ket_g)
    h_side[rows, cols] += c_eg
    h_side[cols, rows] += c_eg.conj()

    thermal = np.exp(-rp.b_nu * ns) * (-math.expm1(-rp.b_nu))
    p_g = 1.0 / (1.0 + math.exp(-rp.b_w0))
    weights = np.empty(dim)
    weights[0::2] = thermal * p_g
    weights[1::2] = thermal * (1.0 - p_g)
    rho = np.diag(weights).astype(complex)

    # h_side is h_initial plus off-diagonal entries, so this also tests every diagonal energy.
    _check_hermitian("h_final_sideband", h_side)

    return DenseQuench(
        rp=rp,
        n_trunc=n_trunc,
        h_initial=h_initial,
        h_final_sideband=h_side,
        rho_initial=rho,
        tail_warning=truncation_tail_warning(rp, n_trunc),
    )


def analytic_dense_spectrum(rp: ReducedParams, n_trunc: int) -> np.ndarray:
    """Predicted eigenvalue multiset of the truncated sideband Hamiltonian.

    Edge values, coupled pairs for blocks fully inside the truncation, and the
    bare energies of the boundary kets whose partners |n+m, edge_level> fall
    outside: the other level's kets past n_trunc - m.  Sorted ascending;
    length equals the dense dimension 2(n_trunc + 1).
    """
    m = rp.m
    table = spectrum_table(rp, n_trunc)
    inside = slice(0, n_trunc - m + 1)
    unpaired = "g" if edge_level(rp) == "e" else "e"
    boundary = ket_energy(np.arange(n_trunc - m + 1, n_trunc + 1, dtype=float), unpaired, rp)
    return np.sort(np.concatenate([table.edge, table.mu[inside], table.gamma[inside], boundary]))
