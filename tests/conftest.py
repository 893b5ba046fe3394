import math

import numpy as np
import pytest

from ionquench.params import Branch, reduce, reduced_from_ratios
from ionquench.spectra import displacement_matrix

# Shared trap drive: Ca+-style parameters used across the figure presets.
FIG1 = dict(mass=7.0e-26, nu=5.0e3, omega0=822.0 * math.pi * 1e12, omega_rabi=math.pi * 1e6)


def fig1_reduced(m, branch, eta, nbar=0.38, omega_rabi=None):
    params = dict(FIG1)
    if omega_rabi is not None:
        params["omega_rabi"] = omega_rabi
    return reduce(dict(params, nbar=nbar), m, branch, eta)


def desk_reduced(m, branch, eta, nbar=0.38, r_w0=10.0, r_om=1.0):
    return reduced_from_ratios(r_w0, r_om, eta, m, branch, nbar=nbar)


def branch_for(m, preferred):
    """Carrier when m = 0, otherwise the requested sideband branch."""
    return Branch.CARRIER if m == 0 else preferred


def eager_full_hamiltonian(rp, n_trunc):
    """Full-coupling Hamiltonian built eagerly, as dense_hamiltonians once did on every call."""
    ns = np.arange(n_trunc + 1, dtype=float)
    diag = np.empty(2 * (n_trunc + 1))
    diag[0::2] = ns - 0.5 * rp.r_w0
    diag[1::2] = ns + 0.5 * rp.r_w0
    h_initial = np.diag(diag).astype(complex)
    d_mat = displacement_matrix(n_trunc, rp.eta)
    h_full = h_initial.copy()
    h_full[1::2, 0::2] += 0.5 * rp.r_om * d_mat
    h_full[0::2, 1::2] += 0.5 * rp.r_om * d_mat.conj().T
    return h_full
