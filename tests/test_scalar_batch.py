"""Each scalar API is one element of its batch form, bit for bit.

The points are ones where a second implementation of the scalar once gave
other bits than the batch: math.exp against numpy's exp for the coupling
magnitude, and math.hypot against np.hypot for the block eigenvalues and for
sqrt_shift.  Floats are compared by hex(), so signed zeros count.
The last test checks that each of these APIs rejects a bad index at the one
entry of the coupling recurrence, with a message that names the index.
"""

import math

import numpy as np
import pytest

from ionquench.numerics import (
    coupling_f,
    coupling_logabs_sequence,
    coupling_values,
    log_sum_exp,
    log_sum_exp_rows,
    sqrt_excess,
    sqrt_shift,
)
from ionquench.params import Branch
from ionquench.spectra import (
    displacement_matrix,
    eigenvector_table,
    sideband_eigenvalues,
    sideband_eigenvectors,
    spectrum_table,
)
from ionquench.thermo import lag_columns, nonequilibrium_lag
from conftest import branch_for, desk_reduced, fig1_reduced

# m = 2 AJC at eta 0.3, r_om 3: sideband_eigenvalues(9, .) once differed from spectrum_table(., 40).pairs[9].
BLOCK_RPS = [desk_reduced(2, Branch.AJC, 0.3, r_om=3.0)] + [
    desk_reduced(m, branch_for(m, branch), eta, r_om=3.0)
    for m in range(4)
    for branch in (Branch.JC, Branch.AJC)
    for eta in (0.7, 1.0)  # eta = 1: the carrier coupling vanishes at n = 1
]


def _hex(x):
    return complex(x).real.hex(), complex(x).imag.hex()


def _couplings():
    # 37 of these 732 magnitudes differed between math.exp and numpy's exp.
    keys = [(m, eta) for m in range(4) for eta in (0.3, 0.7, 1.3)]
    scalars = [_hex(coupling_f(n, m, eta).as_complex()) for m, eta in keys for n in range(61)]
    batch = [_hex(f) for m, eta in keys for f in coupling_values(60, m, eta).tolist()]
    return scalars, batch


def _eigenvalues():
    scalars = [tuple(map(float.hex, sideband_eigenvalues(n, rp))) for rp in BLOCK_RPS for n in range(41)]
    batch = [(mu.hex(), gamma.hex()) for rp in BLOCK_RPS for mu, gamma in spectrum_table(rp, 40).pairs]
    return scalars, batch


def _pair_bits(pairs):
    return [(float(pair.value).hex(), [(ket, _hex(amp)) for ket, amp in pair.amplitudes.items()]) for pair in pairs]


def _eigenvectors():
    scalars = [_pair_bits(sideband_eigenvectors(n, rp)) for rp in BLOCK_RPS for n in range(41)]
    batch = [_pair_bits(pairs) for rp in BLOCK_RPS for pairs in eigenvector_table(rp, 40)]
    return scalars, batch


def _sqrt_shifts():
    # 9 of these 20000 draws differed between math.hypot and np.hypot, this pair among them.
    rng = np.random.default_rng(0)
    w = np.append(rng.uniform(0.0, 0.05, 20000), 0.01995424626598527)
    u = np.append(rng.uniform(0.0, 0.05, 20000), 0.006894908376685403)
    scalars = [sqrt_shift(wi, ui, wi).hex() for wi, ui in zip(w.tolist(), u.tolist())]
    batch = [float(sqrt_excess(wi, ui)).hex() for wi, ui in zip(w.tolist(), u.tolist())]
    return scalars, batch


def _log_sums():
    rows = np.random.default_rng(1).normal(scale=30.0, size=(50, 700))
    rows[::7, ::3] = -math.inf  # rows with -inf entries, none all -inf
    scalars = [log_sum_exp(row).hex() for row in rows]
    batch = [x.hex() for x in log_sum_exp_rows(rows)[1].tolist()]
    return scalars, batch


def _lag_fields(value, n_used, tail_bound_log, converged, stop_reason, divergence_predicted):
    return value.hex(), n_used, tail_bound_log.hex(), converged, stop_reason, divergence_predicted


def _lags():
    rps = [fig1_reduced(m, branch_for(m, branch), eta, nbar=nbar)
           for m in range(4) for branch in (Branch.JC, Branch.AJC) for eta in (0.5, 1.5) for nbar in (0.38, 30.0)]
    rps += [desk_reduced(m, branch_for(m, Branch.AJC), 0.8, nbar=3.0) for m in range(4)]
    scalars, batch = [], []
    for n_pinned in (40, None):
        for rp in rps:
            lag = nonequilibrium_lag(rp, n_pinned)
            report = lag.truncation
            fields = lag.value, report.n_used, report.tail_bound_log, report.converged, report.stop_reason
            scalars.append(_lag_fields(*fields, lag.divergence_predicted))
        batch += [_lag_fields(*row) for row in zip(*lag_columns(rps, n_pinned))]
    return scalars, batch


@pytest.mark.parametrize(
    "pair",
    [_couplings, _eigenvalues, _eigenvectors, _sqrt_shifts, _log_sums, _lags],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_scalar_is_its_batch_element(pair):
    scalars, batch = pair()
    assert len(scalars) == len(batch) > 0
    mismatched = [i for i, (a, b) in enumerate(zip(scalars, batch)) if a != b]
    assert mismatched == []


_RP = desk_reduced(1, Branch.JC, 0.3)


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(lambda: coupling_f(2.5, 1, 0.3), "n_max", 2.5, id="coupling_f"),
        pytest.param(lambda: coupling_values(2.5, 1, 0.3), "n_max", 2.5, id="coupling_values"),
        pytest.param(lambda: sideband_eigenvalues(2.5, _RP), "n_max", 2.5, id="sideband_eigenvalues"),
        pytest.param(lambda: sideband_eigenvectors(2.5, _RP), "n_max", 2.5, id="sideband_eigenvectors"),
        pytest.param(lambda: spectrum_table(_RP, -1), "n_max", -1, id="spectrum_table"),
        pytest.param(lambda: eigenvector_table(_RP, -1), "n_max", -1, id="eigenvector_table"),
        pytest.param(lambda: coupling_f(-1, 1, 0.3), "n_max", -1, id="coupling_f-negative"),
        pytest.param(lambda: coupling_logabs_sequence(3, -1, 0.3), "m", -1, id="sequence-negative-m"),
        pytest.param(lambda: coupling_logabs_sequence(3, 1.5, 0.3), "m", 1.5, id="sequence-fractional-m"),
        pytest.param(lambda: displacement_matrix(-1, 0.3), "n_max", -1, id="displacement_matrix"),
    ],
)
def test_bad_index_rejected_at_the_recurrence_entry(call, name, value):
    # Every coupling table starts at numerics.coupling_logabs_sequence, whose check names the index.
    with pytest.raises(ValueError, match=rf"^coupling index {name} must be a nonnegative integer, got {value}$"):
        call()
