"""Self-check suites behind the `verify` subcommand.

`fast` exercises the scalar numerics and the exact decoupling identities in
well under five seconds; `full` adds the dense-diagonalization oracles for
spectra, partition functions, moments, and the work distribution.  Checks
are deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import numerics, spectra, thermo, workstats
from .params import HBAR, Branch, ReducedParams, reduce, reduced_from_ratios
from .presets import FIG1_CONFIG

__all__ = ["CheckResult", "run_checks", "FAST_CHECKS", "FULL_ONLY_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fig1_reduced(m: int, branch: Branch, eta: float, nbar: float = 0.38) -> ReducedParams:
    return reduce(dict(FIG1_CONFIG, nbar=nbar), m, branch, eta)


def _laguerre_explicit(n: int, m: int, x: Fraction) -> Fraction:
    """L_n^m(x) = sum_k (-1)^k C(n+m, n-k) x^k / k!, exactly.

    With x = p/q the terms share the integer denominator n! q^n, so the sum
    runs over integers and makes one Fraction.
    """
    p, q = x.numerator, x.denominator
    n_fact = math.factorial(n)
    num = sum(
        (-1) ** k * math.comb(n + m, n - k) * (n_fact // math.factorial(k)) * p**k * q ** (n - k) for k in range(n + 1)
    )
    return Fraction(num, n_fact * q**n)


def _laguerre_integer(n_max: int, m: int, x: Fraction) -> list[float]:
    """L_n^m(x) for n = 0..n_max, each correctly rounded, by the three-term recurrence run in integers.

    With x = p/q and A_k = k! q^k L_k^m(x), the recurrence becomes
    A_(k+1) = ((2k+m+1) q - p) A_k - (k+m) k q^2 A_(k-1), with A_0 = 1 and
    A_(-1) = 0; L_n = A_n / (n! q^n) is one correctly rounded int division.
    """
    p, q = x.numerator, x.denominator
    prev, curr, denom = 0, 1, 1
    out = [1.0]
    for k in range(n_max):
        prev, curr = curr, ((2 * k + m + 1) * q - p) * curr - (k + m) * k * q * q * prev
        denom *= (k + 1) * q
        out.append(curr / denom)
    return out


def _laguerre_factors(n_max: int, m: int, eta: float) -> list[float]:
    """L_n^m(eta^2) for n = 0..n_max, read off the kernel's couplings coupling_logabs_sequence(n_max, m, eta).

    The log of the prefactor of f_n^m, m log eta - eta^2/2 +
    log sqrt(n!/(n+m)!), formed here with math.lgamma, is taken off each
    log magnitude.
    """
    signs, log_mags = numerics.coupling_logabs_sequence(n_max, m, eta)
    log_eta_m = m * math.log(eta) - 0.5 * eta * eta
    return [
        sign * math.exp(log_mag - log_eta_m - 0.5 * (math.lgamma(n + 1) - math.lgamma(n + m + 1)))
        for n, (sign, log_mag) in enumerate(zip(signs.tolist(), log_mags.tolist()))
    ]


def _hermitian_norm(mat: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def check_laguerre_recurrence(rng) -> CheckResult:
    """The kernel's Laguerre factors against the exact rational sum _laguerre_explicit, n <= 12.

    One coupling_logabs_sequence run per (m, eta), at x = eta^2 = 0.25, 1,
    2.25 and 9; the error is relative to max(|L_n^m|, 1).
    """
    worst = 0.0
    for m in range(7):
        for eta in (0.5, 1.0, 1.5, 3.0):
            for n, got in enumerate(_laguerre_factors(12, m, eta)):
                ref = float(_laguerre_explicit(n, m, Fraction(eta * eta)))
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    return CheckResult("laguerre_recurrence_vs_explicit_sum", worst <= 1e-10, f"max rel err {worst:.2e}")


def check_laguerre_at_zero(rng) -> CheckResult:
    """The kernel's Laguerre factors at eta = 2^-30 against C(n+m, m) and the exact _laguerre_integer.

    There L_n^m(x) = C(n+m, m) (1 + O(n x)) with n x below 2e-17, so both
    references are the same double.  The kernel carries f_n^m as a log
    magnitude near -21 m, whose last bit alone is a relative 2.8e-14 at m = 7.
    """
    eta = 2.0**-30
    worst = 0.0
    for m in range(8):
        exact = _laguerre_integer(19, m, Fraction(eta * eta))
        for n, got in enumerate(_laguerre_factors(19, m, eta)):
            for ref in (math.comb(n + m, m), exact[n]):
                worst = max(worst, abs(got - ref) / ref)
    return CheckResult("laguerre_value_at_zero", worst <= 1e-13, f"max rel err {worst:.2e}")


def check_coupling_reconstruction(rng) -> CheckResult:
    """coupling_logabs_sequence(30, m, eta) against f_n^m from the recurrence run exactly in integers.

    The etas are dyadic, so x = eta^2 is exact, p/q with q a small power of
    2; the prefactor eta^m sqrt(n!/(n+m)!) e^(-x/2) is formed in floats.
    The error is relative to the largest |f_k^m| of each (m, eta) sequence,
    not pointwise: next to a root of L_n^m the value carries an absolute
    error of a few ulps of that scale, 4.8e-12 of the tiny value there
    against 4.9e-15 of the largest.
    """
    worst = 0.0
    for m in range(5):
        for eta in (0.125, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5):
            signs, log_mags = numerics.coupling_logabs_sequence(30, m, eta)
            got = signs * np.exp(log_mags)
            x = eta * eta
            ref = [
                eta**m * math.sqrt(math.factorial(n) / math.factorial(n + m)) * math.exp(-0.5 * x) * lag
                for n, lag in enumerate(_laguerre_integer(30, m, Fraction(x)))
            ]
            worst = max(worst, float(np.max(np.abs(got - ref))) / max(map(abs, ref)))
    return CheckResult("coupling_log_reconstruction", worst <= 1e-12, f"max rel err {worst:.2e}")


def check_coupling_limits(rng) -> CheckResult:
    decay_ok = all(
        numerics.coupling_f(n, m, 50.0).log_mag < -1000.0 for n in (0, 3, 7) for m in (0, 1, 2)
    )
    to_one = abs(numerics.coupling_f(5, 0, 1e-8).magnitude - 1.0) < 1e-12
    at_zero = numerics.coupling_f(9, 0, 0.0).magnitude == 1.0
    zero_sideband = numerics.coupling_f(4, 2, 0.0).log_mag == -math.inf
    ok = decay_ok and to_one and at_zero and zero_sideband
    return CheckResult("coupling_limits", ok, "large-eta decay and small-eta identities")


def check_lncosh(rng) -> CheckResult:
    vals = [
        abs(numerics.lncosh(0.0)),
        abs(numerics.lncosh(1e3) - (1e3 - math.log(2.0))),
        abs(numerics.lncosh(1.0) - math.log(math.cosh(1.0))),
        abs(numerics.lncosh(-3.0) - math.log(math.cosh(3.0))),
    ]
    worst = max(vals)
    return CheckResult("lncosh_values", worst <= 1e-14, f"max abs err {worst:.2e}")


def check_log_sum_exp(rng) -> CheckResult:
    ok = True
    ok &= abs(numerics.log_sum_exp([math.log(2.0), math.log(3.0)]) - math.log(5.0)) < 1e-14
    ok &= numerics.log_sum_exp([-math.inf, 0.7]) == 0.7
    ok &= abs(numerics.log_sum_exp([0.0, 0.0, 0.0]) - math.log(3.0)) < 1e-14
    ok &= numerics.log_sum_exp([]) == -math.inf
    terms = list(rng.normal(size=64))
    a = numerics.log_sum_exp(terms)
    b = numerics.log_sum_exp(sorted(terms))
    ok &= abs(a - b) <= 1e-13 * max(abs(a), 1.0)
    ok &= numerics.log_sum_exp(terms) == a  # bitwise repeatable
    return CheckResult("log_sum_exp_properties", bool(ok), "identities, permutation, determinism")


def check_sqrt_shift_regression(rng) -> CheckResult:
    w = 822.0 * math.pi * 1e12
    u = math.pi * 1e6
    safe = numerics.sqrt_shift(w, u, w)
    naive = math.sqrt(w * w + u * u) - w
    expected = u * u / (math.hypot(w, u) + w)
    ok = naive == 0.0 and abs(safe - expected) <= 1e-12 * expected
    return CheckResult("sqrt_shift_cancellation_regression", ok, f"safe {safe:.6e}, naive {naive:.1e}")


def check_sqrt_shift_small(rng) -> CheckResult:
    w = 1.0e9
    u = 1.0e-3
    got = numerics.sqrt_shift(w, u, w)
    ref = u * u / (2.0 * w)
    ok = abs(got - ref) <= 1e-10 * ref and numerics.sqrt_shift(w, 0.0, 0.5 * w) == 0.5 * w
    return CheckResult("sqrt_shift_first_order", ok, f"rel dev {abs(got - ref) / ref:.2e}")


def check_omega_zero_identity(rng) -> CheckResult:
    worst, converged = 0.0, True
    for m, branch in ((0, Branch.CARRIER), (1, Branch.JC), (2, Branch.AJC)):
        rp = reduced_from_ratios(10.0, 0.0, 0.7, m, branch, nbar=0.38)
        zi = thermo.ln_partition_initial(rp).shifted_log
        zf = thermo.ln_partition_final(rp)
        lag = thermo.nonequilibrium_lag(rp)
        worst = max(worst, abs(zf.shifted_log - zi), abs(lag.value))
        converged &= zf.truncation.converged and lag.truncation.converged
    return CheckResult("omega_zero_quench_of_nothing", worst <= 1e-12 and converged, f"max dev {worst:.2e}")


def check_carrier_closed_form(rng) -> CheckResult:
    rp = _fig1_reduced(0, Branch.CARRIER, 0.0)
    result = thermo.nonequilibrium_lag(rp)
    lag = result.value
    closed = 0.5 * numerics.sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0)
    rel = abs(lag - closed) / closed
    ok = rel <= 1e-10 and result.truncation.converged
    return CheckResult("carrier_eta_zero_closed_form", ok, f"lag {lag:.6e}, rel dev {rel:.2e}")


def check_large_eta_partition(rng) -> CheckResult:
    worst, converged = 0.0, True
    for m, branch in ((1, Branch.JC), (2, Branch.AJC), (0, Branch.CARRIER)):
        rp = _fig1_reduced(m, branch, 50.0)
        zi = thermo.ln_partition_initial(rp).shifted_log
        zf = thermo.ln_partition_final(rp)
        worst = max(worst, abs(zf.shifted_log - zi) / abs(zi))
        converged &= zf.truncation.converged
    return CheckResult("large_eta_partition_collapse", worst <= 1e-12 and converged, f"max rel dev {worst:.2e}")


def check_branch_sign_rule(rng) -> CheckResult:
    ok = True
    for m in (1, 2, 5):
        jc = reduced_from_ratios(100.0, 1.0, 0.3, m, Branch.JC, nbar=1.0)
        ajc = reduced_from_ratios(100.0, 1.0, 0.3, m, Branch.AJC, nbar=1.0)
        ok &= jc.b_wl < jc.b_w0 < ajc.b_wl
    return CheckResult("branch_sign_rule", bool(ok), "b_wl(JC) < b_w0 < b_wl(AJC)")


def check_nbar_beta_roundtrip(rng) -> CheckResult:
    worst = 0.0
    for nbar in (1e-6, 0.38, 1.0, 42.0, 1e6):
        back = _fig1_reduced(0, Branch.CARRIER, 0.0, nbar=nbar).nbar
        worst = max(worst, abs(back - nbar) / nbar)
    unit_nu = dict(FIG1_CONFIG, nu=1.0, nbar=None, beta=math.log(2.0) / (HBAR * 1.0))
    ln2_case = abs(reduce(unit_nu, 0, Branch.CARRIER, 0.0).nbar - 1.0)
    worst = max(worst, ln2_case)
    return CheckResult("nbar_beta_roundtrip", worst <= 1e-14, f"max rel err {worst:.2e}")


# -- full-suite oracles --------------------------------------------------------


def _desk(m: int, branch: Branch, eta: float, nbar: float = 0.38, r_om: float = 1.0) -> ReducedParams:
    return reduced_from_ratios(10.0, r_om, eta, m, branch, nbar=nbar)


def check_spectrum_dense_oracle(rng) -> CheckResult:
    worst = 0.0
    for m in range(4):
        for branch in (Branch.JC, Branch.AJC):
            for eta in (0.1, 0.5, 1.5):
                rp = _desk(m, branch, eta)
                n_trunc = 60
                dense = spectra.dense_hamiltonians(rp, n_trunc)
                evals = np.linalg.eigvalsh(dense.h_final_sideband)
                pred = spectra.analytic_dense_spectrum(rp, n_trunc)
                dev = np.max(np.abs(evals - pred) / np.maximum(np.abs(evals), 1.0))
                worst = max(worst, float(dev))
    return CheckResult("spectrum_vs_dense_oracle", worst <= 1e-10, f"max rel dev {worst:.2e}")


def check_eigenvector_residuals(rng) -> CheckResult:
    worst = 0.0
    n_trunc = 50
    for _ in range(6):
        m = int(rng.integers(0, 4))
        branch = (Branch.JC, Branch.AJC)[int(rng.integers(0, 2))] if m > 0 else Branch.CARRIER
        eta = float(rng.uniform(0.05, 2.0))
        rp = _desk(m, branch, eta)
        dense = spectra.dense_hamiltonians(rp, n_trunc)
        h = dense.h_final_sideband
        h_norm = _hermitian_norm(h)
        blocks = range(0, n_trunc - m - 1, 7)
        table = spectra.eigenvector_table(rp, blocks[-1])
        for n in blocks:
            for pair in table[n]:
                vec = pair.as_dense(n_trunc)
                resid = float(np.linalg.norm(h @ vec - pair.value * vec))
                worst = max(worst, resid / h_norm)
    return CheckResult("eigenvector_residuals", worst <= 1e-10, f"max residual/|H| {worst:.2e}")


def check_eigenvector_completeness(rng) -> CheckResult:
    worst = 0.0
    n_trunc = 40
    for m, branch in ((1, Branch.JC), (2, Branch.AJC), (0, Branch.CARRIER)):
        rp = _desk(m, branch, 0.8)
        dim = 2 * (n_trunc + 1)
        acc = np.zeros((dim, dim), dtype=complex)
        for n in range(m):
            vec = np.zeros(dim, dtype=complex)
            vec[spectra.ket_index(n, spectra.edge_level(rp))] = 1.0
            acc += np.outer(vec, vec.conj())
        for block in spectra.eigenvector_table(rp, n_trunc - m):
            for pair in block:
                vec = pair.as_dense(n_trunc)
                acc += np.outer(vec, vec.conj())
        interior = slice(0, 2 * (n_trunc - m + 1))
        dev = float(np.max(np.abs(acc[interior, interior] - np.eye(dim)[interior, interior])))
        worst = max(worst, dev)
    return CheckResult("eigenvector_completeness", worst <= 1e-9, f"max |P - I| {worst:.2e}")


def check_block_sparsity(rng) -> CheckResult:
    rp = _desk(2, Branch.JC, 0.9)
    dense = spectra.dense_hamiltonians(rp, 30)
    h = dense.h_final_sideband.copy()
    n_trunc = 30
    for n in range(n_trunc + 1):
        h[spectra.ket_index(n, "g"), spectra.ket_index(n, "g")] = 0.0
        h[spectra.ket_index(n, "e"), spectra.ket_index(n, "e")] = 0.0
    for n in range(n_trunc + 1 - 2):
        h[spectra.ket_index(n, "e"), spectra.ket_index(n + 2, "g")] = 0.0
        h[spectra.ket_index(n + 2, "g"), spectra.ket_index(n, "e")] = 0.0
    leftover = float(np.max(np.abs(h)))
    return CheckResult("sideband_block_sparsity", leftover == 0.0, f"max stray element {leftover:.1e}")


def check_carrier_branch_consistency(rng) -> CheckResult:
    rp = _desk(0, Branch.CARRIER, 0.6)
    as_jc, as_ajc = replace(rp, branch=Branch.JC), replace(rp, branch=Branch.AJC)
    worst = 0.0
    for n in (0, 3, 11):
        jc = spectra.sideband_eigenvalues(n, as_jc)
        ajc = spectra.sideband_eigenvalues(n, as_ajc)
        worst = max(worst, abs(jc[0] - ajc[0]), abs(jc[1] - ajc[1]))
    return CheckResult("carrier_branch_consistency", worst == 0.0, f"max dev {worst:.1e}")


def check_partition_dense_oracle(rng) -> CheckResult:
    worst, converged = 0.0, True
    for m in range(3):
        for branch in (Branch.JC, Branch.AJC):
            rp = _desk(m, branch, 0.8)
            dense = spectra.dense_hamiltonians(rp, 70)
            evals = np.linalg.eigvalsh(dense.h_final_sideband)
            ln_z_dense = numerics.log_sum_exp(-rp.b_nu * evals) - 0.5 * rp.b_w0
            ln_z = thermo.ln_partition_final(rp)
            worst = max(worst, abs(ln_z.shifted_log - ln_z_dense) / max(abs(ln_z_dense), 1e-3))
            converged &= ln_z.truncation.converged
    return CheckResult("partition_vs_dense_oracle", worst <= 1e-8 and converged, f"max rel dev {worst:.2e}")


def _boltzmann_ln_partition(rp: ReducedParams) -> float:
    """Shifted log Z_final as the term-by-term Boltzmann sum over spectra.spectrum_table.

    log_sum_exp(-b_nu E) - b_w0/2 over the edge, mu and gamma eigenvalues E
    of blocks n = 0..N.  A pair's shifted weight is at most
    2 e^(b_om/2 - b_nu n), so the levels past N weigh at most
    2 e^(b_om/2 - b_nu (N+1)) (nbar+1), and Z_final >= nbar+1: N makes
    that dropped share below 1e-16.
    """
    n_trunc = math.ceil((math.log(2e16) + 0.5 * rp.b_om) / rp.b_nu)
    table = spectra.spectrum_table(rp, n_trunc)
    energies = np.concatenate((table.edge, table.mu, table.gamma))
    return numerics.log_sum_exp(-rp.b_nu * energies) - 0.5 * rp.b_w0


def check_partition_assembly(rng) -> CheckResult:
    """ln_partition_final against the Boltzmann sum over the analytic spectrum (_boltzmann_ln_partition)."""
    worst, converged = 0.0, True
    for _ in range(8):
        m = int(rng.integers(0, 3))
        branch = (Branch.JC, Branch.AJC)[int(rng.integers(0, 2))] if m > 0 else Branch.CARRIER
        rp = _desk(m, branch, float(rng.uniform(0.0, 2.5)), nbar=float(rng.uniform(0.05, 3.0)))
        part = thermo.ln_partition_final(rp)
        a, b = part.shifted_log, _boltzmann_ln_partition(rp)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-6))
        converged &= part.truncation.converged
    return CheckResult("partition_assembly_crosscheck", worst <= 1e-12 and converged, f"max rel dev {worst:.2e}")


def check_moment_oracle(rng) -> CheckResult:
    worst2 = worst3 = worst1 = 0.0
    cases = [
        (10.0, 1.0, 0.5, 0.38),
        (10.0, 2.0, 0.2, 0.38),
        (50.0, 1.0, 0.8, 0.38),
        (10.0, 1.0, 1.5, 1.0),
        (20.0, 0.5, 0.4, 0.1),
    ]
    for r_w0, r_om, eta, nbar in cases:
        rp = reduced_from_ratios(r_w0, r_om, eta, 0, Branch.CARRIER, nbar=nbar)
        analytic = workstats.moments_analytic(rp)
        ops = spectra.dense_hamiltonians(rp, 80)
        m1 = workstats.moments_numeric(ops, 1).value
        m2 = workstats.moments_numeric(ops, 2).value
        m3 = workstats.moments_numeric(ops, 3).value
        # The full coupling has no diagonal entries, so m1 is 0.0 here; only a nonzero m1 needs the norm.
        if m1 != 0.0:
            worst1 = max(worst1, abs(m1) / _hermitian_norm(ops.h_final_full))
        worst2 = max(worst2, abs(m2 - analytic.second) / analytic.second)
        worst3 = max(worst3, abs(m3 - analytic.third) / analytic.third)
    ok = worst1 <= 1e-10 and worst2 <= 1e-8 and worst3 <= 1e-6
    return CheckResult("moments_vs_closed_forms", ok, f"m1 {worst1:.1e}, m2 {worst2:.1e}, m3 {worst3:.1e}")


def check_pmf_consistency(rng) -> CheckResult:
    worst = 0.0
    for m, branch in ((1, Branch.JC), (2, Branch.AJC), (0, Branch.CARRIER)):
        rp = _desk(m, branch, 0.7)
        pmf = workstats.work_pmf_sideband(rp, 60)
        ops = spectra.dense_hamiltonians(rp, 60)
        scale = max(workstats.moments_numeric(ops, 2, use_full=False).value, 1e-12)
        for order in (1, 2, 3):
            ref = workstats.moments_numeric(ops, order, use_full=False).value
            got = pmf.moment(order)
            worst = max(worst, abs(got - ref) / max(abs(ref), scale ** (order / 2.0)))
        worst = max(worst, abs(pmf.total - 1.0))
    return CheckResult("pmf_moment_consistency", worst <= 1e-8, f"max rel dev {worst:.2e}")


def check_displacement_unitarity(rng) -> CheckResult:
    worst = 0.0
    for eta in (0.3, 1.0):
        mat = spectra.displacement_matrix(160, eta)
        norms = np.linalg.norm(mat[:, :81], axis=0)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return CheckResult("displacement_column_norms", worst <= 1e-8, f"max |norm-1| {worst:.2e}")


def check_lag_monotone_in_omega(rng) -> CheckResult:
    # Rabi/trap ratios bracketing the shared preset value (~628) at eta = 0.5.
    base = _fig1_reduced(0, Branch.CARRIER, 0.5)
    ok = True
    for m, branch in ((0, Branch.CARRIER), (1, Branch.JC), (1, Branch.AJC)):
        grid = [
            reduced_from_ratios(base.r_w0, float(r_om), 0.5, m, branch, b_nu=base.b_nu)
            for r_om in np.linspace(0.0, 2500.0, 11)
        ]
        prev = -1.0
        for lag in thermo.lag_columns(grid, n_pinned=40).value:
            ok &= lag >= prev - 1e-18
            prev = lag
    return CheckResult("lag_monotone_in_rabi_frequency", bool(ok), "nondecreasing on Rabi grids")


def check_lag_nonnegative_spots(rng) -> CheckResult:
    spots = []
    for _ in range(40):
        m = int(rng.integers(0, 4))
        branch = (Branch.JC, Branch.AJC)[int(rng.integers(0, 2))] if m > 0 else Branch.CARRIER
        spots.append(_fig1_reduced(m, branch, float(rng.uniform(0.0, 3.5)), nbar=float(rng.uniform(0.01, 5.0))))
    lags = thermo.lag_columns(spots, n_pinned=64).value
    worst = min(0.0, *lags)
    return CheckResult("lag_nonnegative_spot_grid", worst >= -1e-12, f"min lag {worst:.2e}")


FAST_CHECKS = (
    check_laguerre_recurrence,
    check_laguerre_at_zero,
    check_coupling_reconstruction,
    check_coupling_limits,
    check_lncosh,
    check_log_sum_exp,
    check_sqrt_shift_regression,
    check_sqrt_shift_small,
    check_omega_zero_identity,
    check_carrier_closed_form,
    check_large_eta_partition,
    check_branch_sign_rule,
    check_nbar_beta_roundtrip,
)

FULL_ONLY_CHECKS = (
    check_spectrum_dense_oracle,
    check_eigenvector_residuals,
    check_eigenvector_completeness,
    check_block_sparsity,
    check_carrier_branch_consistency,
    check_partition_dense_oracle,
    check_partition_assembly,
    check_moment_oracle,
    check_pmf_consistency,
    check_displacement_unitarity,
    check_lag_monotone_in_omega,
    check_lag_nonnegative_spots,
)


def run_checks(level: str, seed: int = 0) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = FAST_CHECKS + (FULL_ONLY_CHECKS if level == "full" else ())
    rng = np.random.default_rng(seed)
    return [check(rng) for check in checks]
