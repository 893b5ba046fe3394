"""Partition functions, the nonequilibrium lag, and asymptotic classification.

Everything runs in the b_w0/2-shifted log domain (b_w0 = beta*hbar*omega0 is
~7e11 at experimental parameters, so the common exponential never
materializes).  Two algebraic facts carry the module:

* With the coupling switched off (u_n = omega_rabi*|f_n^m| -> 0) the
  post-quench partition function collapses exactly onto the initial one:

      2 (nbar+1) e^(-m b_nu/2) cosh(b_wl/2) + edge  =  2 (nbar+1) cosh(b_w0/2)

  for both branches, where edge = (nbar+1)(1 - e^(-m b_nu)) e^(+-b_w0/2) is
  the decoupled-edge contribution.

* Each summand of the post-quench partition function exceeds its u = 0
  baseline by 4 e^(-b_nu(n+m/2)) sinh(A_n) sinh(B_n) >= 0, with
  A_n = (X_n + |b_wl|/2)/2, B_n = (X_n - |b_wl|/2)/2 and
  X_n = sqrt(b_wl^2 + u_n^2)/2.

The default assembly therefore writes Z_final = Z_initial + excess, which
makes the lag log(Z_f/Z_i) = log1p(excess/Z_i) nonnegative by construction,
exact in every decoupling limit, and equipped with an analytic tail bound:
the geometric factor of the neglected excess tail cancels against the
(nbar+1) inside Z_initial, so convergence is certified even when b_nu is
tiny (nbar ~ 1e6) after a few hundred explicit terms.  The literal term-by-
term assembly is kept as assembly="direct" for cross-validation.

Every partition sum, pinned or adaptive, excess or direct, is folded by one
engine, _log_sums, with a stop state per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import LAGUERRE_START, LaguerreState, coupling_logabs_sequence, lnsinh, sqrt_excess
from .params import Branch, ReducedParams

__all__ = [
    "TruncationPolicy",
    "TruncationReport",
    "TruncationError",
    "LogPartition",
    "LagResult",
    "DivergenceReport",
    "LowTemperatureLimit",
    "ln_partition_initial",
    "ln_partition_final",
    "nonequilibrium_lag",
    "nonequilibrium_lags",
    "phi_reduced",
    "divergence_predicate_reduced",
    "low_temperature_limit",
    "small_eta_coupling_sq",
    "small_eta_coupling_sq_leading",
]

_LN2 = math.log(2.0)


# Fixed truncation constants: chunk size of the sums.  One term call covers at
# most _BLOCK_CHUNKS chunks of terms; rows are summed _BLOCK_ROWS at a time, so
# a block's call covers 16 chunks of one row or one chunk of 16 rows.
_CHUNK = 512
_BLOCK_CHUNKS = 16
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class TruncationPolicy:
    """How partition sums are truncated.

    n_pinned fixes the number of explicit terms (figure presets pin their
    reference term counts); otherwise the sum grows adaptively until its
    analytic tail bound certifies convergence or n_cap is hit; tol is the
    relative tail tolerance of that stop and of the converged flag.  In
    adaptive mode a sum that ends non-converged raises TruncationError
    unless error_on_nonconverged is cleared; pinned sums never raise, they
    only report converged=False.
    """

    n_pinned: int | None = None
    n_cap: int = 200_000
    tol: float = 1e-12
    error_on_nonconverged: bool = True

    def __post_init__(self) -> None:
        if self.n_cap < 1:
            raise ValueError("n_cap must be positive")
        if self.n_pinned is not None and not 1 <= self.n_pinned <= self.n_cap:
            raise ValueError(f"pinned term count {self.n_pinned} must lie in [1, {self.n_cap}]")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class TruncationReport:
    """n_used explicit terms; tail_bound_log = log(estimated tail / sum).

    stop_reason says why the sum ended: "bound", "cap" or "pinned" for a
    chunked sum, and "exact" for a closed form.
    """

    n_used: int
    tail_bound_log: float
    converged: bool
    stop_reason: str


class TruncationError(RuntimeError):
    """Raised when an adaptive partition sum cannot certify convergence."""

    def __init__(self, report: TruncationReport, message: str):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class LogPartition:
    """log Z carried relative to the b_w0/2 shift; the shift is never re-added."""

    shifted_log: float
    truncation: TruncationReport


@dataclass(frozen=True)
class LagResult:
    """Nonequilibrium lag (nats), its truncation, and whether it diverges as T -> 0."""

    value: float
    truncation: TruncationReport
    divergence_predicted: bool


@dataclass(frozen=True)
class DivergenceReport:
    diverges: bool
    witnesses: list[int]


@dataclass(frozen=True)
class LowTemperatureLimit:
    """Zero-temperature lag classification: finite iff no exponent is negative."""

    finite: bool
    limit_value: float | None
    zero_count: int
    negative_witnesses: list[int]


_EXACT_REPORT = TruncationReport(n_used=0, tail_bound_log=-math.inf, converged=True, stop_reason="exact")


def ln_partition_initial(rp: ReducedParams) -> LogPartition:
    """Closed-form shifted log of the pre-quench partition function.

    log Z_i - b_w0/2 = log(nbar+1) + log(1 + e^(-b_w0)), exact for
    arbitrarily large b_w0.
    """
    shifted = rp.ln_nbar_plus_1 + math.log1p(math.exp(-rp.b_w0))
    return LogPartition(shifted_log=shifted, truncation=_EXACT_REPORT)


# -- internal machinery -------------------------------------------------------

# (m, eta) -> (signs, log_mags, state): f_n^m for n = 0..state.n, where state
# is where the Laguerre recurrence stopped.  The arrays may be longer than
# state.n + 1; the spare room is filled by later extensions, which write
# only past state.n, so slices handed out earlier never change.  Sweeps run
# serially, so the cache takes no lock.
_COUPLING_CACHE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray, LaguerreState]] = {}
_COUPLING_CACHE_KEYS = 512


def _coupling_upto(m: int, eta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (signs, log magnitudes) of f_n^m for n = 0..>=n_max."""
    key = (m, eta)
    entry = _COUPLING_CACHE.get(key)
    if entry is None or entry[2].n < n_max:
        entry = _grow_coupling(key, entry, n_max)
    signs, log_mags, state = entry
    return signs[: state.n + 1], log_mags[: state.n + 1]


def _grow_coupling(key: tuple[int, float], entry, n_max: int):
    """Store an entry for key that reaches n_max, resuming the recurrence.

    A new key starts with enough terms for the divergence scan as well, so a
    pinned row needs one recurrence call.  An extension computes only the
    missing terms; the arrays double in capacity when full, so copying stays
    linear in the final length.
    """
    m, eta = key
    if entry is None:
        if len(_COUPLING_CACHE) >= _COUPLING_CACHE_KEYS:
            _COUPLING_CACHE.clear()
        entry = coupling_logabs_sequence(max(n_max, default_scan_bound(m)), m, eta, resume=LAGUERRE_START)
    else:
        signs, log_mags, state = entry
        new_signs, new_mags, new_state = coupling_logabs_sequence(n_max, m, eta, resume=state)
        lo = state.n + 1
        if signs.size <= n_max:
            capacity = max(n_max + 1, 2 * signs.size)
            signs = np.concatenate((signs[:lo], np.empty(capacity - lo, dtype=signs.dtype)))
            log_mags = np.concatenate((log_mags[:lo], np.empty(capacity - lo)))
        signs[lo : n_max + 1] = new_signs
        log_mags[lo : n_max + 1] = new_mags
        entry = (signs, log_mags, new_state)
    _COUPLING_CACHE[key] = entry
    return entry


def _abs_bwl_minus_bw0(rp: ReducedParams) -> tuple[float, float]:
    """(|b_wl|, |b_wl| - b_w0) with the difference formed without cancellation."""
    delta = rp.branch.sideband_sign * rp.m * rp.b_nu  # b_wl - b_w0, exact
    if rp.b_wl >= 0:
        return rp.b_wl, delta
    return -rp.b_wl, -2.0 * rp.b_w0 - delta


def _scaled_coupling(m: int, eta: float, scale: float, n_lo: int, n_hi: int) -> np.ndarray:
    """scale * |f_n^m| for n in [n_lo, n_hi)."""
    signs, log_mags = _coupling_upto(m, eta, n_hi - 1)
    with np.errstate(over="ignore"):
        return np.where(signs[n_lo:n_hi] == 0, 0.0, scale * np.exp(log_mags[n_lo:n_hi]))


class _Rows(NamedTuple):
    """Parameters of rows that share the sideband index m, each a [rows x 1] column."""

    m: int
    etas: tuple[float, ...]
    b_nu: np.ndarray
    b_w0: np.ndarray
    b_om: np.ndarray
    abs_bwl: np.ndarray
    d_aw: np.ndarray  # |b_wl| - b_w0


def _rows_of(rps: list[ReducedParams]) -> _Rows:
    columns = np.array([(rp.b_nu, rp.b_w0, rp.b_om, *_abs_bwl_minus_bw0(rp)) for rp in rps]).T.copy()[:, :, None]
    return _Rows(rps[0].m, tuple(rp.eta for rp in rps), *columns)


def _coupling_rows(m: int, etas: tuple[float, ...], n_lo: int, n_hi: int) -> np.ndarray:
    """|f_n^m| for n in [n_lo, n_hi), one row per eta, from one cache slice per distinct eta.

    When all etas are equal the result is a single row, which broadcasts.
    """
    by_eta = {eta: _scaled_coupling(m, eta, 1.0, n_lo, n_hi) for eta in dict.fromkeys(etas)}
    if len(by_eta) == 1:
        return next(iter(by_eta.values()))[None, :]
    return np.stack([by_eta[eta] for eta in etas])


def _excess_logs(rows: _Rows, n_lo: int, n_hi: int) -> np.ndarray:
    """Shifted log of the coupling-induced excess terms for n in [n_lo, n_hi), one row per parameter row.

    The one excess-term formula: every operation is elementwise, so a row's
    terms have the same bits in a block of any size.
    """
    with np.errstate(over="ignore"):
        u = rows.b_om * _coupling_rows(rows.m, rows.etas, n_lo, n_hi)
    b_quarter = 0.25 * sqrt_excess(rows.abs_bwl, u)  # (sqrt(b_wl^2+u^2) - |b_wl|)/4 >= 0
    a_shifted = 0.5 * rows.d_aw + b_quarter
    # _LN2 - b_nu (n + m/2) + a_shifted + log(1 - e^(-2 a_full)) + lnsinh(b_quarter),
    # added left to right in place, which keeps few [rows x n] arrays alive.
    out = rows.b_nu * (np.arange(n_lo, n_hi, dtype=float) + 0.5 * rows.m)
    np.subtract(_LN2, out, out=out)
    out += a_shifted
    with np.errstate(divide="ignore", invalid="ignore"):
        # a_full >= |b_wl|/2 = (d_aw + b_w0)/2, also in floats: past 400, e^(-2 a_full)
        # underflows to 0 and the edge adds log1p(-0.0) = -0.0, which changes no bit.
        if not np.all(0.5 * (rows.d_aw + rows.b_w0) > 400.0):
            out += _log1m_exp_neg2(a_shifted + 0.5 * rows.b_w0)
        out += lnsinh(b_quarter)
    out[b_quarter == 0.0] = -np.inf
    return out


def _log1m_exp_neg2(a):
    """log(1 - e^(-2a)) for a > 0, a float or an array.

    log1p(-e^(-2a)), except where e^(-2a) rounds to 1 (a below ~1e-16, at
    extreme temperatures): there log1p would give log(0), and
    log(-expm1(-2a)) is used instead.  Floats go through math, arrays
    through numpy, as the two differ in the last ulp.
    """
    if isinstance(a, float):
        edge = math.exp(-2.0 * a)
        return math.log1p(-edge) if edge != 1.0 else math.log(-math.expm1(-2.0 * a))
    edge = np.exp(-2.0 * a)
    out = np.log1p(-edge)
    at_one = edge == 1.0
    if at_one.any():
        out[at_one] = np.log(-np.expm1(-2.0 * a[at_one]))
    return out


def _excess_tails(rows: _Rows) -> list:
    """Per row, n_from -> shifted-log bound on the excess terms with n >= n_from, minus log(nbar+1).

    Uses |f_n^m| <= 1 (unitary matrix element), so the coupling factor is
    bounded by its u = b_om envelope while the geometric factor sums exactly.
    The log(nbar+1) is left out because it cancels against Z_initial.  The
    envelope and its lnsinh are formed for all rows at once, the rest of
    each row's constants in math; only the geometric factor depends on
    n_from.
    """
    b_quarters = 0.25 * sqrt_excess(rows.abs_bwl, rows.b_om)
    columns = (b_quarters, lnsinh(b_quarters), rows.d_aw, rows.b_w0, rows.b_nu)
    return [_excess_tail(*values, 0.5 * rows.m) for values in zip(*(c.ravel().tolist() for c in columns))]


def _excess_tail(b_quarter: float, log_sinh: float, d_aw: float, b_w0: float, b_nu: float, half_m: float):
    if b_quarter == 0.0:  # also when b_om = 0
        return lambda n_from: -math.inf
    a_shifted = 0.5 * d_aw + b_quarter
    log_edge = _log1m_exp_neg2(a_shifted + 0.5 * b_w0)
    return lambda n_from: _LN2 - b_nu * (n_from + half_m) + a_shifted + log_edge + log_sinh


def _chunk_log_sums(rows: np.ndarray) -> tuple[list[float], list[float]]:
    """(max, log sum(exp(row))) of each row of a 2-D block of chunks (nan log for an all -inf row).

    All rows are reduced in one pass; the row-wise pairwise sum of a row has
    the bits of the 1-D np.sum of that row, at any row length.
    """
    his = rows.max(axis=1)
    with np.errstate(invalid="ignore"):
        sums = np.exp(rows - his[:, None]).sum(axis=1).tolist()
    his = his.tolist()
    return his, [hi + math.log(s) for hi, s in zip(his, sums)]


def _log_sums(term_logs, n_rows: int, policy: TruncationPolicy, bounds=None) -> list[tuple[float, int, str]]:
    """(log of the sum, terms used, stop reason) of each of n_rows rows of terms, summed ascending in n.

    term_logs(live, n_lo, n_hi) gives the terms n_lo..n_hi-1 of the rows
    listed in live, as a [len(live) x (n_hi - n_lo)] block.  Each row is
    folded chunk by chunk, so it keeps the bits of a one-row, one-chunk-at-a-
    time sum, and leaves live when it stops: after n_pinned terms ("pinned");
    else at the first chunk edge n where bounds[row](n) holds ("bound"); else
    at n_cap ("cap").  Pinned sums do not read bounds.

    One call covers at most _BLOCK_CHUNKS chunks over the live rows (at least
    one per row; adaptive calls take 1, 2, 4, ... chunks per row) and ends at
    its live rows' earliest stop, so no term past a row's stop is computed.
    """
    pinned = policy.n_pinned is not None
    end = policy.n_pinned if pinned else policy.n_cap
    out: list = [None] * n_rows
    running = [-math.inf] * n_rows
    live = list(range(n_rows))
    n_done = 0
    n_chunks = _BLOCK_CHUNKS if pinned else 1
    while live:
        n_hi = min(n_done + min(n_chunks, max(1, _BLOCK_CHUNKS // len(live))) * _CHUNK, end)
        bound_at = {}
        if bounds is not None and not pinned:
            edges = [*range(n_done + _CHUNK, n_hi, _CHUNK), n_hi]
            bound_at = {row: next((edge for edge in edges if bounds[row](edge)), None) for row in live}
            n_hi = min((edge for edge in bound_at.values() if edge is not None), default=n_hi)
        xs = term_logs(live, n_done, n_hi)
        split = (n_hi - n_done) // _CHUNK * _CHUNK
        # Each row's full chunks as consecutive rows of one block, then its partial last chunk.
        for chunks in (xs[:, :split].reshape(-1, _CHUNK), xs[:, split:]):
            if chunks.size == 0:
                continue
            per = chunks.shape[0] // len(live)
            for k, (hi, chunk_log) in enumerate(zip(*_chunk_log_sums(chunks))):
                row = live[k // per]
                # The chunk has a term above -inf iff its max is, unless a nan hides it.
                if hi > -math.inf or (hi != hi and (chunks[k] > -math.inf).any()):
                    running[row] = float(np.logaddexp(running[row], chunk_log))
        for row in live:
            if bound_at.get(row) == n_hi:
                out[row] = (running[row], n_hi, "bound")
            elif n_hi == end:
                out[row] = (running[row], end, "pinned" if pinned else "cap")
        live = [row for row in live if out[row] is None]
        n_done = n_hi
        n_chunks = min(2 * n_chunks, _BLOCK_CHUNKS)
    return out


def _coupling_alive(rp: ReducedParams) -> bool:
    """Whether the drive couples any levels: omega_rabi > 0 and, on a sideband, eta > 0.

    The one dead-coupling rule: a dead row has an exact zero lag and never
    diverges.  Only the ratio omega_rabi/nu of rp enters, not its temperature.
    """
    return rp.r_om > 0 and (rp.m == 0 or rp.eta > 0)


def _excess_lags(rps: list[ReducedParams], policy: TruncationPolicy) -> list[tuple[float, float, TruncationReport]]:
    """(shifted log Z_initial, lag, truncation report) of each row, from the excess sum.

    Rows with dead coupling are exact zeros.  The live rows that share a
    sideband index are summed in blocks of up to _BLOCK_ROWS rows.  An
    adaptive sum that ends non-converged raises TruncationError for the first
    such row in input order, unless policy.error_on_nonconverged is cleared.
    """
    out: list = [None] * len(rps)
    by_m: dict[int, list[int]] = {}
    for i, rp in enumerate(rps):
        if not _coupling_alive(rp):  # the excess vanishes identically, no scan needed
            out[i] = (ln_partition_initial(rp).shifted_log, 0.0, _EXACT_REPORT)
        else:
            by_m.setdefault(rp.m, []).append(i)
    for live in by_m.values():
        for start in range(0, len(live), _BLOCK_ROWS):
            block = live[start : start + _BLOCK_ROWS]
            for i, result in zip(block, _excess_block([rps[i] for i in block], policy)):
                out[i] = result
    failed = next((report for _, _, report in out if not report.converged), None)
    if failed and policy.n_pinned is None and policy.error_on_nonconverged:
        raise TruncationError(failed, f"partition sum not converged after {failed.n_used} terms ({failed.stop_reason})")
    return out


def _take(rows: _Rows, live: list[int]) -> _Rows:
    """The rows listed in live."""
    return _Rows(rows.m, tuple(rows.etas[i] for i in live), *(column[live] for column in rows[2:]))


def _excess_block(rps: list[ReducedParams], policy: TruncationPolicy) -> list[tuple[float, float, TruncationReport]]:
    """_excess_lags for live rows that share m, from one _log_sums call."""
    rows = _rows_of(rps)
    tails = _excess_tails(rows)
    # log(1 + e^(-b_w0)): log Z_i without its log(nbar+1), which cancels against the tails'.
    zi_edges = [math.log1p(math.exp(-rp.b_w0)) for rp in rps]
    log_tol = math.log(policy.tol)
    bounds = [lambda n, tail=tail, edge=edge: tail(n) - edge <= log_tol for tail, edge in zip(tails, zi_edges)]
    sums = _log_sums(lambda live, lo, hi: _excess_logs(_take(rows, live), lo, hi), len(rps), policy, bounds)
    out = []
    for rp, tail, zi_edge, (log_sum, n_done, stop_reason) in zip(rps, tails, zi_edges, sums):
        ln_zi = ln_partition_initial(rp).shifted_log
        lag = float(np.logaddexp(0.0, log_sum - ln_zi))
        tail_bound_log = tail(n_done) + rp.ln_nbar_plus_1 - (ln_zi + lag)
        converged = tail_bound_log <= log_tol or tail(n_done) - zi_edge <= log_tol
        report = TruncationReport(
            n_used=n_done, tail_bound_log=tail_bound_log, converged=converged, stop_reason=stop_reason
        )
        out.append((ln_zi, lag, report))
    return out


def _edge_shifted_log(rp: ReducedParams) -> float:
    """Shifted log of the decoupled-edge contribution to the final partition sum."""
    if rp.m == 0:
        return -math.inf
    base = rp.ln_nbar_plus_1 + math.log(-math.expm1(-rp.m * rp.b_nu))
    if rp.branch is Branch.AJC:
        return base - rp.b_w0
    return base


def ln_partition_final(
    rp: ReducedParams,
    policy: TruncationPolicy | None = None,
    assembly: str = "excess",
) -> LogPartition:
    """Shifted log of the post-quench partition function.

    assembly="excess" (default) adds the coupling-induced excess onto the
    closed-form baseline, which equals the initial partition function
    exactly; assembly="direct" sums the coupled-pair terms and the edge term
    literally, in fixed ascending order, and exists to cross-check the
    default path.
    """
    policy = policy or TruncationPolicy()
    if assembly == "excess":
        ((ln_zi, lag, report),) = _excess_lags([rp], policy)
        return LogPartition(shifted_log=ln_zi + lag, truncation=report)
    if assembly == "direct":
        return _ln_partition_final_direct(rp, policy)
    raise ValueError("assembly must be 'excess' or 'direct'")


def _direct_term_logs(rp: ReducedParams, n_lo: int, n_hi: int) -> np.ndarray:
    """Shifted log of 2 e^(-b_nu(n+m/2)) cosh(X_n) for n in [n_lo, n_hi)."""
    u = _scaled_coupling(rp.m, rp.eta, rp.b_om, n_lo, n_hi)
    abs_bwl, d_aw = _abs_bwl_minus_bw0(rp)
    half_ss = 0.5 * (d_aw + sqrt_excess(abs_bwl, u))  # X_n - b_w0/2
    x_full = half_ss + 0.5 * rp.b_w0
    ns = np.arange(n_lo, n_hi, dtype=float)
    return -rp.b_nu * (ns + 0.5 * rp.m) + half_ss + np.log1p(np.exp(-2.0 * x_full))


def _ln_partition_final_direct(rp: ReducedParams, policy: TruncationPolicy) -> LogPartition:
    # Shifted log of the terms past n: each is at most 2 e^(-b_nu(n+m/2)) e^(X_max),
    # with the splitting at the u = b_om envelope of the coupling.
    abs_bwl, d_aw = _abs_bwl_minus_bw0(rp)
    env = 0.5 * (d_aw + float(sqrt_excess(abs_bwl, rp.b_om)))
    tail = lambda n: _LN2 + env - rp.b_nu * (n + 0.5 * rp.m) + rp.ln_nbar_plus_1
    # Z_final >= Z_initial exactly, so a tail below tol of Z_initial certifies the stop.
    ln_zi = ln_partition_initial(rp).shifted_log
    log_tol = math.log(policy.tol)
    ((running, n_done, stop_reason),) = _log_sums(
        lambda live, lo, hi: _direct_term_logs(rp, lo, hi)[None, :], 1, policy, [lambda n: tail(n) - ln_zi <= log_tol]
    )
    total = float(np.logaddexp(running, _edge_shifted_log(rp)))
    tail_bound_log = tail(n_done) - max(total, ln_zi)
    converged = tail_bound_log <= log_tol
    report = TruncationReport(
        n_used=n_done, tail_bound_log=tail_bound_log, converged=converged, stop_reason=stop_reason
    )
    if not converged and policy.n_pinned is None and policy.error_on_nonconverged:
        raise TruncationError(report, f"direct partition sum not converged after {n_done} terms")
    return LogPartition(shifted_log=total, truncation=report)


def nonequilibrium_lag(rp: ReducedParams, policy: TruncationPolicy | None = None) -> LagResult:
    """Lag log(Z_final / Z_initial) >= 0 for the sudden sideband quench.

    The shifts cancel exactly; the value is log1p(excess / Z_initial), so the
    decoupled limits (omega_rabi -> 0, eta -> infinity, JC sideband with
    eta -> 0) return exactly zero.
    """
    return nonequilibrium_lags([rp], policy)[0]


def nonequilibrium_lags(rps: list[ReducedParams], policy: TruncationPolicy | None = None) -> list[LagResult]:
    """nonequilibrium_lag of each point, with the same bits.

    Rows that share a sideband index are summed in blocks of up to 16 rows,
    which costs far less than one row at a time, and the divergence scan
    runs once per JC key, not once per row.  A TruncationError names the
    first non-converged point in input order.
    """
    lags = _excess_lags(rps, policy or TruncationPolicy())
    jc_memo: dict = {}
    return [
        LagResult(value=lag, truncation=report, divergence_predicted=_diverges(rp, jc_memo))
        for rp, (_, lag, report) in zip(rps, lags)
    ]


# -- low-temperature classification -------------------------------------------


def _phi_parts(rp: ReducedParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(ladder, excess) for n = 0..n_max, with Phi_n^m / nu = ladder - excess.

    ladder = (2n+m) - (|r_wl| - r_w0) and excess = sqrt(r_wl^2 + u_n^2) - |r_wl|
    are each formed without cancellation, so the sign of Phi is reliable even
    when it is ~1e-11 of omega0/nu.  Only the frequency ratios of rp enter,
    not its temperature.
    """
    m, r_w0 = rp.m, rp.r_w0
    u = _scaled_coupling(m, rp.eta, rp.r_om, 0, n_max + 1)
    sign = rp.branch.sideband_sign if m > 0 else 0
    r_wl = r_w0 + sign * m
    d_aw = float(sign * m) if r_wl >= 0 else -2.0 * r_w0 - sign * m
    ladder = (2.0 * np.arange(n_max + 1, dtype=float) + m) - d_aw
    return ladder, sqrt_excess(abs(r_wl), u)


def phi_reduced(n: int, rp: ReducedParams) -> float:
    """Low-temperature exponent Phi_n^m in trap-frequency units (Phi / nu).

    Only the frequency ratios of rp enter, not its temperature; multiply by
    nu for rad/s.
    """
    ladder, excess = _phi_parts(rp, n)
    return float(ladder[n] - excess[n])


_PHI_ZERO_TOL = 1e-9


def _phi_scan(rp: ReducedParams) -> tuple[list[int], list[int]]:
    """(strictly negative witnesses, zero crossings) of Phi_n^m for n <= default_scan_bound(m).

    A value counts as zero when it is below 1e-9 of the two quantities whose
    difference it is (the level ladder nu(2n+m) -+ m nu and the dressed-
    splitting excess); measuring against omega0 instead would swallow every
    trap-scale value once omega0/nu is large.  Only the frequency ratios of
    rp enter, not its temperature.
    """
    ladder, excess = _phi_parts(rp, default_scan_bound(rp.m))
    values = ladder - excess
    is_zero = np.abs(values) <= _PHI_ZERO_TOL * (np.abs(ladder) + np.abs(excess))
    is_neg = (values < 0) & ~is_zero
    return np.nonzero(is_neg)[0].tolist(), np.nonzero(is_zero)[0].tolist()


def default_scan_bound(m: int) -> int:
    """Witnesses beyond this are impossible: |f_n^m| decays in n while the
    divergence threshold grows like sqrt(n)."""
    return 10 * m + 100


def _zero_temperature(
    rp: ReducedParams, jc_scan=_phi_scan, witnesses: bool = True
) -> tuple[bool, list[int], list[int]]:
    """(diverges, negative witnesses, zero crossings) as T -> 0: the one rule every classifier follows.

    Dead coupling never diverges and has no witnesses.  Live AJC or carrier
    coupling always diverges, since Phi_0 < 0; its Phi is scanned for the
    witnesses only when witnesses is set.  A JC sideband diverges iff
    jc_scan(rp), which gives (negative, zeros) like _phi_scan, finds a
    strictly negative Phi_n^m.
    """
    if not _coupling_alive(rp):
        return False, [], []
    if rp.branch is Branch.JC and rp.m > 0:
        negative, zeros = jc_scan(rp)
        return bool(negative), negative, zeros
    return (True, *_phi_scan(rp)) if witnesses else (True, [], [])


def _diverges(rp: ReducedParams, jc_memo: dict) -> bool:
    """divergence_predicate_reduced(rp).diverges, with Phi scanned only where the answer needs it.

    AJC and carrier coupling is not scanned.  A JC sideband's witnesses are
    kept in jc_memo under (m, r_w0, r_om, eta), the only inputs of its scan,
    so a sweep over temperature scans once.
    """

    def jc_scan(rp: ReducedParams) -> tuple[list[int], list[int]]:
        key = (rp.m, rp.r_w0, rp.r_om, rp.eta)
        if key not in jc_memo:
            jc_memo[key] = divergence_predicate_reduced(rp).witnesses
        return jc_memo[key], []  # only the verdict is read, so the zeros are left out

    return _zero_temperature(rp, jc_scan, witnesses=False)[0]


def divergence_predicate_reduced(rp: ReducedParams) -> DivergenceReport:
    """Does the lag diverge as the temperature goes to zero?

    AJC and carrier quenches with live coupling always do (the lowest
    exponent is strictly negative); a JC quench diverges iff some exponent
    Phi_n^m turns negative, equivalently
    |f_n^m| > (2/omega_rabi) sqrt(nu (omega0 + n nu)(n+m)) for some n.
    Only the frequency ratios of rp enter, not its temperature.
    """
    diverges, negative, _ = _zero_temperature(rp)
    return DivergenceReport(diverges=diverges, witnesses=negative)


def low_temperature_limit(rp: ReducedParams) -> LowTemperatureLimit:
    """Zero-temperature limit of the lag: log(1 + k) when finite.

    k counts the exponents Phi_n^m within the documented zero tolerance.
    AJC and carrier quenches with live coupling never stay finite.  The
    witnesses are those of divergence_predicate_reduced.  Only the frequency
    ratios of rp enter, not its temperature.
    """
    diverges, negative, zeros = _zero_temperature(rp)
    if diverges:
        return LowTemperatureLimit(finite=False, limit_value=None, zero_count=len(zeros), negative_witnesses=negative)
    return LowTemperatureLimit(
        finite=True,
        limit_value=math.log1p(len(zeros)),
        zero_count=len(zeros),
        negative_witnesses=[],
    )


# -- small-eta asymptotics ----------------------------------------------------


def small_eta_coupling_sq(n: int, m: int, eta: float) -> float:
    """|f_n^m|^2 to second order in eta beyond the leading power:

    ((n+m)! / (n! m!^2)) [1 - eta^2 (2n+m+1)/(m+1)] eta^(2m),
    valid for eta well below 0.3.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    lead = math.comb(n + m, m) / math.factorial(m)
    return lead * (1.0 - eta * eta * (2.0 * n + m + 1.0) / (m + 1.0)) * eta ** (2 * m)


def small_eta_coupling_sq_leading(n: int, m: int, eta: float) -> float:
    """Truncation of the expansion to order eta^2: nonzero only for m in {0, 1}."""
    if m == 0:
        return 1.0 - (2.0 * n + 1.0) * eta * eta
    if m == 1:
        return (n + 1.0) * eta * eta
    return 0.0

