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

The module therefore writes Z_final = Z_initial + excess, which makes the
lag log(Z_f/Z_i) = log1p(excess/Z_i) nonnegative by construction, exact in
every decoupling limit, and equipped with an analytic tail bound: the
geometric factor of the neglected excess tail cancels against the (nbar+1)
inside Z_initial, so convergence is certified even when b_nu is tiny
(nbar ~ 1e6) after a few hundred explicit terms.  This is the one assembly
of Z_final; ionquench.verify compares it with the Boltzmann sum over
spectra.spectrum_table and with a dense diagonalization.

Every partition sum, pinned or adaptive, is folded by one engine,
_log_sums, with a stop state per row.

Whether the lag diverges as T -> 0 is read from the signs of the exponents
Phi_n^m up to one proved end (_scan_end), and decided by one rule
(_diverges) that lag_columns and both scalar classifiers read.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import LAGUERRE_START, LaguerreState, coupling_logabs_sequence, each_distinct, lnsinh
from .numerics import log_sum_exp_rows, sqrt_excess
from .params import Branch, ReducedColumns, ReducedParams

__all__ = [
    "TruncationReport",
    "TERM_CAP",
    "TOL",
    "LogPartition",
    "LagResult",
    "LagColumns",
    "DivergenceReport",
    "LowTemperatureLimit",
    "ln_partition_initial",
    "ln_partition_final",
    "nonequilibrium_lag",
    "lag_columns",
    "phi_reduced",
    "divergence_predicate_reduced",
    "low_temperature_limit",
]

_LN2 = math.log(2.0)


# Fixed truncation constants: chunk size of the sums, and the term budgets of
# one term call.  A block takes as many live rows as fit _TERM_BUDGET (16
# chunks) on their first call, min(n_pinned, _CHUNK) terms each: 16 rows of
# adaptive sums or of sums pinned at 512 or more terms, 204 rows of 40 pinned
# terms.  A call gives every live row max(1, budget // (live * _CHUNK))
# chunks.  A call that tests rows for settling (pinned excess sums) has
# budget _TERM_BUDGET: 16 chunks of a lone row, one chunk of each of 16 rows;
# a row that settles early in a call wastes the rest of it.  A call that
# tests none (adaptive excess sums) ends only at stops known before its
# first term, so it takes _WIDE_BUDGET, 64 chunks: four of each of 16 rows.
# The recurrence grows a coupling key _TERM_BUDGET terms a call.  In
# deep_sums (seed 1) this makes 127 term calls, not 455, while the 40
# recurrence calls and their 278528 steps stay as they were.
_CHUNK = 512
_TERM_BUDGET = 16 * _CHUNK
_WIDE_BUDGET = 4 * _TERM_BUDGET
# The truncation constants; both are read at call time, so a test may patch them.
# The term cap: the most terms of any sum, and the furthest n a divergence scan reaches (see _phi_scan).
TERM_CAP = 200_000
# The relative tail tolerance of an adaptive sum's stop and of every converged flag (see _excess_block).
TOL = 1e-12


@dataclass(frozen=True)
class TruncationReport:
    """n_used explicit terms; tail_bound_log = log(estimated tail / sum).

    stop_reason says why the sum ended: "bound", "cap" or "pinned" for a
    chunked sum; "settled" for a pinned sum whose terms past some chunk edge
    below n_pinned could not change a bit of it, so it holds the value of
    all n_used = n_pinned terms; and "exact" for a closed form.  Every field
    is a function of the row and its pin: it is the same whichever block
    of lag_columns the row is summed in.
    """

    n_used: int
    tail_bound_log: float
    converged: bool
    stop_reason: str


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


class LagColumns(NamedTuple):
    """The lags of a list of points as columns: one list per field of LagResult and its TruncationReport."""

    value: list[float]
    n_used: list[int]
    tail_bound_log: list[float]
    converged: list[bool]
    stop_reason: list[str]
    divergence_predicted: list[bool]


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
    shifted = rp.ln_nbar_plus_1 + rp.zi_edge
    return LogPartition(shifted_log=shifted, truncation=_EXACT_REPORT)


# -- internal machinery -------------------------------------------------------

# (m, eta) -> (abs_f, state): |f_n^m| for n = 0..state.n, where state is
# where the Laguerre recurrence stopped.  The array may be longer than
# state.n + 1; the spare room is filled by later extensions, which write only
# past state.n, so slices handed out earlier never change.  Sweeps run
# serially, so the cache takes no lock.
_COUPLING_CACHE: dict[tuple[int, float], tuple[np.ndarray, LaguerreState]] = {}
_COUPLING_CACHE_KEYS = 512


def _coupling_upto(reach: dict) -> dict:
    """Cached |f_n^m| for n = 0..>=n_max of each (m, eta) key -> n_max of reach.

    Room is made once per call: when the new keys would take the cache past
    _COUPLING_CACHE_KEYS, every key not in reach is dropped.  So an excess
    block, whose first call asks for all its keys, keeps them to its end.
    """
    if len(_COUPLING_CACHE) + sum(key not in _COUPLING_CACHE for key in reach) > _COUPLING_CACHE_KEYS:
        for key in _COUPLING_CACHE.keys() - reach.keys():
            del _COUPLING_CACHE[key]
    out = {}
    for key, n_max in reach.items():
        entry = _COUPLING_CACHE.get(key)
        if entry is None or entry[1].n < n_max:
            entry = _grow_coupling(key, entry, n_max)
        out[key] = entry[0][: entry[1].n + 1]
    return out


def _grow_coupling(key: tuple[int, float], entry, n_max: int):
    """Store an entry for key that reaches n_max, resuming the recurrence.

    A new key is filled only to the n_max asked: a pinned row needs one
    recurrence call for its terms, and an adaptive block grows each key
    once, to the furthest stop among its rows (see _excess_block).  A
    divergence scan extends it to the scan's end (see _phi_scan).  A
    recurrence call computes at most _TERM_BUDGET terms, so its lists and
    arrays stay small, and each segment is exponentiated once, as stored,
    and clipped at 1: |f| <= 1 holds exactly, the excess tail bound and
    _scan_end read it, and the recurrence's rounding takes a computed
    |f_n^0| up to 1 + 8e-8 at eta 1e-8 and n = 200000.  A resumed call
    returns log magnitudes only, taken straight from the recurrence's
    values: no sign array is built, as |f| needs none.  An extension
    computes only the missing terms; the array doubles in capacity when
    full, so copying stays linear in the final length.
    """
    m, eta = key
    abs_f, state = entry or (np.empty(0), LAGUERRE_START)
    while state.n < n_max:
        n_to = min(n_max, state.n + _TERM_BUDGET)
        segment, new_state = coupling_logabs_sequence(n_to, m, eta, resume=state)
        np.exp(segment, out=segment)  # |f|: an exact zero has log -inf, and exp(-inf) = 0.0
        np.minimum(segment, 1.0, out=segment)
        lo = state.n + 1
        if lo == 0:  # a new key keeps its first segment
            abs_f = segment
        elif abs_f.size <= n_to:
            abs_f = np.concatenate((abs_f[:lo], segment, np.empty(max(n_max + 1, 2 * abs_f.size) - n_to - 1)))
        else:
            abs_f[lo : n_to + 1] = segment
        state = new_state
    entry = _COUPLING_CACHE[key] = (abs_f, state)
    return entry


class _Rows(NamedTuple):
    """Parameters of a block of rows: their (m, eta) coupling keys, and each parameter a [rows x 1] column."""

    keys: tuple[tuple[int, float], ...]
    edge: bool  # whether some term may need the edge factor of _excess_logs; a subset keeps it (see _rows_of)
    half_m: np.ndarray  # m/2
    b_nu: np.ndarray
    b_w0: np.ndarray
    b_om: np.ndarray
    abs_bwl: np.ndarray
    d_aw: np.ndarray  # |b_wl| - b_w0


def _rows_of(rps: ReducedColumns | list[ReducedParams]) -> _Rows:
    """The rows' columns, each with the bits of the same float operations on its row's parameters.

    d_aw is formed without cancellation from delta = b_wl - b_w0 = -+m b_nu, exact; b_w0 + delta is rp.b_wl.
    """
    cols = ReducedColumns.of(rps)
    b_nu, b_w0, b_om, _, m, sign = cols[:6]
    delta = sign * m * b_nu
    b_wl = b_w0 + delta
    above = b_wl >= 0
    columns = [0.5 * m, b_nu, b_w0, b_om, np.where(above, b_wl, -b_wl), np.where(above, delta, -2.0 * b_w0 - delta)]
    # a_full >= |b_wl|/2 = (d_aw + b_w0)/2, also in floats: past 400, e^(-2 a_full) underflows
    # to 0 and the edge adds log1p(-0.0) = -0.0, which changes no bit, in any row of any subset.
    edge = not np.all(0.5 * (columns[5] + b_w0) > 400.0)
    return _Rows(tuple(zip(m.tolist(), cols.eta.tolist())), edge, *np.array(columns)[:, :, None])


def _coupling_rows(keys: tuple[tuple[int, float], ...], n_lo: int, n_hi: int) -> np.ndarray:
    """|f_n^m| for n in [n_lo, n_hi), one row per (m, eta) key, from one cache slice per distinct key.

    When all keys are equal the result is a single row, which broadcasts:
    a view of the cache, which callers must not write to.
    """
    by_key = _coupling_upto(dict.fromkeys(keys, n_hi - 1))
    if len(by_key) == 1:
        return next(iter(by_key.values()))[None, n_lo:n_hi]
    return np.stack([by_key[key][n_lo:n_hi] for key in keys])


def _excess_logs(rows: _Rows, n_lo: int, n_hi: int) -> np.ndarray:
    """Shifted log of the coupling-induced excess terms for n in [n_lo, n_hi), one row per parameter row.

    The one excess-term formula: every operation is elementwise, so a row's
    terms have the same bits in a block of any size.  It is one fused kernel
    on three [rows x n] buffers (the terms, b_quarter, and a scratch one),
    with the float operations of the unfused formula in its order:

        u = b_om |f|,  b_quarter = sqrt_excess(|b_wl|, u)/4,  a_shifted = d_aw/2 + b_quarter,
        _LN2 - b_nu (n + m/2) + a_shifted + log(1 - e^(-2 (a_shifted + b_w0/2))) + lnsinh(b_quarter),

    added left to right, the edge log only where rows.edge (see _rows_of),
    and -inf where b_quarter = 0.  hypot, sinh and log write into the
    buffers (out=).  The coupling rows may be a view of the cache: they are
    only read.
    """
    coupling = _coupling_rows(rows.keys, n_lo, n_hi)
    shape = (len(rows.keys), n_hi - n_lo)
    b_quarter, scratch, out = np.empty(shape), np.empty(shape), np.empty(shape)
    u = np.multiply(rows.b_om, coupling, out=b_quarter)
    # sqrt_excess(|b_wl|, u) = u^2 / (hypot(|b_wl|, u) + |b_wl|), and 0 where u = 0 if some |b_wl| is 0
    dead = None if np.all(np.greater(rows.abs_bwl, 0.0)) else u == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        np.hypot(rows.abs_bwl, u, out=scratch)
        scratch += rows.abs_bwl
        np.multiply(u, u, out=b_quarter)
        b_quarter /= scratch
    if dead is not None:
        b_quarter[dead] = 0.0
    b_quarter *= 0.25  # (sqrt(b_wl^2+u^2) - |b_wl|)/4 >= 0
    a_shifted = np.add(0.5 * rows.d_aw, b_quarter, out=scratch)
    np.add(np.arange(n_lo, n_hi, dtype=float), rows.half_m, out=out)
    out *= rows.b_nu
    np.subtract(_LN2, out, out=out)
    out += a_shifted
    with np.errstate(divide="ignore", invalid="ignore"):
        if rows.edge:
            out += _log1m_exp_neg2(np.add(a_shifted, 0.5 * rows.b_w0, out=scratch))
        out += lnsinh(b_quarter, out=scratch)
    if not b_quarter.all():
        out[b_quarter == 0.0] = -np.inf
    return out


def _log1m_exp_neg2(a):
    """log(1 - e^(-2a)) for a > 0, a float or an array.

    log1p(-e^(-2a)), except where e^(-2a) rounds to 1 (a below ~1e-16, at
    extreme temperatures): there log1p would give log(0), and
    log(-expm1(-2a)) is used instead.  Floats go through math, arrays
    through numpy, as the two differ in the last ulp.  An array a is
    overwritten with -2a (exact), and the result is the one new array.
    """
    if isinstance(a, float):
        edge = math.exp(-2.0 * a)
        return math.log1p(-edge) if edge != 1.0 else math.log(-math.expm1(-2.0 * a))
    edge = np.exp(np.multiply(a, -2.0, out=a))
    at_one = edge == 1.0
    out = np.log1p(np.negative(edge, out=edge), out=edge)
    if at_one.any():
        out[at_one] = np.log(-np.expm1(a[at_one]))
    return out


def _excess_tails(rows: _Rows):
    """n_from -> each row's shifted-log bound on its excess terms with n >= n_from, minus log(nbar+1).

    Uses |f_n^m| <= 1 (unitary matrix element), so the coupling factor is
    bounded by its u = b_om envelope while the geometric factor sums exactly.
    The log(nbar+1) is left out because it cancels against Z_initial.
    n_from is a number or an array that broadcasts against the columns.  The
    edge factor is math's (numpy's log1p and exp may differ in the last
    bit), once per distinct a_full; a zero envelope gives 0.0 there, and
    -inf from its lnsinh.
    """
    b_quarters = 0.25 * sqrt_excess(rows.abs_bwl, rows.b_om).ravel()
    a_shifted = 0.5 * rows.d_aw.ravel() + b_quarters
    a_full = a_shifted + 0.5 * rows.b_w0.ravel()
    coupled = b_quarters != 0.0
    log_edge = np.zeros(a_full.size)
    log_edge[coupled] = each_distinct(_log1m_exp_neg2, a_full[coupled])
    log_sinh, b_nu, half_m = lnsinh(b_quarters), rows.b_nu.ravel(), rows.half_m.ravel()
    return lambda n_from: _LN2 - b_nu * (n_from + half_m) + a_shifted + log_edge + log_sinh


_LN16 = math.log(16.0)


def _settled(running: float, tail_log: float) -> bool:
    """Whether terms that sum to at most e^tail_log can no longer change the bits of running.

    The rule: a = running is a finite normal float and
    tail_log < a + log(ulp(a)) - log(16).

    Proof.  Every chunk folded later has an exact sum of at most e^tail_log,
    and the computed chunk_log exceeds its exact log by at most delta, a few
    ulps of the logs involved (terms, pairwise sum, tail), far below ln 4.
    np.logaddexp(a, c) with c < a computes a + log1p(e^(c-a)), and
    log1p(x) <= x, so it adds at most e^(c-a) < e^delta ulp(a)/16 < ulp(a)/4.
    The floats next to a lie ulp(a) away above |a| and at least ulp(a)/2
    below, so a + that rounds back to a.  running is then unchanged, so
    the same test holds at the next chunk edge and at all later ones: a row
    settled at one edge is settled at every edge after it.

    -inf (nothing folded yet) and nan never settle, as the right side is
    nan.  0.0 and subnormals (a sum within 1e-308 of 1) are left out too,
    so the argument needs only normal floats.
    """
    return abs(running) >= sys.float_info.min and tail_log < running + math.log(math.ulp(running)) - _LN16


def _stops(n_pinned: int | None, reached, rows: int) -> tuple[np.ndarray, list[str]]:
    """(terms, stop reasons) of rows sums: where each ends unless it settles first.

    A pinned row stops after n_pinned terms ("pinned").  An adaptive row
    stops at the first chunk edge n where its bound holds ("bound"), else at
    TERM_CAP ("cap"): reached(edges), given a column of edges, says for each
    edge and row whether the row's bound holds there.  So every stop is
    known before the row's first term.  Pinned rows do not read bounds.
    """
    if n_pinned is not None:
        return np.full(rows, n_pinned), ["pinned"] * rows
    edges = np.array([*range(_CHUNK, TERM_CAP, _CHUNK), TERM_CAP])
    hits = np.broadcast_to(reached(edges[:, None]), (edges.size, rows))
    found = hits.any(axis=0)
    return np.where(found, edges[hits.argmax(axis=0)], TERM_CAP), ["bound" if f else "cap" for f in found.tolist()]


def _log_sums(term_logs, stops: np.ndarray, tails=None) -> tuple[np.ndarray, np.ndarray]:
    """(log of the sum, whether it settled) of each row of terms, summed ascending in n to its stop.

    term_logs(live, n_lo, n_hi) gives the terms n_lo..n_hi-1 of the rows
    listed in live, as a [len(live) x (n_hi - n_lo)] block, and stops[row]
    is where the row ends (see _stops).  The block is folded chunk column
    by chunk column: one np.logaddexp call folds chunk j of every live row
    whose chunk has a term, so each row keeps the bits of a one-row,
    one-chunk-at-a-time sum.  Given tails, a row settles, with the bits of
    its sum to its stop, at the first chunk edge n before that stop where
    _settled(running, tails(n)[row]) holds, tails(n) bounding the log of the
    sum of each row's terms from n on.  Every edge is tested as its column
    is folded, so whether a row settles does not depend on the block; the
    row leaves live at the end of that call.  Without tails no row settles.

    A call gives each live row max(1, budget // (live * _CHUNK)) chunks and
    ends at its live rows' earliest stop, so no term past a row's stop is
    computed.  The budget is _TERM_BUDGET given tails, as a row that settles
    early in a call wastes the rest of it, and _WIDE_BUDGET without, as then
    every call ends at a stop known beforehand (see the truncation constants).
    """
    running = np.full(len(stops), -np.inf)
    settled = np.zeros(len(stops), dtype=bool)
    live = np.arange(len(stops))
    n_done = 0
    budget = _TERM_BUDGET if tails is not None else _WIDE_BUDGET
    while live.size:
        per_row = max(1, budget // (live.size * _CHUNK))
        n_hi = min(n_done + per_row * _CHUNK, int(stops[live].min()))
        xs = term_logs(live, n_done, n_hi)
        split = (n_hi - n_done) // _CHUNK * _CHUNK
        # Each row's full chunks, then its partial last chunk, one column per chunk.
        for part, lo in ((xs[:, :split], n_done), (xs[:, split:], n_done + split)):
            if part.size == 0:
                continue
            chunks = part.reshape(live.size, -(-part.shape[1] // _CHUNK), -1)
            his, logs = (a.reshape(chunks.shape[:2]) for a in log_sum_exp_rows(chunks.reshape(-1, chunks.shape[2])))
            # A chunk has a term above -inf iff its max is, unless a nan hides it.
            has = his > -np.inf
            hidden = np.isnan(his)
            if hidden.any():
                has[hidden] = (chunks[hidden] > -np.inf).any(axis=1)
            for j in range(chunks.shape[1]):
                fold = has[:, j] & ~settled[live]  # a row settled at an earlier edge of this call is done
                rows = live[fold]
                running[rows] = np.logaddexp(running[rows], logs[fold, j])
                if tails is None:
                    continue
                edge = min(lo + (j + 1) * _CHUNK, n_hi)  # where the chunk ends
                open_rows = live[~settled[live] & (stops[live] > edge)]
                if open_rows.size:
                    pairs = zip(running[open_rows].tolist(), tails(edge)[open_rows].tolist())
                    settled[open_rows] = [_settled(a, tail_log) for a, tail_log in pairs]
        live = live[(stops[live] > n_hi) & ~settled[live]]
        n_done = n_hi
    return running, settled


def _coupling_alive(rp: ReducedParams | ReducedColumns):  # a bool, or a bool array for columns
    """Whether the drive couples any levels: omega_rabi > 0 and, on a sideband, eta > 0.

    The one dead-coupling rule: a dead row has an exact zero lag and never
    diverges.  Only the ratio omega_rabi/nu of rp enters, not its temperature.
    """
    return (rp.r_om > 0) & ((rp.m == 0) | (rp.eta > 0))


def _excess_lags(cols: ReducedColumns, n_pinned: int | None) -> tuple[list, ...]:
    """(lag, n_used, tail_bound_log, converged, stop_reason) columns of the rows, from the excess sum.

    The pin is checked here, where it is read.  Rows with dead coupling are
    exact zeros.  The live rows are summed in blocks in input order,
    whatever their sideband index: as many rows as fit _TERM_BUDGET on
    their first call (see the truncation constants).
    """
    if n_pinned is not None:
        if isinstance(n_pinned, bool) or not isinstance(n_pinned, numbers.Integral):
            raise ValueError(f"pinned term count {n_pinned!r} must be an integer")
        if not 1 <= n_pinned <= TERM_CAP:
            raise ValueError(f"pinned term count {n_pinned} must lie in [1, {TERM_CAP}]")
        n_pinned = int(n_pinned)
    n = len(cols.m)  # a dead row's excess vanishes identically: it keeps these exact zeros
    columns = np.zeros(n), np.zeros(n, int), np.full(n, -np.inf), np.ones(n, bool), np.full(n, "exact", object)
    live = np.flatnonzero(_coupling_alive(cols))
    size = _TERM_BUDGET // min(n_pinned or _CHUNK, _CHUNK)
    for start in range(0, live.size, size):
        block = live[start : start + size]
        for column, values in zip(columns, _excess_block(cols if block.size == n else cols.take(block), n_pinned)):
            column[block] = values
    return tuple(column.tolist() for column in columns)


def _take(rows: _Rows, live: np.ndarray) -> _Rows:
    """The rows listed in live: rows itself when every row is live."""
    if live.size == len(rows.keys):
        return rows
    return _Rows(tuple(rows.keys[i] for i in live), rows.edge, *(column[live] for column in rows[2:]))


def _excess_block(cols: ReducedColumns, n_pinned: int | None) -> tuple:
    """_excess_lags for a block of live rows, from one _log_sums call, finished as columns.

    An adaptive row's stop is known before its first term, as its tail bound
    is linear in n; so each coupling key is grown once, to the furthest stop
    among its rows, not call by call.  The lags, tail bounds and converged
    flags come from elementwise array operations, with the bits of the same
    operations on each row's floats.
    """
    rows = _rows_of(cols)
    tails = _excess_tails(rows)
    # log(nbar+1) and log(1 + e^(-b_w0)), each from math like ln_partition_initial: their sum is
    # log Z_i, and the tails leave out the first, as it cancels.
    ln1, zi_edges = cols.ln_nbar_plus_1, cols.zi_edge
    log_tol = math.log(TOL)
    stops, reasons = _stops(n_pinned, lambda n: tails(n) - zi_edges <= log_tol, len(cols.m))
    term_tails = None  # only a pinned row settles; an adaptive one ends at its bound or TERM_CAP
    if n_pinned is None:
        reach: dict = {}
        for key, n_stop in zip(rows.keys, stops.tolist()):
            reach[key] = max(reach.get(key, 0), n_stop - 1)
        _coupling_upto(reach)
    else:
        term_tails = lambda n: tails(n) + ln1  # bounds on the log of the excess terms from n on
    log_sums, settled = _log_sums(lambda live, lo, hi: _excess_logs(_take(rows, live), lo, hi), stops, term_tails)
    ln_zi = ln1 + zi_edges
    lag = np.logaddexp(0.0, log_sums - ln_zi)
    tail_used = tails(stops)
    tail_bound_log = tail_used + ln1 - (ln_zi + lag)
    converged = (tail_bound_log <= log_tol) | (tail_used - zi_edges <= log_tol)
    reasons = ["settled" if s else reason for s, reason in zip(settled.tolist(), reasons)]
    return lag, stops, tail_bound_log, converged, reasons


def ln_partition_final(rp: ReducedParams, n_pinned: int | None = None) -> LogPartition:
    """Shifted log of the post-quench partition function.

    The coupling-induced excess added onto the closed-form baseline, which
    equals the initial partition function exactly: ln_partition_initial(rp)
    plus the lag of nonequilibrium_lag(rp, n_pinned), with its truncation.
    """
    ((lag, *report),) = zip(*_excess_lags(ReducedColumns.of([rp]), n_pinned))
    return LogPartition(ln_partition_initial(rp).shifted_log + lag, TruncationReport(*report))


def nonequilibrium_lag(rp: ReducedParams, n_pinned: int | None = None) -> LagResult:
    """Lag log(Z_final / Z_initial) >= 0 for the sudden sideband quench.

    The shifts cancel exactly; the value is log1p(excess / Z_initial), so the
    decoupled limits (omega_rabi -> 0, eta -> infinity, JC sideband with
    eta -> 0) return exactly zero.  The single row of lag_columns([rp], n_pinned).
    """
    ((value, *report, diverges),) = zip(*lag_columns([rp], n_pinned))
    return LagResult(value, TruncationReport(*report), diverges)


def lag_columns(rps: ReducedColumns | list[ReducedParams], n_pinned: int | None = None) -> LagColumns:
    """The lag of each point as columns, with no object per row: the one engine result.

    rps are ReducedColumns, or ReducedParams turned into columns here.  Every
    field of each row, stop_reason included, equals that of the point alone.
    Live rows are summed in blocks in input order, of any sideband index, as
    many as fit the term budget of one call (see the truncation constants),
    and each block is finished as columns.  The divergence scan runs on one
    ReducedParams per JC key, not per row.  Each sum has n_pinned terms, or
    grows until its tail bound is below TOL; a row that cannot converge
    within TERM_CAP terms reports converged False and stop_reason "cap".
    """
    cols = ReducedColumns.of(rps)
    lags = _excess_lags(cols, n_pinned)
    b_nu, b_w0, b_om, eta, m = (column.tolist() for column in cols[:5])
    scans: dict = {}  # one scan per key (m, r_w0, r_om, eta), the only inputs of the scan, on its first row

    def negative(i: int, key: tuple) -> bool:  # _diverges calls it on JC sidebands only
        if key not in scans:
            rp = ReducedParams(b_nu[i], b_w0[i], b_om[i], eta[i], m[i], Branch.JC)
            scans[key] = bool(divergence_predicate_reduced(rp).witnesses)
        return scans[key]

    keys = zip(m, cols.r_w0.tolist(), cols.r_om.tolist(), eta)
    rows = enumerate(zip(_coupling_alive(cols).tolist(), cols.sign.tolist(), keys))
    diverges = [_diverges(alive, sign, key[0], lambda: negative(i, key)) for i, (alive, sign, key) in rows]
    return LagColumns(*lags, diverges)


# -- low-temperature classification -------------------------------------------


def _phi_parts(rp: ReducedParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(ladder, excess) for n = 0..n_max, with Phi_n^m / nu = ladder - excess.

    ladder = (2n+m) - (|r_wl| - r_w0) and excess = sqrt(r_wl^2 + u_n^2) - |r_wl|
    are each formed without cancellation, so the sign of Phi is reliable even
    when it is ~1e-11 of omega0/nu.  u_n = r_om |f_n^m| <= r_om, as the
    cache clips |f| at 1 (see _grow_coupling).  Only the frequency ratios of
    rp enter, not its temperature.
    """
    u = rp.r_om * _coupling_rows(((rp.m, rp.eta),), 0, n_max + 1)[0]
    r_wl, d_aw = _phi_offsets(rp)
    ladder = (2.0 * np.arange(n_max + 1, dtype=float) + rp.m) - d_aw
    return ladder, sqrt_excess(abs(r_wl), u)


def _phi_offsets(rp: ReducedParams) -> tuple[float, float]:
    """(r_wl, d_aw) of the Phi scan: omega_laser/nu, and |r_wl| - r_w0 formed without cancellation."""
    r_wl, delta = rp.r_wl, rp.branch.sideband_sign * rp.m  # delta = r_wl - r_w0, exact
    return r_wl, float(delta) if r_wl >= 0 else -2.0 * rp.r_w0 - delta


def phi_reduced(n: int, rp: ReducedParams) -> float:
    """Low-temperature exponent Phi_n^m in trap-frequency units (Phi / nu).

    Only the frequency ratios of rp enter, not its temperature; multiply by
    nu for rad/s.  Raises ValueError unless n is a nonnegative integer.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"level index n must be a nonnegative integer, got {n!r}")
    ladder, excess = _phi_parts(rp, n)
    return float(ladder[n] - excess[n])


_PHI_ZERO_TOL = 1e-9
# The zero band (1 + 2 _PHI_ZERO_TOL) and 32 ulps of rounding, the relative slack of _scan_end.
_SCAN_SLACK = (1.0 + 2.0 * _PHI_ZERO_TOL) * (1.0 + 2.0**-48)


def _scan_end(rp: ReducedParams) -> int:
    """The last n at which the computed Phi_n^m may be negative or within _PHI_ZERO_TOL of zero, or -1 if none.

    With a = |r_wl| and ladder_0 = m - d_aw, the n = 0 ladder of _phi_parts
    (2 min(m, r_w0) on a JC sideband up to rounding, 0 on AJC and the
    carrier, never negative), the end is floor((X S - ladder_0)/2), or -1
    when that is negative, for the envelope X = min(r_om^2/(2a), r_om) and
    S = _SCAN_SLACK.  The u branch caps it near r_om/2, also at a = 0.
    Dead coupling gives -1: its lag is identically zero (see _coupling_alive).

    Proof, for the floats _phi_parts and _phi_scan compute.  Let e = 2^-53,
    T = _PHI_ZERO_TOL, and l, x the computed ladder_n and excess_n.
    * Ladder: 2n + m is an exact integer and ladder_0 = fl(m - d_aw) >= 0,
      so m - d_aw >= ladder_0 (1 - e) and l = fl(2n + m - d_aw) >=
      (ladder_0 + 2n)(1 - e)^2.
    * Excess: u = fl(r_om |f|) <= r_om, as the cached |f| is at most 1
      and rounding is monotone.
      Exactly, q = u^2/(h + a) with h = sqrt(a^2 + u^2) >= max(a, u) is at
      most min(u^2/(2a), u) <= X.  fl(u u), hypot (within an ulp), the sum
      and the division round x to at most q (1 + 6e) <= X (1 + 6e).
    * Flag: n is a witness or a zero crossing only if fl(l - x) <=
      fl(T fl(l + x)).  When l > x, fl(l - x) >= (l - x)(1 - e), and the
      right side is at most T (l + x)(1 + e)^2, so l <= x (1 + 2T)(1 + e).
    So a flagged n has 2n + ladder_0 <= X (1 + 2T)(1 + 10e).  The end is
    computed as floor(fl(fl(X S) - ladder_0)/2), with X rounded twice at
    most and S >= (1 + 2T)(1 + 32e)(1 - e)^2 as a float, so fl(X S) -
    ladder_0 rounds to at least X (1 + 2T)(1 + 25e) - ladder_0 >= 2n: every
    flagged n is at most the end, and when fl(X S) < ladder_0 there is none.
    The slack moves the end by X 1e-9 terms, less than one within the cap.
    """
    if not _coupling_alive(rp):
        return -1
    r_wl, d_aw = _phi_offsets(rp)
    a = abs(r_wl)
    envelope = rp.r_om if rp.r_om > 2.0 * a else rp.r_om * rp.r_om / (2.0 * a)  # r_om <= 2a makes a > 0
    return max(-1, math.floor((envelope * _SCAN_SLACK - (rp.m - d_aw)) / 2.0))


def _phi_scan(rp: ReducedParams) -> tuple[list[int], list[int]]:
    """(strictly negative witnesses, zero crossings) of Phi_n^m for n = 0..min(_scan_end(rp), TERM_CAP).

    A value counts as zero when it is below 1e-9 of the two quantities whose
    difference it is (the level ladder nu(2n+m) -+ m nu and the dressed-
    splitting excess); measuring against omega0 instead would swallow every
    trap-scale value once omega0/nu is large.  Nothing past the term cap is
    read: one negative witness there still proves divergence, but a row
    with none raises ValueError, as its verdict is not proved.
    """
    end = _scan_end(rp)
    if end < 0:
        return [], []
    ladder, excess = _phi_parts(rp, min(end, TERM_CAP))
    values = ladder - excess
    is_zero = np.abs(values) <= _PHI_ZERO_TOL * (np.abs(ladder) + np.abs(excess))
    negative = np.nonzero((values < 0) & ~is_zero)[0].tolist()
    if end > TERM_CAP and not negative:
        raise ValueError(
            f"the zero-temperature scan must reach n = {end}, past the term cap {TERM_CAP}, "
            "and finds no negative Phi_n up to the cap: the divergence verdict is not proved"
        )
    return negative, np.nonzero(is_zero)[0].tolist()


def _diverges(alive: bool, sign: int, m: int, negative) -> bool:
    """The one zero-temperature verdict of a row: whether its lag diverges as T -> 0.

    A live JC sideband (alive, sign -1, m > 0) diverges iff negative(), that
    is iff it has a negative witness; negative is called for no other row.
    Any other row diverges iff its coupling is live, since then Phi_0 < 0.
    """
    return negative() if alive and sign < 0 and m > 0 else alive


def divergence_predicate_reduced(rp: ReducedParams) -> DivergenceReport:
    """Does the lag diverge as the temperature goes to zero?

    AJC and carrier quenches with live coupling always do (the lowest
    exponent is strictly negative); a JC quench diverges iff some exponent
    Phi_n^m turns negative, equivalently
    |f_n^m| > (2/omega_rabi) sqrt(nu (omega0 + n nu)(n+m)) for some n.
    The verdict and witnesses of low_temperature_limit(rp): every witness
    when _scan_end(rp) is within the term cap.  Only the frequency ratios of
    rp enter, not its temperature.
    """
    limit = low_temperature_limit(rp)
    return DivergenceReport(diverges=not limit.finite, witnesses=limit.negative_witnesses)


def low_temperature_limit(rp: ReducedParams) -> LowTemperatureLimit:
    """Zero-temperature limit of the lag: log(1 + k) when finite.

    k counts the exponents Phi_n^m within the documented zero tolerance, from
    one _phi_scan, and the verdict is that of _diverges.  So AJC and carrier
    quenches with live coupling never stay finite, and a row whose _scan_end
    is -1 is not scanned (its k is 0).  Only the frequency ratios of rp
    enter, not its temperature.
    """
    negative, zeros = _phi_scan(rp)
    finite = not _diverges(_coupling_alive(rp), rp.branch.sideband_sign, rp.m, lambda: bool(negative))
    return LowTemperatureLimit(finite, math.log1p(len(zeros)) if finite else None, len(zeros), negative)
