"""Numerically stable special functions and summation primitives.

The laser-motion coupling for the n-th oscillator level of an m-quantum
transition is

    f_n^m = (i eta)^m sqrt(n!/(n+m)!) exp(-eta^2/2) L_n^m(eta^2),

with L_n^m the associated Laguerre polynomial.  Partition sums need this for
n up to several thousand, where the factorial ratio and the polynomial both
leave the double range, so the coupling is carried as a phase plus a signed
log magnitude (:class:`CouplingValue`).  The remaining helpers (log-cosh,
log-sinh, log-sum-exp, cancellation-safe sqrt difference) keep the partition
arithmetic exact in the shifted log domain.  Each scalar form is one element
of its batch form, bit for bit (coupling_f of coupling_values, and so on).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "CouplingValue",
    "LaguerreState",
    "LAGUERRE_START",
    "coupling_f",
    "coupling_values",
    "coupling_logabs_sequence",
    "each_distinct",
    "eta_squared",
    "lncosh",
    "lnsinh",
    "log_sum_exp",
    "log_sum_exp_rows",
    "sqrt_shift",
    "sqrt_excess",
]

_LN2 = math.log(2.0)
_RESCALE_HI = 1e250
_RESCALE_LO = 1e-250


@dataclass(frozen=True)
class CouplingValue:
    """Coupling f_n^m as phase * sign * exp(log_mag).

    m_phase  power of i modulo 4 carried by (i eta)^m
    sign     sign of the real Laguerre factor (0 at an exact polynomial zero)
    log_mag  natural log of |f_n^m|; -inf iff the Laguerre factor is zero
    """

    m_phase: int
    sign: int
    log_mag: float

    @property
    def magnitude(self) -> float:
        # numpy's exp, as coupling_values uses (math.exp may differ in the last bit); exp(-inf) = 0.0.
        return float(np.exp(self.log_mag))

    @property
    def phase_factor(self) -> complex:
        return 1j ** self.m_phase

    def as_complex(self) -> complex:
        return self.phase_factor * self.sign * self.magnitude


def _require_indices(n_max, m) -> None:
    """ValueError naming the first of n_max and m that is not a nonnegative integer (numbers.Integral).

    The caller tests type(index) is int first: the ABC's isinstance costs about 1 us a call.
    """
    for name, index in (("n_max", n_max), ("m", m)):
        if not isinstance(index, numbers.Integral) or index < 0:
            raise ValueError(f"coupling index {name} must be a nonnegative integer, got {index!r}")


class LaguerreState(NamedTuple):
    """Where a log-domain Laguerre recurrence stopped.

    Indices 0..n have been produced; prev and curr are L_{n-1}^m and L_n^m
    divided by exp(offset).  LAGUERRE_START (n = -1) is the state before
    index 0.  Resuming from a state gives values bitwise equal to those of an
    uninterrupted run, because every step depends only on the state.
    """

    n: int
    prev: float
    curr: float
    offset: float


LAGUERRE_START = LaguerreState(-1, 0.0, 0.0, 0.0)


def _laguerre_extend(state: LaguerreState, n_max: int, m: int, x: float) -> tuple[list, np.ndarray, LaguerreState]:
    """(rescaled values, log magnitudes) of L_n^m(x) for n = state.n+1..n_max, and the end state.

    Runs the recurrence on rescaled values with exponent tracking, so the
    sequence is valid far beyond the linear-space overflow threshold: (prev,
    curr) are divided by mag = max(|prev|, |curr|) after any step that leaves
    mag > hi = _RESCALE_HI or 0 < mag < lo = _RESCALE_LO.  The loop only stores
    the rescaled values, whose signs are those of L_n^m; each log magnitude is
    math.log of one's abs plus the offset of its segment (numpy's log may differ
    from math.log in the last ulp, and the presets' reference values were
    produced with math.log).  No sign array is built: only a one-shot
    coupling_logabs_sequence call returns signs.

    A step first tests `lo <= new <= hi or -hi <= new <= -lo`, and the exact
    test only when that fails.  This is safe: |curr| <= hi after every step
    (a rescale leaves both values at most 1 in magnitude), so lo <= |new| <= hi
    puts mag = max(|curr|, |new|) in [lo, hi].  A step whose x |L| overflows
    gives inf or nan, which also fails the first test; it is then redone from
    inputs rescaled by their max.  Where the unguarded loop stays finite
    nothing is redone, so every value keeps its bits.
    """
    k_first, prev, curr, offset = state.n + 1, state.prev, state.curr, state.offset
    raw: list[float] = []  # L_k divided by exp(offset of its segment)
    if k_first == 0 and n_max >= 0:
        raw.append(1.0)
        prev, curr, offset = 0.0, 1.0, 0.0  # L_{-1} = 0 makes the k = 1 step give m + 1 - x
        k_first = 1
    cuts = [(0, offset)]  # (index in raw, offset) where each segment starts
    # L_k = ((2k + m - 1 - x) L_{k-1} - (k - 1 + m) L_{k-2}) / k, with 2k + m - 1,
    # k - 1 + m and k carried as floats: exact integers, so the bits are those of int operands.
    c1, c2, kf = 2.0 * k_first + m - 1.0, k_first - 1.0 + m, float(k_first)
    lo, hi, isfinite, log, append = _RESCALE_LO, _RESCALE_HI, math.isfinite, math.log, raw.append
    for _ in range(k_first, n_max + 1):
        new = ((c1 - x) * curr - c2 * prev) / kf
        if not (lo <= new <= hi or -hi <= new <= -lo):
            if not isfinite(new) and isfinite(curr):
                mag = max(abs(prev), abs(curr))
                prev, curr, offset = prev / mag, curr / mag, offset + log(mag)
                cuts.append((len(raw), offset))
                new = ((c1 - x) * curr - c2 * prev) / kf
            mag = max(abs(curr), abs(new))
            if mag > hi or 0.0 < mag < lo:
                curr, new, offset = curr / mag, new / mag, offset + log(mag)
                cuts.append((len(raw), offset))
        prev, curr = curr, new
        append(new)
        c1, c2, kf = c1 + 2.0, c2 + 1.0, kf + 1.0
    try:
        logabs = np.fromiter(map(log, map(abs, raw)), float, len(raw))
    except ValueError:  # an exact zero of the polynomial
        logabs = np.array([log(abs(v)) if v else -math.inf for v in raw])
    for (start, seg_offset), (stop, _) in zip(cuts, [*cuts[1:], (len(raw), 0.0)]):
        if seg_offset != 0.0:  # log(v) + 0.0 == log(v): math.log never returns -0.0
            logabs[start:stop] += seg_offset
    end = LaguerreState(n_max, prev, curr, offset) if n_max > state.n else state
    return raw, logabs, end


# The most elements of one [rows x m] matrix of _log_factorial_ratio: a recurrence call of
# 8192 terms (thermo's term budget) takes one slice up to m = 32, and memory stays bounded at any m.
_FACTORIAL_SLICE = 1 << 18


def _log_factorial_ratio(n: np.ndarray, m: int) -> np.ndarray:
    """log sqrt(n!/(n+m)!) = -1/2 sum_{k=1..m} log(n+k), computed exactly termwise.

    The [rows x m] logs are formed a slice of rows at a time, in one buffer of at most
    _FACTORIAL_SLICE elements; a row's logs and pairwise sum do not depend on its slice.
    """
    if m == 0:
        return np.zeros_like(n, dtype=float)
    ks = np.arange(1, m + 1, dtype=float)
    rows = max(1, _FACTORIAL_SLICE // m)
    out, buffer = np.empty(n.size), np.empty((min(n.size, rows), m))
    for lo in range(0, n.size, rows):
        logs = np.add(n[lo : lo + rows, None], ks, out=buffer[: n.size - lo])
        out[lo : lo + rows] = np.log(logs, out=logs).sum(axis=1)
    out *= -0.5
    return out


def coupling_logabs_sequence(n_max: int, m: int, eta: float, *, resume: LaguerreState | None = None):
    """(signs, log magnitudes) of f_n^m(eta) for n = 0..n_max.

    With resume set (LAGUERRE_START, or the state a previous resumed call for
    the same m and eta returned) only n = resume.n+1..n_max are computed, and
    the call returns (log_mags, state) for that segment: the magnitudes a
    cache of |f| needs, with no sign array.  The segment is bitwise equal to
    the same slice of a one-shot call's log_mags.

    The one entry of the recurrence, so it holds the index checks: n_max and
    m must be nonnegative integers (numbers.Integral), else ValueError.
    """
    if not (type(n_max) is int and type(m) is int and n_max >= 0 and m >= 0):
        _require_indices(n_max, m)
    if not eta >= 0:  # also rejects nan
        raise ValueError("Lamb-Dicke parameter must be nonnegative")
    x = eta_squared(eta)
    state = LAGUERRE_START if resume is None else resume
    size = max(n_max - state.n, 0)
    if eta == 0.0:  # f_n^0 = 1, and f_n^m = 0 for m > 0
        signs, log_mags = np.full(size, m == 0, dtype=np.int8), np.full(size, 0.0 if m == 0 else -np.inf)
        end = state._replace(n=n_max) if size else state
    else:
        raw, logabs, end = _laguerre_extend(state, n_max, m, x)
        signs = None if resume is not None else np.sign(np.array(raw)).astype(np.int8)
        n = np.arange(state.n + 1, state.n + 1 + size, dtype=float)
        # Elementwise, so a segment equals the matching slice of a longer run.
        log_mags = m * math.log(eta) - 0.5 * x + _log_factorial_ratio(n, m) + logabs
    return (signs, log_mags) if resume is None else (log_mags, end)


def eta_squared(eta: float) -> float:
    """eta^2, or ValueError when it overflows the double range."""
    x = eta * eta
    if not math.isfinite(x):
        raise ValueError(f"Lamb-Dicke parameter {eta!r} is too large: eta^2 overflows")
    return x


def coupling_f(n: int, m: int, eta: float) -> CouplingValue:
    """Coupling f_n^m as a numerically safe phase + signed log magnitude.

    Element n of coupling_values(n, m, eta), bit for bit.  Each call reruns
    the recurrence from n = 0; for a range of n, call coupling_values once.
    """
    signs, log_mags = coupling_logabs_sequence(n, m, eta)
    return CouplingValue(m_phase=m % 4, sign=int(signs[n]), log_mag=float(log_mags[n]))


def coupling_values(n_max: int, m: int, eta: float) -> np.ndarray:
    """Complex couplings f_n^m = i^m sign exp(log|f_n^m|) for n = 0..n_max, from one recurrence run."""
    signs, log_mags = coupling_logabs_sequence(n_max, m, eta)
    return (1j ** (m % 4)) * signs * np.exp(log_mags)


def lncosh(x):
    """log cosh(x) = |x| - log 2 + log(1 + exp(-2|x|)), exact over the double range."""
    ax = np.abs(x)
    with np.errstate(over="ignore"):  # -2|x| may overflow to -inf; exp then gives 0
        out = ax - _LN2 + np.log1p(np.exp(-2.0 * ax))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def lnsinh(x, out=None):
    """log sinh(x) for x >= 0 (not checked); -inf at x = 0.

    Small arguments go through sinh directly (no loss down to the underflow
    floor); large ones use x - log 2 + log(1 - exp(-2x)).  One max tells
    whether every argument is small (a nan fails it).  An array x may give
    out, a float array of its shape, to receive the result, as a ufunc's out.
    """
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        if x_arr.size == 0 or x_arr.max() < 20.0:
            out = np.log(np.sinh(x_arr, out=out), out=out)
        else:
            small = x_arr < 20.0
            out = np.empty_like(x_arr) if out is None else out
            out[small] = np.log(np.sinh(x_arr[small]))
            big = ~small
            out[big] = x_arr[big] - _LN2 + np.log1p(-np.exp(-2.0 * x_arr[big]))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def log_sum_exp_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max, log sum exp) of each row of a 2-D array, by max shift (nan log for an all -inf row).

    All rows are reduced in one pass; the row-wise pairwise sum of a row has
    the bits of the 1-D np.sum of that row, at any row length.  The log is
    math's, one row at a time.
    """
    his = rows.max(axis=1)
    with np.errstate(invalid="ignore"):
        shifted = rows - his[:, None]
        sums = np.exp(shifted, out=shifted).sum(axis=1).tolist()
    return his, his + [math.log(s) for s in sums]


def log_sum_exp(terms) -> float:
    """log sum exp over a finite sequence: the one-row case of log_sum_exp_rows.

    Accepts -inf entries; returns -inf for an empty or all-(-inf) input.
    +inf entries raise ValueError.  The exponential sum runs in ascending
    index order (numpy pairwise), so the result is deterministic for a fixed
    input order.
    """
    arr = np.asarray(list(terms) if not isinstance(terms, np.ndarray) else terms, dtype=float)
    if np.any(np.isposinf(arr)):
        raise ValueError("log_sum_exp received +inf")
    if arr.size == 0 or arr.max() == -math.inf:
        return -math.inf
    return float(log_sum_exp_rows(arr.reshape(1, -1))[1][0])


def sqrt_shift(w_l: float, u: float, w_0: float) -> float:
    """sqrt(w_l^2 + u^2) - w_0 without catastrophic cancellation.

    (w_l - w_0) + sqrt_excess(w_l, u), accurate even when u/w_l is far below
    the double epsilon.  Requires w_l >= 0 (callers with a negative laser
    frequency pass |w_l|; only the square enters).  Scalars only;
    sqrt_excess is the elementwise form for arrays.
    """
    if w_l < 0:
        raise ValueError("sqrt_shift requires w_l >= 0")
    if u < 0:
        raise ValueError("sqrt_shift requires u >= 0")
    return (w_l - w_0) + float(sqrt_excess(w_l, u))


def each_distinct(fn, values: np.ndarray) -> np.ndarray:
    """fn, a function of one float, at each of values, called once per distinct value (-0.0 and 0.0 are one)."""
    values = values.tolist()
    table = {x: fn(x) for x in dict.fromkeys(values)}
    return np.fromiter(map(table.__getitem__, values), float, len(values))


def sqrt_excess(w: float, u):
    """sqrt(w^2 + u^2) - w for w >= 0, elementwise and cancellation-free: u^2 / (sqrt(w^2 + u^2) + w)."""
    u_arr = np.asarray(u, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = u_arr * u_arr / (np.hypot(w, u_arr) + w)
    # Where w > 0, u = 0 gives 0/(2w) = +0.0 already; only w = 0 needs the guard.
    return out if np.all(np.greater(w, 0.0)) else np.where(u_arr == 0.0, 0.0, out)
