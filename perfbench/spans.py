"""Span recorder for the traced run, and the per-layer metrics built from it.

`install` replaces each layer's public functions at the names their callers
look up (for example `thermo.coupling_logabs_sequence`, which `thermo`
imported by name) with wrappers that record a span: name, start, end, parent
span, and a few attributes taken from the arguments or the result.  Spans
stay in memory; the child process writes them out when its sample ends.  The
program's own code is not changed.

Like `workloads`, this module imports nothing outside the standard library.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (span name, modules whose binding callers look up, attribute name)
BINDINGS = (
    ("cli.main", ("cli",), "main"),
    ("presets.figure_presets", ("presets", "cli"), "figure_presets"),
    ("sweep.run_specs", ("sweep", "cli"), "run_specs"),
    ("sweep.evaluate_point", ("sweep",), "evaluate_point"),
    ("params.reduce", ("params", "sweep", "cli", "verify"), "reduce"),
    ("thermo.lag", ("thermo", "sweep"), "nonequilibrium_lag"),
    ("thermo.divergence", ("thermo", "sweep"), "divergence_predicate_reduced"),
    # Only the calls thermo makes: they fill its coupling cache.
    ("numerics.coupling", ("thermo",), "coupling_logabs_sequence"),
    # workstats imported these two by name; verify reaches them through spectra.
    ("spectra.dense_hamiltonians", ("spectra", "workstats"), "dense_hamiltonians"),
    ("spectra.sideband_eigenvectors", ("spectra", "workstats"), "sideband_eigenvectors"),
    ("spectra.displacement_matrix", ("spectra",), "displacement_matrix"),
    ("workstats.moments_numeric", ("workstats", "cli"), "moments_numeric"),
    ("workstats.work_pmf_sideband", ("workstats",), "work_pmf_sideband"),
    ("verify.run_checks", ("verify", "cli"), "run_checks"),
)

VERIFY_CHECK = "verify.check"


def _coupling_attrs(args, kwargs, result):
    n_max, m, eta = args[:3]
    return {"terms": n_max + 1, "key": [m, eta]}


def _lag_attrs(args, kwargs, result):
    return {"terms": result.truncation.n_used, "converged": result.truncation.converged}


def _check_attrs(args, kwargs, result):
    return {"check": result.name}


ATTRS = {"numerics.coupling": _coupling_attrs, "thermo.lag": _lag_attrs, VERIFY_CHECK: _check_attrs}


class Recorder:
    """In-memory spans as [name, start, end, parent index or -1, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in BINDINGS and each verify check function."""
        for name, modules, attr in BINDINGS:
            mods = [importlib.import_module(f"ionquench.{mod}") for mod in modules]
            wrapped = self.wrap(name, getattr(mods[0], attr))
            for mod in mods:
                setattr(mod, attr, wrapped)
        verify = importlib.import_module("ionquench.verify")
        for group in ("FAST_CHECKS", "FULL_ONLY_CHECKS"):
            setattr(verify, group, tuple(self.wrap(VERIFY_CHECK, fn) for fn in getattr(verify, group)))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def per_layer(spans: list[list], check_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced sample; `per_layer_units` gives their units."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if name == VERIFY_CHECK and attrs:
            name = f"{VERIFY_CHECK}.{attrs['check']}"
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[i]

    def of(table, name):
        return table.get(name, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    rows = of(calls, "sweep.evaluate_point")
    # Calls that raised carry no attributes.
    coupling = [s[4] for s in spans if s[0] == "numerics.coupling" and s[4]]
    coupling_terms = sum(a["terms"] for a in coupling)
    coupling_keys = {tuple(a["key"]) for a in coupling}
    lags = [s[4] for s in spans if s[0] == "thermo.lag" and s[4]]
    lag_terms = sum(a["terms"] for a in lags)
    row_lags = [s[4] for s in spans if s[0] == "thermo.lag" and s[4] and s[3] >= 0 and spans[s[3]][0] == "sweep.evaluate_point"]

    out = {
        "numerics.coupling.calls": of(calls, "numerics.coupling"),
        "numerics.coupling.terms": coupling_terms,
        "numerics.coupling.s": of(total, "numerics.coupling"),
        "numerics.coupling.ns_per_term": ratio(of(total, "numerics.coupling"), coupling_terms, 1e9),
        "numerics.coupling.terms_per_row": ratio(coupling_terms, rows),
        "numerics.coupling.calls_per_key": ratio(len(coupling), len(coupling_keys)),
        "thermo.lag.calls": of(calls, "thermo.lag"),
        "thermo.lag.self_s": of(self_s, "thermo.lag"),
        "thermo.lag.terms": lag_terms,
        "thermo.lag.ns_per_term": ratio(of(self_s, "thermo.lag"), lag_terms, 1e9),
        "thermo.nonconverged_rows": sum(1 for a in row_lags if not a["converged"]),
        "thermo.divergence.calls": of(calls, "thermo.divergence"),
        "thermo.divergence.calls_per_row": ratio(of(calls, "thermo.divergence"), rows),
        "thermo.divergence.s": of(total, "thermo.divergence"),
        "params.reduce.calls": of(calls, "params.reduce"),
        "params.reduce.s": of(total, "params.reduce"),
        "sweep.evaluate_point.calls": rows,
        "sweep.self_s": of(self_s, "sweep.run_specs") + of(self_s, "sweep.evaluate_point"),
        "presets.figure_presets.calls": of(calls, "presets.figure_presets"),
        "presets.figure_presets.s": of(total, "presets.figure_presets"),
        "cli.main.calls": of(calls, "cli.main"),
        "cli.self_s": of(self_s, "cli.main"),
        "spectra.dense_hamiltonians.calls": of(calls, "spectra.dense_hamiltonians"),
        "spectra.dense_hamiltonians.s": of(total, "spectra.dense_hamiltonians"),
        "spectra.sideband_eigenvectors.calls": of(calls, "spectra.sideband_eigenvectors"),
        "spectra.sideband_eigenvectors.s": of(total, "spectra.sideband_eigenvectors"),
        "spectra.displacement_matrix.s": of(total, "spectra.displacement_matrix"),
        "workstats.moments_numeric.calls": of(calls, "workstats.moments_numeric"),
        "workstats.moments_numeric.s": of(total, "workstats.moments_numeric"),
        "workstats.work_pmf_sideband.s": of(total, "workstats.work_pmf_sideband"),
    }
    for check in check_names:
        out[f"{VERIFY_CHECK}.{check}.s"] = of(total, f"{VERIFY_CHECK}.{check}")
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced samples of one run."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def per_layer_units(check_names: list[str]) -> dict[str, str]:
    """Unit of every metric `per_layer` returns, plus trace.overhead_frac."""
    units = {}
    for key in per_layer([], check_names):
        if key.endswith((".calls", ".terms", "nonconverged_rows")):
            units[key] = "count"
        elif key.endswith("ns_per_term"):
            units[key] = "ns/term"
        elif key.endswith("terms_per_row"):
            units[key] = "terms/row"
        elif key.endswith("calls_per_key"):
            units[key] = "calls/key"
        elif key.endswith("calls_per_row"):
            units[key] = "calls/row"
        else:
            units[key] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units
