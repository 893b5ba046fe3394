"""Command-line front end: figure presets, sweeps, spectra, and verification.

Subcommands: lag, moments, sweep, spectrum, verify.  Output is CSV
(RFC-4180 quoting, '.' decimal, %.17g floats) or JSON lines via --format,
with a non-finite float as the string "nan", "inf" or "-inf";
the effective configuration is echoed into CSV header comments.  Config
precedence is flags > config file > preset > defaults; an unset eta is the
geometric Lamb-Dicke value; --phi is an error when no row uses that value.

Exit codes: 0 ok, 1 verification failure, 2 usage or config error,
3 non-converged rows present without --allow-nonconverged, 4 internal error
(any other exception, reported as one "error:" line).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import struct
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .params import SWEEP_AXES, Branch, reduce
from .presets import FIG1_CONFIG, desk_scale_point, figure_presets
from .spectra import dense_hamiltonians, spectrum_table
from .sweep import ResultRow, SweepSpec, run_specs
from .thermo import TERM_CAP
from .workstats import moments_analytic, moments_numeric

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_CONFIG = 2
_EXIT_NONCONVERGED = 3
_EXIT_INTERNAL = 4

# --threads has no effect (runs are serial); existing command lines still
# pass it, so it stays parsed and bounded.
_MAX_THREADS = 64
# moments --numeric-oracle builds dense 2(nmax+1)-square operators; at this
# maximum a row takes about 1.2 s and 105 MB, and the cost grows like nmax^3.
_MAX_ORACLE_NMAX = 400
# The couplings' factorial ratio is built in bounded slices: at this maximum a lag row whose
# divergence scan runs to the term cap peaks near 42 MB, and spectrum --nmax 40000 near 51 MB.
_MAX_SIDEBAND = 200
# sweep --grid min:max:count; the presets' largest grid has 71 points.
_MAX_GRID_COUNT = 10_000

_PARAM_KEYS = ("nu", "omega0", "omega_rabi", "mass", "phi_angle", "nbar", "beta", "eta")


class ConfigError(Exception):
    pass


def _bool_text(value) -> str:
    return "true" if value else "false"


def _fmt(value) -> str:
    """The text of a header value: %.17g floats, true/false bools."""
    if isinstance(value, bool):
        return _bool_text(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


# The % conversion of each column type in a CSV row; a bool or str cell is made text first.
_CSV_CONVERSIONS = {float: "%.17g", int: "%d", bool: "%s", str: "%s"}


def _quoted(text: str) -> str:
    """text as an RFC-4180 field: in quotes, its quotes doubled, when it holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# The text of a bool or str cell, which its % conversion then takes as it is.
_CELL_TEXTS = {bool: _bool_text, str: _quoted}


def _json_value(value):
    """value in a JSON line; a non-finite float, which JSON lacks, as its CSV text ("nan", "inf", "-inf")."""
    return "%.17g" % value if isinstance(value, float) and not math.isfinite(value) else value


def _parse_branches(text: str) -> tuple[Branch, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        try:
            out.append(Branch(tok))
        except ValueError as exc:
            raise ConfigError(f"unknown branch {tok!r} (expected jc, ajc, carrier)") from exc
    return tuple(out)


def _check_sidebands(ms: tuple[int, ...], what: str) -> tuple[int, ...]:
    for m in ms:
        if not 0 <= m <= _MAX_SIDEBAND:
            raise ConfigError(f"{what} {m} must lie in [0, {_MAX_SIDEBAND}]")
    return ms


def _parse_ms(text: str) -> tuple[int, ...]:
    try:
        ms = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sideband list {text!r}") from exc
    return _check_sidebands(ms, "--m")


_FLAG_ALIASES = {"omega": "omega_rabi", "phi": "phi_angle"}
# The flag of each parameter whose flag has another name; any other parameter's flag is its name.
_PARAM_FLAGS = {key: flag for flag, key in _FLAG_ALIASES.items()}


def _reject_axis_inputs(args: argparse.Namespace, config: dict, axis: str, sweeper: str) -> None:
    """ConfigError when a flag or the config file sets the parameter that sweeper sweeps along axis."""
    keys = (axis, "beta") if axis == "nbar" else (axis,)  # beta would set the temperature the nbar grid sets
    for flag in (_PARAM_FLAGS.get(key, key) for key in keys):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} conflicts with {sweeper}, which sweeps {axis}")
    for key in keys:
        if key in config:
            raise ConfigError(f"config key {key!r} in {args.config} conflicts with {sweeper}, which sweeps {axis}")


def _read_config_file(path: str) -> dict[str, float]:
    """Flat key = value file; '#' starts a comment; keys are parameter names
    or flag aliases, each given once, with numeric values."""
    out: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        key = _FLAG_ALIASES.get(key, key)
        if key not in _PARAM_KEYS:
            accepted = ", ".join(sorted((*_PARAM_KEYS, *_FLAG_ALIASES)))
            raise ConfigError(f"unknown config key {key!r} (accepted: {accepted})")
        if key in lines:
            raise ConfigError(f"config key {key!r} is set twice in {path}, on lines {lines[key]} and {lineno}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} in {path} has the non-numeric value {value!r}") from None
        lines[key] = lineno
    return out


def _layer(base: dict, *layers: dict) -> dict:
    """base with each layer on top in turn; a layer's nbar or beta replaces the other one below it."""
    out = dict(base)
    for layer in layers:
        if "nbar" in layer and "beta" in layer:
            raise ConfigError("give only one of nbar and beta")
        for key, other in (("beta", "nbar"), ("nbar", "beta")):
            if key in layer:
                out.pop(other, None)
        out.update(layer)
    return out


def _effective_params(args: argparse.Namespace) -> tuple[dict, tuple[dict, dict]]:
    """(params, (config, flags)): defaults or desk scale < preset fixed block < config file < explicit flags.

    config and flags are the layers the config file and the flags set; a
    preset's grids lay them on their own fixed blocks.
    """
    if args.preset and args.desk_scale:
        raise ConfigError(f"--desk-scale conflicts with --preset {args.preset}, which sets its own parameter block")
    preset = (figure_presets(args.preset)[args.preset].specs[0].fixed,) if args.preset else ()
    config = _read_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, _PARAM_FLAGS.get(key, key)) for key in _PARAM_KEYS}
    flags = {key: value for key, value in flags.items() if value is not None}
    params = _layer(desk_scale_point() if args.desk_scale else FIG1_CONFIG, *preset, config, flags)
    if "nbar" not in params and "beta" not in params:
        raise ConfigError("one of nbar or beta is required")
    return params, (config, flags)


def _reject_unused_phi(args: argparse.Namespace, params: dict, geometric_rows: bool) -> None:
    """ConfigError when the laser angle is set but no row uses the geometric eta it enters."""
    if "phi_angle" in params and not geometric_rows:
        source = "--phi" if args.phi is not None else f"config key 'phi_angle' in {args.config}"
        raise ConfigError(f"{source} sets the laser angle of the geometric eta, but every row has a given or swept eta")


def _shared(kind: type, column: list) -> bool:
    """Whether every value of column is the first one: a float bit for bit, as -0.0 and 0.0 print apart."""
    if kind is float:
        data = struct.pack(f"{len(column)}d", *column)
        return data == data[:8] * len(column)
    return column.count(column[0]) == len(column)


class _Writer:
    """CSV or JSON-lines row sink with a stable column order.

    columns maps each column name to its type (float, int, bool or str), in
    output order, and write_rows takes each row's values as a tuple in that
    order.  A context manager: on exit it closes its --out file, and deletes
    that file when an exception leaves the block, so a failed run leaves no
    partial output behind.
    """

    def __init__(self, fmt: str, out_path: str | None, columns: dict[str, type], header_meta: dict):
        self.fmt = fmt
        self.columns = tuple(columns)
        self._kinds = tuple(columns.values())
        self._fh = open(out_path, "w", newline="") if out_path else sys.stdout
        self._out_path = out_path
        if fmt == "csv":
            for key in sorted(header_meta):
                self._fh.write(f"# {key} = {_fmt(header_meta[key])}\n")
            self._fh.write(",".join(map(_quoted, self.columns)) + "\n")

    def write_rows(self, rows: list[tuple]) -> None:
        """Write each row; a CSV is built column by column, and a JSON line holds every column.

        Each bool or str column is made text in one pass.  A column whose
        values are all the same (floats bit for bit) is formatted once, into
        the row template; the other columns of all rows then go through one
        % format of that template repeated, which gives the bytes of writing
        each row alone.
        """
        if not rows:
            return
        if self.fmt != "csv":
            for row in rows:
                self._fh.write(json.dumps(dict(zip(self.columns, map(_json_value, row))), allow_nan=False) + "\n")
            return
        pieces, others = [], []
        for kind, column in zip(self._kinds, zip(*rows)):
            to_text = _CELL_TEXTS.get(kind)
            column = list(column if to_text is None else map(to_text, column))
            if _shared(kind, column):
                pieces.append((_CSV_CONVERSIONS[kind] % column[0]).replace("%", "%%"))
            else:
                pieces.append(_CSV_CONVERSIONS[kind])
                others.append(column)
        template = ",".join(pieces) + "\n"
        self._fh.write(template * len(rows) % tuple(chain.from_iterable(zip(*others))))

    def __enter__(self) -> _Writer:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._out_path is not None:
            self._fh.close()
            if exc_type is not None:
                Path(self._out_path).unlink(missing_ok=True)


def _add_flags(p: argparse.ArgumentParser, sidebands: bool, lag_sums: bool) -> None:
    """The flags a subcommand reads: the parameter point and output always,
    --branch/--m with sidebands, and the lag sums' flags with lag_sums."""
    p.add_argument("--preset", choices=tuple(f"fig{i}" for i in range(1, 7)), help="figure preset")
    if sidebands:
        p.add_argument("--branch", type=str, help="comma list of jc,ajc,carrier")
        p.add_argument("--m", dest="m", type=str, help="comma list of sideband indices")
    p.add_argument("--eta", type=float, help="Lamb-Dicke parameter (default: the geometric value)")
    p.add_argument("--phi", type=float, help="laser angle in rad (geometric eta only)")
    p.add_argument("--omega", type=float, help="Rabi angular frequency, rad/s")
    p.add_argument("--omega0", type=float, help="transition angular frequency, rad/s")
    p.add_argument("--nu", type=float, help="trap angular frequency, rad/s")
    p.add_argument("--mass", type=float, help="ion mass, kg")
    p.add_argument("--nbar", type=float, help="initial thermal occupation")
    p.add_argument("--beta", type=float, help="inverse temperature, 1/J")
    p.add_argument("--nmax", type=int, help="pin the term count (spectrum: table rows; moments: oracle truncation)")
    if lag_sums:
        p.add_argument("--threads", type=int, default=1, help=f"1..{_MAX_THREADS}; ignored: runs are serial")
        p.add_argument("--allow-nonconverged", action="store_true", dest="allow_nonconverged")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", type=str, help="output path (default stdout)")
    p.add_argument("--desk-scale", action="store_true", dest="desk_scale", help="use moderate frequency ratios")
    p.add_argument("--config", type=str, help="flat key = value config file")


def _meta_for(args: argparse.Namespace, command: str, params: dict, extra: dict) -> dict:
    meta = {"command": command, **{f"param.{k}": v for k, v in sorted(params.items())}, **extra}
    if args.preset:
        meta["preset"] = args.preset
    if args.nmax is not None:
        meta["nmax"] = args.nmax
    return meta


def _sidebands(args: argparse.Namespace, branches=(Branch.CARRIER,), m_values=(0,)) -> tuple[tuple[Branch, ...], tuple[int, ...]]:
    """(branches, m values) from --branch and --m, each defaulting to the given ones."""
    return (
        _parse_branches(args.branch) if args.branch else branches,
        _parse_ms(args.m) if args.m else m_values,
    )


def _with_flags(args: argparse.Namespace, spec: SweepSpec, *layers: dict) -> SweepSpec:
    """spec with layers on its fixed block and --branch, --m and --nmax in place of its own."""
    branches, m_values = _sidebands(args, spec.branches, spec.m_values)
    n_pinned = spec.n_pinned if args.nmax is None else args.nmax
    return replace(spec, fixed=_layer(spec.fixed, *layers), branches=branches, m_values=m_values, n_pinned=n_pinned)


# lag and sweep rows: the fields of ResultRow with their types, in RESULT_COLUMNS
# order; a row is already the tuple of its values in that order.
_LAG_COLUMNS = get_type_hints(ResultRow)


def _run_lags(args: argparse.Namespace, command: str, params: dict, specs: list[SweepSpec]) -> int:
    _reject_unused_phi(args, params, any(spec.axis != "eta" and "eta" not in spec.fixed for spec in specs))
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError(f"--threads {args.threads} must lie in [1, {_MAX_THREADS}]")
    rows_by_spec = [run_specs([spec]) for spec in specs]
    with _Writer(args.format, args.out, _LAG_COLUMNS, _meta_for(args, command, params, {})) as writer:
        for rows in rows_by_spec:
            writer.write_rows(rows)
    if any(not row.converged for rows in rows_by_spec for row in rows) and not args.allow_nonconverged:
        return _EXIT_NONCONVERGED
    return _EXIT_OK


def _cmd_lag(args: argparse.Namespace) -> int:
    """The preset's grids, or the one point as a one-value grid on its own nu."""
    params, (config, flags) = _effective_params(args)
    if not args.preset:
        point = SweepSpec(axis="nu", grid=(params["nu"],), fixed=params, branches=(Branch.CARRIER,), m_values=(0,))
        return _run_lags(args, "lag", params, [_with_flags(args, point)])
    specs = []
    for spec in figure_presets(args.preset)[args.preset].specs:
        _reject_axis_inputs(args, config, spec.axis, f"preset {args.preset}")
        specs.append(_with_flags(args, spec, config, flags))
    return _run_lags(args, "lag", params, specs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, (config, _) = _effective_params(args)
    if args.axis is None:
        raise ConfigError("sweep requires --axis")
    if args.values is not None and args.grid is not None:
        raise ConfigError("give only one of --values and --grid")
    if args.values:
        try:
            grid = tuple(int(v) if args.axis == "m" else float(v) for v in args.values.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --values list {args.values!r}") from exc
    elif args.grid:
        parts = args.grid.split(":")
        if len(parts) != 4 or parts[3] not in ("linear", "log"):
            raise ConfigError("--grid must be min:max:count:linear|log")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= count <= _MAX_GRID_COUNT:
            raise ConfigError(f"--grid count {count} must lie in [1, {_MAX_GRID_COUNT}]")
        vals = np.linspace(lo, hi, count) if parts[3] == "linear" else np.geomspace(lo, hi, count)
        grid = tuple(int(round(v)) for v in vals) if args.axis == "m" else tuple(vals.tolist())
    else:
        raise ConfigError("sweep requires --grid or --values")
    _reject_axis_inputs(args, config, args.axis, f"--axis {args.axis}")
    if args.axis == "m":
        _check_sidebands(grid, "--axis m value")
    m_values = () if args.axis == "m" else (0,)
    spec = SweepSpec(axis=args.axis, grid=grid, fixed=params, branches=(Branch.CARRIER,), m_values=m_values)
    return _run_lags(args, "sweep", params, [_with_flags(args, spec)])


_MOMENT_ROW_COLUMNS = dict.fromkeys(
    ("nu", "omega0", "omega_rabi", "mass", "eta", "nbar", "w_mean", "w_second", "w_third", "w_skewness"), float
)
_ORACLE_COLUMNS = dict.fromkeys(
    ("w_mean_numeric", "w_second_numeric", "w_third_numeric", "w_second_rel_dev", "w_third_rel_dev"), float
)
_SPECTRUM_COLUMNS = {"branch": str, "m": int, "kind": str, "n": int, "mu": float, "gamma": float}


def _cmd_moments(args: argparse.Namespace) -> int:
    params, _ = _effective_params(args)
    etas: tuple = (params.get("eta"),)  # None: the geometric carrier value
    if args.preset and "eta" not in params:  # only fig1 fixes no eta: it sweeps it
        etas = figure_presets(args.preset)[args.preset].specs[0].grid
    _reject_unused_phi(args, params, None in etas)

    use_oracle = args.numeric_oracle
    if args.nmax is not None and not use_oracle:
        raise ConfigError("--nmax sets the truncation of --numeric-oracle, which is not given")
    if use_oracle and params["omega0"] / params["nu"] > 1e3:
        raise ConfigError("--numeric-oracle needs desk-scale frequency ratios; add --desk-scale")
    n_trunc = args.nmax if args.nmax is not None else 80
    if use_oracle and not 2 <= n_trunc <= _MAX_ORACLE_NMAX:
        raise ConfigError(f"--nmax {n_trunc} must lie in [2, {_MAX_ORACLE_NMAX}] with --numeric-oracle")

    columns = _MOMENT_ROW_COLUMNS | (_ORACLE_COLUMNS if use_oracle else {})
    meta = _meta_for(args, "moments", params, {"numeric_oracle": use_oracle})
    with _Writer(args.format, args.out, columns, meta) as writer:
        for eta in etas:
            rp = reduce(params, 0, Branch.CARRIER, eta)
            moments = moments_analytic(rp)
            row = (
                float(params["nu"]),
                float(params["omega0"]),
                float(params["omega_rabi"]),
                float(params["mass"]),
                rp.eta,
                rp.nbar,
                moments.mean,
                moments.second,
                moments.third,
                moments.skewness,
            )
            if use_oracle:
                ops = dense_hamiltonians(rp, n_trunc)
                m1 = moments_numeric(ops, 1).value
                m2 = moments_numeric(ops, 2).value
                m3 = moments_numeric(ops, 3).value
                row += (m1, m2, m3, abs(m2 - moments.second) / moments.second, abs(m3 - moments.third) / moments.third)
            writer.write_rows([row])  # each row as soon as it is computed: an oracle row can take seconds
    return _EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params, _ = _effective_params(args)
    branches, m_values = _sidebands(args)
    _reject_unused_phi(args, params, "eta" not in params)
    n_max = args.nmax if args.nmax is not None else 40
    if not 0 <= n_max <= TERM_CAP:
        raise ConfigError(f"--nmax {n_max} must lie in [0, {TERM_CAP}], the term cap")
    with _Writer(args.format, args.out, _SPECTRUM_COLUMNS, _meta_for(args, "spectrum", params, {})) as writer:
        for branch in branches:
            for m in m_values:
                rp = reduce(params, m, branch, params.get("eta"))
                table = spectrum_table(rp, n_max)
                edges = [(rp.branch.value, rp.m, "edge", n, float(zeta), math.nan) for n, zeta in enumerate(table.edge)]
                pairs = [(rp.branch.value, rp.m, "pair", n, mu, gamma) for n, (mu, gamma) in enumerate(table.pairs)]
                writer.write_rows(edges + pairs)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks  # here, so that no other subcommand imports verify and fractions
    results = run_checks(args.level, seed=args.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    payload = {
        "level": args.level,
        "seed": args.seed,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps(payload))
    return _EXIT_OK if payload["all_passed"] else _EXIT_VERIFY_FAIL


# Built once per process: every default is immutable, and each parse_args
# call fills a fresh Namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ionquench", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: a subcommand reads only the flags it names (moments --m would be --mass).

    p_lag = sub.add_parser("lag", allow_abbrev=False, help="nonequilibrium lag rows (single point or preset grids)")
    _add_flags(p_lag, sidebands=True, lag_sums=True)
    p_lag.set_defaults(func=_cmd_lag)

    p_moments = sub.add_parser("moments", allow_abbrev=False, help="closed-form work moments, optional numeric oracle")
    _add_flags(p_moments, sidebands=False, lag_sums=False)
    p_moments.add_argument("--numeric-oracle", action="store_true", dest="numeric_oracle")
    p_moments.set_defaults(func=_cmd_moments)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="sweep one axis over an explicit grid")
    _add_flags(p_sweep, sidebands=True, lag_sums=True)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--grid", type=str, help="min:max:count:linear|log")
    p_sweep.add_argument("--values", type=str, help="explicit comma list")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_spectrum = sub.add_parser("spectrum", allow_abbrev=False, help="dump the analytic spectrum table")
    _add_flags(p_spectrum, sidebands=True, lag_sums=False)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run the invariant suites")
    p_verify.add_argument("level", choices=("fast", "full"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", type=str, help="write the JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except Exception as exc:  # KeyboardInterrupt is not an Exception and stays uncaught
        message = " ".join(str(exc).split())
        print(f"error: internal failure ({type(exc).__name__}): {message}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
