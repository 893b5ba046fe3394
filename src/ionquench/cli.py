"""Command-line front end: figure presets, sweeps, spectra, and verification.

Subcommands: lag, moments, sweep, spectrum, verify.  Output is CSV
(RFC-4180 quoting, '.' decimal, %.17g floats) or JSON lines via --format;
the effective configuration is echoed into CSV header comments.  Config
precedence is flags > config file > preset > defaults; an unset eta is the
geometric Lamb-Dicke value; --phi is an error when no row uses that value.

Exit codes: 0 ok, 1 verification failure, 2 usage or config error,
3 non-converged rows present without --allow-nonconverged, 4 internal error
(any other exception, reported as one "error:" line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .params import Branch, reduce
from .presets import FIG1_CONFIG, desk_scale_point, figure_presets
from .spectra import dense_hamiltonians, spectrum_table
from .sweep import RESULT_COLUMNS, SweepSpec, run_specs
from .thermo import TruncationPolicy
from .verify import run_checks
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
# The divergence scan builds a (10m + 100) x m matrix, so memory grows like
# m^2; at this maximum a lag row peaks near 37 MB.
_MAX_SIDEBAND = 200
# sweep --grid min:max:count; the presets' largest grid has 71 points.
_MAX_GRID_COUNT = 10_000

_PARAM_KEYS = ("nu", "omega0", "omega_rabi", "mass", "phi_angle", "nbar", "beta", "eta")


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


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
# The flag that sets each sweep axis; on a swept axis the grid sets the value.
_AXIS_FLAGS = {"eta": "eta", "omega_rabi": "omega", "nbar": "nbar", "nu": "nu", "m": "m"}


def _reject_axis_inputs(args: argparse.Namespace, config: dict, axis: str, sweeper: str, also: tuple[str, ...] = ()) -> None:
    """ConfigError when a flag or the config file sets the parameter that sweeper sweeps along axis."""
    for flag in (_AXIS_FLAGS[axis], *also):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} conflicts with {sweeper}, which sweeps {axis}")
    for key in (axis, *also):
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
    preset = (figure_presets()[args.preset].specs[0].fixed,) if args.preset else ()
    config = _read_config_file(args.config) if args.config else {}
    flags = {
        _FLAG_ALIASES.get(flag, flag): getattr(args, flag)
        for flag in ("nu", "omega0", "omega", "mass", "phi", "nbar", "beta", "eta")
        if getattr(args, flag) is not None
    }
    params = _layer(desk_scale_point() if args.desk_scale else FIG1_CONFIG, *preset, config, flags)
    if "nbar" not in params and "beta" not in params:
        raise ConfigError("one of nbar or beta is required")
    return params, (config, flags)


def _reject_unused_phi(args: argparse.Namespace, params: dict, geometric_rows: bool) -> None:
    """ConfigError when the laser angle is set but no row uses the geometric eta it enters."""
    if "phi_angle" in params and not geometric_rows:
        source = "--phi" if args.phi is not None else f"config key 'phi_angle' in {args.config}"
        raise ConfigError(f"{source} sets the laser angle of the geometric eta, but every row has a given or swept eta")


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    """The lag sums' policy from --tol; --nmax reaches them through each spec's n_pinned."""
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError(f"--threads {args.threads} must lie in [1, {_MAX_THREADS}]")
    if args.tol is None:
        return TruncationPolicy(error_on_nonconverged=False)
    return TruncationPolicy(tol=args.tol, error_on_nonconverged=False)


class _Writer:
    """CSV or JSON-lines row sink with a stable column order.

    A context manager: on exit it closes its --out file, and deletes that
    file when an exception leaves the block, so a failed run leaves no
    partial output behind.
    """

    def __init__(self, fmt: str, out_path: str | None, columns: tuple[str, ...], header_meta: dict):
        self.fmt = fmt
        self.columns = columns
        self._fh = open(out_path, "w", newline="") if out_path else sys.stdout
        self._out_path = out_path
        self._csv = None
        if fmt == "csv":
            for key in sorted(header_meta):
                self._fh.write(f"# {key} = {_fmt(header_meta[key])}\n")
            self._csv = csv.writer(self._fh, lineterminator="\n")
            self._csv.writerow(columns)

    def write_row(self, values: dict) -> None:
        if self.fmt == "csv":
            self._csv.writerow([_fmt(values[c]) for c in self.columns])
        else:
            self._fh.write(json.dumps({c: values[c] for c in self.columns}) + "\n")

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
        p.add_argument("--tol", type=float, help="truncation tail tolerance")
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


def _run_lags(args: argparse.Namespace, command: str, params: dict, specs: list[SweepSpec]) -> int:
    _reject_unused_phi(args, params, any(spec.axis != "eta" and "eta" not in spec.fixed for spec in specs))
    rows = run_specs(specs, policy=_policy(args))
    extra = {} if args.tol is None else {"tol": args.tol}
    with _Writer(args.format, args.out, RESULT_COLUMNS, _meta_for(args, command, params, extra)) as writer:
        for row in rows:
            writer.write_row(row.as_dict())
    if any(not row.converged for row in rows) and not args.allow_nonconverged:
        return _EXIT_NONCONVERGED
    return _EXIT_OK


def _cmd_lag(args: argparse.Namespace) -> int:
    """The preset's grids, or the one point as a one-value grid on its own nu."""
    params, (config, flags) = _effective_params(args)
    if not args.preset:
        point = SweepSpec(axis="nu", grid=(params["nu"],), fixed=params, branches=(Branch.CARRIER,), m_values=(0,))
        return _run_lags(args, "lag", params, [_with_flags(args, point)])
    specs = []
    for spec in figure_presets()[args.preset].specs:
        # The grid sets the swept value; on the nbar axis beta would set the temperature too.
        _reject_axis_inputs(args, config, spec.axis, f"preset {args.preset}", ("beta",) if spec.axis == "nbar" else ())
        specs.append(_with_flags(args, spec, config, flags))
    return _run_lags(args, "lag", params, specs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, (config, _) = _effective_params(args)
    if args.axis is None:
        raise ConfigError("sweep requires --axis")
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


_MOMENT_ROW_COLUMNS = (
    "nu",
    "omega0",
    "omega_rabi",
    "mass",
    "eta",
    "nbar",
    "w_mean",
    "w_second",
    "w_third",
    "w_skewness",
)
_ORACLE_COLUMNS = (
    "w_mean_numeric",
    "w_second_numeric",
    "w_third_numeric",
    "w_second_rel_dev",
    "w_third_rel_dev",
)


def _cmd_moments(args: argparse.Namespace) -> int:
    params, _ = _effective_params(args)
    etas: tuple = (params.get("eta"),)  # None: the geometric carrier value
    if args.preset and "eta" not in params:  # only fig1 fixes no eta: it sweeps it
        etas = figure_presets()[args.preset].specs[0].grid
    _reject_unused_phi(args, params, None in etas)

    use_oracle = args.numeric_oracle
    if args.nmax is not None and not use_oracle:
        raise ConfigError("--nmax sets the truncation of --numeric-oracle, which is not given")
    if use_oracle and params["omega0"] / params["nu"] > 1e3:
        raise ConfigError("--numeric-oracle needs desk-scale frequency ratios; add --desk-scale")
    n_trunc = args.nmax if args.nmax is not None else 80
    if use_oracle and not 2 <= n_trunc <= _MAX_ORACLE_NMAX:
        raise ConfigError(f"--nmax {n_trunc} must lie in [2, {_MAX_ORACLE_NMAX}] with --numeric-oracle")

    columns = _MOMENT_ROW_COLUMNS + (_ORACLE_COLUMNS if use_oracle else ())
    meta = _meta_for(args, "moments", params, {"numeric_oracle": use_oracle})
    with _Writer(args.format, args.out, columns, meta) as writer:
        for eta in etas:
            rp = reduce(params, 0, Branch.CARRIER, eta)
            moments = moments_analytic(rp)
            row = {
                "nu": float(params["nu"]),
                "omega0": float(params["omega0"]),
                "omega_rabi": float(params["omega_rabi"]),
                "mass": float(params["mass"]),
                "eta": rp.eta,
                "nbar": rp.nbar,
                "w_mean": moments.mean,
                "w_second": moments.second,
                "w_third": moments.third,
                "w_skewness": moments.skewness,
            }
            if use_oracle:
                ops = dense_hamiltonians(rp, n_trunc)
                m1 = moments_numeric(ops, 1).value
                m2 = moments_numeric(ops, 2).value
                m3 = moments_numeric(ops, 3).value
                row.update(
                    {
                        "w_mean_numeric": m1,
                        "w_second_numeric": m2,
                        "w_third_numeric": m3,
                        "w_second_rel_dev": abs(m2 - moments.second) / moments.second,
                        "w_third_rel_dev": abs(m3 - moments.third) / moments.third,
                    }
                )
            writer.write_row(row)
    return _EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params, _ = _effective_params(args)
    branches, m_values = _sidebands(args)
    _reject_unused_phi(args, params, "eta" not in params)
    n_max = args.nmax if args.nmax is not None else 40
    if not 0 <= n_max <= TruncationPolicy.n_cap:
        raise ConfigError(f"--nmax {n_max} must lie in [0, {TruncationPolicy.n_cap}], the term cap")
    columns = ("branch", "m", "kind", "n", "mu", "gamma")
    with _Writer(args.format, args.out, columns, _meta_for(args, "spectrum", params, {})) as writer:
        for branch in branches:
            for m in m_values:
                rp = reduce(params, m, branch, params.get("eta"))
                table = spectrum_table(rp, n_max)
                for n, zeta in enumerate(table.edge):
                    writer.write_row(
                        {"branch": rp.branch.value, "m": rp.m, "kind": "edge", "n": n, "mu": float(zeta), "gamma": float("nan")}
                    )
                for n, (mu, gamma) in enumerate(table.pairs):
                    writer.write_row(
                        {"branch": rp.branch.value, "m": rp.m, "kind": "pair", "n": n, "mu": mu, "gamma": gamma}
                    )
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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
    p_sweep.add_argument("--axis", choices=("eta", "omega_rabi", "nbar", "nu", "m"))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except Exception as exc:  # KeyboardInterrupt is not an Exception and stays uncaught
        message = " ".join(str(exc).split())
        print(f"error: internal failure ({type(exc).__name__}): {message}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
