import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionquench import cli
from ionquench.cli import main
from ionquench.params import Branch, reduce
from ionquench.presets import FIG1_CONFIG, figure_presets
from ionquench.sweep import RESULT_COLUMNS

EXPECTED_HEADER = (
    "nu,omega0,omega_rabi,mass,phi_angle,eta,nbar,b_nu,b_w0,b_om,b_wl,"
    "m,branch,lag,n_used,tail_bound_log,converged,divergence_predicted"
)


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


class TestLagCommand:
    def test_single_point_header_and_value(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(["lag", "--branch", "jc", "--m", "1", "--eta", "0", "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert EXPECTED_HEADER in body.splitlines()
        rows = read_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["lag"])) <= 1e-10
        assert rows[0]["branch"] == "jc"

    def test_unset_eta_is_the_geometric_value_as_in_sweep(self, capsys):
        # The single point used to force eta = 0 (and print lag 0) where sweep used the geometry.
        assert main(["lag", "--branch", "jc", "--m", "1"]) == 0
        lag_row = capsys.readouterr().out.splitlines()[-1]
        assert main(["sweep", "--axis", "nbar", "--values", "0.38", "--branch", "jc", "--m", "1"]) == 0
        assert lag_row == capsys.readouterr().out.splitlines()[-1]
        assert lag_row.split(",")[5] == repr(reduce(FIG1_CONFIG, 1, Branch.JC).eta)

    def test_phi_sets_the_geometric_eta(self, tmp_path):
        # --phi used to be accepted and ignored: eta 0 and phi_angle nan.
        out = tmp_path / "row.csv"
        assert main(["lag", "--phi", "0.3", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["phi_angle"]) == 0.3
        expected = reduce(dict(FIG1_CONFIG, phi_angle=0.3), 0, Branch.CARRIER).eta
        assert float(row["eta"]) == expected < reduce(FIG1_CONFIG, 0, Branch.CARRIER).eta

    @pytest.mark.parametrize(
        "argv, conf",
        [
            pytest.param(["lag", "--eta", "0.5"], None, id="eta-flag"),
            pytest.param(["lag"], "eta = 0.5", id="eta-config"),
            pytest.param(["lag", "--desk-scale"], None, id="desk-scale"),
            pytest.param(["lag", "--preset", "fig2"], None, id="preset-fixed-eta"),
            pytest.param(["lag", "--preset", "fig1"], None, id="lag-preset-sweeps-eta"),
            pytest.param(["moments", "--preset", "fig1"], None, id="moments-preset-sweeps-eta"),
            pytest.param(["sweep", "--axis", "eta", "--values", "0.1,0.2"], None, id="sweep-axis-eta"),
            pytest.param(["spectrum", "--desk-scale"], None, id="spectrum-desk-scale"),
        ],
    )
    @pytest.mark.parametrize(
        "phi",
        [pytest.param(["--phi", "0.3"], id="flag"), pytest.param("phi = 0.3", id="config-phi"), pytest.param("phi_angle = 0.3", id="config-phi_angle")],
    )
    def test_phi_without_a_geometric_eta_rejected(self, argv, conf, phi, tmp_path, capsys):
        # Every row has a given or swept eta, so the angle enters none; it used to be echoed and ignored.
        lines = [line for line in (conf, phi) if isinstance(line, str)]
        config = tmp_path / "run.conf"
        config.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "rows.csv"
        extra = phi if isinstance(phi, list) else []
        assert main([*argv, *extra, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        source = "--phi" if extra else f"config key 'phi_angle' in {config}"
        assert len(err) == 1 and err[0].startswith(f"error: {source} sets the laser angle")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--nmax", "2"], ["moments"], ["sweep", "--axis", "nbar", "--values", "1"], ["spectrum", "--preset", "fig1"]],
    )
    def test_phi_with_the_geometric_eta_accepted(self, argv, tmp_path):
        out = tmp_path / "rows.csv"
        assert main([*argv, "--phi", "0.3", "--out", str(out)]) == 0
        assert "# param.phi_angle = 0.29999999999999999" in out.read_text()

    def test_header_comments_echo_config(self, tmp_path):
        out = tmp_path / "row.csv"
        main(["lag", "--eta", "0.5", "--out", str(out)])
        text = out.read_text()
        assert "# command = lag" in text
        assert "# param.nu = 5000" in text

    def test_preset_fig1_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["lag", "--preset", "fig1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 71 * 2 * 3
        etas = sorted({float(r["eta"]) for r in rows})
        assert etas[0] == 0.0 and etas[-1] == 3.5 and len(etas) == 71
        assert {r["branch"] for r in rows} == {"carrier", "jc", "ajc"}
        # Sideband rows at eta = 0 have identically zero coupling and need no
        # explicit terms; everything else sums the pinned 40.
        for r in rows:
            dead = float(r["eta"]) == 0.0 and r["branch"] != "carrier"
            assert r["n_used"] == ("0" if dead else "40")
        assert all(r["converged"] == "true" for r in rows)

    def test_preset_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a preset run needs no scipy.
        out = tmp_path / "fig2.csv"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ionquench.cli import main\n"
            f"sys.exit(main(['lag', '--preset', 'fig2', '--out', {str(out)!r}]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(read_csv(out)) > 0

    def test_preset_fig3_term_counts(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["lag", "--preset", "fig3", "--out", str(out)]) == 0
        rows = read_csv(out)
        by_branch = {r["branch"]: r["n_used"] for r in rows if r["branch"] in ("jc", "ajc")}
        assert by_branch["ajc"] == "2000"
        assert by_branch["jc"] == "5000"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["lag", "--preset", "fig6", "--out", str(a)])
        main(["lag", "--preset", "fig6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        # --threads is accepted and ignored: runs are serial.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["lag", "--preset", "fig2", "--out", str(a)])
        main(["lag", "--preset", "fig2", "--threads", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        main(["lag", "--branch", "ajc", "--m", "1,2", "--eta", "0.5", "--format", "jsonl", "--out", str(out)])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["m"] for r in rows] == [1, 2]
        assert all(r["lag"] > 0 for r in rows)

    def test_nonconverged_exit_code(self, tmp_path):
        args = [
            "lag", "--nu", "1e6", "--omega0", "1e7", "--omega", "1e10", "--mass", "1e-25",
            "--nbar", "1e8", "--eta", "0.5", "--out", str(tmp_path / "x.csv"),
        ]
        assert main(args) == 3
        assert read_csv(tmp_path / "x.csv")[0]["converged"] == "false"  # exit 3 keeps its --out file
        assert main(args + ["--allow-nonconverged"]) == 0
        rows = read_csv(tmp_path / "x.csv")
        assert rows[0]["converged"] == "false"

    def test_adaptive_row_runs_on_to_the_bound_edge(self, tmp_path):
        # This row used to stop at 1024 terms, write converged false and exit 3,
        # although 1536 terms certify it with the same lag.
        args = ["lag", "--desk-scale", "--omega", "1e9", "--nbar", "30", "--branch", "jc", "--m", "1", "--out"]
        assert main(args + [str(tmp_path / "adaptive.csv")]) == 0
        assert main(args + [str(tmp_path / "pinned.csv"), "--nmax", "1536"]) == 0
        (row,), (pinned,) = read_csv(tmp_path / "adaptive.csv"), read_csv(tmp_path / "pinned.csv")
        assert (row["converged"], row["n_used"], row["lag"]) == ("true", "1536", pinned["lag"])

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["lag", "--nbar", "-1"]) == 2
        assert main(["lag", "--nbar", "1", "--beta", "2"]) == 2

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("nbar = 0.5\nomega = 2e6\n# comment line\n")
        out = tmp_path / "row.csv"
        main(["lag", "--config", str(conf), "--nbar", "0.25", "--eta", "0.3", "--out", str(out)])
        row = read_csv(out)[0]
        assert float(row["omega_rabi"]) == 2e6  # from config file
        assert float(row["nbar"]) == pytest.approx(0.25, rel=1e-12)  # flag wins

    @pytest.mark.parametrize("line", ["tol = 0", "nmax = 3", "threads = 99"])
    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"nbar = 0.5\n{line}\n")
        assert main(["lag", "--config", str(conf), "--out", str(tmp_path / "row.csv")]) == 2
        err = capsys.readouterr().err
        assert f"unknown config key {line.split()[0]!r}" in err
        assert "accepted: beta, eta, mass, nbar, nu, omega, omega0, omega_rabi, phi, phi_angle" in err

    def test_config_file_non_numeric_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nbar = abc\n")
        assert main(["lag", "--config", str(conf), "--out", str(tmp_path / "row.csv")]) == 2
        err = capsys.readouterr().err
        assert "'nbar'" in err and str(conf) in err

    def test_config_file_repeated_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nbar = 0.5\n# comment line\nnbar = 2\n")
        assert main(["lag", "--config", str(conf), "--out", str(tmp_path / "row.csv")]) == 2
        err = capsys.readouterr().err
        assert "'nbar'" in err and "lines 1 and 3" in err


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--desk-scale", "--preset", "fig1"],
            ["moments", "--desk-scale", "--numeric-oracle", "--preset", "fig1"],
            ["lag", "--desk-scale", "--preset", "fig1"],
        ],
    )
    def test_desk_scale_with_preset_rejected(self, argv, tmp_path, capsys):
        # The preset's block used to replace the desk-scale point without a word.
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "error: --desk-scale conflicts with --preset fig1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tolerance_exit_code(self, tol, capsys):
        assert main(["lag", f"--tol={tol}"]) == 2
        assert "tolerance tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lag", "spectrum"])
    def test_nmax_above_term_cap_exit_code(self, command, capsys):
        assert main([command, "--nmax", "200001"]) == 2
        assert "200001" in capsys.readouterr().err

    def test_nonfinite_eta_message(self, capsys):
        assert main(["lag", "--eta", "nan"]) == 2
        assert "Lamb-Dicke parameter must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--nu", "1e-300"], ["--mass", "1e-320", "--nu", "1e-10"]])
    def test_geometric_eta_of_underflowing_mass_times_nu(self, argv, capsys):
        # 2 * mass * nu underflows to 0: an internal ZeroDivisionError with exit 4 before.
        assert main(["lag", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: the geometric Lamb-Dicke parameter is not finite at this mass and trap frequency;"
            " supply eta explicitly\n"
        )

    @pytest.mark.parametrize("argv", [["--omega", "1e200", "--nbar", "1e-3"], ["--beta", "1e300"]])
    def test_b_om_whose_square_overflows(self, argv, capsys):
        # Every excess term was nan before: 200000 terms summed, a nan lag and exit 3.
        assert main(["lag", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: b_om ") and err.endswith(" is too large: b_om^2 overflows\n")

    @pytest.mark.parametrize("command", ["lag", "spectrum"])
    def test_r_om_whose_square_overflows(self, command, capsys):
        # r_om = omega_rabi/nu above sqrt(max double): an internal OverflowError with exit 4 before.
        assert main([command, "--branch", "jc", "--m", "1", "--nbar", "1e20", "--omega", "1e160", "--eta", "0.5"]) == 2
        assert capsys.readouterr().err == "error: r_om = b_om/b_nu = 2e+156 is too large: r_om^2 overflows\n"

    def test_negative_mass_is_one_error_line(self, capsys):
        assert main(["lag", "--mass", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: ion mass must be positive\n"

    def test_nbar_and_beta_flags_conflict(self, capsys):
        assert main(["lag", "--nbar", "1", "--beta", "1e22"]) == 2
        assert "give only one of nbar and beta" in capsys.readouterr().err

    def test_beta_flag_replaces_preset_nbar(self, tmp_path):
        # fig1 fixes nbar = 0.38; beta = 3.4e30 /J gives nbar ~ 0.2 at nu = 5 kHz.
        out = tmp_path / "fig1.csv"
        argv = ["lag", "--preset", "fig1", "--branch", "jc", "--m", "1", "--beta", "3.4e30", "--out", str(out)]
        assert main(argv) == 0
        nbars = {float(r["nbar"]) for r in read_csv(out)}
        assert len(nbars) == 1 and 0.15 < nbars.pop() < 0.25

    def test_nbar_flag_replaces_preset_and_config_beta(self, tmp_path):
        # fig5 fixes beta; a config file may too.  Flags win over both.
        conf = tmp_path / "run.conf"
        conf.write_text("beta = 1e30\n")
        for extra in (["--preset", "fig5"], ["--config", str(conf)]):
            out = tmp_path / "rows.csv"
            assert main(["lag", *extra, "--branch", "jc", "--m", "1", "--nbar", "0.5", "--out", str(out)]) == 0
            nbars = [float(r["nbar"]) for r in read_csv(out)]
            assert nbars and nbars == pytest.approx([0.5] * len(nbars), rel=1e-12)

    @pytest.mark.parametrize("threads", ["0", "65"])
    def test_threads_out_of_range(self, threads, capsys):
        # A single-point call: a build without the bound starts one worker at most.
        assert main(["lag", "--threads", threads]) == 2
        assert f"--threads {threads} must lie in [1, 64]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lag", "--m", str(cli._MAX_SIDEBAND + 1), "--branch", "jc", "--eta", "0.5"],
            ["sweep", "--axis", "m", "--values", f"1,{cli._MAX_SIDEBAND + 1}", "--branch", "ajc", "--eta", "0.5"],
        ],
    )
    def test_sideband_index_above_maximum_rejected(self, argv, tmp_path, capsys):
        # Rejected before the (10m + 100) x m divergence scan is built.
        out = tmp_path / "rows.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{cli._MAX_SIDEBAND + 1} must lie in [0, {cli._MAX_SIDEBAND}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["lag", "sweep"])
    def test_sideband_index_at_maximum_runs(self, command, tmp_path):
        out = tmp_path / "rows.csv"
        m = str(cli._MAX_SIDEBAND)
        axis = ["--axis", "m", "--values", m] if command == "sweep" else ["--m", m]
        assert main([command, *axis, "--branch", "jc", "--eta", "0.5", "--out", str(out)]) == 0
        assert [r["m"] for r in read_csv(out)] == [m]

    @pytest.mark.parametrize("command", ["lag", "spectrum"])
    def test_overflowing_eta_rejected(self, command, capsys):
        # eta^2 overflows; the coupling sequence used to come back as NaN.
        assert main([command, "--desk-scale", "--branch", "jc", "--m", "1", "--eta", "1e200"]) == 2
        assert "Lamb-Dicke parameter 1e+200 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, axis",
        [
            (["lag", "--preset", "fig1", "--eta", "0.3"], "--eta", "eta"),
            (["lag", "--preset", "fig2", "--omega", "1e6"], "--omega", "omega_rabi"),
            (["lag", "--preset", "fig3", "--nbar", "2"], "--nbar", "nbar"),
            (["lag", "--preset", "fig3", "--beta", "2"], "--beta", "nbar"),
            (["lag", "--preset", "fig5", "--nu", "1e4"], "--nu", "nu"),
            (["lag", "--preset", "fig6", "--m", "1"], "--m", "m"),
            (["sweep", "--axis", "m", "--values", "1,2", "--m", "3", "--eta", "0.5"], "--m", "m"),
            (["sweep", "--axis", "eta", "--values", "0.1,0.2", "--eta", "0.5"], "--eta", "eta"),
            (["sweep", "--axis", "nbar", "--values", "1e3,1e4", "--beta", "1", "--m", "1", "--branch", "jc", "--eta", "0.5"],
             "--beta", "nbar"),
        ],
    )
    def test_flag_for_the_swept_axis_rejected(self, argv, flag, axis, tmp_path, capsys):
        # The grid sets the swept value; the flag used to be dropped with exit 0.
        out = tmp_path / "rows.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0] and f"sweeps {axis}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, line, key, axis",
        [
            (["lag", "--preset", "fig1"], "eta = 0.3", "eta", "eta"),
            (["lag", "--preset", "fig2"], "omega = 1e6", "omega_rabi", "omega_rabi"),
            (["lag", "--preset", "fig3"], "nbar = 2", "nbar", "nbar"),
            (["lag", "--preset", "fig3"], "beta = 1e30", "beta", "nbar"),
            (["lag", "--preset", "fig4"], "beta = 1e30", "beta", "nbar"),
            (["lag", "--preset", "fig5"], "nu = 1e4", "nu", "nu"),
            (["sweep", "--axis", "eta", "--values", "0.1,0.2"], "eta = 0.3", "eta", "eta"),
            (["sweep", "--axis", "nbar", "--values", "1e3,1e4", "--m", "1", "--branch", "jc", "--eta", "0.5"],
             "beta = 1", "beta", "nbar"),
        ],
    )
    def test_config_value_for_the_swept_axis_rejected(self, argv, line, key, axis, tmp_path, capsys):
        # The config value used to be dropped with exit 0, and the grid written.
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "rows.csv"
        assert main([*argv, "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config key ")
        assert repr(key) in err[0] and f"sweeps {axis}" in err[0]
        assert not out.exists()

    def test_config_beta_replaces_default_nbar(self, tmp_path):
        # A config file's temperature replaces the default one, as a flag does.
        conf = tmp_path / "run.conf"
        conf.write_text("beta = 3.4e30\n")
        out = tmp_path / "row.csv"
        assert main(["lag", "--config", str(conf), "--out", str(out)]) == 0
        assert 0.15 < float(read_csv(out)[0]["nbar"]) < 0.25

    def test_parser_built_once_and_reused(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert parser.parse_args(["lag", "--nmax", "40", "--eta", "0.5"]).nmax == 40
        fresh = parser.parse_args(["lag"])
        assert fresh.nmax is None and fresh.eta is None and fresh.threads == 1

    def test_unexpected_exception_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def broken(ops, order, use_full=True):
            raise RuntimeError("dense oracle broke")

        monkeypatch.setattr(cli, "moments_numeric", broken)
        out = tmp_path / "m.csv"
        assert main(["moments", "--desk-scale", "--numeric-oracle", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_extreme_temperature_is_not_a_domain_error(self, capsys):
        # beta = 2 /J puts b_w0 near 5e-19, where e^(-2a) rounds to 1.
        assert main(["lag", "--beta", "2"]) in (0, 3)
        assert "math domain error" not in capsys.readouterr().err


_POINT_FLAGS = {
    "--preset", "--eta", "--phi", "--omega", "--omega0", "--nu", "--mass", "--nbar", "--beta", "--nmax",
    "--format", "--out", "--desk-scale", "--config",
}  # fmt: skip
_LAG_FLAGS = _POINT_FLAGS | {"--branch", "--m", "--tol", "--threads", "--allow-nonconverged"}


def _accepted_options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings (and positional names) a parser reads, without --help."""
    return {
        action.option_strings[0] if action.option_strings else action.dest
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


class TestParser:
    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {name: _accepted_options(p) for name, p in subparsers.choices.items()}
        assert accepted == {
            "lag": _LAG_FLAGS,
            "sweep": _LAG_FLAGS | {"--axis", "--grid", "--values"},
            "moments": _POINT_FLAGS | {"--numeric-oracle"},
            "spectrum": _POINT_FLAGS | {"--branch", "--m"},
            "verify": {"level", "--seed", "--out"},
        }
        assert [len(accepted[name]) for name in ("lag", "sweep", "moments", "spectrum", "verify")] == [19, 22, 15, 16, 3]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--tol", "1e-6"],
            ["spectrum", "--threads", "1"],
            ["spectrum", "--allow-nonconverged"],
            ["moments", "--branch", "jc"],
            ["moments", "--m", "1"],
            ["moments", "--tol", "1e-6"],
            ["moments", "--threads", "1"],
            ["moments", "--allow-nonconverged"],
        ],
    )
    def test_dropped_flag_exits_2_before_any_output(self, argv, tmp_path, capsys):
        # No abbreviations either: moments --m 1 must not be read as --mass 1.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_m_axis_interior_maximum(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["sweep", "--axis", "m", "--grid", "0:24:25:linear", "--branch", "ajc",
             "--eta", "2.5", "--nmax", "40", "--out", str(out)]
        )
        assert code == 0
        vals = [float(r["lag"]) for r in read_csv(out)]
        peak = vals.index(max(vals))
        assert 0 < peak < len(vals) - 1

    def test_nu_sweep_flat_at_fixed_eta(self, tmp_path):
        # Trap-frequency sweep at fixed eta = 0 and fixed beta: the lag is
        # exactly the carrier closed form at every point.
        beta = math.log1p(1 / 0.38) / (1.054571817e-34 * 5e3)
        out = tmp_path / "nu.csv"
        code = main(
            ["sweep", "--axis", "nu", "--grid", "5e2:5e4:31:log", "--branch", "carrier",
             "--m", "0", "--eta", "0", "--beta", repr(beta), "--out", str(out)]
        )
        assert code == 0
        vals = [float(r["lag"]) for r in read_csv(out)]
        assert len(vals) == 31
        assert (max(vals) - min(vals)) / max(vals) <= 1e-2

    def test_nbar_axis_sets_each_rows_nbar(self, tmp_path):
        # A beta flag or config key is rejected on this axis (see test_flag_for_the_swept_axis_rejected).
        out = tmp_path / "nbar.csv"
        code = main(
            ["sweep", "--axis", "nbar", "--values", "0.5,2", "--eta", "0.5",
             "--branch", "jc", "--m", "1", "--out", str(out)]
        )
        assert code == 0
        nbars = [float(r["nbar"]) for r in read_csv(out)]
        assert nbars == pytest.approx([0.5, 2.0], rel=1e-12)

    def test_requires_axis_and_grid(self):
        assert main(["sweep", "--grid", "1:2:3:linear"]) == 2
        assert main(["sweep", "--axis", "eta"]) == 2
        assert main(["sweep", "--axis", "eta", "--grid", "bad"]) == 2
        # An oversized count is rejected before any grid is allocated.
        assert main(["sweep", "--axis", "eta", "--grid", "0:1:1000000000000:linear"]) == 2
        assert main(["sweep", "--axis", "eta", "--grid", f"0:1:{cli._MAX_GRID_COUNT + 1}:log"]) == 2


class TestMomentsCommand:
    def test_mean_column_zero_on_preset(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--preset", "fig1", "--eta", "0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(float(r["w_mean"]) == 0.0 for r in rows)

    def test_second_is_one_at_double_trap_frequency(self, tmp_path):
        out = tmp_path / "m.csv"
        main(
            ["moments", "--nu", "1e6", "--omega", "2e6", "--omega0", "1e7", "--mass", "1e-25",
             "--nbar", "0.38", "--eta", "0.5", "--out", str(out)]
        )
        assert float(read_csv(out)[0]["w_second"]) == 1.0

    def test_numeric_oracle_desk_scale(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--desk-scale", "--numeric-oracle", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["w_second_rel_dev"]) <= 1e-6
        assert float(row["w_third_rel_dev"]) <= 1e-6

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--desk-scale", "--eta", "1e200"], "Lamb-Dicke parameter 1e+200 is too large: eta^2 overflows"),
            # eta^2 is finite here, but the third moment is not.
            (["--eta", "1e153"], "work moments overflow at Lamb-Dicke parameter 1e+153"),
        ],
    )
    def test_overflowing_eta_rejected(self, argv, message, tmp_path, capsys):
        # w_third and w_skewness used to be written as inf with exit 0.
        out = tmp_path / "m.csv"
        assert main(["moments", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unset_eta_is_the_geometric_carrier_value(self, tmp_path):
        # The moments used to be taken at eta = 0.
        out = tmp_path / "m.csv"
        assert main(["moments", "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["eta"]) == reduce(FIG1_CONFIG, 0, Branch.CARRIER).eta

    def test_nmax_without_numeric_oracle_rejected(self, tmp_path, capsys):
        # --nmax used to be ignored and still echoed into the CSV header.
        out = tmp_path / "m.csv"
        assert main(["moments", "--desk-scale", "--nmax", "40", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--numeric-oracle" in err[0]
        assert not out.exists()

    def test_numeric_oracle_requires_desk_scale(self):
        assert main(["moments", "--numeric-oracle"]) == 2

    def test_numeric_oracle_nmax_above_maximum_rejected(self, tmp_path, capsys):
        # Rejected before the dense 2(nmax+1)-square operators are built.
        out = tmp_path / "m.csv"
        n_max = str(cli._MAX_ORACLE_NMAX + 1)
        assert main(["moments", "--desk-scale", "--numeric-oracle", "--nmax", n_max, "--out", str(out)]) == 2
        assert f"--nmax {n_max} must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_row_leaves_no_out_file(self, tmp_path):
        # The header is written before the row fails; the file must go too.
        out = tmp_path / "x.csv"
        assert main(["moments", "--desk-scale", "--numeric-oracle", "--eta", "1e200", "--out", str(out)]) == 2
        assert not out.exists()


class TestSpectrumCommand:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["spectrum", "--desk-scale", "--branch", "jc", "--m", "2", "--nmax", "5", "--out", str(out)])
        rows = read_csv(out)
        kinds = [r["kind"] for r in rows]
        assert kinds.count("edge") == 2
        assert kinds.count("pair") == 6
        pair0 = next(r for r in rows if r["kind"] == "pair" and r["n"] == "0")
        assert float(pair0["mu"]) < float(pair0["gamma"])

    def test_huge_eta_pair_rows_have_no_nan(self, tmp_path):
        # x |L_n| once overflowed inside the Laguerre step, and every pair row from n = 2 on printed nan.
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--m", "1", "--branch", "jc", "--eta", "1e100", "--out", str(out)]) == 0
        pairs = [r for r in read_csv(out) if r["kind"] == "pair"]
        assert len(pairs) > 2
        assert all(math.isfinite(float(r["mu"])) and math.isfinite(float(r["gamma"])) for r in pairs)


def _no_bare_constant(token):
    raise ValueError(f"bare {token} in a JSON line")


def _strict_json(line):
    """One JSON line, rejecting the NaN, Infinity and -Infinity tokens that JSON lacks."""
    return json.loads(line, parse_constant=_no_bare_constant)


class TestJsonLines:
    @pytest.mark.parametrize(
        "argv, nonfinite",
        [
            # An exact row: tail_bound_log is -inf, and phi_angle is nan as eta is given.
            (["lag", "--branch", "jc", "--m", "1,2", "--eta", "0"], {"tail_bound_log": "-inf", "phi_angle": "nan"}),
            (["lag", "--preset", "fig4"], {"phi_angle": "nan"}),
            (["spectrum", "--desk-scale", "--branch", "jc,ajc", "--m", "2", "--nmax", "6"], {"gamma": "nan"}),
            (["moments", "--preset", "fig1"], {}),
            (["moments", "--desk-scale", "--numeric-oracle", "--nmax", "20"], {}),
        ],
        ids=["lag-exact", "lag-fig4", "spectrum", "moments", "moments-oracle"],
    )
    def test_every_line_is_json_with_the_csv_text_of_nonfinite_floats(self, argv, nonfinite, tmp_path):
        jsonl, csv_out = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
        assert main([*argv, "--format", "jsonl", "--out", str(jsonl)]) == 0
        assert main([*argv, "--out", str(csv_out)]) == 0
        rows = [_strict_json(line) for line in jsonl.read_text().splitlines()]
        cells = read_csv(csv_out)
        assert rows and len(rows) == len(cells)
        seen = {}
        for row, cell in zip(rows, cells):
            assert list(row) == list(cell)
            for column, value in row.items():
                if isinstance(value, float):
                    assert math.isfinite(value) and float(cell[column]) == value
                elif isinstance(value, str) and column not in ("branch", "kind"):
                    assert value == cell[column] and not math.isfinite(float(value))
                    seen[column] = value
        assert {column: seen.get(column) for column in nonfinite} == nonfinite


def _reference_csv(columns, rows):
    """The CSV text of a header and rows as the writer made it before its % template:
    csv.writer over the text of each value."""

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        if value is None:
            return ""
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(value) for value in row])
    return buf.getvalue()


# Edge values of each column type; a row takes the k-th value of its column's type, cyclically.
_EDGE_VALUES = {
    float: [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
        0.1, 1 / 3, 1e22, 123.0, np.float64(np.nan), np.float64(-0.0), np.float64(2.5e-300),
    ],
    int: [0, 1, -3, 29, 200_000, 2**62],
    bool: [True, False],
    str: ["jc", "ajc", "carrier", "edge", "pair", "", 'a,"b"\nc', "x,y", 'say "hi"', "new\nline"],
}  # fmt: skip
_WRITER_COLUMNS = {
    "lag": cli._LAG_COLUMNS,
    "moments": cli._MOMENT_ROW_COLUMNS | cli._ORACLE_COLUMNS,
    "spectrum": cli._SPECTRUM_COLUMNS,
}


def _edge_rows(columns):
    kinds = list(columns.values())
    count = max(len(_EDGE_VALUES[kind]) for kind in kinds)
    return [tuple(_EDGE_VALUES[kind][(k + i) % len(_EDGE_VALUES[kind])] for i, kind in enumerate(kinds)) for k in range(count)]


class TestWriter:
    def test_lag_columns_are_the_result_row_fields(self):
        assert tuple(cli._LAG_COLUMNS) == RESULT_COLUMNS
        assert {kind for kind in cli._LAG_COLUMNS.values()} == {float, int, str, bool}

    @pytest.mark.parametrize("command", list(_WRITER_COLUMNS))
    def test_csv_rows_byte_identical_to_csv_writer(self, command, tmp_path):
        columns = _WRITER_COLUMNS[command]
        rows = _edge_rows(columns)
        out = tmp_path / "rows.csv"
        with cli._Writer("csv", str(out), columns, {}) as writer:
            for row in rows:
                writer.write_rows([row])
        assert out.read_bytes() == _reference_csv(tuple(columns), rows).encode()

    def test_quoted_str_reads_back(self, tmp_path):
        out = tmp_path / "rows.csv"
        texts = _EDGE_VALUES[str]
        with cli._Writer("csv", str(out), {"text": str, "x": float}, {}) as writer:
            for text in texts:
                writer.write_rows([(text, 1.5)])
        assert [row["text"] for row in csv.DictReader(io.StringIO(out.read_text(), newline=""))] == texts

    @pytest.mark.parametrize("command", list(_WRITER_COLUMNS))
    def test_json_lines_of_edge_rows(self, command, tmp_path):
        columns = _WRITER_COLUMNS[command]
        rows = _edge_rows(columns)
        out = tmp_path / "rows.jsonl"
        with cli._Writer("jsonl", str(out), columns, {}) as writer:
            for row in rows:
                writer.write_rows([row])
        lines = [_strict_json(line) for line in out.read_text().splitlines()]
        for line, row in zip(lines, rows, strict=True):
            assert list(line) == list(columns)
            for got, value in zip(line.values(), row):
                if isinstance(value, float) and not math.isfinite(value):
                    assert got == format(value, ".17g")
                else:
                    assert got == value and isinstance(got, bool) is isinstance(value, bool)


class TestWriteRows:
    """write_rows formats the columns its rows share once, with the bytes of one row per call and none shared."""

    @staticmethod
    def _both(tmp_path, fmt, columns, rows, fixed):
        one, many = tmp_path / "one", tmp_path / "many"
        with cli._Writer(fmt, str(one), columns, {"k": 1.5}) as writer:
            for row in rows:
                writer.write_rows([row])
        with cli._Writer(fmt, str(many), columns, {"k": 1.5}) as writer:
            writer.write_rows(rows, fixed)
        return one.read_bytes(), many.read_bytes()

    @pytest.mark.parametrize("share", ["none", "every other", "all but one", "all"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("command", list(_WRITER_COLUMNS))
    def test_shared_columns_written_as_one_row_at_a_time(self, command, fmt, share, tmp_path):
        columns = _WRITER_COLUMNS[command]
        n = len(columns)
        fixed = {
            "none": (), "every other": tuple(range(0, n, 2)), "all but one": tuple(range(1, n)), "all": tuple(range(n))
        }  # fmt: skip
        rows = _edge_rows(columns)
        rows = [tuple(rows[0][i] if i in fixed[share] else value for i, value in enumerate(row)) for row in rows]
        one, many = self._both(tmp_path, fmt, columns, rows, fixed[share])
        assert many == one and one.count(b"\n") >= len(rows)

    def test_shared_text_with_percent_signs_and_commas(self, tmp_path):
        columns = {"text": str, "x": float, "flag": bool}
        rows = [("100% a,b", 1.5, True), ("100% a,b", math.nan, False)]
        one, many = self._both(tmp_path, "csv", columns, rows, (0,))
        assert many == one and b'"100% a,b",nan,false' in many

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_no_rows_write_nothing(self, fmt, tmp_path):
        one, many = self._both(tmp_path, fmt, {"text": str, "x": float}, [], (0,))
        assert many == one == (b"# k = 1.5\ntext,x\n" if fmt == "csv" else b"")


_PRESET_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "presets"


@pytest.mark.parametrize("preset", [f"fig{i}" for i in range(1, 7)])
def test_preset_csv_equals_its_reference(preset, tmp_path):
    # The references under perfbench/refs/presets are read, never written.
    out = tmp_path / f"{preset}.csv"
    assert main(["lag", "--preset", preset, "--out", str(out)]) == 0
    assert out.read_bytes() == (_PRESET_REFS / f"{preset}.csv").read_bytes()


class TestVerifyCommand:
    def test_fast_passes_and_is_quick(self, capsys):
        import time

        start = time.monotonic()
        assert main(["verify", "fast"]) == 0
        assert time.monotonic() - start < 5.0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_seeded_report_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "full", "--seed", "7", "--out", str(a)]) == 0
        assert main(["verify", "full", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPresetFidelity:
    @pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 7)])
    def test_preset_built_alone_equals_its_entry(self, name):
        assert figure_presets(name) == {name: figure_presets()[name]}

    def test_parameter_blocks_match_reference_values(self):
        presets = figure_presets()
        shared = presets["fig1"].specs[0].fixed
        assert shared["omega_rabi"] == math.pi * 1e6
        assert shared["omega0"] == 822.0 * math.pi * 1e12
        assert shared["nu"] == 5.0e3
        assert shared["mass"] == 7.0e-26
        assert shared["nbar"] == 0.38
        assert presets["fig1"].specs[0].n_pinned == 40
        assert {s.n_pinned for s in presets["fig3"].specs} == {2000, 5000}
        assert all(s.n_pinned == 50 for s in presets["fig4"].specs)
        fig4 = [s.fixed for s in presets["fig4"].specs]
        assert fig4[0]["eta"] == 1.5 and fig4[0]["omega_rabi"] == 0.5e9
        assert fig4[1]["eta"] == 1.0 and fig4[1]["omega_rabi"] == 1.0e9
        assert all(s.fixed["nu"] == 1.2e8 and s.fixed["omega0"] == 1.0e8 for s in presets["fig4"].specs)
        assert FIG1_CONFIG["nbar"] == 0.38
