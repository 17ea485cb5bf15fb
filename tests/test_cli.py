import json
import subprocess
import sys

import pytest

from mixedframes.cli import ConfigError, DEFAULTS, main, parse_config_file

FAST = ["--grid-n", "256"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults_mirror_reference_parameters(self):
        assert DEFAULTS["alpha"] == 0.75
        assert DEFAULTS["a2"] == 2.5

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.9  # packet width\n\ngrid_n = 512\nout = " + str(tmp_path / "cfg_out") + "\n")
        code, out, _ = run_cli(["figure", "a1a2", "--config", str(cfg)], capsys)
        assert code == 0
        meta = json.loads((tmp_path / "cfg_out" / "a1a2.json").read_text())
        assert meta["param_alpha"] == 0.9
        assert meta["param_grid_n"] == 512
        assert meta["param_a2"] == 2.5  # untouched default

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.9\n")
        code, _, _ = run_cli(
            ["figure", "a1a2", "--config", str(cfg), "--alpha", "0.6", "--grid-n", "256",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        meta = json.loads((tmp_path / "o" / "a1a2.json").read_text())
        assert meta["param_alpha"] == 0.6

    def test_env_fallback_for_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXEDFRAME_OUT", str(tmp_path / "env_out"))
        code, _, _ = run_cli(["figure", "a1a2"] + FAST, capsys)
        assert code == 0
        assert (tmp_path / "env_out" / "a1a2.csv").exists()

    def test_bad_grid_n_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["figure", "a1a2", "--grid-n", "300", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "grid_n" in err

    def test_nonpositive_parameter_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["figure", "a1a2", "--alpha", "-1", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("key", ["warp_factor", "beta"])
    def test_unknown_config_key_rejected(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 9\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha 0.9\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)


class TestFigureCommand:
    def test_writes_csv_gp_json(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code, stdout, _ = run_cli(["figure", "a1a2", "--out", str(out)] + FAST, capsys)
        assert code == 0
        for suffix in (".csv", ".gp", ".json"):
            assert (out / f"a1a2{suffix}").exists()
        header = (out / "a1a2.csv").read_text().splitlines()[0]
        assert header == "x,mixed,pure_sum"

    def test_smear_curves_include_analytic_columns(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code, _, _ = run_cli(["figure", "gaussian-smear", "--out", str(out)] + FAST, capsys)
        assert code == 0
        header = (out / "gaussian-smear.csv").read_text().splitlines()[0]
        assert header == "x,mixed,mixed_analytic,pure,pure_analytic"
        meta = json.loads((out / "gaussian-smear.json").read_text())
        assert meta["sup_error_mixed"] <= 1e-6
        assert meta["sup_error_pure"] <= 1e-6

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["figure", "a1a2diff", "--out", str(out)] + FAST, capsys)
            assert code == 0
        assert (out_a / "a1a2diff.csv").read_bytes() == (out_b / "a1a2diff.csv").read_bytes()
        assert (out_a / "a1a2diff.json").read_bytes() == (out_b / "a1a2diff.json").read_bytes()


class TestDemoCommand:
    def test_thermal_reports_tiny_mb_gap(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, _, _ = run_cli(
            ["demo", "thermal", "--temperature", "1", "--mass", "1", "--out", str(out)], capsys
        )
        assert code == 0
        meta = json.loads((out / "thermal.json").read_text())
        assert meta["maxwell_boltzmann_gap"] <= 1e-12
        assert (out / "thermal_momentum.csv").read_text().splitlines()[0] == "p,weight"
        assert (out / "thermal_energy.csv").read_text().splitlines()[0] == "E,density"
        assert (
            out / "thermal_overlay.csv"
        ).read_text().splitlines()[0] == "p,weight,maxwell_boltzmann"

    def test_galilei_boost_zero_momentum_case(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, _, _ = run_cli(
            ["demo", "galilei-boost", "--v0", "0", "--p", "0", "--out", str(out)], capsys
        )
        assert code == 0
        meta = json.loads((out / "galilei_boost.json").read_text())
        assert meta["p_prime"] == 0.0
        assert meta["thermal_reference_gap"] <= 1e-9
        assert (out / "galilei_boost.csv").read_text().splitlines()[0] == "p,weight"

    def test_semigroup_table_contains_three_term_row(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, _, _ = run_cli(["demo", "semigroup", "--out", str(out)], capsys)
        assert code == 0
        rows = (out / "semigroup.csv").read_text().splitlines()
        row = next(r for r in rows if r.startswith("two_point_antipode"))
        assert "dirac weight=0.25 a=-2.5; dirac weight=0.5 a=0.0; dirac weight=0.25 a=2.5" in row
        assert ",false," in row  # not invertible, with a witness recorded
        assert row.rstrip().split(",")[-1] != ""

    def test_semigroup_loads_serialized_densities(self, tmp_path, capsys):
        density_file = tmp_path / "states.txt"
        density_file.write_text(
            "dirac weight=0.5 a=0.0\ndirac weight=0.5 a=1.0\n\n"
            "gauss weight=1.0 mean=0.5 var=0.2\n"
        )
        out = tmp_path / "demo"
        code, _, _ = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(out)], capsys
        )
        assert code == 0
        table = (out / "semigroup.csv").read_text()
        assert "loaded_0_antipode" in table
        assert "loaded_1_antipode" in table

    def test_semigroup_rejects_bad_densities_file(self, tmp_path, capsys):
        density_file = tmp_path / "states.txt"
        density_file.write_text("wobble weight=1.0\n")
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "densities" in err


class TestVerifyCommand:
    def test_injected_fault_names_first_check(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code, _, err = run_cli(
            ["verify", "--grid-n", "256", "--tolerance-scale", "0", "--out", str(out)], capsys
        )
        assert code == 1
        assert "first failing check" in err
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "check,parameters,residual,tolerance,status"
        named = err.split(":")[-1].strip()
        assert any(line.startswith(named + ",") for line in report[1:])
        assert all(line.endswith(",fail") or line.endswith(",pass") for line in report[1:])
        assert any(line.startswith("galilei_bch_sweep,") for line in report[1:])
        assert not (out / "galilei_residuals.csv").exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mixedframes.cli", "figure", "a1a2", "--grid-n", "256",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "a1a2.csv").exists()
