import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mixedframes
from conftest import verify_checks
from mixedframes import cli, group_algebra as ga, quantum_system as qs, verify
from mixedframes.cli import DEFAULTS, main, parse_config_file
from mixedframes.errors import DomainError, NormalizationError, QuadratureError
from mixedframes.figures import DEMO_IDS, FIGURE_IDS, LOADED_COMPONENT_CAP, Artifact, build_figure
from mixedframes.verify import check_figures

FAST = ["--grid-n", "256"]

# a child interpreter imports the package these tests import, also where only
# pytest's own pythonpath setting put it on sys.path
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(mixedframes.__file__).parent.parent), os.environ.get("PYTHONPATH")])
    ),
}


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
        with pytest.raises(DomainError):
            parse_config_file(cfg)

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha 0.9\n")
        with pytest.raises(DomainError):
            parse_config_file(cfg)


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["figure", "a1a2", "--alpha", "100"], "alpha"),
            (["figure", "a1a2", "--extent", "inf"], "extent"),
            (["figure", "gaussian-smear", "--sigma", "5"], "sigma"),
            (["figure", "gaussian-smear", "--quad-order", "100000"], "terms"),
            (["demo", "thermal", "--temperature", "inf"], "temperature"),
            (["figure", "a1a2", "--a2", "nan"], "a2"),
            (["demo", "galilei-boost", "--v0", "nan"], "v0"),
            (["demo", "semigroup", "--a2", "inf"], "a2"),
            (["figure", "a1a2", "--alpha=1e-300"], "alpha"),
            (["figure", "gaussian-smear", "--sigma=1e300"], "sigma"),
            # overflows that printed numpy warnings or wrote NaN before
            (["demo", "galilei-boost", "--mass=1.7e308"], "mass"),
            (["demo", "galilei-boost", "--p=1.7e308"], "p=1.7e+308"),
            (["demo", "galilei-boost", "--p=-1.7e308"], "p=-1.7e+308"),
            (["demo", "galilei-boost", "--temperature=1.7e308"], "temperature"),
            (["demo", "thermal", "--temperature=1.7e308"], "temperature"),
            (["demo", "thermal", "--mass=1.7e308"], "mass"),
            (["demo", "semigroup", "--a0=1.7e308"], "location 1.7e+308"),
            (["demo", "semigroup", "--a0=-1.7e308"], "location 1.7e+308"),
            # a velocity grid v0 +- 8.5 spreads that rounding leaves non-uniform
            (["demo", "galilei-boost", "--v0", "1e5"], "v0"),
            (["demo", "galilei-boost", "--v0=1e300"], "v0"),
            (["demo", "galilei-boost", "--temperature", "1e-10", "--v0", "100"], "v0"),
            # sigma * sigma underflows to 0.0
            (["figure", "gaussian-smear", "--sigma=1e-200"], "sigma"),
        ],
    )
    def test_rejected_input_exits_2_with_one_line(self, tmp_path, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv + FAST + ["--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.count("\n") == 1 and named in err
        assert not [str(w.message) for w in caught]

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(["figure", "a1a2", "--out", str(blocker / "out")] + FAST, capsys)
        assert code == 1
        assert err.startswith("io error")

    @pytest.mark.parametrize("flag", ["--config", "--densities"])
    def test_unreadable_input_file_exits_1(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing.txt")
        code, _, err = run_cli(["demo", "semigroup", flag, missing, "--out", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("io error") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--config", "--densities"])
    def test_undecodable_input_file_is_rejected(self, tmp_path, capsys, flag):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"alpha = 0.9 # \xe9\n")
        code, _, err = run_cli(["demo", "semigroup", flag, str(path), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: bad ") and err.count("\n") == 1

    def test_fault_during_verify_raises(self, tmp_path, monkeypatch):
        # a seeded defect, not bad input: the channel weights sum to 1 + 1e-7
        real = qs.act_mixed

        def act_mixed(*args, **kwargs):
            out = real(*args, **kwargs)
            weights = tuple(w * (1.0 + 1e-7) for w in out.weights)
            return qs.ChannelOutput(out.inputs, out.shifts, out.offset_weights, weights)

        monkeypatch.setattr(qs, "act_mixed", act_mixed)
        with pytest.raises(NormalizationError):
            main(["verify", "--grid-n", "256", "--out", str(tmp_path)])

    def test_internal_fault_still_raises(self, tmp_path, monkeypatch):
        def broken(*args):
            raise QuadratureError("quadrature did not converge")

        monkeypatch.setattr(cli, "build_figure", broken)
        with pytest.raises(QuadratureError):
            main(["figure", "a1a2", "--out", str(tmp_path)])


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

    def test_packet_across_box_seam(self, tmp_path, capsys):
        # the packet at a2=18 wraps the edge of the 40-wide box
        code, _, err = run_cli(["figure", "a1a2", "--a2", "18", "--out", str(tmp_path)], capsys)
        assert code == 0, err


class TestDemoCommand:
    def test_thermal_reports_tiny_mb_gap(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, _, _ = run_cli(
            ["demo", "thermal", "--temperature", "1", "--mass", "1", "--out", str(out)], capsys
        )
        assert code == 0
        meta = json.loads((out / "thermal.json").read_text())
        assert meta["maxwell_boltzmann_gap"] <= 1e-12
        assert not (out / "thermal_momentum.csv").exists()
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
        assert not (out / "galilei_boost.csv").exists()
        header = (out / "galilei_boost_overlay.csv").read_text().splitlines()[0]
        assert header == "p,weight,thermal_reference"

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

    def test_semigroup_densities_span_full_line_comments(self, tmp_path, capsys):
        density_file = tmp_path / "states.txt"
        density_file.write_text(
            "# two-point\ndirac weight=0.5 a=0\n# second\ndirac weight=0.5 a=1\n"
        )
        out = tmp_path / "demo"
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(out)], capsys
        )
        assert code == 0 and err == ""
        table = (out / "semigroup.csv").read_text()
        assert "loaded_0_antipode,dirac weight=0.5 a=0.0; dirac weight=0.5 a=1.0," in table
        assert "loaded_1_antipode" not in table

    def test_semigroup_with_overflowing_decay_prints_no_warning(self, tmp_path, capsys):
        # the band reaches 1e6, where variance * p^2 overflows for var=1e300
        density_file = tmp_path / "states.txt"
        density_file.write_text(
            "gauss weight=0.5 mean=0.0 var=1e-10\ngauss weight=0.5 mean=0.0 var=1e300\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
                capsys,
            )
        assert code == 0 and err == ""
        assert not [str(w.message) for w in caught]

    def test_semigroup_counts_every_dirac_gap(self, tmp_path, capsys):
        # the product's chi = 0.5 + 0.5 cos(1e-300 p) vanishes at p = pi * 1e300,
        # inside the band 10/1e-300 of its Dirac gap
        density_file = tmp_path / "states.txt"
        density_file.write_text("dirac weight=0.5 a=0\ndirac weight=0.5 a=1e-300\n")
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0 and err == ""
        rows = (tmp_path / "semigroup.csv").read_text().splitlines()
        row = next(r for r in rows if r.startswith("loaded_0_antipode,"))
        pure, invertible, witness = row.split(",")[-3:]
        assert (pure, invertible) == ("false", "false")
        assert float(witness) == pytest.approx(math.pi * 1e300, rel=1e-6)

    def test_semigroup_rejects_a_band_that_is_not_finite(self, tmp_path, capsys):
        # 10 / 5e-324 overflows: no scan band covers the product's first zero
        density_file = tmp_path / "states.txt"
        density_file.write_text("dirac weight=0.5 a=0\ndirac weight=0.5 a=5e-324\n")
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and err.count("\n") == 1
        assert "the scan band of loaded_0_antipode must be positive and finite, got inf" in err
        assert not (tmp_path / "semigroup.csv").exists()

    def test_semigroup_rejects_bad_densities_file(self, tmp_path, capsys):
        density_file = tmp_path / "states.txt"
        density_file.write_text("wobble weight=1.0\n")
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "densities" in err


    def test_semigroup_error_names_the_line_of_the_file(self, tmp_path, capsys):
        density_file = tmp_path / "states.txt"
        density_file.write_text("dirac weight=1 a=0\n\n# second density\ngauss weight=1 mean=0\n")
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and err.count("\n") == 1
        assert "line 4: gauss takes weight= mean= var=" in err

    def test_semigroup_caps_loaded_components_before_any_convolution(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_convolution(*args):
            raise AssertionError("convolve ran")

        monkeypatch.setattr(ga, "convolve", no_convolution)
        density_file = tmp_path / "states.txt"

        def loaded(n):
            return "".join(f"dirac weight={1 / n!r} a={float(i)!r}\n" for i in range(n))

        density_file.write_text("dirac weight=1 a=0\n\n" + loaded(LOADED_COMPONENT_CAP + 1))
        code, _, err = run_cli(
            ["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and err.count("\n") == 1
        assert f"loaded density 1 has {LOADED_COMPONENT_CAP + 1} components" in err
        # at the cap the file is accepted and reaches the convolution
        density_file.write_text(loaded(LOADED_COMPONENT_CAP))
        with pytest.raises(AssertionError, match="convolve ran"):
            main(["demo", "semigroup", "--densities", str(density_file), "--out", str(tmp_path)])

    # SHA-256 of every file the default demos write: a change that moves a
    # demo byte has to update these on purpose
    DEMO_DIGESTS = {
        "thermal": {
            "thermal.json": "25481d55cfdb2dd77dc5e71d933b4b07aaa3dfd66077a59565c0285d19fcf13c",
            "thermal_energy.csv": "5c485c1fba804ce48687c1d51b5da9975f957a00a1f2504cd0ecde8262b4b49c",
            "thermal_overlay.csv": "672475ad8b6e159e4aedf02d275793c00abb45e847971929a35a2be9e146b2fe",
        },
        "galilei-boost": {
            "galilei_boost.json": "92827b8bdb8635592c4a16a7d21e03c2317b935d812bd621e59ed95b2817a767",
            "galilei_boost_overlay.csv":
                "42259710fe84c1b646f185b1721d2e2c419fa5719ce097b8df02d80ddcdf00ae",
        },
        "semigroup": {
            "semigroup.csv": "4b5b9145cfd179d06aa556732dfe3fff78665c2a5eed0b5ac97f7d92dadee7d0",
            "semigroup.json": "de991fc06dc6f03941c62a12b1a8882650e5269a3fd3634fc1a0d64d62727ff9",
        },
    }

    @pytest.mark.parametrize("demo_id", DEMO_IDS)
    def test_default_demo_files_keep_their_digests(self, tmp_path, capsys, demo_id):
        code, _, _ = run_cli(["demo", demo_id, "--out", str(tmp_path)], capsys)
        assert code == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == self.DEMO_DIGESTS[demo_id]


class TestVerifyCommand:
    def test_injected_fault_names_first_check(self, tmp_path, capsys, monkeypatch):
        # a seeded defect: the antipode returns its argument unreflected
        monkeypatch.setattr(ga, "antipode", lambda rho: rho)
        calls = dict.fromkeys(verify_checks(), 0)

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
        out = tmp_path / "verify"
        code, _, err = run_cli(["verify", "--grid-n", "256", "--out", str(out)], capsys)
        assert code == 1
        assert "first failing check" in err
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "check,parameters,residual,tolerance,status"
        named = err.split(":")[-1].strip()
        assert named == "antipode_two_point_product"
        assert any(line.startswith(named + ",") for line in report[1:])
        assert all(line.endswith(",fail") or line.endswith(",pass") for line in report[1:])
        failed = {line.split(",")[0] for line in report[1:] if line.endswith(",fail")}
        assert failed == {
            "antipode_two_point_product", "antipode_inverts_iff_pure", "channel_density_convolution"
        }
        assert any(line.startswith("galilei_bch_sweep,") for line in report[1:])
        assert not (out / "galilei_residuals.csv").exists()
        # every check in verify runs exactly once in the suite
        assert calls == dict.fromkeys(calls, 1)

    def test_off_grid_midpoint_and_row_labels(self):
        # a2/2 = 1.5 is not a point of the 256-point grid; only the figure rows
        # of verify depend on alpha and a2
        params = {**DEFAULTS, "grid_n": 256, "alpha": 0.6, "a2": 3.0}
        figures = {figure_id: build_figure(figure_id, params) for figure_id in FIGURE_IDS}
        rows = {r.name: r for r in check_figures(params, figures)}
        assert all(r.passed for r in rows.values()), [r for r in rows.values() if not r.passed]
        for name in ("figure_a1a2_closed_form", "figure_a1a2diff_closed_form"):
            assert rows[name].parameters == "alpha=0.6 a2=3.0"
        assert rows["figure_a1a2diff_midpoint_zero"].residual <= 1e-10

    def test_each_closed_form_row_reads_its_own_figure(self):
        params = {**DEFAULTS, "grid_n": 256}
        figures = {figure_id: build_figure(figure_id, params) for figure_id in FIGURE_IDS}
        rows = {
            "a1a2": "figure_a1a2_closed_form",
            "a1a2diff": "figure_a1a2diff_closed_form",
            "gaussian-smear": "figure_smear_closed_form",
        }
        assert all(r.passed for r in check_figures(params, figures))
        for figure_id, row in rows.items():
            for key in ("sup_error_pure", "sup_error_mixed"):
                metadata = {**figures[figure_id].metadata, key: 1.0}
                broken = Artifact(figures[figure_id].name, figures[figure_id].files, metadata)
                results = check_figures(params, {**figures, figure_id: broken})
                assert [r.name for r in results if not r.passed] == [row], (figure_id, key)


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mixedframes.cli", "figure", "a1a2", "--grid-n", "256",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0
    assert (tmp_path / "a1a2.csv").exists()


PEAK_RSS_SCRIPT = """
import sys
from pathlib import Path
from mixedframes.cli import main
argv = ["figure", "gaussian-smear", "--grid-n", "8192", "--quad-order", "2048", "--sigma", "0.5"]
assert main([*argv, "--out", sys.argv[1]]) == 0
status = Path("/proc/self/status").read_text().splitlines()
print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_smeared_figure_keeps_no_channel_row(tmp_path):
    # 2048 rows of 8192 amplitudes are 256 MiB when stored; streamed, the run stays
    # near the interpreter's own size. The child reports the peak of its own address
    # space (VmHWM): its ru_maxrss would start from the size of this process, which
    # it was forked from, and RUSAGE_CHILDREN here would hold every earlier child.
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0, result.stderr
    peak_kib = int(result.stdout.splitlines()[-1])
    assert peak_kib < 60 * 1024


NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import mixedframes
from mixedframes.cli import main
for argv in (["figure", "a1a2"], ["demo", "semigroup"], ["verify", "--grid-n", "256"]):
    assert main([*argv, "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
from scipy.linalg import expm
from mixedframes.galilei import expm as galilei_expm
a = np.array([[0.0, 1.5, 0.0], [-1.5, 0.2j, 0.3], [0.0, -0.3, -1.0]])
print(float(np.max(np.abs(galilei_expm(a) - expm(a)))))
"""


def test_package_and_figure_commands_load_no_scipy(tmp_path):
    # verify included: its quadratures and Bessel coefficients run on numpy alone
    # a fresh interpreter, so that modules pytest or other tests imported do not count
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0, result.stderr
    loaded, gap = result.stdout.splitlines()[-2:]  # after the paths main prints
    assert loaded == "[]"
    assert float(gap) == 0.0


IMPORT_SCRIPT = """
import sys
import {module}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")))
"""


@pytest.mark.parametrize("module", ["mixedframes", "mixedframes.cli"])
def test_import_loads_no_scipy_and_no_numpy_polynomial(module):
    # numpy.polynomial loads inside the quadratures that use it, so an import does not pay for it
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT.format(module=module)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


HERMITICITY_PEAK_SCRIPT = """
from pathlib import Path
from mixedframes import GalileiParams, PositionGrid, build_operators
def peak_kib():
    status = Path("/proc/self/status").read_text().splitlines()
    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
ops = build_operators(PositionGrid(1024, 40.0), GalileiParams(mass=1.0, time=0.5))
before = peak_kib()
ops.hermiticity_residuals()
print(peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_hermiticity_residuals_hold_a_quarter_matrix():
    # the tiles below the diagonal that wait for their partners peak at a quarter of a
    # 1024 x 1024 complex matrix, 4 MiB; the peak grew by 7.0 MiB when measured. One full
    # 16 MiB matrix, even reused for all four generators, grows it by about 18 MiB.
    result = subprocess.run(
        [sys.executable, "-c", HERMITICITY_PEAK_SCRIPT],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.splitlines()[-1]) < 10 * 1024
