"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is asserted at its stated value; runtime budgets
are asserted as hard ceilings.
"""

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mixedframes
from mixedframes import group_algebra as ga
from mixedframes import quantum_system as qs
from mixedframes.cli import DEFAULTS, main
from mixedframes.figures import build_figure
from mixedframes.verify import (
    check_antipode_inverse,
    check_bch_sweep,
    check_boost_label_phase,
    check_galilei_operators,
    check_purity_channel_law,
    check_purity_dense_oracle,
    check_semigroup_laws,
    check_thermal_boost,
    check_thermal_densities,
    check_thermal_invariance,
    classifier_cases,
)

SRC = str(Path(mixedframes.__file__).parent.parent)


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self) -> float:
        return time.perf_counter() - self.start


def _report(criterion: str, ok: bool, clock: _Clock, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({detail}, {clock.done():.2f}s <= {clock.budget}s)")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert clock.done() <= clock.budget, f"criterion {criterion} exceeded {clock.budget}s"


def test_criterion_1_figure_one_reproduction():
    clock = _Clock(5.0)
    artifact = build_figure("a1a2", dict(DEFAULTS))
    meta = artifact.metadata
    sup = max(meta["sup_error_mixed"], meta["sup_error_pure"])
    ordered = meta["midpoint_mixed"] < meta["midpoint_pure"]
    _report("1 figure-a1a2", sup <= 1e-6 and ordered, clock, f"sup={sup:.2e} midpoint order ok={ordered}")


def test_criterion_2_figure_two_reproduction():
    clock = _Clock(5.0)
    artifact = build_figure("a1a2diff", dict(DEFAULTS))
    meta = artifact.metadata
    sup = max(meta["sup_error_mixed"], meta["sup_error_pure"])
    node = meta["midpoint_pure"]
    reversed_order = meta["midpoint_pure"] < meta["midpoint_mixed"]
    ok = sup <= 1e-6 and node <= 1e-10 and reversed_order
    _report("2 figure-a1a2diff", ok, clock, f"sup={sup:.2e} node={node:.2e}")


def test_criterion_3_gaussian_smear_closed_forms():
    clock = _Clock(10.0)
    params = dict(DEFAULTS)
    params["a0"] = 0.8
    artifact = build_figure("gaussian-smear", params)
    sup = max(artifact.metadata["sup_error_mixed"], artifact.metadata["sup_error_pure"])

    grid = qs.PositionGrid(2048, 40.0)
    violations = 0
    worst_var_err = 0.0
    for sigma in (0.5, 0.75, 1.0, 2.0):
        for alpha in (0.5, 0.75, 1.0, 2.0):
            packet = qs.gaussian_wavepacket(grid, alpha)
            mixed = qs.position_density(
                qs.act_mixed(ga.make_gaussian(0.0, sigma**2), qs.pure_state(packet), 64)
            )
            pure = qs.position_density(
                qs.pure_state(
                    qs.coherently_translated(ga.GaussianComponent(0.0, sigma**2), packet, 64)
                )
            )
            v_mixed = qs.density_variance(mixed)
            v_pure = qs.density_variance(pure)
            worst_var_err = max(
                worst_var_err,
                abs(v_mixed - (sigma**2 + alpha**2)),
                abs(v_pure - (sigma**2 + 2 * alpha**2) / 2),
            )
            if not v_mixed > v_pure:
                violations += 1
    ok = sup <= 1e-6 and violations == 0 and worst_var_err <= 1e-6
    _report(
        "3 gaussian-smear",
        ok,
        clock,
        f"sup={sup:.2e} var_err={worst_var_err:.2e} violations={violations}",
    )


def test_criterion_4_semigroup_property_suite():
    clock = _Clock(10.0)
    results = check_semigroup_laws() + check_antipode_inverse()
    laws = {r.name: r for r in results}
    worst = max(
        laws[name].residual
        for name in (
            "semigroup_associativity",
            "semigroup_commutativity",
            "semigroup_identity",
            "antipode_involution",
        )
    )
    chi = laws["characteristic_morphism"].residual
    three_term = laws["antipode_two_point_product"].residual
    ok = worst <= 1e-8 and chi <= 1e-8 and three_term == 0.0
    _report("4 semigroup-suite", ok, clock, f"laws={worst:.2e} chi={chi:.2e} exact={three_term}")


def test_criterion_5_invertibility_classifier():
    clock = _Clock(2.0)
    rng = np.random.default_rng(77)
    cases = classifier_cases(rng)
    assert len(cases) == 50
    wrong = sum(
        1
        for rho, band, expected in cases
        if ga.is_invertible(rho, band=band, floor=1e-3)[0] != expected
    )
    witness_err = 0.0
    for a2 in (0.8, 1.7, 2.5, 3.6):
        rho = ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(a2))])
        _, witness = ga.is_invertible(rho, band=40.0 / a2, floor=1e-3)
        witness_err = max(witness_err, abs(abs(witness) - math.pi / a2))
    ok = wrong == 0 and witness_err <= 1e-6
    _report("5 classifier", ok, clock, f"wrong={wrong}/50 witness_err={witness_err:.2e}")


def test_criterion_6_purity_channel_law():
    clock = _Clock(30.0)
    law = {r.name: r for r in check_purity_channel_law()}
    oracle = check_purity_dense_oracle()[0]
    ok = (
        law["purity_non_increase"].residual <= 1e-9
        and law["purity_delta_equality"].residual <= 1e-10
        and oracle.residual <= 1e-8
    )
    _report(
        "6 purity-law",
        ok,
        clock,
        f"increase={law['purity_non_increase'].residual:.2e} "
        f"delta={law['purity_delta_equality'].residual:.2e} dense={oracle.residual:.2e}",
    )


def test_criterion_7_thermal_dictionary():
    clock = _Clock(2.0)
    densities = {r.name: r for r in check_thermal_densities()}
    invariance = {r.name: r for r in check_thermal_invariance()}
    ok = (
        densities["thermal_energy_normalization"].residual <= 1e-8
        and densities["thermal_mb_dictionary"].residual <= 1e-12
        and densities["thermal_measure_identity"].residual <= 1e-10
        and invariance["thermal_diagonal_invariance"].residual <= 1e-15
    )
    detail = " ".join(
        f"{key}={densities[key].residual:.1e}"
        for key in ("thermal_energy_normalization", "thermal_mb_dictionary", "thermal_measure_identity")
    )
    _report("7 thermal-dictionary", ok, clock, detail)


def test_criterion_8_galilei_sector():
    clock = _Clock(120.0)
    operators = {r.name: r for r in check_galilei_operators(grid_n=1024)}
    bch = check_bch_sweep(grid_n=1024)[0]
    fringe = {r.name: r for r in check_boost_label_phase(grid_n=1024)}
    boost = check_thermal_boost()[0]
    ok = (
        operators["galilei_brackets"].residual <= 1e-6
        and operators["galilei_p_h_commutes"].residual <= 1e-12
        and bch.residual <= 1e-6
        and fringe["galilei_label_fringe_phase"].residual <= 1e-4
        and boost.residual <= 1e-9
    )
    _report(
        "8 galilei",
        ok,
        clock,
        f"brackets={operators['galilei_brackets'].residual:.1e} "
        f"bch={bch.residual:.1e} fringe={fringe['galilei_label_fringe_phase'].residual:.1e} "
        f"boost={boost.residual:.1e}",
    )


def _verify_child(out, blas_threads: int) -> int:
    """``verify --grid-n 256`` in a fresh interpreter with the given BLAS thread count."""
    threads = str(blas_threads)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    args = ["-m", "mixedframes.cli", "verify", "--grid-n", "256", "--out", str(out)]
    return subprocess.run([sys.executable, *args], capture_output=True, env=env).returncode


def _against_fixture(report: Path, fixture: str) -> tuple[list[str], list[int]]:
    """The rows of ``report`` that moved from the committed ``fixture`` (a row that moves has to be
    named on purpose), and the field counts a CSV reader finds on its lines (five when well formed)."""
    committed = (Path(__file__).parent / "fixtures" / fixture).read_text()
    lines = report.read_text().splitlines()
    moved = sorted({line.split(",")[0] for line in set(committed.splitlines()) ^ set(lines)})
    return moved, sorted({len(row) for row in csv.reader(lines)})


def test_criterion_9_verify_determinism(tmp_path, capsys):
    clock = _Clock(120.0)
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    args = ["verify", "--grid-n", "256"]
    code_a = main(args + ["--out", str(out_a)])
    code_b = main(args + ["--out", str(out_b)])
    capsys.readouterr()
    files = ["verify_report.csv", "a1a2.csv", "a1a2diff.csv", "gaussian-smear.csv"]
    identical = all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files)
    # the bytes must not follow the BLAS thread count either, which is fixed per process
    runs = {t: tmp_path / f"threads{t}" for t in (1, 2)}
    codes = tuple(_verify_child(out, t) for t, out in runs.items())
    across_threads = codes == (0, 0) and all(
        len({(out / f).read_bytes() for out in (out_a, *runs.values())}) == 1 for f in files
    )
    moved, widths = _against_fixture(out_a / "verify_report.csv", "verify_report_256.csv")
    ok = code_a == 0 and code_b == 0 and identical and across_threads and not moved and widths == [5]
    with capsys.disabled():
        _report(
            "9 determinism",
            ok,
            clock,
            f"exit=({code_a},{code_b}) identical={identical} "
            f"children={codes} identical_across_blas_threads={across_threads} "
            f"moved_from_fixture={moved} fields_per_line={widths}",
        )


def test_criterion_9_default_grid_report(tmp_path, capsys):
    """One in-process ``verify`` at the default grid against the committed report, row by row."""
    clock = _Clock(60.0)
    code = main(["verify", "--out", str(tmp_path)])
    capsys.readouterr()
    moved, widths = _against_fixture(tmp_path / "verify_report.csv", "verify_report_4096.csv")
    with capsys.disabled():
        _report(
            "9 default-grid report",
            code == 0 and not moved and widths == [5],
            clock,
            f"exit={code} moved_from_fixture={moved} fields_per_line={widths}",
        )
