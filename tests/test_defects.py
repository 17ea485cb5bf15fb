"""Seeded defects: every ``verify`` check can see one.

Each entry patches one program function, under the name through which the
check looks it up, with a mutant of the original: a wrong sign, factor,
unit, index or return value (mutation analysis: DeMillo, Lipton & Sayward,
IEEE Computer 11(4), 1978). It then runs only that check, with the
arguments its entry in ``verify.CHECKS`` derives for ``verify --grid-n
256``, and names the rows that must read ``fail``.
At these sizes every row passes without a defect (``verify --grid-n 256``
exits 0 in ``test_acceptance``'s criterion 9), so the named rows fail
because of the defect.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from conftest import verify_checks
from mixedframes import figures, galilei, group_algebra as ga, quantum_system as qs
from mixedframes import thermal as th, verify
from mixedframes.cli import DEFAULTS

FAST = {**DEFAULTS, "grid_n": 256}


class FiguresOnRead(Mapping):
    """The figures ``run_checks`` builds from ``FAST``, built when a check first reads them:
    that check sees its defect in them, and a defect that breaks the figures (scaled channel
    weights) leaves the checks that never read them to report it."""

    @functools.cached_property
    def built(self):
        return {figure_id: figures.build_figure(figure_id, FAST) for figure_id in figures.FIGURE_IDS}

    def __getitem__(self, figure_id):
        return self.built[figure_id]

    def __iter__(self):
        return iter(self.built)

    def __len__(self):
        return len(self.built)


def run_check(name: str) -> list[verify.CheckResult]:
    """One check at the arguments that its rule in ``verify.CHECKS`` derives at ``--grid-n 256``."""
    return getattr(verify, name)(*dict(verify.CHECKS)[name](FAST, FiguresOnRead()))


@dataclass(frozen=True)
class Defect:
    check: str  # the verify function that must see the defect
    owner: object  # the module or class from which the check, or its callee, reads ``name``
    name: str
    what: str  # the defect in a few words, also the test id
    mutant: Callable  # the original function -> its defective replacement
    fails: frozenset[str]  # the rows that read fail


def _as_diracs(rho: ga.GroupDensity) -> ga.GroupDensity:
    """``rho`` with every Gaussian component collapsed to a point mass at its mean."""
    return ga.mix([(w, ga.make_delta(c.mean)) for w, c in rho.components])


def _weights_over_one(real):
    """convolve whose weights sum to 1 + 1e-13: inside WEIGHT_TOL, so the density is built."""

    def convolve(r1, r2):
        return ga.GroupDensity(tuple((w * (1.0 + 1e-13), c) for w, c in real(r1, r2).components))

    return convolve


def _witness_in_cycles(real):
    def is_invertible(rho, band, floor):
        verdict, witness = real(rho, band=band, floor=floor)
        return verdict, None if witness is None else witness / (2.0 * math.pi)

    return is_invertible


def _channel_with(**changes):
    """act_mixed whose output has ``changes(out)`` in place of each named field."""

    def mutant(real):
        def act_mixed(*args, **kwargs):
            out = real(*args, **kwargs)
            fields = {field: getattr(out, field) for field in out._fields}
            fields.update((field, change(out)) for field, change in changes.items())
            return qs.ChannelOutput(**fields)

        return act_mixed

    return mutant


def _overlap_free_purity(real):
    def purity(state):
        if isinstance(state, qs.ChannelOutput):
            return real(state)
        return math.fsum(w * w for w, _ in state.terms)

    return purity


def _kernel_squared(real):
    def comb(comp, order):
        nodes, weights = real(comp, order)
        return nodes, weights**2 / np.sum(weights**2)

    return comb


def _rolled_one_cell(real):
    def time_translate_diagonal(state, t0, tp):
        out = real(state, t0, tp)
        return th.MomentumMixture(out.grid, np.roll(out.weights, 1))

    return time_translate_diagonal


def _kinetic_energy_of_positions(real):
    def apply_h(self, amps):
        return (self.params.hbar * self._x) ** 2 / (2.0 * self.params.mass) * amps

    return apply_h


def _global_phase_flipped(real):
    def apply_boost_factored(v, psi, params):
        flip = np.exp(1j * params.time * params.mass * v * v / params.hbar)
        return qs.WaveFunction(psi.grid, real(v, psi, params).amplitudes * flip)

    return apply_boost_factored


def _label_phase_negated(real):
    def boost_pure_label(v, p, params):
        label = real(v, p, params)
        return galilei.MomentumEigenLabel(label.momentum, -label.phase)

    return boost_pure_label


DEFECTS = [
    Defect(
        "check_semigroup_laws", ga, "convolve", "weights-1e-13-over-one",
        _weights_over_one,
        frozenset({"semigroup_normalization_closure"}),
    ),
    Defect(
        "check_semigroup_laws", ga, "convolve", "locations-subtract",
        lambda real: lambda r1, r2: real(r1, ga.antipode(r2)),
        frozenset({
            "semigroup_associativity", "semigroup_commutativity", "semigroup_identity",
            "characteristic_morphism",
        }),
    ),
    Defect(
        # a conjugated chi still multiplies under convolution: only the Dirac phase row sees it
        "check_semigroup_laws", ga, "characteristic_function", "chi-conjugated",
        lambda real: lambda rho, p: np.conj(real(rho, p)),
        frozenset({"characteristic_dirac_phase"}),
    ),
    Defect(
        "check_semigroup_laws", ga, "antipode", "reflects-gaussians-to-points",
        lambda real: lambda rho: real(_as_diracs(rho)),
        frozenset({"antipode_involution"}),
    ),
    Defect(
        "check_antipode_inverse", ga, "antipode", "no-reflection",
        lambda real: lambda rho: rho,
        frozenset({"antipode_two_point_product", "antipode_inverts_iff_pure"}),
    ),
    Defect(
        "check_bialgebra_consistency", ga, "evaluate", "gaussians-read-at-their-mean",
        lambda real: lambda rho, f: real(_as_diracs(rho), f),
        frozenset({"bialgebra_double_integral"}),
    ),
    Defect(
        "check_bialgebra_consistency", ga, "evaluate", "density-reflected",
        lambda real: lambda rho, f: real(ga.antipode(rho), f),
        frozenset({"bialgebra_double_integral"}),
    ),
    Defect(
        "check_invertibility_classifier", ga, "is_invertible", "witness-in-cycles",
        _witness_in_cycles,
        frozenset({"invertibility_witness"}),
    ),
    Defect(
        "check_invertibility_classifier", ga, "is_pure", "every-density-pure",
        lambda real: lambda rho: True,
        frozenset({"invertibility_classifier", "invertibility_witness"}),
    ),
    Defect(
        "check_channel_density_convolution", qs, "act_mixed", "offsets-reflected",
        lambda real: lambda rho, *args: real(ga.antipode(rho), *args),
        frozenset({"channel_density_convolution"}),
    ),
    Defect(
        "check_purity_channel_law", qs, "purity", "terms-taken-orthogonal",
        _overlap_free_purity,
        frozenset({"purity_non_increase", "purity_delta_equality"}),
    ),
    Defect(
        "check_purity_dense_oracle", qs, "act_mixed", "chi-weights-reversed",
        _channel_with(offset_weights=lambda out: out.offset_weights[::-1]),
        frozenset({"purity_dense_oracle"}),
    ),
    Defect(
        "check_channel_composition", ga, "convolve", "variances-do-not-add",
        lambda real: lambda r1, r2: real(r1, _as_diracs(r2)),
        frozenset({"channel_composition"}),
    ),
    Defect(
        "check_state_normalization", qs, "act_mixed", "weights-1e-7-over-one",
        _channel_with(weights=lambda out: tuple(w * (1.0 + 1e-7) for w in out.weights)),
        frozenset({"state_normalization"}),
    ),
    Defect(
        "check_localization_inequality", qs, "_node_comb", "comb-at-half-the-variance",
        _kernel_squared,
        frozenset({"smear_variance_mixed", "smear_variance_pure"}),
    ),
    Defect(
        # the mixed side only: cubed Gaussian weights are a comb at a third of the variance
        "check_localization_inequality", qs, "act_mixed", "channel-weights-cubed",
        _channel_with(weights=lambda out: tuple(
            np.power(out.weights, 3) / np.sum(np.power(out.weights, 3)))),
        frozenset({"smear_variance_mixed", "localization_inequality"}),
    ),
    Defect(
        "check_figures", qs, "two_gaussian_superposition", "sign-ignored",
        lambda real: lambda grid, alpha, a2, sign=+1: real(grid, alpha, a2, +1),
        frozenset({
            "figure_a1a2diff_closed_form", "figure_a1a2diff_midpoint_zero",
            "figure_a1a2diff_midpoint_order",
        }),
    ),
    Defect(
        "check_figures", qs, "two_gaussian_superposition", "sign-inverted",
        lambda real: lambda grid, alpha, a2, sign=+1: real(grid, alpha, a2, -sign),
        frozenset({
            "figure_a1a2_closed_form", "figure_a1a2_midpoint_order",
            "figure_a1a2diff_closed_form", "figure_a1a2diff_midpoint_zero",
            "figure_a1a2diff_midpoint_order",
        }),
    ),
    Defect(
        "check_figures", qs, "_node_comb", "comb-at-half-the-variance",
        _kernel_squared,
        frozenset({"figure_smear_closed_form"}),
    ),
    Defect(
        "check_thermal_densities", th, "energy_smearing_density", "one-momentum-branch",
        lambda real: lambda tp, energies: real(tp, energies) / 2.0,
        frozenset({"thermal_energy_normalization", "thermal_measure_identity"}),
    ),
    Defect(
        "check_thermal_densities", th, "temperature_of_beta", "boltzmann-constant-dropped",
        lambda real: lambda beta, constants: real(beta, th.PhysicalConstants(constants.hbar, 1.0)),
        frozenset({"thermal_beta_round_trip"}),
    ),
    Defect(
        "check_thermal_densities", th, "maxwell_boltzmann_density", "temperature-read-as-beta",
        lambda real: lambda p, temperature, mass, constants: real(p, 1.0 / temperature, mass, constants),
        frozenset({"thermal_mb_dictionary"}),
    ),
    Defect(
        "check_thermal_invariance", th, "time_translate_diagonal", "weights-moved-one-cell",
        _rolled_one_cell,
        frozenset({"thermal_diagonal_invariance"}),
    ),
    Defect(
        "check_thermal_invariance", th, "grid_purity_proxy", "proxy-negated",
        lambda real: lambda state: -real(state),
        frozenset({"thermal_purity_monotonic"}),
    ),
    Defect(
        "check_galilei_operators", galilei.OperatorGrid, "apply_h", "kinetic-energy-without-half",
        lambda real: lambda self, amps: 2.0 * real(self, amps),
        frozenset({"galilei_brackets"}),
    ),
    Defect(
        "check_galilei_operators", galilei.OperatorGrid, "apply_p", "momentum-without-minus-i",
        lambda real: lambda self, amps: 1j * real(self, amps),
        frozenset({"galilei_hermiticity", "galilei_brackets"}),
    ),
    Defect(
        "check_galilei_operators", galilei.OperatorGrid, "apply_h", "kinetic-energy-of-positions",
        _kinetic_energy_of_positions,
        frozenset({"galilei_brackets", "galilei_p_h_commutes"}),
    ),
    Defect(
        "check_bch_sweep", galilei, "apply_boost_factored", "global-phase-sign-flipped",
        _global_phase_flipped,
        frozenset({"galilei_bch_sweep"}),
    ),
    Defect(
        "check_boost_label_phase", verify, "boost_pure_label", "label-phase-negated",
        _label_phase_negated,
        frozenset({"galilei_label_fringe_phase"}),
    ),
    Defect(
        "check_boost_label_phase", verify, "apply_boost_factored", "velocity-reversed",
        lambda real: lambda v, psi, params: real(-v, psi, params),
        frozenset({"galilei_label_fringe_phase", "galilei_label_momentum_shift"}),
    ),
    Defect(
        "check_thermal_boost", verify, "boost_mixed", "mass-ignored",
        lambda real: lambda rho, p, params, v_grid: real(
            rho, p, galilei.GalileiParams(1.0, params.time, params.hbar), v_grid
        ),
        frozenset({"galilei_thermal_boost"}),
    ),
    Defect(
        "check_thermal_boost", verify, "boost_mixed", "momentum-sign-flipped",
        lambda real: lambda rho, p, params, v_grid: real(rho, -p, params, v_grid),
        frozenset({"galilei_thermal_boost"}),
    ),
    Defect(
        "check_boost_composition", verify, "boost_mixed", "velocities-reflected",
        lambda real: lambda rho, *args: real(ga.antipode(rho), *args),
        frozenset({"galilei_boost_composition"}),
    ),
]


def test_every_check_function_is_in_the_table_once():
    functions = [name for name, _ in inspect.getmembers(verify, inspect.isfunction)]
    assert sorted(verify_checks()) == [name for name in functions if name.startswith("check_")]


def test_run_checks_calls_each_check_through_its_module_binding(monkeypatch):
    # every check patched to a stub: a table of function objects would call the real checks
    calls = []

    def stub(name):
        def check(*args):
            calls.append((name, args))
            return [verify.CheckResult(f"{name}_stub", "patched", 0.0, 0.0)]

        return check

    for name in verify_checks():
        monkeypatch.setattr(verify, name, stub(name))
    results, built = verify.run_checks(FAST)
    assert [r.name for r in results] == [f"{name}_stub" for name in verify_checks()]
    assert [name for name, _ in calls] == verify_checks()
    assert dict(calls)["check_figures"] == (FAST, built)


def test_every_check_has_a_defect():
    assert sorted({d.check for d in DEFECTS}) == sorted(verify_checks())


def test_every_row_is_failed_by_a_defect():
    report = (Path(__file__).parent / "fixtures" / "verify_report_256.csv").read_text()
    rows = {line.split(",")[0] for line in report.splitlines()[1:]}
    assert rows - set().union(*(d.fails for d in DEFECTS)) == set()


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: f"{d.check}-{d.what}")
def test_check_reports_its_defect(defect, monkeypatch):
    monkeypatch.setattr(defect.owner, defect.name, defect.mutant(getattr(defect.owner, defect.name)))
    rows = run_check(defect.check)
    assert {r.name for r in rows if not r.passed} == defect.fails
