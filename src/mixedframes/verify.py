"""Invariant and property suites behind the ``verify`` CLI command.

Each check runs one module invariant with a fixed seed, so two runs with
the same configuration produce byte-identical reports. A check records a
residual and a tolerance; it passes when residual <= tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from . import group_algebra as ga
from . import quantum_system as qs
from . import thermal as th
from .analytic import norm_pdf, superposition_density
from .errors import Frozen
from .figures import FIGURE_IDS, Artifact, build_figure
from .galilei import (
    GalileiParams,
    apply_boost_factored,
    bch_residual,
    boost_mixed,
    boost_pure_label,
    build_operators,
    commutator_residuals,
    momentum_bump,
    relative_boost_phase,
)

RNG_SEED = 20250811
SEMIGROUP_TRIALS = 200
PURITY_PAIRS = 100
DENSE_ORACLE_CASES = 10
NORMALIZATION_CASES = 20


class CheckResult(Frozen):
    """One report row: it passes when ``residual <= tolerance``."""

    def __init__(self, name: str, parameters: str, residual: float, tolerance: float) -> None:
        self._set(name, parameters, residual, tolerance)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _random_density(
    rng: np.random.Generator, max_terms=5, weight_floor=0.1, dirac_span=3.0, variances=(0.05, 2.0)
) -> ga.GroupDensity:
    """Mixture of one to ``max_terms`` components, each a Dirac or a Gaussian with even odds."""
    n = int(rng.integers(1, max_terms + 1))
    weights = rng.random(n) + weight_floor
    weights /= weights.sum()
    comps = []
    for w in weights:
        if rng.random() < 0.5:
            comps.append((float(w), ga.DiracComponent(float(rng.uniform(-dirac_span, dirac_span)))))
        else:
            mean = float(rng.uniform(-3.0, 3.0))
            comps.append((float(w), ga.GaussianComponent(mean, float(rng.uniform(*variances)))))
    return ga.GroupDensity(tuple(comps))


# ---------------------------------------------------------------------------
# group_algebra checks


def check_semigroup_laws() -> list[CheckResult]:
    rng = np.random.default_rng(RNG_SEED)
    norm_err = 0.0
    assoc = comm = ident = invol = 0.0
    chi_morphism = 0.0
    p_grid = np.linspace(-8.0, 8.0, 161)
    for _ in range(SEMIGROUP_TRIALS):
        r1 = _random_density(rng)
        r2 = _random_density(rng)
        r3 = _random_density(rng)
        prod = ga.convolve(r1, r2)
        mixed = ga.mix([(0.3, r1), (0.7, r2)])
        for rho in (prod, mixed, ga.antipode(r1)):
            norm_err = max(norm_err, abs(math.fsum(w for w, _ in rho.components) - 1.0))
        assoc = max(
            assoc, ga.density_gap(ga.convolve(prod, r3), ga.convolve(r1, ga.convolve(r2, r3)))
        )
        comm = max(comm, ga.density_gap(prod, ga.convolve(r2, r1)))
        ident = max(
            ident,
            ga.density_gap(ga.convolve(ga.make_delta(0.0), r1), r1),
            ga.density_gap(ga.convolve(r1, ga.make_delta(0.0)), r1),
        )
        invol = max(invol, ga.density_gap(ga.antipode(ga.antipode(r1)), r1))
        chi12, chi1, chi2 = (ga.characteristic_function(r, p_grid) for r in (prod, r1, r2))
        chi_morphism = max(chi_morphism, float(np.max(np.abs(chi12 - chi1 * chi2))))
    # chi of a point mass at a is exp(-i a p), where a conjugated chi reads up to 2
    dirac_phase = float(np.max(np.abs([ga.characteristic_function(ga.make_delta(a), p_grid)
                                       - np.exp(-1j * a * p_grid) for a in (0.7, -2.3, 3.1)])))
    trials = f"n={SEMIGROUP_TRIALS}"
    # a sum of at most 25 rounded weight products is within a few dozen ulps of one; the bound
    # sits below ga.WEIGHT_TOL, so a weight defect reads fail here before any density raises
    return [
        CheckResult("semigroup_normalization_closure", trials, norm_err, 1e-14),
        CheckResult("semigroup_associativity", trials, assoc, 1e-8),
        CheckResult("semigroup_commutativity", trials, comm, 1e-8),
        CheckResult("semigroup_identity", trials, ident, 1e-12),
        CheckResult("antipode_involution", trials, invol, 1e-12),
        CheckResult("characteristic_morphism", trials, chi_morphism, 1e-10),
        CheckResult("characteristic_dirac_phase", "a in {0.7 -2.3 3.1}", dirac_phase, 1e-14),
    ]


def check_antipode_inverse() -> list[CheckResult]:
    rng = np.random.default_rng(RNG_SEED + 1)
    a1, a2 = 0.0, 2.5
    two_point = ga.mix([(0.5, ga.make_delta(a1)), (0.5, ga.make_delta(a2))])
    expected = ga.GroupDensity(
        (
            (0.25, ga.DiracComponent(a1 - a2)),
            (0.5, ga.DiracComponent(0.0)),
            (0.25, ga.DiracComponent(a2 - a1)),
        )
    )
    three_term_gap = ga.density_gap(ga.convolve(two_point, ga.antipode(two_point)), expected)

    wrong = 0
    for _ in range(50):
        rho = _random_density(rng)
        product = ga.convolve(rho, ga.antipode(rho))
        inverts = ga.densities_close(product, ga.make_delta(0.0))
        if inverts != ga.is_pure(rho):
            wrong += 1
    return [
        CheckResult("antipode_two_point_product", "a1=0 a2=2.5", three_term_gap, 1e-12),
        CheckResult("antipode_inverts_iff_pure", "n=50", float(wrong), 0.5),
    ]


def check_bialgebra_consistency() -> list[CheckResult]:
    """evaluate(convolve(r1, r2), f) against the double integral over (a, a')."""
    # the sine is odd, so a density and its reflection read differently
    test_fns = [lambda a: math.cos(0.7 * a), lambda a: 1.0 / (1.0 + a * a), math.sin]
    pairs = [
        (
            ga.mix([(0.5, ga.make_delta(-0.4)), (0.5, ga.make_delta(1.3))]),
            ga.make_gaussian(0.5, 0.8),
        ),
        (
            ga.make_gaussian(-0.2, 0.3),
            ga.mix([(0.25, ga.make_delta(0.9)), (0.75, ga.make_gaussian(1.1, 0.6))]),
        ),
    ]
    worst = 0.0
    for r1, r2 in pairs:
        for f in test_fns:
            direct = ga.evaluate(ga.convolve(r1, r2), f)
            double = _double_integral(r1, r2, f)
            worst = max(worst, abs(direct - double))
    return [CheckResult("bialgebra_double_integral", "2 pairs x 3 fns", worst, 1e-8)]


def _double_integral(r1: ga.GroupDensity, r2: ga.GroupDensity, f) -> float:
    """Sum over component pairs of the integral of rho1(a) rho2(b) f(a + b)."""
    total = 0.0
    for w1, c1 in r1.components:
        for w2, c2 in r2.components:
            total += w1 * w2 * _expect(c1, lambda a: _expect(c2, lambda b: f(a + b)))
    return total


def _expect(c, g) -> float:
    """Integral of g against one component: g at a Dirac, else :func:`_legendre_panels`
    over mean +- 10 sd, a fixed rule independent of :func:`group_algebra.evaluate`'s."""
    if c.variance == 0.0:
        return g(c.mean)
    sd = math.sqrt(c.variance)
    return _legendre_panels(
        lambda a: np.array([g(t) for t in a.tolist()]) * norm_pdf(a, c.mean, c.variance),
        c.mean - 10.0 * sd, c.mean + 10.0 * sd,
    )


def _legendre_panels(g, lo: float, hi: float) -> float:
    """Composite Gauss-Legendre rule, 8 panels of 20 nodes, for ``g`` mapping an array of points."""
    t, w = ga._legendre_nodes(20)
    half = (hi - lo) / 16.0  # half a panel
    centers = lo + half * np.arange(1.0, 16.0, 2.0)
    return float(np.sum(g((centers[:, None] + half * t).ravel()) * np.tile(w, 8))) * half


def classifier_cases(rng: np.random.Generator) -> list[tuple[ga.GroupDensity, float, bool]]:
    """50 classifier cases: (density, band, expected verdict).

    The banded criterion can only flag non-invertibility when ``|chi|``
    actually crosses the floor inside the band, so the non-invertible cases
    are equal-weight Dirac pairs and lattices (exact zeros at pi/spacing and
    at the Dirichlet-kernel zeros) and all-Gaussian mixtures (decay below
    the floor at ~3.72/sigma, inside band = 10/sigma).
    """
    cases: list[tuple[ga.GroupDensity, float, bool]] = []
    for _ in range(10):
        cases.append((ga.make_delta(float(rng.uniform(-4.0, 4.0))), 10.0, True))
    for _ in range(12):
        spacing = float(rng.uniform(0.3, 4.0))
        start = float(rng.uniform(-2.0, 2.0))
        rho = ga.mix(
            [(0.5, ga.make_delta(start)), (0.5, ga.make_delta(start + spacing))]
        )
        cases.append((rho, 10.0 / spacing, False))
    for _ in range(8):
        n = int(rng.integers(3, 6))
        spacing = float(rng.uniform(0.4, 2.0))
        start = float(rng.uniform(-2.0, 2.0))
        rho = ga.mix(
            [(1.0 / n, ga.make_delta(start + i * spacing)) for i in range(n)]
        )
        cases.append((rho, 10.0 / spacing, False))
    for _ in range(20):
        n = int(rng.integers(1, 4))
        weights = rng.random(n) + 0.2
        weights /= weights.sum()
        comps = tuple(
            (
                float(w),
                ga.GaussianComponent(
                    float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.05, 2.0))
                ),
            )
            for w in weights
        )
        rho = ga.GroupDensity(comps)
        min_var = min(c.variance for _, c in rho.components)
        cases.append((rho, 10.0 / math.sqrt(min_var), False))
    return cases


def check_invertibility_classifier() -> list[CheckResult]:
    cases = classifier_cases(np.random.default_rng(RNG_SEED + 2))
    # kept as a False that a sampled test would miss: on 10,001 uniform samples of the band, |chi| =
    # |cos(a p / 2)| stays near 1, and its zeros at odd multiples of pi / a fall between them
    a = 2e3 * math.pi * (1.0 + 1e-5)
    cases.append((ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(a))]), 10.0, False))
    wrong = sum(ga.is_invertible(rho, band=band, floor=1e-3)[0] != want for rho, band, want in cases)

    witness_err = 0.0
    for a2 in (0.8, 1.7, 2.5, 3.6):
        rho = ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(a2))])
        verdict, witness = ga.is_invertible(rho, band=10.0 / a2 * 4.0, floor=1e-3)
        if verdict or witness is None:
            witness_err = math.inf
        else:
            witness_err = max(witness_err, abs(abs(witness) - math.pi / a2))
    return [
        CheckResult("invertibility_classifier", f"n={len(cases)}", float(wrong), 0.5),
        CheckResult("invertibility_witness", "two-point sweep", witness_err, 1e-6),
    ]


# ---------------------------------------------------------------------------
# quantum_system checks


def _random_state(rng: np.random.Generator, grid: qs.PositionGrid) -> qs.PureMixture:
    n = int(rng.integers(1, 4))  # one to three packets
    weights = rng.random(n) + 0.2
    weights /= weights.sum()
    terms = []
    for w in weights:
        alpha = float(rng.uniform(0.3, 1.2))
        center = float(rng.uniform(-3.0, 3.0))
        terms.append((float(w), qs.gaussian_wavepacket(grid, alpha, center)))
    return qs.PureMixture(grid, tuple(terms))


def _smeared_output(
    rng: np.random.Generator, grid: qs.PositionGrid
) -> tuple[qs.PureMixture, qs.ChannelOutput]:
    """A random state and its channel output under a narrow random smearing, at 24 nodes."""
    state = _random_state(rng, grid)
    rho = _random_density(rng, 3, 0.2, 4.0, (0.04, 1.0))
    return state, qs.act_mixed(rho, state, quad_order=24)


def check_channel_density_convolution(grid_n: int) -> list[CheckResult]:
    """Channel output density equals (reflected rho) convolved with |psi|^2."""
    grid = qs.PositionGrid(grid_n, 40.0)
    dx = grid.spacing
    psi = qs.gaussian_wavepacket(grid, 0.8, 0.3)
    base = qs.position_density(qs.pure_state(psi)).values
    cases = [
        ga.mix([(0.5, ga.make_delta(-32 * dx)), (0.5, ga.make_delta(64 * dx))]),
        ga.make_gaussian(0.5, 0.49),
        ga.mix([(0.25, ga.make_delta(16 * dx)), (0.75, ga.make_gaussian(-0.4, 0.36))]),
    ]
    worst = 0.0
    for rho in cases:
        channel = qs.position_density(qs.act_mixed(rho, qs.pure_state(psi), 64)).values
        kernel = ga.sample_on_grid(ga.antipode(rho), grid.points())
        oracle = np.real(np.fft.ifft(np.fft.fft(base) * np.fft.fft(np.fft.ifftshift(kernel)))) * dx
        worst = max(worst, float(np.max(np.abs(channel - oracle))))
    return [CheckResult("channel_density_convolution", f"grid_n={grid_n}", worst, 1e-6)]


def check_purity_channel_law() -> list[CheckResult]:
    rng = np.random.default_rng(RNG_SEED + 3)
    grid = qs.PositionGrid(512, 40.0)
    worst_increase = -math.inf
    for _ in range(PURITY_PAIRS):
        state, out = _smeared_output(rng, grid)
        worst_increase = max(worst_increase, qs.purity(out) - qs.purity(state))

    delta_gap = 0.0
    for _ in range(20):
        state = _random_state(rng, grid)
        rho = ga.make_delta(float(rng.uniform(-4.0, 4.0)))
        delta_gap = max(
            delta_gap, abs(qs.purity(qs.act_mixed(rho, state, 24)) - qs.purity(state))
        )
    return [
        CheckResult("purity_non_increase", f"n={PURITY_PAIRS}", worst_increase, 1e-9),
        CheckResult("purity_delta_equality", "n=20", delta_gap, 1e-10),
    ]


def check_purity_dense_oracle() -> list[CheckResult]:
    """purity against Tr rho^2 of the dense n x n matrix, for a random state and
    for its channel output (the dephasing path of purity) in each case."""
    rng = np.random.default_rng(RNG_SEED + 4)
    grid = qs.PositionGrid(256, 40.0)
    worst = 0.0
    for _ in range(DENSE_ORACLE_CASES):
        for mixture in _smeared_output(rng, grid):
            amps = np.stack([psi.amplitudes for _, psi in mixture.terms])
            weights = np.array([w for w, _ in mixture.terms])
            rho_matrix = (amps.T * weights) @ amps.conj() * grid.spacing
            dense = float(np.real(np.trace(rho_matrix @ rho_matrix)))
            worst = max(worst, abs(qs.purity(mixture) - dense))
    return [
        CheckResult(
            "purity_dense_oracle", f"n={DENSE_ORACLE_CASES} grid_n=256 with channel", worst, 1e-8
        )
    ]


def check_channel_composition() -> list[CheckResult]:
    grid = qs.PositionGrid(1024, 40.0)
    psi = qs.gaussian_wavepacket(grid, 0.7)
    state = qs.pure_state(psi)
    r1 = ga.mix([(0.4, ga.make_delta(0.6)), (0.6, ga.make_gaussian(-0.3, 0.25))])
    r2 = ga.mix([(0.5, ga.make_delta(-1.1)), (0.5, ga.make_gaussian(0.8, 0.16))])
    sequential = qs.position_density(qs.act_mixed(r1, qs.act_mixed(r2, state, 48), 48))
    combined = qs.position_density(qs.act_mixed(ga.convolve(r1, r2), state, 48))
    sup, _ = qs.density_distance(sequential, combined)
    return [CheckResult("channel_composition", "two mixed smearings", sup, 1e-6)]


def check_state_normalization() -> list[CheckResult]:
    rng = np.random.default_rng(RNG_SEED + 5)
    grid = qs.PositionGrid(512, 40.0)
    worst = 0.0
    for _ in range(NORMALIZATION_CASES):
        _, out = _smeared_output(rng, grid)
        # from the raw rows: the checked densities would raise before a defect reads fail
        squares = [grid.integrate(np.abs(row) ** 2) for row in out._rows()]
        integral = math.fsum(w * sq for w, sq in zip(out.weights, squares, strict=True))
        worst = max(worst, abs(math.fsum(out.weights) - 1.0), abs(integral - 1.0),
                    *(abs(math.sqrt(sq) - 1.0) for sq in squares))
    return [CheckResult("state_normalization", f"n={NORMALIZATION_CASES}", worst, 1e-8)]


def check_localization_inequality(grid_n: int, quad_order: int) -> list[CheckResult]:
    grid = qs.PositionGrid(grid_n, 40.0)
    var_mixed_err = 0.0
    var_pure_err = 0.0
    inequality_margin = -math.inf
    for sigma in (0.5, 0.75, 1.0, 2.0):
        for alpha in (0.5, 0.75, 1.0, 2.0):
            packet = qs.gaussian_wavepacket(grid, alpha)
            mixed, coherent = qs.smeared_pair(ga.GaussianComponent(0.0, sigma**2), packet, quad_order)
            pure = qs.position_density(qs.pure_state(coherent))
            v_mixed = qs.density_variance(mixed)
            v_pure = qs.density_variance(pure)
            var_mixed_err = max(var_mixed_err, abs(v_mixed - (sigma**2 + alpha**2)))
            var_pure_err = max(var_pure_err, abs(v_pure - (sigma**2 + 2.0 * alpha**2) / 2.0))
            inequality_margin = max(inequality_margin, v_pure - v_mixed)
    sweep = "sigma and alpha in {0.5 0.75 1 2}"
    return [
        CheckResult("smear_variance_mixed", sweep, var_mixed_err, 1e-6),
        CheckResult("smear_variance_pure", sweep, var_pure_err, 1e-6),
        CheckResult("localization_inequality", sweep, inequality_margin, 0.0),
    ]


def check_figures(params: dict, figures: dict[str, Artifact]) -> list[CheckResult]:
    alpha, a2 = params["alpha"], params["a2"]
    pair = f"alpha={alpha} a2={a2}"
    closed_form = {
        figure_id: max(fig.metadata["sup_error_mixed"], fig.metadata["sup_error_pure"])
        for figure_id, fig in figures.items()
    }
    fig1 = figures["a1a2"].metadata
    fig2 = figures["a1a2diff"].metadata
    # midpoint_x is the grid point nearest a2/2; the pure density vanishes only at a2/2 itself
    node = superposition_density(fig2["midpoint_x"], alpha, a2, -1)
    smear = f"alpha={alpha} sigma={params['sigma']} a0={params['a0']}"
    return [
        CheckResult("figure_a1a2_closed_form", pair, closed_form["a1a2"], 1e-6),
        CheckResult(
            "figure_a1a2_midpoint_order",
            "mixed below pure sum",
            fig1["midpoint_mixed"] - fig1["midpoint_pure"],
            0.0,
        ),
        CheckResult("figure_a1a2diff_closed_form", pair, closed_form["a1a2diff"], 1e-6),
        CheckResult(
            "figure_a1a2diff_midpoint_zero",
            "pure difference at x=a2/2",
            abs(fig2["midpoint_pure"] - float(node)),
            1e-10,
        ),
        CheckResult(
            "figure_a1a2diff_midpoint_order",
            "pure diff below mixed",
            fig2["midpoint_pure"] - fig2["midpoint_mixed"],
            0.0,
        ),
        CheckResult("figure_smear_closed_form", smear, closed_form["gaussian-smear"], 1e-6),
    ]


# ---------------------------------------------------------------------------
# thermal checks


def _thermal_parameter_sets() -> list[th.ThermalParameters]:
    natural = th.PhysicalConstants()
    odd_units = th.PhysicalConstants(hbar=0.7, k_boltzmann=1.3)
    return [
        th.ThermalParameters(1.0, 1.0, natural),
        th.ThermalParameters(0.35, 2.2, natural),
        th.ThermalParameters(2.8, 0.6, odd_units),
    ]


def check_thermal_densities() -> list[CheckResult]:
    norm_err = 0.0
    for tp in _thermal_parameter_sets():
        # substitute u = sqrt(E): the transformed integrand is smooth at zero, and the
        # Gauss-Legendre nodes are interior, so the density is never asked for E = 0
        integrand = lambda u: 2.0 * u * th.energy_smearing_density(tp, u * u)
        upper = 8.0 * math.sqrt(tp.constants.hbar / tp.beta)
        norm_err = max(norm_err, abs(_legendre_panels(integrand, 0.0, upper) - 1.0))

    mb_err = 0.0
    constants = th.PhysicalConstants()
    p = np.linspace(-12.0, 12.0, 2001)
    for temperature in (0.1, 1.0, 10.0):
        tp = th.ThermalParameters(th.beta_of_temperature(temperature, constants), 1.0, constants)
        smeared = th.momentum_smearing_density(tp, p)
        mb = th.maxwell_boltzmann_density(p, temperature, 1.0, constants)
        scale = np.maximum(np.abs(mb), 1e-280)
        mb_err = max(mb_err, float(np.max(np.abs(smeared - mb) / scale)))

    measure_err = max(th.energy_momentum_consistency(tp) for tp in _thermal_parameter_sets())

    round_trip = 0.0
    for constants in (th.PhysicalConstants(), th.PhysicalConstants(0.7, 1.3)):
        for temperature in (0.1, 1.0, 10.0):
            beta = th.beta_of_temperature(temperature, constants)
            round_trip = max(
                round_trip, abs(th.temperature_of_beta(beta, constants) - temperature)
            )
    return [
        CheckResult("thermal_energy_normalization", "3 parameter sets", norm_err, 1e-8),
        CheckResult("thermal_mb_dictionary", "T in {0.1 1 10}", mb_err, 1e-12),
        CheckResult("thermal_measure_identity", "3 parameter sets", measure_err, 1e-10),
        CheckResult("thermal_beta_round_trip", "both unit systems", round_trip, 1e-14),
    ]


def check_thermal_invariance() -> list[CheckResult]:
    tp = th.ThermalParameters(1.3, 0.9)
    grid = th.MomentumGrid(801, 8.0 * math.sqrt(tp.momentum_variance))
    state = th.thermal_state(tp, grid)
    worst = 0.0
    for t0 in (0.0, 0.4, -2.7, 11.0):
        shifted = th.time_translate_diagonal(state, t0, tp)
        worst = max(worst, float(np.max(np.abs(shifted.weights - state.weights))))
        back = th.time_translate_diagonal(shifted, -t0, tp)
        worst = max(worst, float(np.max(np.abs(back.weights - state.weights))))

    betas = np.linspace(0.4, 4.0, 10)
    proxies = []
    for beta in betas:
        tp_b = th.ThermalParameters(float(beta), 1.0)
        grid_b = th.MomentumGrid(801, 8.0 * math.sqrt(tp_b.momentum_variance))
        proxies.append(th.grid_purity_proxy(th.thermal_state(tp_b, grid_b)))
    monotone_violation = max(0.0, -min(np.diff(proxies)))
    return [
        CheckResult("thermal_diagonal_invariance", "t0 sweep", worst, 1e-15),
        CheckResult("thermal_purity_monotonic", "beta from 0.4 to 4", monotone_violation, 0.0),
    ]


# ---------------------------------------------------------------------------
# galilei checks


def check_galilei_operators(grid_n: int) -> list[CheckResult]:
    grid = qs.PositionGrid(grid_n, 40.0)
    params = GalileiParams(mass=1.0, time=0.5, hbar=1.0)
    ops = build_operators(grid, params)
    herm = max(ops.hermiticity_residuals().values())
    states = [
        qs.gaussian_wavepacket(grid, 1.0),
        qs.gaussian_wavepacket(grid, 0.6, 1.5),
        qs.gaussian_wavepacket(grid, 1.4, -2.0),
    ]
    residuals = commutator_residuals(ops, states)
    bracket_worst = max(residuals["x_p"], residuals["k_p"], residuals["k_h"], residuals["m_k"])
    return [
        CheckResult("galilei_hermiticity", f"grid_n={grid_n}", herm, 1e-10),
        CheckResult("galilei_brackets", f"grid_n={grid_n}", bracket_worst, 1e-6),
        CheckResult("galilei_p_h_commutes", f"grid_n={grid_n}", residuals["p_h"], 1e-12),
    ]


def check_bch_sweep(grid_n: int) -> list[CheckResult]:
    grid = qs.PositionGrid(grid_n, 40.0)
    psi = qs.gaussian_wavepacket(grid, 1.0)
    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        for time in (0.0, 0.5, 1.0):
            params = GalileiParams(mass=mass, time=time, hbar=1.0)
            ops = build_operators(grid, params)
            for v in (-2.0, -1.0, 0.3, 1.2):
                worst = max(worst, bch_residual(v, psi, ops))
    return [
        CheckResult(
            "galilei_bch_sweep", f"grid_n={grid_n} 36 parameter triples", worst, 1e-6
        )
    ]


def check_boost_label_phase(grid_n: int) -> list[CheckResult]:
    """Fringe test: the phase difference between two boosted momentum modes."""
    grid = qs.PositionGrid(grid_n, 40.0)
    params = GalileiParams(mass=1.0, time=0.7, hbar=1.0)
    dk = 2.0 * math.pi / grid.extent
    p_a, p_b = 16 * dk, -10 * dk
    v = 24 * dk / params.mass  # momentum shift lands exactly on the grid
    bump_a = momentum_bump(grid, p_a, params)
    bump_b = momentum_bump(grid, p_b, params)
    psi = qs._normalized(grid, bump_a.amplitudes + bump_b.amplitudes)
    boosted = apply_boost_factored(v, psi, params)

    shift = params.mass * v
    phi_a = relative_boost_phase(psi, boosted, p_a, p_a + shift, params)
    phi_b = relative_boost_phase(psi, boosted, p_b, p_b + shift, params)
    label_a = boost_pure_label(v, p_a, params)
    label_b = boost_pure_label(v, p_b, params)
    gap = ((phi_a - phi_b) - (label_a.phase - label_b.phase) + math.pi) % (2.0 * math.pi) - math.pi

    # boosted bump recenters at p + m v
    k = grid.wavenumbers()
    spectrum = np.abs(np.fft.fft(apply_boost_factored(v, bump_a, params).amplitudes))
    center_err = abs(k[int(np.argmax(spectrum))] * params.hbar - (p_a + shift))
    return [
        CheckResult("galilei_label_fringe_phase", f"grid_n={grid_n}", abs(gap), 1e-4),
        CheckResult("galilei_label_momentum_shift", f"grid_n={grid_n}", center_err, 1e-9),
    ]


def check_thermal_boost() -> list[CheckResult]:
    temperature, mass = 1.4, 0.8
    constants = th.PhysicalConstants()
    tp = th.ThermalParameters(th.beta_of_temperature(temperature, constants), mass, constants)
    params = GalileiParams(mass=mass, time=0.0, hbar=constants.hbar)
    sd_p = math.sqrt(tp.momentum_variance)
    grid = th.MomentumGrid(2001, 8.5 * sd_p)
    reference = th.thermal_state(tp, grid)

    v0 = 1.9
    p0 = -mass * v0  # p + m v0 = 0
    rho = ga.make_gaussian(v0, constants.k_boltzmann * temperature / mass)
    v_grid = (grid.points() - p0) / mass
    boosted = boost_mixed(rho, p0, params, v_grid)
    # the momenta too: a boost onto the wrong momenta can keep every weight
    points_gap = float(np.max(np.abs(boosted.grid.points() - grid.points())))
    gap = max(float(np.max(np.abs(boosted.weights - reference.weights))), points_gap)
    return [CheckResult("galilei_thermal_boost", "p+m*v0=0", gap, 1e-9)]


def check_boost_composition() -> list[CheckResult]:
    mass = 1.3
    params = GalileiParams(mass=mass, time=0.0, hbar=1.0)
    r1 = ga.mix([(0.6, ga.make_gaussian(0.4, 0.09)), (0.4, ga.make_gaussian(-0.2, 0.25))])
    r2 = ga.make_gaussian(0.1, 0.16)
    p0 = 0.5
    v_grid = np.linspace(-6.0, 6.0, 4001)
    dv = v_grid[1] - v_grid[0]
    dq = mass * dv

    combined = boost_mixed(ga.convolve(r1, r2), p0, params, v_grid)
    first = boost_mixed(r2, p0, params, v_grid)
    # push the intermediate diagonal state through the second boost on the grid
    taps_j = np.arange(-(v_grid.size // 2), v_grid.size // 2 + 1)
    taps = np.zeros_like(taps_j, dtype=float)
    for w, comp in r1.components:
        taps += (w / mass) * norm_pdf(taps_j * dq / mass, comp.mean, comp.variance)
    sequential = np.convolve(first.weights, taps, mode="same") * dq
    sequential /= float(np.sum(sequential)) * dq
    gap = float(np.max(np.abs(sequential - combined.weights)))
    return [CheckResult("galilei_boost_composition", "two gaussian boosts", gap, 1e-8)]


# ---------------------------------------------------------------------------
# suite runner


def _no_arguments(params: dict, figures: dict) -> tuple:
    return ()


def _galilei_n(params: dict, figures: dict) -> tuple[int]:
    """The dense Galilei checks' size: a quarter of the grid, kept within [256, 1024]."""
    return (min(max(params["grid_n"] // 4, 256), 1024),)


# Every check in report order, by name, with the rule that derives its arguments from the
# CLI parameters and the figures built from them. run_checks looks each name up in this
# module when it calls it, so a rebinding of ``verify.check_*`` takes effect.
CHECKS = (
    ("check_semigroup_laws", _no_arguments),
    ("check_antipode_inverse", _no_arguments),
    ("check_bialgebra_consistency", _no_arguments),
    ("check_invertibility_classifier", _no_arguments),
    ("check_channel_density_convolution", lambda params, figures: (min(params["grid_n"], 1024),)),
    ("check_purity_channel_law", _no_arguments),
    ("check_purity_dense_oracle", _no_arguments),
    ("check_channel_composition", _no_arguments),
    ("check_state_normalization", _no_arguments),
    ("check_localization_inequality", lambda params, figures: (params["grid_n"], params["quad_order"])),
    ("check_figures", lambda params, figures: (params, figures)),
    ("check_thermal_densities", _no_arguments),
    ("check_thermal_invariance", _no_arguments),
    ("check_galilei_operators", _galilei_n),
    ("check_bch_sweep", _galilei_n),
    ("check_boost_label_phase", _galilei_n),
    ("check_thermal_boost", _no_arguments),
    ("check_boost_composition", _no_arguments),
)


def run_checks(params: dict) -> tuple[list[CheckResult], dict[str, Artifact]]:
    """Run every check of :data:`CHECKS` in order, each row at the tolerance its check states.

    Returns the results and the figures built first from ``params``, the CLI's
    effective parameters, so the caller writes what :func:`check_figures` judged.
    """
    figures = {figure_id: build_figure(figure_id, params) for figure_id in FIGURE_IDS}
    results = [row for name, rule in CHECKS for row in globals()[name](*rule(params, figures))]
    return results, figures
