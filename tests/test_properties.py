"""Property-based tests of the component merge, the semigroup laws, the
invertibility scan, the channel's purity law, the periodic quadrature, the
boost exponential, the scalar input checks, CSV formatting, the state and
thermal builders at extreme scalars, the boost series' Bessel table, and the
command line."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar
from scipy.special import jv

from mixedframes import group_algebra as ga, quantum_system as qs
from mixedframes.cli import DEFAULTS, main
from mixedframes.errors import DomainError, finite, positive
from mixedframes.figures import DEMO_IDS, FIGURE_IDS
from mixedframes.galilei import (
    GalileiParams,
    _bessel_coefficients,
    apply_boost_exponential,
    apply_boost_factored,
    build_operators,
)
from mixedframes.quantum_system import (
    PositionGrid,
    PureMixture,
    WaveFunction,
    act_mixed,
    gaussian_wavepacket,
    position_density,
    pure_state,
    purity,
    translate,
    two_gaussian_superposition,
)
from mixedframes.textio import columns_csv, csv_table, fmt
from mixedframes.thermal import (
    MomentumGrid,
    PhysicalConstants,
    ThermalParameters,
    beta_of_temperature,
    maxwell_boltzmann_density,
    momentum_smearing_density,
    temperature_of_beta,
    thermal_state,
)

# Near-tie scale: far below density_gap's default tolerance, far above the
# rounding of the parameters, so near-ties stay apart in the canonical form
# and are matched by the comparison.
TOL = 1e-12
# the largest gap a law may show: rounding of sums and means, no more
LAW_GAP = 1e-14

# Each cluster holds components at two positions: a base point and one that
# differs from it by a near-tie offset in location/mean or in variance.
# Bases lie far apart.
BASES = (-2.5, -0.75, 0.0, 1.25, 3.0)
OFFSETS = st.just(0.0) | st.floats(0.5 * TOL, 1.5 * TOL) | st.just(3.0 * TOL)

cluster = st.tuples(
    st.sampled_from(BASES),
    st.sampled_from(("dirac", "gauss_mean", "gauss_var")),
    st.sampled_from((0.09, 0.5, 1.7)),
    OFFSETS,
    st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans()), min_size=1, max_size=4),
)


@st.composite
def components(draw):
    # at most one Dirac and one Gaussian cluster per base
    clusters = draw(
        st.lists(cluster, min_size=1, max_size=5, unique_by=lambda c: (c[0], c[1] == "dirac"))
    )
    raw = []
    for base, kind, var, offset, members in clusters:
        for w, shifted in members:
            d = offset if shifted else 0.0
            if kind == "dirac":
                comp = ga.DiracComponent(base + d)
            elif kind == "gauss_mean":
                comp = ga.GaussianComponent(base + d, var)
            else:
                comp = ga.GaussianComponent(base, var + d)
            raw.append((w, comp))
    total = math.fsum(w for w, _ in raw)
    return [(w / total, comp) for w, comp in raw]


densities = components().map(lambda comps: ga.GroupDensity(tuple(comps)))


def _canonical(pairs):
    """``ga._canonical`` of ``(weight, component)`` pairs, fed as ``(weight, mean, variance)``."""
    return ga._canonical((w, c.mean, c.variance) for w, c in pairs)


@settings(max_examples=100, deadline=None)
@given(components(), st.randoms(use_true_random=False))
def test_canonical_ignores_input_order(comps, rnd):
    shuffled = list(comps)
    rnd.shuffle(shuffled)
    a = ga.GroupDensity(_canonical(comps))
    b = ga.GroupDensity(_canonical(shuffled))
    # equal keys may be summed in another order, which moves the last bits only
    assert ga.density_gap(a, b) <= LAW_GAP


# Equal values whose weighted average (w1 a + w2 a) / (w1 + w2) rounds away
# from a: a merge that averages parameters would leave sorted order here.
DRIFT = [
    (0.046511627906976744, ga.DiracComponent(-2.5)),
    (0.18604651162790697, ga.GaussianComponent(-2.5, 0.09 + 1.01 * TOL)),
    (0.023255813953488372, ga.GaussianComponent(-2.5, 0.09)),
    (0.37209302325581395, ga.GaussianComponent(-2.5, 0.09)),
    (0.37209302325581395, ga.GaussianComponent(-2.5, 0.09)),
]


@settings(max_examples=100, deadline=None)
@given(components())
@example(DRIFT)
def test_canonical_is_idempotent(comps):
    once = _canonical(comps)
    assert _canonical(once) == once


@settings(max_examples=100, deadline=None)
@given(components())
def test_canonical_preserves_total_weight(comps):
    out = _canonical(comps)
    total = math.fsum(w for w, _ in comps)
    assert math.fsum(w for w, _ in out) == pytest.approx(total, abs=1e-14)
    assert len(out) <= len(comps)


def test_canonical_merges_identical_components_only():
    near = [(0.5, ga.DiracComponent(1.0)), (0.5, ga.DiracComponent(1.0 + 0.99 * TOL))]
    assert len(_canonical(near)) == 2
    same = [(0.5, ga.DiracComponent(1.0)), (0.5, ga.DiracComponent(1.0))]
    assert _canonical(same) == ((1.0, ga.DiracComponent(1.0)),)
    signed_zeros = [(0.5, ga.DiracComponent(-0.0)), (0.5, ga.DiracComponent(0.0))]
    assert _canonical(signed_zeros) == ((1.0, ga.DiracComponent(0.0)),)


def _dens(*pairs):
    return ga.GroupDensity(tuple((w, ga.DiracComponent(a)) for w, a in pairs))


# antipode merges its input before the product does: a tolerant merge split
# these near-ties differently on the two sides
NEAR_TIE_PAIR = (_dens((0.5, 0.0), (0.5, 5e-13)), _dens((2 / 3, 0.0), (1 / 3, 9.9e-13)))
# (r1*r2)*r3 keeps 0.6 and 0.6000000000000001 apart, r1*(r2*r3) has one 0.6
ROUNDED_APART = (_dens((0.5, 0.0), (0.5, 0.1)), _dens((0.5, 0.2), (0.5, 0.3)), ga.make_delta(0.3))

law_settings = settings(max_examples=100, deadline=None)


@law_settings
@given(densities, densities, densities)
@example(*ROUNDED_APART)
def test_convolution_is_associative(a, b, c):
    left = ga.convolve(ga.convolve(a, b), c)
    assert ga.density_gap(left, ga.convolve(a, ga.convolve(b, c))) <= LAW_GAP


@law_settings
@given(densities, densities)
def test_convolution_is_commutative(a, b):
    assert ga.density_gap(ga.convolve(a, b), ga.convolve(b, a)) <= LAW_GAP


@law_settings
@given(densities)
def test_delta_zero_is_the_identity(a):
    identity = ga.make_delta(0.0)
    assert ga.density_gap(ga.convolve(identity, a), a) <= LAW_GAP
    assert ga.density_gap(ga.convolve(a, identity), a) <= LAW_GAP


@law_settings
@given(densities, densities)
@example(*NEAR_TIE_PAIR)
def test_antipode_is_a_morphism(a, b):
    left = ga.antipode(ga.convolve(a, b))
    assert ga.density_gap(left, ga.convolve(ga.antipode(a), ga.antipode(b))) <= LAW_GAP


@law_settings
@given(densities, densities)
def test_density_gap_is_zero_on_the_diagonal_and_symmetric(a, b):
    assert ga.density_gap(a, a) == 0.0
    assert ga.density_gap(a, b) == ga.density_gap(b, a)


@law_settings
@given(densities, densities, st.floats(-10.0, 10.0))
def test_density_gap_is_covariant_under_antipode_and_shift(a, b, t):
    gap = ga.density_gap(a, b)
    assert abs(ga.density_gap(ga.antipode(a), ga.antipode(b)) - gap) <= LAW_GAP
    shift = ga.make_delta(t)
    assert abs(ga.density_gap(ga.convolve(a, shift), ga.convolve(b, shift)) - gap) <= LAW_GAP


PURITY_GRID = PositionGrid(256, 40.0)
packets = st.tuples(st.floats(0.2, 1.0), st.floats(0.3, 1.2), st.floats(-3.0, 3.0))
smearing_components = st.builds(ga.DiracComponent, st.floats(-4.0, 4.0)) | st.builds(
    ga.GaussianComponent, st.floats(-3.0, 3.0), st.floats(0.04, 1.0)
)


def _normalize(weighted):
    total = math.fsum(w for w, _ in weighted)
    return tuple((w / total, item) for w, item in weighted)


@st.composite
def scanned_densities(draw):
    """A band up to 1e6 and a Dirac/Gaussian mixture whose |chi| the scan resolves.

    Locations lie on a lattice of spacing ``unit``, so the phase moves at most
    0.015 rad per scan step and |chi| has slope at most 1.5; variances put the
    Gaussian decay at p = band between exp(-0.005) and exp(-25).
    """
    band = 10.0 ** draw(st.floats(-1.0, 6.0))
    unit = min(draw(st.floats(1.0, 50.0)) / band, 0.5)
    raw = []
    for _ in range(draw(st.integers(2, 4))):
        location = unit * draw(st.integers(-3, 3))
        if draw(st.booleans()):
            comp = ga.DiracComponent(location)
        else:
            comp = ga.GaussianComponent(location, draw(st.floats(1e-2, 50.0)) / band**2)
        raw.append((draw(st.floats(0.05, 1.0)), comp))
    total = math.fsum(w for w, _ in raw)
    return band, ga.GroupDensity(tuple((w / total, c) for w, c in raw))


def _nested_rescan(f, a, b, points=65, levels=12):
    """Least f on [a, b]: each level samples ``points`` points and keeps the
    two cells around the least, so the bracket shrinks 32-fold per level."""
    best = np.inf
    for _ in range(levels):
        p = np.linspace(a, b, points)
        vals = f(p)
        j = int(np.argmin(vals))
        best = min(best, vals[j])
        a, b = p[max(j - 1, 0)], p[min(j + 1, points - 1)]
    return best


def _symmetric_scan_minimum(rho, band):
    """Reference min |chi| over |p| <= band: a SCAN_POINTS scan of [-band, band],
    then per local minimum of the scan one bounded Brent search (scipy) and a
    nested dense rescan of the same bracket. Brent stops once its bracket is
    below sqrt(eps)*|p|, which leaves |chi| near 1e-9 beside a simple zero;
    the rescan resolves the bracket down to a few ulps of p."""

    def abs2(p):
        return np.abs(ga.characteristic_function(rho, p)) ** 2

    grid = np.linspace(-band, band, ga.SCAN_POINTS)
    vals = abs2(grid)
    best = min(vals[0], vals[-1])
    for i in np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1:
        res = minimize_scalar(lambda p: float(abs2(p)), bounds=(grid[i - 1], grid[i + 1]),
                              method="bounded", options={"xatol": 1e-10})
        best = min(best, res.fun, _nested_rescan(abs2, grid[i - 1], grid[i + 1]))
    return math.sqrt(max(best, 0.0))


# Brent alone stopped at |chi| = 1.64e-9 here, the golden section at 3.0e-13
BRENT_SHORT_OF_A_ZERO = (
    10.0,
    ga.GroupDensity((
        (1 / 3, ga.DiracComponent(0.30000000000000004)),
        (1 / 3, ga.DiracComponent(-0.30000000000000004)),
        (1 / 3, ga.GaussianComponent(0.0, 0.01)),
    )),
)


@settings(max_examples=100, deadline=None)
@given(scanned_densities(), st.floats(1e-3, 0.999))
@example(BRENT_SHORT_OF_A_ZERO, 0.5)
def test_golden_section_scan_matches_the_brent_reference(case, floor):
    band, rho = case
    assume(not ga.is_pure(rho))
    verdict, witness = ga.is_invertible(rho, band, floor)  # returning guards the stopping rule
    least, _ = ga._min_modulus(rho, band)
    reference = _symmetric_scan_minimum(rho, band)
    assert abs(least - reference) <= 1e-9
    if abs(reference - floor) > 1e-9:
        assert verdict == (reference >= floor)
    assert 0.0 <= witness <= band
    assert abs(abs(ga.characteristic_function(rho, witness)) - least) <= 1e-9


@st.composite
def rotation_cases(draw):
    """A band from 1e-3 to 1e301 and one to six components whose phases reach
    |mean| * band up to 1e4. Gaussian variances from 1e-300 to 1e3 put the decay
    anywhere from none to underflow, and past a band of 1.3e154 p * p overflows
    under every Dirac."""
    band = 10.0 ** draw(st.floats(-3.0, 301.0))
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        mean = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-2.0, 4.0)) / band
        if draw(st.booleans()):
            comp = ga.DiracComponent(mean)
        else:
            comp = ga.GaussianComponent(mean, 10.0 ** draw(st.floats(-300.0, 3.0)))
        raw.append((draw(st.floats(0.05, 1.0)), comp))
    total = math.fsum(w for w, _ in raw)
    return band, ga.GroupDensity(tuple((w / total, c) for w, c in raw))


@settings(max_examples=200, deadline=None)
@given(rotation_cases())
@example((1e301, ga.GroupDensity(((0.5, ga.DiracComponent(0.0)), (0.5, ga.DiracComponent(1e-300))))))
def test_rotation_scan_matches_the_direct_chi(case):
    """The scan's |chi|^2 stays within a few eps of ``characteristic_function``'s,
    per point of the cumulative products and per radian of the largest phase."""
    band, rho = case
    p = np.linspace(0.0, band, (ga.SCAN_POINTS + 1) // 2)[1:-1]
    rotated = np.abs(ga._rotated_chi(rho, p)) ** 2
    direct = np.abs(ga.characteristic_function(rho, p)) ** 2
    phase = max(abs(c.mean) for _, c in rho.components) * band
    eps = np.finfo(float).eps
    assert np.all(np.isfinite(rotated))
    assert np.max(np.abs(rotated - direct)) <= 8.0 * eps * (math.isqrt(p.size) + phase)


@settings(max_examples=200, deadline=None)
@given(rotation_cases())
def test_rotation_scan_stays_within_the_settling_bound(case):
    """``_min_modulus`` settles brackets on the bound 4 eps (B + largest phase) of the
    scan's error in chi, with ``B`` its block length; the error stays within it."""
    band, rho = case
    grid = np.linspace(0.0, band, (ga.SCAN_POINTS + 1) // 2)
    rotated = ga._rotated_chi(rho, grid[1:-1])
    direct = ga.characteristic_function(rho, grid[1:-1])
    phase = max(abs(c.mean) for _, c in rho.components) * band
    eps = np.finfo(float).eps
    assert np.max(np.abs(rotated - direct)) <= 4.0 * eps * (math.isqrt(grid.size) + 1 + phase)


def _modulus2_second_derivative(rho, p):
    """d^2 |chi|^2 / dp^2 = 2 |chi'|^2 + 2 Re(conj(chi) chi''), term by term."""
    chi, slope, bend = (np.zeros(p.shape, dtype=complex) for _ in range(3))
    for w, c in rho.components:
        rate = -1j * c.mean - c.variance * p
        term = w * np.exp(-1j * c.mean * p - 0.5 * c.variance * p * p)
        chi, slope, bend = chi + term, slope + rate * term, bend + (rate * rate - c.variance) * term
    return 2.0 * (np.abs(slope) ** 2 + (chi.conj() * bend).real)


@settings(max_examples=100, deadline=None)
@given(scanned_densities(), st.floats(0.0, 1.0))
@example((1.0, ga.GroupDensity(((0.5, ga.DiracComponent(0.5)), (0.5, ga.DiracComponent(0.5))))), 0.0)
def test_curvature_bound_holds_over_its_interval(case, start):
    """``_curvature`` bounds |d^2 |chi|^2 / dp^2| from each ``lo`` up to ``reach``."""
    band, rho = case
    lo = np.array([start * band, 0.5 * (1.0 + start) * band])
    bound = np.broadcast_to(ga._curvature(rho, lo, band), lo.shape)
    # the reference rounds in its terms, which |chi'|^2 + |chi''| bounds
    terms = math.fsum(w * (abs(c.mean) + c.variance * band) for w, c in rho.components) ** 2 + math.fsum(
        w * ((abs(c.mean) + c.variance * band) ** 2 + c.variance) for w, c in rho.components)
    for edge, most in zip(lo, bound):
        p = np.linspace(edge, band, 2001)
        reference = np.max(np.abs(_modulus2_second_derivative(rho, p)))
        assert reference <= most * (1.0 + 1e-12) + 64.0 * np.finfo(float).eps * terms


@st.composite
def channel_inputs(draw):
    """A mixture of one to three packets and a smearing density of one to three components."""
    terms = [
        (w, gaussian_wavepacket(PURITY_GRID, alpha, center))
        for w, alpha, center in draw(st.lists(packets, min_size=1, max_size=3))
    ]
    smear = draw(st.lists(st.tuples(st.floats(0.2, 1.0), smearing_components), min_size=1, max_size=3))
    return PureMixture(PURITY_GRID, _normalize(terms)), ga.GroupDensity(_normalize(smear))


# the bounds of verify's purity_non_increase and purity_delta_equality rows
@settings(max_examples=50, deadline=None)
@given(channel_inputs(), st.floats(-4.0, 4.0))
def test_the_channel_never_raises_purity_and_a_delta_keeps_it(inputs, a):
    state, rho = inputs
    assert purity(act_mixed(rho, state, quad_order=24)) <= purity(state) + 1e-9
    sharp = act_mixed(ga.make_delta(a), state, quad_order=24)
    assert abs(purity(sharp) - purity(state)) <= 1e-10


def _complex_gram_purity(state):
    """sum_ij w_i w_j |<psi_i|psi_j>|^2 from the complex Gram matrix of a conjugated copy."""
    weights = np.array([w for w, _ in state.terms])
    amps = np.stack([psi.amplitudes for _, psi in state.terms])
    gram = (amps.conj() @ amps.T) * state.grid.spacing
    return float(weights @ (np.abs(gram) ** 2) @ weights)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(packets, st.floats(-5.0, 5.0)), min_size=1, max_size=64))
def test_purity_matches_the_complex_gram_formula(terms):
    # a momentum kick exp(ipx) gives the overlaps imaginary parts
    x = PURITY_GRID.points()
    state = PureMixture(PURITY_GRID, _normalize([
        (w, WaveFunction(PURITY_GRID, gaussian_wavepacket(PURITY_GRID, alpha, c).amplitudes
                         * np.exp(1j * p * x)))
        for (w, alpha, c), p in terms
    ]))
    assert abs(purity(state) - _complex_gram_purity(state)) <= 1e-13


def _broadband(grid, seed):
    """Independent complex normal amplitudes: a spectrum that reaches the Nyquist wavenumber."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    return WaveFunction(grid, amps / grid.norm(amps))


# every channel output takes the dephasing path, from a single Dirac to a 16-node comb
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((64, 128, 256, 512)),
    st.lists(st.tuples(st.floats(0.2, 1.0), st.integers(0, 2**32 - 1)), min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(0.2, 1.0), smearing_components), min_size=1, max_size=3),
)
@example(256, [(1.0, 7)], [(1.0, ga.DiracComponent(1.3))])
@example(512, [(1.0, 7)], [(1.0, ga.GaussianComponent(0.5, 0.3))])
def test_channel_output_purity_matches_the_complex_gram_formula(n, states, smear):
    grid = PositionGrid(n, 40.0)
    state = PureMixture(grid, _normalize([(w, _broadband(grid, seed)) for w, seed in states]))
    out = act_mixed(ga.GroupDensity(_normalize(smear)), state, quad_order=16)
    assert abs(purity(out) - _complex_gram_purity(out)) <= 1e-13


def _stored_channel(rho, state, quad_order):
    """The channel as a stored mixture: every row from ``translate``, offset-major,
    with the weights divided by their fsum, as (offsets, terms)."""
    offsets = []
    for w, comp in rho.components:
        if isinstance(comp, ga.DiracComponent):
            offsets.append((w, comp.location))
        else:
            nodes, node_weights = qs._node_comb(comp, quad_order)
            offsets.extend(zip(w * node_weights, nodes))
    total = math.fsum(wa * wt for wa, _ in offsets for wt, _ in state.terms)
    terms = tuple(
        (float(wa * wt / total), translate(psi, a)) for wa, a in offsets for wt, psi in state.terms
    )
    return [(wa / total, a) for wa, a in offsets], terms


def _stored_density(terms):
    values = np.zeros(terms[0][1].grid.n_points)
    for w, psi in terms:
        values += w * np.abs(psi.amplitudes) ** 2
    return values


def _stored_purity(state, offsets):
    """Tr rho^2 of the channel output: sum_d S(d) |chi(d dk)|^2 with chi summed
    over the full-spectrum phases, a zero offset adding its weight as it is."""
    grid = state.grid
    n, half = grid.n_points, grid.n_points // 2
    ik = 1j * grid.wavenumbers()
    wrap = -2j * np.pi * n / grid.extent
    low = np.zeros(half + 1, dtype=complex)
    high = np.zeros(half + 1, dtype=complex)
    for w, a in offsets:
        if a == 0.0:
            low += w
            high += w
        else:
            phase = np.exp(ik * a)[: half + 1]
            low += w * phase
            high += (w * np.exp(wrap * a)) * phase
    chi = np.concatenate([low, high[half - 1 : 0 : -1]])
    chi_sq = chi.real**2 + chi.imag**2
    spectra = np.fft.fftshift(np.stack([np.fft.fft(psi.amplitudes) for _, psi in state.terms]), axes=-1)
    v = [w for w, _ in state.terms]
    power = np.zeros(2 * n)
    for s in range(len(spectra)):
        for t in range(s, len(spectra)):
            corr = np.fft.fft(spectra[s].conj() * spectra[t], 2 * n)
            power += ((1.0 if s == t else 2.0) * v[s] * v[t]) * (corr.real**2 + corr.imag**2)
    lag = np.fft.ifft(power).real[:n]
    return float(2.0 * (lag @ chi_sq) - lag[0] * chi_sq[0]) * (grid.spacing / n) ** 2


def _same_terms(got, expected):
    return len(got) == len(expected) and all(
        w1 == w2 and np.array_equal(p1.amplitudes, p2.amplitudes)
        for (w1, p1), (w2, p2) in zip(got, expected)
    )


channel_components = (
    st.just(ga.DiracComponent(0.0))
    | st.builds(ga.DiracComponent, st.floats(-4.0, 4.0))
    | st.builds(ga.GaussianComponent, st.floats(-3.0, 3.0), st.floats(0.01, 1.0))
)
NESTED = ga.mix([(0.5, ga.make_delta(0.0)), (0.5, ga.make_delta(-0.7))])


# an input term: a packet (alpha, center) or a broadband state (seed), whose
# spectrum reaches the lags above n/2 that chi[1] covers
channel_terms = st.tuples(
    st.floats(0.2, 1.0), st.tuples(st.floats(0.3, 1.2), st.floats(-3.0, 3.0)) | st.integers(0, 99)
)


# the streamed output against the channel stored row by row: every bit the same
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((64, 128, 256, 512, 1024)),
    st.lists(channel_terms, min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(0.2, 1.0), channel_components), min_size=1, max_size=3),
    st.sampled_from((16, 24)),
    st.booleans(),
)
@example(256, [(1.0, (0.75, 0.0))], [(1.0, ga.DiracComponent(0.0))], 16, True)
@example(512, [(0.5, (0.5, -1.0)), (0.5, 7)],
         [(0.5, ga.DiracComponent(0.0)), (0.5, ga.GaussianComponent(0.4, 0.3))], 16, False)
def test_streamed_channel_output_matches_the_stored_rule(n, term_params, smear, quad_order,
                                                         purity_first):
    grid = PositionGrid(n, 40.0)
    state = PureMixture(grid, _normalize([
        (w, _broadband(grid, spec) if isinstance(spec, int) else gaussian_wavepacket(grid, *spec))
        for w, spec in term_params
    ]))
    rho = ga.GroupDensity(_normalize(smear))
    offsets, terms = _stored_channel(rho, state, quad_order)
    out = act_mixed(rho, state, quad_order)
    if purity_first:
        assert purity(out) == _stored_purity(state, offsets)
    assert np.array_equal(position_density(out).values, _stored_density(terms))
    assert purity(out) == _stored_purity(state, offsets)
    assert _same_terms(out.terms, terms)

    stored = PureMixture(grid, terms)
    nested_offsets, nested_terms = _stored_channel(NESTED, stored, quad_order)
    nested = act_mixed(NESTED, out, quad_order)
    assert np.array_equal(position_density(nested).values, _stored_density(nested_terms))
    assert purity(nested) == _stored_purity(stored, nested_offsets)
    assert _same_terms(nested.terms, nested_terms)


def _single(component):
    return ga.GroupDensity(((1.0, component),))


locations = st.floats(-1e6, 1e6)
single_components = st.builds(ga.DiracComponent, locations) | st.builds(
    ga.GaussianComponent, locations, st.floats(1e-6, 1e6)
)


@given(single_components, single_components)
def test_convolve_follows_the_kind_rules(c1, c2):
    ((w, got),) = ga.convolve(_single(c1), _single(c2)).components
    dirac1, dirac2 = isinstance(c1, ga.DiracComponent), isinstance(c2, ga.DiracComponent)
    if dirac1 and dirac2:
        expected = ga.DiracComponent(c1.location + c2.location)
    elif dirac1:
        expected = ga.GaussianComponent(c2.mean + c1.location, c2.variance)
    elif dirac2:
        expected = ga.GaussianComponent(c1.mean + c2.location, c1.variance)
    else:
        expected = ga.GaussianComponent(c1.mean + c2.mean, c1.variance + c2.variance)
    assert w == 1.0
    assert got == expected


@given(single_components)
def test_antipode_negates_the_location_and_keeps_kind_and_variance(c):
    ((w, got),) = ga.antipode(_single(c)).components
    assert w == 1.0
    if isinstance(c, ga.DiracComponent):
        assert got == ga.DiracComponent(-c.location)
    else:
        assert got == ga.GaussianComponent(-c.mean, c.variance)


SEAM_GRID = PositionGrid(1024, 40.0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-20.0, 20.0, exclude_min=True, exclude_max=True),
    st.floats(0.3, 2.0),
)
def test_translated_packet_keeps_its_mass_across_the_seam(a, alpha):
    packet = gaussian_wavepacket(SEAM_GRID, alpha)
    density = position_density(pure_state(translate(packet, a)))
    assert SEAM_GRID.integrate(density.values) == pytest.approx(1.0, abs=1e-12)


@st.composite
def csv_columns(draw):
    """One to three equal-length columns of float64, float32 or integer arrays,
    with every value of the dtype possible (NaN, infinities, -0.0, subnormals)."""
    n = draw(st.integers(0, 8))
    dtypes = st.sampled_from((np.float64, np.float32, np.int64))
    return [draw(hnp.arrays(dtype, n)) for dtype in draw(st.lists(dtypes, min_size=1, max_size=3))]


@given(csv_columns())
@example([np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 3.0, -(2.0**53)])])
@example([np.array([0.1, -0.0, 1e-45], dtype=np.float32), np.array([7, -(2**63), 2**63 - 1])])
def test_columns_csv_formats_like_fmt_per_scalar(columns):
    header = [f"c{i}" for i in range(len(columns))]
    per_scalar = csv_table(header, ([fmt(value) for value in row] for row in zip(*columns)))
    assert columns_csv(header, columns).encode() == per_scalar.encode()


BOOST_GRID = PositionGrid(256, 40.0)
BOOST_PACKET = gaussian_wavepacket(BOOST_GRID, 1.0)


# the sweep box of verify's galilei_bch_sweep row, with its 1e-6 bound
@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
def test_boost_exponential_is_unitary_and_factorizes(mass, time, v):
    params = GalileiParams(mass=mass, time=time, hbar=1.0)
    boosted = apply_boost_exponential(v, BOOST_PACKET, build_operators(BOOST_GRID, params))
    assert boosted.norm() == pytest.approx(1.0, abs=1e-12)
    factored = apply_boost_factored(v, BOOST_PACKET, params)
    assert BOOST_GRID.norm(boosted.amplitudes - factored.amplitudes) <= 1e-6


# the FFT table is accurate to about eps*sqrt|z| (the rounding of the phase z cos theta)
@settings(max_examples=200, deadline=None)
@given(st.floats(-1000.0, 1000.0))
@example(960.0)  # a table of 2|z| + 128 samples, rounded up to 2048, would alias here
@example(0.0)
def test_fft_bessel_table_matches_scipy_jv(z):
    table = _bessel_coefficients(z)
    n = np.arange(table.size)
    scale = max(1.0, math.sqrt(abs(z)))
    assert table.size > abs(z)
    assert np.max(np.abs(table - 1j ** (n % 4) * jv(n, z))) <= 4e-15 * scale
    # the dropped tail starts at the table's rounding level and falls from there
    assert abs(jv(table.size, z)) <= 4e-15 * scale
    assert np.sum(np.abs(jv(np.arange(table.size, table.size + 400), z))) <= 2e-14 * scale


@given(st.floats())
def test_scalar_checks_accept_exactly_their_domain(x):
    for check, accepted in ((finite, math.isfinite(x)), (positive, math.isfinite(x) and x > 0)):
        if accepted:
            assert check("x", x) == x
        else:
            with pytest.raises(DomainError, match="^x must be"):
                check("x", x)


LIBRARY_GRID = PositionGrid(256, 40.0)
# finite momenta from zero and a subnormal to the largest floats
MOMENTA = np.array([-1e308, -3.5, -5e-324, 0.0, 1e-300, 1.0, 1.7976931348623157e308])
extreme_scalars = st.sampled_from(
    (0.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e-10, 0.8, 1.0, 1e10, 1e200, 1e300, 1e308,
     -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
) | st.floats()


def _thermal(beta, mass, hbar=1.0):
    return ThermalParameters(beta, mass, PhysicalConstants(hbar, 1.0))


def _thermal_weights(beta, mass, n, p_max):
    return thermal_state(ThermalParameters(beta, mass), MomentumGrid(n, p_max)).weights


X, N = extreme_scalars, st.integers(-1, 9)
# name: (the call, a strategy per argument)
LIBRARY_CALLS = {
    "gaussian_wavepacket": (
        lambda alpha, center: gaussian_wavepacket(LIBRARY_GRID, alpha, center).amplitudes, (X, X)),
    "two_gaussian_superposition": (
        lambda alpha, a2: two_gaussian_superposition(LIBRARY_GRID, alpha, a2).amplitudes, (X, X)),
    "two_gaussian_superposition(-1)": (
        lambda alpha, a2: two_gaussian_superposition(LIBRARY_GRID, alpha, a2, -1).amplitudes, (X, X)),
    "ThermalParameters.momentum_variance": (
        lambda beta, mass, hbar: _thermal(beta, mass, hbar).momentum_variance, (X, X, X)),
    "MomentumGrid.points": (lambda n, p_max, center: MomentumGrid(n, p_max, center).points(), (N, X, X)),
    "thermal_state": (_thermal_weights, (X, X, N, X)),
    "momentum_smearing_density": (
        lambda beta, mass, hbar: momentum_smearing_density(_thermal(beta, mass, hbar), MOMENTA),
        (X, X, X)),
    "maxwell_boltzmann_density": (
        lambda T, mass, k_b: maxwell_boltzmann_density(MOMENTA, T, mass, PhysicalConstants(1.0, k_b)),
        (X, X, X)),
    "beta_of_temperature": (
        lambda T, hbar, k_b: beta_of_temperature(T, PhysicalConstants(hbar, k_b)), (X, X, X)),
    "temperature_of_beta": (
        lambda beta, hbar, k_b: temperature_of_beta(beta, PhysicalConstants(hbar, k_b)), (X, X, X)),
}
library_calls = st.one_of(
    *(st.tuples(st.just(name), st.tuples(*args)) for name, (_, args) in LIBRARY_CALLS.items())
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(library_calls)
# each of these raised outside ValueError, warned, or returned inf or NaN
@example(("two_gaussian_superposition", (1e200, 1.0)))
@example(("two_gaussian_superposition", (1e-200, 1.0)))
@example(("two_gaussian_superposition", (0.8, 1e200)))
@example(("gaussian_wavepacket", (0.8, math.nan)))
@example(("gaussian_wavepacket", (0.8, 1e200)))
@example(("beta_of_temperature", (1e-320, 1.0, 1e-10)))
@example(("temperature_of_beta", (1e-320, 1.0, 1e-10)))
@example(("beta_of_temperature", (1e-320, 1.0, 1.0)))
@example(("ThermalParameters.momentum_variance", (1e-320, 1e-10, 1.0)))
@example(("momentum_smearing_density", (1e300, 1e-10, 1.0)))
@example(("thermal_state", (1e300, 1e-10, 9, 1.0)))
@example(("maxwell_boltzmann_density", (1e-300, 1e-10, 1.0)))
@example(("MomentumGrid.points", (3, 1e308, 0.0)))
def test_library_returns_finite_values_or_raises_value_error(call):
    name, args = call
    try:
        result = LIBRARY_CALLS[name][0](*args)
    except ValueError as exc:
        event(f"{name}: {type(exc).__name__}")
        return
    event(f"{name}: returned")
    assert np.all(np.isfinite(result))


def _log_scale(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


# a packet and a Gaussian smearing on grids of every extent: the purity of both
# states and the density of the channel output, computed or rejected up front
@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((64, 256)),
    _log_scale(-323.0, 308.25),
    _log_scale(-160.0, -1.0),
    _log_scale(-323.0, 308.25),
)
# a spacing whose square overflows (bare OverflowError) or whose Gram entries do (a warning)
@example(64, 1e300, 1e-150, 1.0)
@example(64, 6.4e-159, 1e-160 / 6.4e-159, 1.0)
# a smearing whose comb weights were NaN, with two warnings
@example(64, 1e300, 1e-150, 1.7e308)
def test_purity_and_the_channel_return_or_raise_domain_error_at_any_extent(
    n, extent, alpha_fraction, variance
):
    try:
        state = pure_state(gaussian_wavepacket(PositionGrid(n, extent), extent * alpha_fraction))
    except DomainError:
        event("packet: DomainError")
        return

    def channel():
        out = act_mixed(ga.make_gaussian(0.0, variance), state, quad_order=16)
        return float(np.sum(position_density(out).values)) + purity(out)

    for name, call in (("purity", lambda: purity(state)), ("channel", channel)):
        try:
            value = call()
        except DomainError:
            event(f"{name}: DomainError")
        else:
            event(f"{name}: returned")
            assert math.isfinite(value)


COMMANDS = [("figure", f) for f in FIGURE_IDS] + [("demo", d) for d in DEMO_IDS]
FLOAT_FLAGS = [key for key in DEFAULTS if key not in ("grid_n", "quad_order")]
EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, -1e300)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(COMMANDS),
    # Up to three flags per run; the rest keep their defaults. With moderate
    # values in the mix, most runs pass validation and reach the compute.
    st.dictionaries(
        st.sampled_from(FLOAT_FLAGS),
        st.sampled_from(EXTREMES) | st.floats() | st.floats(-30.0, 30.0),
        max_size=3,
    ),
)
@example(("figure", "a1a2"), {"alpha": 100.0})
@example(("figure", "a1a2"), {"extent": math.inf})
@example(("figure", "gaussian-smear"), {"sigma": 5.0})
@example(("figure", "gaussian-smear"), {"quad_order": 100000})
@example(("demo", "thermal"), {"temperature": math.inf})
@example(("figure", "a1a2"), {"a2": math.nan})
@example(("demo", "galilei-boost"), {"v0": math.nan})
@example(("demo", "semigroup"), {"a2": math.inf})
@example(("figure", "a1a2"), {"alpha": 1e-300})
@example(("figure", "gaussian-smear"), {"sigma": 1e300})
# tracebacks the fuzzing found: alpha**2 and a2**2 overflowing, m k_B T underflowing
@example(("figure", "a1a2"), {"extent": 1e300, "alpha": 1.3407807929942597e154})
@example(("figure", "a1a2"), {"extent": 1e300, "a2": 1.3407807929942597e154})
@example(("demo", "galilei-boost"), {"temperature": 1e-300, "mass": 1e-300})
# a NormalizationError: p far above the spread rounds the boosted grid's ends
@example(("demo", "galilei-boost"), {"p": 2.1967353362417953e158, "temperature": 1e300})
# exit 0 with non-finite output: an overflowing energy density, a closed-form
# normalizer that cancels to 0, a packet on one grid point
@example(("demo", "thermal"), {"temperature": 1e-261})
@example(("figure", "a1a2diff"), {"a2": 1e-9})
@example(("figure", "gaussian-smear"), {"extent": 1e300})
# exit 0 with NaN output: 2 pi m k_B T overflowing in the Maxwell-Boltzmann density
@example(("demo", "galilei-boost"), {"mass": 1.7e308})
# numpy warnings ahead of the error line: the demos' grids and phases overflowing
@example(("demo", "galilei-boost"), {"p": 1.7e308})
@example(("demo", "galilei-boost"), {"p": -1.7e308})
@example(("demo", "galilei-boost"), {"temperature": 1.7e308})
@example(("demo", "thermal"), {"temperature": 1.7e308})
@example(("demo", "thermal"), {"mass": 1.7e308})
@example(("demo", "semigroup"), {"a0": 1.7e308})
@example(("demo", "semigroup"), {"a0": -1.7e308})
# a Dirac gap <= 1e-9 leaves |chi|^2 flat, so every scan point is a tied local
# minimum to refine (15-18 s with one scalar search per minimum)
@example(("demo", "semigroup"), {"a2": 1e-9})
@example(("demo", "semigroup"), {"a2": 1e-12})
# a builtin ValueError the fuzzing found: rounding leaves v0 +- 8.5 spreads non-uniform
@example(("demo", "galilei-boost"), {"v0": 1e300})
def test_cli_exits_0_or_2_on_any_float_flag(command, values):
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in values.items()]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
        with redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command, "--grid-n=256", *flags, "--out", out])
        event(f"exit {code}")
        assert not [str(w.message) for w in caught]
        assert code in (0, 2)
        if code == 2:
            assert stderr.getvalue().count("\n") == 1
        else:
            _assert_outputs_finite(Path(out))


def _assert_outputs_finite(out_dir):
    """Every CSV cell that parses as a float, and every JSON number, is finite."""
    for path in out_dir.glob("*.csv"):
        for cell in path.read_text().replace("\n", ",").split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name}: {cell}"
    for path in out_dir.glob("*.json"):
        # NaN, Infinity and -Infinity are the JSON constants a non-finite float becomes
        json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name}: {c}"))
