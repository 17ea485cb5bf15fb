import math

import numpy as np
import pytest

from mixedframes import (
    DomainError,
    GalileiParams,
    MomentumGrid,
    PositionGrid,
    ResourceLimitError,
    ThermalParameters,
    bch_residual,
    beta_of_temperature,
    boost_mixed,
    boost_pure_label,
    build_operators,
    commutator_residuals,
    convolve,
    gaussian_wavepacket,
    make_delta,
    make_gaussian,
    mix,
    thermal_state,
)
from mixedframes.galilei import (
    apply_boost_exponential,
    apply_boost_factored,
    expm,
    momentum_bump,
    relative_boost_phase,
)
from mixedframes.analytic import norm_pdf
from mixedframes.quantum_system import _normalized

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ops_setup():
    grid = PositionGrid(1024, 40.0)
    params = GalileiParams(mass=1.0, time=0.5, hbar=1.0)
    return grid, params, build_operators(grid, params)


class TestOperators:
    def test_hermiticity(self, ops_setup):
        _, _, ops = ops_setup
        assert max(ops.hermiticity_residuals().values()) < 1e-10

    def test_size_cap(self):
        ops = build_operators(PositionGrid(4096, 40.0), GalileiParams(1.0, 0.0))
        with pytest.raises(ResourceLimitError):
            ops.hermiticity_residuals()

    def test_dense_matches_spectral_application(self, ops_setup):
        grid, _, ops = ops_setup
        psi = gaussian_wavepacket(grid, 1.0, 0.5)
        dense = ops._dense(ops.apply_k) @ psi.amplitudes
        fast = ops.apply_k(psi.amplitudes)
        assert np.max(np.abs(dense - fast)) < 1e-9

    def test_canonical_commutator(self, ops_setup):
        grid, _, ops = ops_setup
        states = [gaussian_wavepacket(grid, 1.0), gaussian_wavepacket(grid, 0.6, 1.5)]
        residuals = commutator_residuals(ops, states)
        assert residuals["x_p"] < 1e-8

    def test_galilei_brackets(self, ops_setup):
        grid, _, ops = ops_setup
        states = [
            gaussian_wavepacket(grid, 1.0),
            gaussian_wavepacket(grid, 0.6, 1.5),
            gaussian_wavepacket(grid, 1.4, -2.0),
        ]
        residuals = commutator_residuals(ops, states)
        assert residuals["k_p"] < 1e-6
        assert residuals["k_h"] < 1e-6
        assert residuals["p_h"] < 1e-12
        assert residuals["m_k"] < 1e-14


class TestBoostLabel:
    def test_identity_boost(self):
        label = boost_pure_label(0.0, 1.7, GalileiParams(1.0, 1.0))
        assert label.momentum == 1.7
        assert label.phase == 0.0

    def test_printed_example(self):
        label = boost_pure_label(3.0, 2.0, GalileiParams(mass=1.0, time=1.0, hbar=1.0))
        assert label.momentum == pytest.approx(5.0, abs=0)
        assert label.phase == pytest.approx(TWO_PI - 1.5, abs=1e-14)

    def test_momentum_composition(self):
        params = GalileiParams(mass=1.3, time=0.4)
        first = boost_pure_label(0.7, 2.0, params)
        second = boost_pure_label(1.1, first.momentum, params)
        direct = boost_pure_label(1.8, 2.0, params)
        assert second.momentum == pytest.approx(direct.momentum, abs=1e-12)


class TestBCH:
    def test_zero_velocity(self, ops_setup):
        grid, _, ops = ops_setup
        psi = gaussian_wavepacket(grid, 1.0)
        assert bch_residual(0.0, psi, ops) < 1e-12

    def test_time_zero_reduces_to_position_phase(self):
        grid = PositionGrid(1024, 40.0)
        params = GalileiParams(mass=1.0, time=0.0, hbar=1.0)
        ops = build_operators(grid, params)
        psi = gaussian_wavepacket(grid, 1.0)
        assert bch_residual(1.2, psi, ops) < 1e-10

    def test_reference_case(self, ops_setup):
        grid, _, ops = ops_setup
        psi = gaussian_wavepacket(grid, 1.0)
        assert bch_residual(1.2, psi, ops) < 1e-6

    def test_small_sweep(self):
        grid = PositionGrid(512, 40.0)
        psi = gaussian_wavepacket(grid, 1.0)
        for mass in (0.5, 2.0):
            for time in (0.0, 1.0):
                params = GalileiParams(mass=mass, time=time, hbar=1.0)
                ops = build_operators(grid, params)
                for v in (-2.0, 1.2):
                    assert bch_residual(v, psi, ops) < 1e-6

    def test_default_grid_size(self):
        grid = PositionGrid(4096, 40.0)
        ops = build_operators(grid, GalileiParams(mass=2.0, time=1.0, hbar=1.0))
        assert bch_residual(-2.0, gaussian_wavepacket(grid, 1.0), ops) <= 1e-6

    def test_exponential_matches_dense_matrix_exponential(self):
        grid = PositionGrid(256, 40.0)
        psi = gaussian_wavepacket(grid, 1.0)
        for mass in (0.5, 1.0, 2.0):
            for time in (0.0, 0.5, 1.0):
                ops = build_operators(grid, GalileiParams(mass=mass, time=time, hbar=1.0))
                k_dense = ops._dense(ops.apply_k)
                for v in (-2.0, -1.0, 0.3, 1.2):
                    dense = expm(1j * v * k_dense) @ psi.amplitudes
                    series = apply_boost_exponential(v, psi, ops).amplitudes
                    assert grid.norm(series - dense) <= 1e-12

    def test_kick_beyond_the_grid_band_rejected_before_the_series(self):
        grid = PositionGrid(1024, 40.0)
        ops = build_operators(grid, GalileiParams(mass=1.0, time=1.0, hbar=1.0))
        # the series would take about |z| = 1e6 terms, each one apply_k
        ops.apply_k = lambda amps: pytest.fail("the series started")
        with pytest.raises(DomainError, match=r"v=10000\.0 and mass=1\.0"):
            apply_boost_exponential(1e4, gaussian_wavepacket(grid, 1.0), ops)

    @pytest.mark.parametrize("v", [math.nan, math.inf, 1e308])
    def test_nonfinite_phase_rejected(self, ops_setup, v):
        grid, _, ops = ops_setup
        with pytest.raises(DomainError, match="not finite"):
            bch_residual(v, gaussian_wavepacket(grid, 1.0), ops)


class TestFringePhase:
    def test_relative_phase_matches_label(self):
        grid = PositionGrid(1024, 40.0)
        params = GalileiParams(mass=1.0, time=0.7, hbar=1.0)
        dk = TWO_PI / grid.extent
        p_a, p_b = 16 * dk, -10 * dk
        v = 24 * dk / params.mass
        psi = _normalized(
            grid,
            momentum_bump(grid, p_a, params).amplitudes
            + momentum_bump(grid, p_b, params).amplitudes,
        )
        boosted = apply_boost_factored(v, psi, params)
        shift = params.mass * v
        phi_a = relative_boost_phase(psi, boosted, p_a, p_a + shift, params)
        phi_b = relative_boost_phase(psi, boosted, p_b, p_b + shift, params)
        label_diff = boost_pure_label(v, p_a, params).phase - boost_pure_label(v, p_b, params).phase
        gap = (phi_a - phi_b - label_diff + math.pi) % TWO_PI - math.pi
        assert abs(gap) < 1e-4

    def test_boosted_bump_recenters(self):
        grid = PositionGrid(1024, 40.0)
        params = GalileiParams(mass=1.0, time=0.7, hbar=1.0)
        dk = TWO_PI / grid.extent
        p0, v = 16 * dk, 24 * dk
        boosted = apply_boost_factored(v, momentum_bump(grid, p0, params), params)
        spectrum = np.abs(np.fft.fft(boosted.amplitudes))
        k = grid.wavenumbers()
        assert k[int(np.argmax(spectrum))] == pytest.approx(p0 + v, abs=1e-12)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_factored_boost_matches_the_fft_phase_form_on_the_sweep(self, n):
        # the 36 (mass, time, v) triples of verify's galilei_bch_sweep
        grid = PositionGrid(n, 40.0)
        psi = gaussian_wavepacket(grid, 1.0)
        x, k = grid.points(), grid.wavenumbers()
        for m in (0.5, 1.0, 2.0):
            for t in (0.0, 0.5, 1.0):
                params = GalileiParams(mass=m, time=t, hbar=1.0)
                for v in (-2.0, -1.0, 0.3, 1.2):
                    if t == 0.0:
                        shifted = psi.amplitudes
                    else:
                        shifted = np.fft.ifft(np.exp(-1j * t * v * k) * np.fft.fft(psi.amplitudes))
                    expected = np.exp(1j * m * v * x) * shifted * np.exp(-1j * t * m * v**2 / 2.0)
                    got = apply_boost_factored(v, psi, params).amplitudes
                    assert np.array_equal(got, expected)

    def test_factored_boost_rejects_a_shift_past_half_the_box(self):
        grid = PositionGrid(256, 40.0)
        psi = gaussian_wavepacket(grid, 1.0)
        with pytest.raises(DomainError, match="too large for the periodic box"):
            apply_boost_factored(20.0, psi, GalileiParams(mass=1.0, time=1.0))

    def test_factored_boost_preserves_norm(self):
        grid = PositionGrid(512, 40.0)
        params = GalileiParams(mass=0.7, time=1.3, hbar=1.0)
        psi = gaussian_wavepacket(grid, 0.8, -1.0)
        assert apply_boost_factored(2.1, psi, params).norm() == pytest.approx(1.0, abs=1e-12)


class TestBoostMixed:
    def test_sharp_boost_is_point_mass(self):
        params = GalileiParams(mass=1.5, time=0.0)
        v_grid = np.linspace(-4.0, 4.0, 2001)
        out = boost_mixed(make_delta(0.5), 0.3, params, v_grid)
        q = out.grid.points()
        peak = int(np.argmax(out.weights))
        assert q[peak] == pytest.approx(0.3 + 1.5 * 0.5, abs=out.grid.spacing)
        assert float(np.sum(out.weights)) * out.grid.spacing == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        params = GalileiParams(mass=1.0, time=0.0)
        with pytest.raises(DomainError):
            boost_mixed(make_gaussian(0.0, 4.0), 0.0, params, np.linspace(-1, 1, 101))

    def test_thermal_boost_matches_thermal_state(self):
        temperature, mass, v0 = 1.4, 0.8, 1.9
        tp = ThermalParameters(beta_of_temperature(temperature), mass)
        params = GalileiParams(mass=mass, time=0.0)
        sd_p = math.sqrt(tp.momentum_variance)
        grid = MomentumGrid(2001, 8.5 * sd_p)
        reference = thermal_state(tp, grid)
        p0 = -mass * v0
        rho = make_gaussian(v0, temperature / mass)
        v_grid = (grid.points() - p0) / mass
        boosted = boost_mixed(rho, p0, params, v_grid)
        assert np.max(np.abs(boosted.grid.points() - grid.points())) < 1e-12
        assert np.max(np.abs(boosted.weights - reference.weights)) < 1e-9

    def test_generic_center(self):
        params = GalileiParams(mass=2.0, time=0.0)
        v0, p0, var_v = 0.8, 0.4, 0.09
        sd_v = math.sqrt(var_v)
        out = boost_mixed(
            make_gaussian(v0, var_v), p0, params, v0 + np.linspace(-9 * sd_v, 9 * sd_v, 3001)
        )
        q = out.grid.points()
        mean = float(np.sum(q * out.weights)) * out.grid.spacing
        assert mean == pytest.approx(p0 + params.mass * v0, abs=1e-10)
        variance = float(np.sum((q - mean) ** 2 * out.weights)) * out.grid.spacing
        assert variance == pytest.approx(params.mass**2 * var_v, rel=1e-9)

    def test_composition_matches_convolution(self):
        mass = 1.3
        params = GalileiParams(mass=mass, time=0.0)
        r1 = mix([(0.6, make_gaussian(0.4, 0.09)), (0.4, make_gaussian(-0.2, 0.25))])
        r2 = make_gaussian(0.1, 0.16)
        p0 = 0.5
        v_grid = np.linspace(-6.0, 6.0, 4001)
        dq = mass * (v_grid[1] - v_grid[0])
        combined = boost_mixed(convolve(r1, r2), p0, params, v_grid)
        first = boost_mixed(r2, p0, params, v_grid)
        taps_j = np.arange(-(v_grid.size // 2), v_grid.size // 2 + 1)
        taps = np.zeros(taps_j.size)
        for w, comp in r1.components:
            taps += (w / mass) * norm_pdf(taps_j * dq / mass, comp.mean, comp.variance)
        sequential = np.convolve(first.weights, taps, mode="same") * dq
        sequential /= float(np.sum(sequential)) * dq
        assert np.max(np.abs(sequential - combined.weights)) < 1e-8
