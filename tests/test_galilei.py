import csv
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedframes import (
    DiracComponent,
    DomainError,
    GalileiParams,
    GaussianComponent,
    GroupDensity,
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
from mixedframes import galilei
from mixedframes.galilei import (
    OperatorGrid,
    _anti_hermitian,
    apply_boost_exponential,
    apply_boost_factored,
    expm,
    momentum_bump,
    relative_boost_phase,
)
from mixedframes.quantum_system import WaveFunction
from mixedframes.analytic import norm_pdf
from mixedframes.quantum_system import _normalized

TWO_PI = 2.0 * math.pi


def _dense(apply, n):
    """Matrix of a spectral map, which acts along the last axis: apply(I) is its transpose."""
    return apply(np.eye(n)).T


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

    @pytest.mark.parametrize("n", [64, 256, 1024, 2048])
    def test_hermiticity_equals_the_dense_formula_bit_for_bit(self, n):
        # the oracle is the exactly rounded sum of all n^2 squared moduli, so its bits,
        # unlike those of np.linalg.norm, do not depend on the BLAS thread count
        ops = build_operators(PositionGrid(n, 40.0), GalileiParams(mass=1.0, time=0.5))
        residuals = ops.hermiticity_residuals()
        maps = {"x": ops.apply_x, "p": ops.apply_p, "h": ops.apply_h, "k": ops.apply_k}
        for name, apply in maps.items():
            op = _dense(apply, n)
            diff = op - op.conj().T  # the full matrix minus its full conjugate transpose
            squares = diff.real ** 2 + diff.imag ** 2
            exact = math.fsum(itertools.chain.from_iterable(map(np.ndarray.tolist, squares)))
            assert residuals[name] == math.sqrt(exact) / 2.0, name

    def test_dense_matches_spectral_application(self, ops_setup):
        grid, _, ops = ops_setup
        psi = gaussian_wavepacket(grid, 1.0, 0.5)
        dense = _dense(ops.apply_k, grid.n_points) @ psi.amplitudes
        fast = ops.apply_k(psi.amplitudes)
        assert np.max(np.abs(dense - fast)) < 1e-9

    def test_canonical_commutator(self, ops_setup):
        grid, _, ops = ops_setup
        states = [gaussian_wavepacket(grid, 1.0), gaussian_wavepacket(grid, 0.6, 1.5)]
        residuals = commutator_residuals(ops, states)
        assert residuals["x_p"] < 1e-8

    @pytest.mark.parametrize("mass", [1.0, 2.0])  # the Hamiltonian p^2 / 2m reads the mass
    def test_galilei_brackets(self, ops_setup, mass):
        grid, params, _ = ops_setup
        ops = build_operators(grid, GalileiParams(mass=mass, time=params.time, hbar=params.hbar))
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

    def test_phase_is_divided_by_hbar(self):
        # -t (v p - m v^2 / 2) / hbar = -(6 - 4.5) / 2 at hbar = 2
        label = boost_pure_label(3.0, 2.0, GalileiParams(mass=1.0, time=1.0, hbar=2.0))
        assert label.phase == pytest.approx(TWO_PI - 0.75, abs=1e-14)

    def test_phase_guard_reads_the_phase_over_hbar(self):
        # t (v p - m v^2 / 2) is 1e308 less 5e7: over hbar = 2 it is finite, over hbar = 0.5 it is not;
        # v p = 1.495e308 less m v^2 / 2 = 0.845e308 is finite, though their sum is not
        params = GalileiParams(mass=1e-300, time=1.0, hbar=2.0)
        assert boost_pure_label(1e154, 1e154, params).momentum == 1e154
        with pytest.raises(DomainError, match="boost phase"):
            boost_pure_label(1e154, 1e154, GalileiParams(mass=1e-300, time=1.0, hbar=0.5))
        assert boost_pure_label(1.3e154, 1.15e154, GalileiParams(mass=1.0, time=1.0)).momentum == 2.45e154
        # v p - m v^2 / 2 at v = -1.3e154 is -1.7976930e308 for p = 7.328408e153, and past the float range
        # for 7.328409e153, though m v^2 / 2 taken 1e-6 smaller would bring it back
        assert boost_pure_label(-1.3e154, 7.328408e153, GalileiParams(mass=1.0, time=1.0)).momentum < 0.0
        with pytest.raises(DomainError, match="boost phase"):
            boost_pure_label(-1.3e154, 7.328409e153, GalileiParams(mass=1.0, time=1.0))

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
        # hbar 2 scales the spectral bound's |t| hbar max|k| up, past the position term
        for mass, time, hbar in itertools.product((0.5, 2.0), (0.0, 1.0), (1.0, 2.0)):
            ops = build_operators(grid, GalileiParams(mass=mass, time=time, hbar=hbar))
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
                k_dense = _dense(ops.apply_k, grid.n_points)
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

    def test_series_past_the_term_cap_rejected_before_any_work(self, monkeypatch):
        grid = PositionGrid(1024, 40.0)
        # |m*v| = 1 is inside the grid band (about 80), but |z| = |v|*R/hbar is about 8e7
        ops = build_operators(grid, GalileiParams(mass=1e-6, time=1.0, hbar=1.0))
        psi = gaussian_wavepacket(grid, 1.0)
        ops.apply_k = lambda amps: pytest.fail("the series started")
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: pytest.fail("the Bessel table was built"))
        named = r"v=1000000\.0 and mass=1e-06 needs about 8\.04e\+07 terms"
        with pytest.raises(ResourceLimitError, match=named):
            apply_boost_exponential(1e6, psi, ops)

    def test_kick_at_the_grid_band_edge_is_accepted(self):
        # |m v| / hbar = 2 k_max / 2 reaches the band edge exactly; one ulp more is past it
        grid = PositionGrid(64, 20.0)
        k_max = float(np.max(np.abs(grid.wavenumbers())))
        ops = build_operators(grid, GalileiParams(mass=1.0, time=0.1, hbar=2.0))
        psi = gaussian_wavepacket(grid, 1.0)
        assert apply_boost_exponential(2.0 * k_max, psi, ops).norm() == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(DomainError, match="exceeds the grid band"):
            apply_boost_exponential(math.nextafter(2.0 * k_max, math.inf), psi, ops)

    def test_series_at_the_term_cap_runs(self, monkeypatch):
        # at t = 0, R = m max|x| = 10, so |z| = |v| R / hbar = 20 at v = 2: a cap of 20 lets it run
        grid = PositionGrid(64, 20.0)
        ops = build_operators(grid, GalileiParams(mass=1.0, time=0.0, hbar=1.0))
        psi = gaussian_wavepacket(grid, 1.0)
        monkeypatch.setattr(galilei, "BOOST_SERIES_CAP", 20.0)
        assert apply_boost_exponential(2.0, psi, ops).norm() == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(galilei, "BOOST_SERIES_CAP", math.nextafter(20.0, 0.0))
        with pytest.raises(ResourceLimitError, match="needs about 20 terms"):
            apply_boost_exponential(2.0, psi, ops)

    @pytest.mark.parametrize("v", [math.nan, math.inf, 1e308])
    def test_nonfinite_phase_rejected(self, ops_setup, v):
        grid, _, ops = ops_setup
        with pytest.raises(DomainError, match="not finite"):
            bch_residual(v, gaussian_wavepacket(grid, 1.0), ops)


class TestFringePhase:
    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_relative_phase_matches_label(self, hbar):
        grid = PositionGrid(1024, 40.0)
        params = GalileiParams(mass=1.0, time=0.7, hbar=hbar)
        dp = hbar * TWO_PI / grid.extent  # the momentum step hbar dk
        p_a, p_b = 16 * dp, -10 * dp
        v = 24 * dp / params.mass
        # rolled by 7 points, so that each Fourier mode of the state carries its own phase
        psi = _normalized(
            grid,
            np.roll(momentum_bump(grid, p_a, params).amplitudes + momentum_bump(grid, p_b, params).amplitudes, 7),
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

    def test_overflowing_velocity_rejected_without_warning(self):
        # v * v overflows for |v| above about 1.3e154; the phase check names v
        psi = gaussian_wavepacket(PositionGrid(256, 40.0), 1.0)
        moving, at_rest = GalileiParams(mass=1.0, time=1.0), GalileiParams(mass=1.0, time=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (1e200, -1e200):
                for params in (moving, at_rest):
                    with pytest.raises(DomainError, match="at v="):
                        boost_pure_label(v, 0.5, params)
                with pytest.raises(DomainError, match="at v="):
                    apply_boost_factored(v, psi, at_rest)
            v = 1e150
            label = boost_pure_label(v, 0.5, moving)
            assert label.momentum == 0.5 + v
            assert label.phase == (-1.0 * (v * 0.5 - v**2 / 2.0)) % TWO_PI
            got = apply_boost_factored(v, psi, at_rest).amplitudes
            x = psi.grid.points()
            expected = np.exp(1j * v * x) * psi.amplitudes * np.exp(-1j * 0.0 * v**2 / 2.0)
            assert np.array_equal(got, expected)

    def test_factored_boost_guard_reads_the_phase_over_hbar(self):
        # the boost reads m / hbar: at m = hbar = 1e160, t m v^2 / (2 hbar) is 0.5, as at m = hbar = 1,
        # though t m v^2 (2 hbar) would overflow; at hbar = 1e-160 the phase itself overflows, and at
        # hbar = 1/4 it is 2 m, past the largest float once m is one ulp above half of it
        psi = gaussian_wavepacket(PositionGrid(64, 40.0), 1.0)
        out = apply_boost_factored(1.0, psi, GalileiParams(mass=1e160, time=1.0, hbar=1e160))
        unit = apply_boost_factored(1.0, psi, GalileiParams(mass=1.0, time=1.0, hbar=1.0))
        assert np.max(np.abs(out.amplitudes - unit.amplitudes)) <= 1e-12
        past = math.nextafter(sys.float_info.max / 2.0, math.inf)
        for params in (GalileiParams(mass=1e160, time=1.0, hbar=1e-160), GalileiParams(mass=past, time=1.0, hbar=0.25)):
            with pytest.raises(DomainError, match="boost phase"):
                apply_boost_factored(1.0, psi, params)

    def test_bump_sits_at_p_over_hbar_up_to_half_the_band(self):
        # p = k_max at hbar = 2 puts the bump at k = k_max / 2 exactly, the largest accepted
        grid = PositionGrid(64, 20.0)
        k_max = math.pi / grid.spacing
        params = GalileiParams(mass=1.0, time=0.0, hbar=2.0)
        bump = momentum_bump(grid, k_max, params)
        k = grid.wavenumbers()
        assert k[np.argmax(np.abs(np.fft.fft(bump.amplitudes)))] == pytest.approx(0.5 * k_max)
        with pytest.raises(DomainError, match="outside half the spectral band"):
            momentum_bump(grid, math.nextafter(k_max, math.inf), params)

    @pytest.mark.parametrize("weight, accepted", [(1e-12, True), (math.nextafter(1e-12, 0.0), False)])
    def test_relative_phase_needs_weight_of_1e_12(self, weight, accepted):
        # 0.5 + i (weight / 64) (-1)^j on 64 points of a box of 4 is normalized, and its Nyquist
        # Fourier coefficient is i weight exactly: weight 1e-12 is enough, one ulp less is not
        grid = PositionGrid(64, 4.0)
        psi = WaveFunction(grid, 0.5 + 1j * (weight / 64) * (-1.0) ** np.arange(64))
        nyquist = -math.pi / grid.spacing
        params = GalileiParams(mass=1.0, time=0.0)
        if accepted:
            assert relative_boost_phase(psi, psi, nyquist, 0.0, params) == pytest.approx(-0.5 * math.pi)
        else:
            with pytest.raises(DomainError, match="no weight"):
                relative_boost_phase(psi, psi, nyquist, 0.0, params)

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

    @pytest.mark.parametrize("inside, accepted", [(1.0 - 1e-12, True), (math.nextafter(1.0 - 1e-12, 0.0), False)])
    def test_truncation_guard_allows_1e_12_outside(self, inside, accepted):
        # a Dirac on the grid holds `inside`, and a Gaussian far off it the rest, whose erf terms
        # cancel exactly: the grid holds 1 - 1e-12 of the mass, the least the guard accepts, or one ulp less
        rho = GroupDensity(((inside, DiracComponent(0.0)), (1.0 - inside, GaussianComponent(1e3, 1.0))))
        params, v_grid = GalileiParams(mass=1.0, time=0.0), np.linspace(-4.0, 4.0, 2001)
        if accepted:
            assert float(np.sum(boost_mixed(rho, 0.0, params, v_grid).weights)) > 0.0
        else:
            with pytest.raises(DomainError, match="truncates more than 1e-12"):
                boost_mixed(rho, 0.0, params, v_grid)

    @pytest.mark.parametrize("k, accepted", [(1_000_005_001, True), (999_999_501, False)])
    def test_spacing_guard_allows_half_the_grid_norm_tolerance(self, k, accepted):
        # at p = 2^52 + 2^40, m = k + 1/2 and v = -1, 0, 1, p - m and p + m round half to even one
        # unit apart more than 2 m: the grid spacing reads k + 1 against m dv = k + 1/2, off by 1 / (2k + 1),
        # which is 4.99998e-10 inside 0.5 GRID_NORM_TOL for the first k and 5.0000026e-10 past it for the second
        p, params, v_grid = 2.0**52 + 2.0**40, GalileiParams(mass=k + 0.5, time=0.0), np.linspace(-1.0, 1.0, 3)
        if accepted:
            assert boost_mixed(make_delta(0.0), p, params, v_grid).grid.spacing == k + 1
        else:
            with pytest.raises(DomainError, match="too large for the momentum step"):
                boost_mixed(make_delta(0.0), p, params, v_grid)

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


def _verify_bound(row: str) -> float:
    """The tolerance of a ``verify`` row, read from the committed ``--grid-n 256`` report."""
    report = (Path(__file__).parent / "fixtures" / "verify_report_256.csv").read_text()
    return next(float(r[3]) for r in csv.reader(report.splitlines()) if r[0] == row)


class TestResidualPositiveControls:
    """Each residual function fed a defect of known size must report that size (within a
    relative 1e-6) and read above the bound of its ``verify`` row: a residual function that
    returned 0 would pass every row of ``verify``."""

    N = 256
    HBAR = (1.0, 0.7)

    def _ops(self, hbar, mass=1.0):
        return OperatorGrid(PositionGrid(self.N, 40.0), GalileiParams(mass=mass, time=0.5, hbar=hbar))

    @staticmethod
    def _states(ops):
        grid = ops.grid
        return [gaussian_wavepacket(grid, 1.0), gaussian_wavepacket(grid, 0.6, 1.5),
                gaussian_wavepacket(grid, 1.4, -2.0)]

    @pytest.mark.parametrize("hbar", HBAR)
    def test_anti_hermitian_part_of_a_shifted_momentum(self, hbar):
        # eps times the cyclic shift S: (S - S^T) / 2 has Frobenius norm sqrt(n / 2)
        ops, eps = self._ops(hbar), 1e-8

        def shifted(amps):
            return ops.apply_p(amps) + eps * np.roll(amps, 1, axis=-1)

        reported = _anti_hermitian(shifted, self.N)
        assert reported == pytest.approx(eps * math.sqrt(self.N / 2.0), rel=1e-6)
        assert reported > _verify_bound("galilei_hermiticity")

    @pytest.mark.parametrize("hbar", HBAR)
    @pytest.mark.parametrize("generator", ["x", "h", "k"])
    def test_anti_hermitian_part_of_each_shifted_generator(self, hbar, generator):
        # as for p, under the generator's own key; x is exactly Hermitian, h and k to rounding
        ops, eps = self._ops(hbar), 1e-6
        real = getattr(ops, f"apply_{generator}")
        setattr(ops, f"apply_{generator}", lambda amps: real(amps) + eps * np.roll(amps, 1, axis=-1))
        reported = ops.hermiticity_residuals()[generator]
        assert reported == pytest.approx(eps * math.sqrt(self.N / 2.0), rel=1e-6)
        assert reported > _verify_bound("galilei_hermiticity")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_bch_residual_of_a_factored_side_off_by_a_global_phase(self, hbar, monkeypatch):
        ops, theta = self._ops(hbar), 1e-4
        real = galilei.apply_boost_factored

        def off_by_theta(v, psi, params):
            return WaveFunction(psi.grid, real(v, psi, params).amplitudes * np.exp(1j * theta))

        monkeypatch.setattr(galilei, "apply_boost_factored", off_by_theta)
        psi = gaussian_wavepacket(ops.grid, 1.0)  # unit norm
        reported = bch_residual(1.2, psi, ops)
        assert reported == pytest.approx(2.0 * math.sin(theta / 2.0), rel=1e-6)
        assert reported > _verify_bound("galilei_bch_sweep")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_p_h_residual_of_a_hamiltonian_that_is_position(self, hbar):
        # [p, x] = -i hbar, so the p_h bracket reads hbar on a unit state
        ops = self._ops(hbar)
        ops.apply_h = ops.apply_x
        reported = commutator_residuals(ops, self._states(ops))["p_h"]
        assert reported == pytest.approx(hbar, rel=1e-6)
        assert reported > _verify_bound("galilei_p_h_commutes")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_x_p_residual_of_a_scaled_momentum(self, hbar):
        # [x, (1 + delta) p] - i hbar = i hbar delta
        ops, delta = self._ops(hbar), 1e-3
        real = ops.apply_p
        ops.apply_p = lambda amps: (1.0 + delta) * real(amps)
        reported = commutator_residuals(ops, self._states(ops))["x_p"]
        assert reported == pytest.approx(hbar * delta, rel=1e-6)
        assert reported > _verify_bound("galilei_brackets")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_k_p_residual_of_a_boost_generator_of_another_mass(self, hbar):
        # k' = (m + eps) x - t p: [k', p] - i hbar m = i hbar eps
        ops, eps = self._ops(hbar), 1e-3
        real = ops.apply_k
        ops.apply_k = lambda amps: real(amps) + eps * ops.apply_x(amps)
        reported = commutator_residuals(ops, self._states(ops))["k_p"]
        assert reported == pytest.approx(hbar * eps, rel=1e-6)
        assert reported > _verify_bound("galilei_brackets")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_k_h_residual_of_a_hamiltonian_with_a_constant_force(self, hbar):
        # h' = h + eps x: [k, h'] - i hbar p = -t eps [p, x] = i hbar t eps, at t = 0.5
        ops, eps = self._ops(hbar), 1e-3
        real = ops.apply_h
        ops.apply_h = lambda amps: real(amps) + eps * ops.apply_x(amps)
        reported = commutator_residuals(ops, self._states(ops))["k_h"]
        assert reported == pytest.approx(hbar * 0.5 * eps, rel=1e-6)
        assert reported > _verify_bound("galilei_brackets")

    @pytest.mark.parametrize("hbar", HBAR)
    def test_m_k_residual_of_an_affine_boost_generator(self, hbar):
        # k' f = k f + eps u, u of unit norm: m k' f - k'(m f) = (m - 1) eps u, so m = 2 reads eps
        ops, eps = self._ops(hbar, mass=2.0), 1e-3
        states = self._states(ops)
        real, u = ops.apply_k, states[0].amplitudes
        ops.apply_k = lambda amps: real(amps) + eps * u
        reported = commutator_residuals(ops, states)["m_k"]
        assert reported == pytest.approx(eps, rel=1e-6)
        assert reported > _verify_bound("galilei_brackets")
