import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixedframes import (
    DomainError,
    GaussianComponent,
    GridMismatchError,
    MomentumGrid,
    NormalizationError,
    PositionDensity,
    PositionGrid,
    ResourceLimitError,
    WaveFunction,
    act_mixed,
    coherently_translated,
    convolve,
    density_distance,
    gaussian_wavepacket,
    make_delta,
    make_gaussian,
    mix,
    position_density,
    pure_state,
    purity,
    translate,
    two_gaussian_superposition,
)
from mixedframes import analytic, quantum_system, verify
from mixedframes.cli import DEFAULTS
from mixedframes.figures import build_figure
from mixedframes.group_algebra import DiracComponent, GroupDensity, antipode, sample_on_grid
from mixedframes.quantum_system import density_mean, density_variance

from conftest import dense_density_matrix


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PositionGrid(1000, 40.0)
        with pytest.raises(ValueError):
            PositionGrid(32, 40.0)

    @pytest.mark.parametrize("n_points", [4096.9, 2.5, math.nan])
    @pytest.mark.parametrize("grid_class", [PositionGrid, MomentumGrid])
    def test_non_integral_size_rejected(self, grid_class, n_points):
        with pytest.raises(DomainError, match="^n_points must be an integer"):
            grid_class(n_points, 40.0)

    def test_points_span_box(self):
        grid = PositionGrid(256, 16.0)
        x = grid.points()
        assert x[0] == -8.0
        assert x[1] - x[0] == pytest.approx(16.0 / 256)


class TestWavepacket:
    def test_normalization(self, fine_grid):
        psi = gaussian_wavepacket(fine_grid, 0.75)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_peak_density_closed_form(self, fine_grid):
        psi = gaussian_wavepacket(fine_grid, 0.75)
        dens = position_density(pure_state(psi))
        i0 = np.argmin(np.abs(fine_grid.points()))
        assert dens.values[i0] == pytest.approx(0.5319230405352436, abs=1e-9)

    def test_density_variance_is_alpha_squared(self, fine_grid):
        psi = gaussian_wavepacket(fine_grid, 0.75)
        dens = position_density(pure_state(psi))
        assert density_variance(dens) == pytest.approx(0.75**2, abs=1e-9)

    def test_truncation_guard(self):
        grid = PositionGrid(256, 10.0)
        with pytest.raises(DomainError):
            gaussian_wavepacket(grid, 1.3)

    def test_truncation_guard_edge(self):
        # 8 * alpha == extent is rejected; one ulp below, 8 * alpha is exactly 40 - ulp(40)
        grid = PositionGrid(256, 40.0)
        with pytest.raises(DomainError, match="does not fit"):
            gaussian_wavepacket(grid, 5.0)
        assert gaussian_wavepacket(grid, math.nextafter(5.0, 0.0)).norm() == pytest.approx(1.0, abs=1e-12)


    def test_kernel_overflow_gives_zero_without_warning(self):
        # (1e200)^2 overflows to inf, and exp(-inf) = 0 is the exact value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = analytic.gaussian_kernel(np.array([1e200, 0.0]), 0.0, 1.0)
        assert kernel.tolist() == [0.0, 1.0]

    def test_underflowing_width_rejected(self, grid):
        # alpha**2 underflows to zero; the packet was all NaN
        with pytest.raises(DomainError):
            gaussian_wavepacket(grid, 1e-300)

    def test_norm_within_norm_tol_of_one(self):
        # on 64 points of spacing 1 a constant c has grid norm 8c exactly: the largest
        # norm 1 + k eps within NORM_TOL = 1e-9 passes, the next does not
        grid = PositionGrid(64, 64.0)
        eps = sys.float_info.epsilon
        inside = 1.0 + math.floor(1e-9 / eps) * eps
        assert WaveFunction(grid, np.full(64, inside / 8.0)).norm() == inside
        with pytest.raises(NormalizationError, match="norm is"):
            WaveFunction(grid, np.full(64, (inside + eps) / 8.0))

    def test_normalizes_down_to_a_norm_of_1e_150(self):
        # grid norm 8c of a constant c on 64 points of spacing 1: 1e-150 is enough, one ulp less is not
        grid = PositionGrid(64, 64.0)
        assert quantum_system._normalized(grid, np.full(64, 1e-150 / 8.0)).amplitudes[0] == 0.125
        with pytest.raises(DomainError, match="amplitudes vanish"):
            quantum_system._normalized(grid, np.full(64, math.nextafter(1e-150, 0.0) / 8.0))

    def test_nan_amplitudes_rejected(self, grid):
        with pytest.raises(NormalizationError):
            WaveFunction(grid, np.full(grid.n_points, np.nan))


class TestTranslate:
    def test_zero_shift_is_identity(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        assert np.array_equal(translate(psi, 0.0).amplitudes, psi.amplitudes)

    def test_peak_moves_to_minus_a(self, fine_grid):
        psi = gaussian_wavepacket(fine_grid, 0.75)
        shifted = position_density(pure_state(translate(psi, 2.5)))
        x = fine_grid.points()
        assert x[np.argmax(shifted.values)] == pytest.approx(-2.5, abs=fine_grid.spacing)
        assert np.max(np.abs(shifted.values - analytic.norm_pdf(x, -2.5, 0.75**2))) < 1e-12

    def test_round_trip_and_unitarity(self, grid):
        psi = gaussian_wavepacket(grid, 0.6, 1.0)
        back = translate(translate(psi, 1.7), -1.7)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12
        assert translate(psi, 1.7).norm() == pytest.approx(1.0, abs=1e-12)

    def test_shift_bound(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        with pytest.raises(DomainError):
            translate(psi, 25.0)


class TestActPure:
    """The sharp translation channel: act_mixed on a single Dirac."""

    def test_preserves_term_count_and_purity(self, grid):
        state = mixture_of_two(grid)
        out = act_mixed(make_delta(1.2), state)
        assert len(out.terms) == len(state.terms)
        assert purity(out) == pytest.approx(purity(state), abs=1e-10)

    def test_additivity(self, grid):
        state = mixture_of_two(grid)
        one = act_mixed(make_delta(0.7), act_mixed(make_delta(0.5), state))
        two = act_mixed(make_delta(1.2), state)
        for (_, p1), (_, p2) in zip(one.terms, two.terms):
            assert np.max(np.abs(p1.amplitudes - p2.amplitudes)) < 1e-12


def mixture_of_two(grid):
    return mix_state(grid, [(0.5, (0.75, -1.0)), (0.5, (0.5, 1.5))])


def mix_state(grid, term_params):
    from mixedframes import PureMixture

    terms = tuple((w, gaussian_wavepacket(grid, a, c)) for w, (a, c) in term_params)
    return PureMixture(grid, terms)


def spectral_shift(psi, a):
    """psi(x + a) by the spectral rule written as one expression: the reference
    for every translated row, which must match it bit for bit."""
    if a == 0.0:
        return psi.amplitudes
    k = psi.grid.wavenumbers()
    return np.fft.ifft(np.exp(1j * k * a) * np.fft.fft(psi.amplitudes))


# two-term mixtures of densities: Dirac components (one at 0), Gaussian ones, or both
CHANNEL_DENSITIES = {
    "dirac": [(0.6, make_delta(0.0)), (0.4, make_delta(-1.3))],
    "gaussian": [(0.7, make_gaussian(0.4, 0.36)), (0.3, make_gaussian(-2.0, 0.09))],
    "both": [(0.5, make_delta(0.0)), (0.5, make_gaussian(0.4, 0.36))],
}


class TestTranslated:
    @pytest.mark.parametrize("n", [64, 256, 8192])
    def test_rows_equal_the_full_spectrum_rule(self, n):
        # the half-spectrum phase, conjugated into the upper half, must give
        # the same bits as exp(ik*a) over every wavenumber
        grid = PositionGrid(n, 40.0)
        psis = [gaussian_wavepacket(grid, 0.75, -1.0), gaussian_wavepacket(grid, 0.5, 1.5)]
        edge = math.nextafter(20.0, 0.0)
        shifts = [5e-324, -5e-324, 1e-300, -1e-300, -0.0, 0.0, 19.99999, -19.99999,
                  edge, -edge, 0.3, -7.25, grid.spacing, -0.5 * grid.spacing]
        state = quantum_system.PureMixture(grid, tuple((0.5, psi) for psi in psis))
        diracs = GroupDensity(tuple((1 / len(shifts), DiracComponent(a)) for a in shifts))
        out = act_mixed(diracs, state)
        rows = [row.copy() for row in out._rows()]  # the streamed rows reuse their buffers
        expected = [(a, psi) for a in shifts for psi in psis]
        assert len(rows) == len(out.terms) == len(expected)
        for row, (_, term), (a, psi) in zip(rows, out.terms, expected):
            assert np.array_equal(row, spectral_shift(psi, a))
            assert np.array_equal(term.amplitudes, row)

    def test_one_translate_sizes_its_buffers_to_one_row(self):
        # a single offset needs one row of each buffer, not ROW_BLOCK of them
        psi = gaussian_wavepacket(PositionGrid(8192, 40.0), 0.75)
        translate(psi, 0.3)  # warm-up: FFT plan caches stay out of the count
        tracemalloc.start()
        try:
            translate(psi, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestActMixed:
    @pytest.mark.parametrize("kind", sorted(CHANNEL_DENSITIES))
    def test_rows_are_translates_in_offset_major_order(self, grid, kind):
        state = mixture_of_two(grid)
        rho = mix(CHANNEL_DENSITIES[kind])
        offsets = []
        for w, comp in rho.components:
            if isinstance(comp, DiracComponent):
                offsets.append((w, comp.location))
            else:
                nodes, node_weights = quantum_system._node_comb(comp, 24)
                offsets.extend(zip(w * node_weights, nodes))
        expected = [(wa * wt, a, psi) for wa, a in offsets for wt, psi in state.terms]
        total = math.fsum(w for w, _, _ in expected)

        out = act_mixed(rho, state, 24)
        assert len(out.terms) == len(expected)
        for (w, got), (w_ref, a, psi) in zip(out.terms, expected):
            assert w == w_ref / total
            assert np.array_equal(got.amplitudes, translate(psi, a).amplitudes)
            assert np.array_equal(got.amplitudes, spectral_shift(psi, a))
        # the zero-shift branch ran wherever a Dirac sits at 0
        assert any(a == 0.0 for _, a in offsets) == (kind != "gaussian")

    def test_out_of_box_node_rejected_before_any_fft(self, grid, monkeypatch):
        psi = gaussian_wavepacket(grid, 0.75)
        # the comb spans 19 +- 8: its first nodes lie inside the box of
        # extent 40, its last ones outside; the Dirac at 1.0 comes first
        rho = mix([(0.5, make_delta(1.0)), (0.5, make_gaussian(19.0, 1.0))])

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT before every offset was checked")

        monkeypatch.setattr(quantum_system.np.fft, "fft", no_fft)
        with pytest.raises(DomainError, match="translation parameter"):
            act_mixed(rho, pure_state(psi), 24)

    def test_two_point_matches_manual_mixture(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(2.5))])
        out = act_mixed(rho, pure_state(psi))
        assert len(out.terms) == 2
        manual = 0.5 * np.abs(psi.amplitudes) ** 2 + 0.5 * np.abs(
            translate(psi, 2.5).amplitudes
        ) ** 2
        got = position_density(out).values
        assert np.max(np.abs(got - manual)) < 1e-14

    def test_delta_reduces_to_act_pure(self, grid):
        # a Dirac translates every term and keeps the weights
        state = mixture_of_two(grid)
        via_channel = act_mixed(make_delta(-0.8), state)
        assert len(via_channel.terms) == len(state.terms)
        for (w1, p1), (w2, p2) in zip(via_channel.terms, state.terms):
            assert w1 == pytest.approx(w2, abs=1e-15)
            assert np.max(np.abs(p1.amplitudes - translate(p2, -0.8).amplitudes)) < 1e-13

    def test_gaussian_smearing_closed_form(self, fine_grid):
        alpha, sigma = 0.75, 1.0
        psi = gaussian_wavepacket(fine_grid, alpha)
        out = position_density(act_mixed(make_gaussian(0.0, sigma**2), pure_state(psi), 64))
        ref = analytic.smeared_mixture_density(fine_grid.points(), alpha, sigma)
        assert np.max(np.abs(out.values - ref)) < 1e-6

    def test_nonzero_center_follows_translate_convention(self, fine_grid):
        # density of the channel output is centered at -a0 for smearing mean a0
        alpha, sigma, a0 = 0.75, 1.0, 0.8
        psi = gaussian_wavepacket(fine_grid, alpha)
        out = position_density(act_mixed(make_gaussian(a0, sigma**2), pure_state(psi), 64))
        ref = analytic.smeared_mixture_density(fine_grid.points(), alpha, sigma, shift=-a0)
        assert np.max(np.abs(out.values - ref)) < 1e-6

    def test_quad_order_floor(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        with pytest.raises(DomainError, match="quad_order must be >= 16"):
            act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=8)
        with pytest.raises(DomainError, match="quad_order must be >= 16"):
            act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=15)
        out = act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=16)
        assert len(out.weights) == 16

    def test_comb_takes_variances_up_to_the_largest_float_over_128(self):
        # the comb's kernel divides (8 sigma)^2 by 2 sigma^2, and 2 (8 sigma)^2 = 128 v is the
        # largest float at v = max / 128; one ulp more and it overflows
        edge = sys.float_info.max / 128.0
        nodes, weights = quantum_system._node_comb(GaussianComponent(0.0, edge), 16)
        assert np.all(np.isfinite(nodes)) and float(weights.sum()) == pytest.approx(1.0)
        with pytest.raises(DomainError, match="too wide for the node comb"):
            quantum_system._node_comb(GaussianComponent(0.0, math.nextafter(edge, math.inf)), 16)

    def test_term_cap(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        rho = mix([(0.5, make_gaussian(0.0, 1.0)), (0.5, make_gaussian(1.0, 1.0))])
        # 2 * 2049 terms, two over TERM_CAP = 4096
        with pytest.raises(ResourceLimitError):
            act_mixed(rho, pure_state(psi), quad_order=2049)
        # offsets times input terms: 2048 offsets on two terms reach the cap exactly, 2049 pass it
        assert len(act_mixed(make_gaussian(0.0, 1.0), mixture_of_two(grid), quad_order=2048).weights) == 4096
        with pytest.raises(ResourceLimitError, match="4098 terms"):
            act_mixed(make_gaussian(0.0, 1.0), mixture_of_two(grid), quad_order=2049)

    # 1e9 is rejected as a type, before the term count could reject its size
    @pytest.mark.parametrize("order", [20.0, 16.5, math.nan, 1e9, "64", None])
    def test_non_integral_quad_order_rejected(self, grid, order):
        psi = gaussian_wavepacket(grid, 0.75)
        with pytest.raises(DomainError, match="quad_order must be an integer"):
            act_mixed(make_gaussian(0.0, 0.5), pure_state(psi), order)
        with pytest.raises(DomainError, match="quad_order must be an integer"):
            act_mixed(make_delta(0.5), pure_state(psi), order)
        with pytest.raises(DomainError, match="quad_order must be an integer"):
            coherently_translated(GaussianComponent(0.0, 0.5), psi, order)

    def test_numpy_integer_quad_order_accepted(self, grid):
        state = pure_state(gaussian_wavepacket(grid, 0.75))
        out = act_mixed(make_gaussian(0.0, 0.5), state, np.int64(24))
        assert len(out.terms) == 24

    def test_term_cap_checked_before_any_comb_is_built(self, grid, monkeypatch):
        def no_comb(*args):
            raise AssertionError("node comb built before the term-cap check")

        monkeypatch.setattr(quantum_system, "_node_comb", no_comb)
        psi = gaussian_wavepacket(grid, 0.75)
        with pytest.raises(ResourceLimitError):
            act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=10**6)

    def test_coherent_smearing_has_the_same_term_cap(self, grid, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("node comb or FFT before the term-cap check")

        psi = gaussian_wavepacket(grid, 0.75)
        monkeypatch.setattr(quantum_system, "_node_comb", fail)
        monkeypatch.setattr(quantum_system.np.fft, "fft", fail)
        with pytest.raises(ResourceLimitError):
            coherently_translated(GaussianComponent(0.0, 1.0), psi, 10**6)


class TestPositionDensity:
    def test_pure_density(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        dens = position_density(pure_state(psi))
        assert np.max(np.abs(dens.values - np.abs(psi.amplitudes) ** 2)) < 1e-15

    def test_half_translation_closed_form(self, fine_grid):
        alpha, a2 = 0.75, 2.5
        psi = gaussian_wavepacket(fine_grid, alpha)
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(-a2))])
        dens = position_density(act_mixed(rho, pure_state(psi)))
        ref = analytic.two_point_mixed_density(fine_grid.points(), alpha, a2)
        assert np.max(np.abs(dens.values - ref)) < 1e-12

    def test_smeared_variance(self, fine_grid):
        alpha, sigma = 0.75, 1.0
        psi = gaussian_wavepacket(fine_grid, alpha)
        dens = position_density(act_mixed(make_gaussian(0.0, sigma**2), pure_state(psi), 64))
        assert density_variance(dens) == pytest.approx(sigma**2 + alpha**2, abs=1e-6)


    def test_nan_values_rejected(self, grid):
        with pytest.raises(NormalizationError):
            PositionDensity(grid, np.full(grid.n_points, np.nan))

    @pytest.mark.parametrize("low, accepted", [(-1e-12, True), (math.nextafter(-1e-12, -math.inf), False)])
    def test_values_down_to_minus_1e_12(self, low, accepted):
        # rounding may leave a density value just below zero: -1e-12 passes, one ulp lower does not
        grid = PositionGrid(64, 64.0)
        values = np.full(64, 1.0 / 64.0)
        values[:2] = low, 2.0 / 64.0 - low
        if accepted:
            assert PositionDensity(grid, values).values[0] == low
        else:
            with pytest.raises(NormalizationError, match="nonnegative"):
                PositionDensity(grid, values)

    def test_integral_within_density_integral_tol_of_one(self):
        # on 64 points of spacing 1 a constant c integrates to 64c exactly: the largest
        # integral 1 + k eps within DENSITY_INTEGRAL_TOL = 1e-8 passes, the next does not
        grid = PositionGrid(64, 64.0)
        eps = sys.float_info.epsilon
        inside = 1.0 + math.floor(1e-8 / eps) * eps
        assert grid.integrate(PositionDensity(grid, np.full(64, inside / 64.0)).values) == inside
        with pytest.raises(NormalizationError, match="integrates to"):
            PositionDensity(grid, np.full(64, (inside + eps) / 64.0))


class TestChannelOutput:
    """What act_mixed returns forms its rows only when they are read."""

    def test_purity_first_runs_no_inverse_fft(self, grid, monkeypatch):
        state = mixture_of_two(grid)
        expected = purity(act_mixed(make_gaussian(0.3, 0.5), state, 16))

        def no_ifft(*args, **kwargs):
            raise AssertionError("inverse FFT on the way to purity")

        monkeypatch.setattr(quantum_system.np.fft, "ifft", no_ifft)
        assert purity(act_mixed(make_gaussian(0.3, 0.5), state, 16)) == expected

    def test_density_and_purity_build_no_wavefunction(self, grid, monkeypatch):
        out = act_mixed(make_gaussian(0.3, 0.5), mixture_of_two(grid), 16)
        built = []
        init = WaveFunction.__init__

        def counted(psi, *args):
            built.append(psi)
            init(psi, *args)

        monkeypatch.setattr(WaveFunction, "__init__", counted)
        position_density(out)
        purity(out)
        assert built == []
        assert len(out.terms) == len(built) == 32  # the count sees the rows once they are read

    def test_purity_of_one_offset_builds_no_wavefunction(self, grid, monkeypatch):
        # one sharp offset takes the dephasing path too: its rows are never formed
        state = mixture_of_two(grid)
        expected = purity(state)
        out = act_mixed(make_delta(1.3), state)
        built = []
        init = WaveFunction.__init__

        def counted(psi, *args):
            built.append(psi)
            init(psi, *args)

        monkeypatch.setattr(WaveFunction, "__init__", counted)
        assert purity(out) == pytest.approx(expected, abs=1e-12)
        assert built == []

    def test_a_pass_inside_another_leaves_purity_alone(self):
        grid = PositionGrid(256, 40.0)
        state = pure_state(gaussian_wavepacket(grid, 0.75))
        expected = purity(act_mixed(make_gaussian(0.3, 0.5), state, 16))
        out = act_mixed(make_gaussian(0.3, 0.5), state, 16)
        rows = out._rows()
        next(rows)
        position_density(out)  # a second full pass, finished inside the first
        for _ in rows:
            pass
        assert purity(out) == expected

    def test_each_streamed_row_keeps_its_norm_check(self, grid, monkeypatch):
        psi = gaussian_wavepacket(grid, 0.75)
        out = act_mixed(make_gaussian(0.3, 0.5), pure_state(psi), 16)
        ifft = np.fft.ifft

        def scaled_ifft(*args, **kwargs):
            rows = ifft(*args, **kwargs)
            rows *= 1.01  # in place, also where the caller passed ``out``
            return rows

        monkeypatch.setattr(quantum_system.np.fft, "ifft", scaled_ifft)
        with pytest.raises(NormalizationError, match="^wavefunction norm is"):
            position_density(out)
        with pytest.raises(NormalizationError, match="^wavefunction norm is"):
            coherently_translated(GaussianComponent(0.3, 0.5), psi, 16)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def per_row_pass(out):
    """The channel pass one row at a time: the reference the block pass must match bit for bit.

    Per offset, exp(ik a) over the half spectrum, chi accumulated from it
    and one inverse FFT per input term (a zero offset keeps the input
    amplitudes); the density adds w |row|^2 row by row. Returns the rows,
    chi and the density values.
    """
    grid = out.grid
    n, half = grid.n_points, grid.n_points // 2
    ik = 1j * grid.wavenumbers()[: half + 1]
    wrap = -2j * np.pi * n / grid.extent
    chi = np.zeros((2, half + 1), dtype=complex)
    psis = [psi for _, psi in out.inputs.terms]
    spectra = np.fft.fft([psi.amplitudes for psi in psis])
    rows = []
    for w, a in zip(out.offset_weights, out.shifts, strict=True):
        phase = np.empty(n, dtype=complex)
        phase[: half + 1] = np.exp(ik * a)
        chi[0] += w * phase[: half + 1]
        chi[1] += (w * np.exp(wrap * a)) * phase[: half + 1]
        phase[half + 1 :] = np.conj(phase[half - 1 : 0 : -1])
        for psi, spectrum in zip(psis, spectra):
            rows.append(psi.amplitudes if a == 0.0 else np.fft.ifft(phase * spectrum))
    values = np.zeros(n)
    for w, row in zip(out.weights, rows, strict=True):
        values += w * np.abs(row) ** 2
    return rows, chi, values


@st.composite
def channel_cases(draw):
    """A grid of 64 to 8192 points, 1-3 packets and a density of 1-3 Dirac or Gaussian parts."""
    grid = PositionGrid(draw(st.sampled_from([2**e for e in range(6, 14)])), 40.0)
    packets = draw(st.lists(st.tuples(st.floats(0.4, 1.2), st.floats(-3.0, 3.0)), min_size=1, max_size=3))
    offset = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-15.0, 15.0))
    gaussian = st.builds(GaussianComponent, st.floats(-5.0, 5.0), st.floats(0.01, 1.0))
    parts = draw(st.lists(st.one_of(offset.map(DiracComponent), gaussian), min_size=1, max_size=3))
    packet_weights = draw(st.lists(st.floats(0.2, 1.0), min_size=len(packets), max_size=len(packets)))
    part_weights = draw(st.lists(st.floats(0.2, 1.0), min_size=len(parts), max_size=len(parts)))
    state = mix_state(grid, [(w / sum(packet_weights), p) for w, p in zip(packet_weights, packets)])
    rho = GroupDensity(tuple((w / sum(part_weights), c) for w, c in zip(part_weights, parts)))
    return state, rho, draw(st.sampled_from([16, 17, 23]))


# offsets that fill no whole number of blocks: 5 offsets of 2 per block with
# three packets, and 17 comb nodes of 8 per block with one
UNEVEN_BLOCKS = [
    (
        mix_state(PositionGrid(256, 40.0), [(0.2, (0.75, -1.0)), (0.3, (0.5, 1.5)), (0.5, (1.0, 0.0))]),
        GroupDensity(tuple((0.2, DiracComponent(a)) for a in (0.0, -2.5, 3.1, -0.0, 7.0))),
        16,
    ),
    (mix_state(PositionGrid(512, 40.0), [(1.0, (0.75, 0.5))]), make_gaussian(-0.4, 0.3), 17),
]


class TestBlockPass:
    """Rows by the block: the same bits as the pass one row at a time."""

    @settings(max_examples=40, deadline=None)
    @given(channel_cases())
    @example(UNEVEN_BLOCKS[0])
    @example(UNEVEN_BLOCKS[1])
    def test_block_pass_equals_the_per_row_rule(self, case):
        state, rho, order = case
        out = act_mixed(rho, state, order)
        rows, chi, values = per_row_pass(out)
        streamed = [row.copy() for row in out._rows()]  # the streamed rows reuse their buffers
        assert len(streamed) == len(rows) == len(out.weights)
        assert all(same_bits(got, want) for got, want in zip(streamed, rows))
        assert len(out.chi) == 2 and all(same_bits(got, want) for got, want in zip(out.chi, chi))

        fresh = act_mixed(rho, state, order)
        assert same_bits(position_density(fresh).values, values)
        assert all(same_bits(got, want) for got, want in zip(fresh.chi, chi))
        reference = act_mixed(rho, state, order)
        reference.chi[:] = chi
        expected = purity(reference)
        assert purity(fresh) == expected
        purity_first = act_mixed(rho, state, order)
        assert purity(purity_first) == expected
        assert all(same_bits(got, want) for got, want in zip(purity_first.chi, chi))

    @pytest.mark.parametrize("n", [64, 1024, 8192])
    def test_cos_and_sin_of_the_angle_equal_the_complex_exponential(self, n):
        # the block pass forms exp(ik a) from cos and sin of a k + 0.0, with
        # no 0.0 added at the Nyquist index, where ik has real part -0.0:
        # both must reach the same libm, bit for bit, signed zeros included
        grid = PositionGrid(n, 40.0)
        half = n // 2
        k = grid.wavenumbers()[: half + 1]
        ik = 1j * k
        assert k[half] < 0.0 and math.copysign(1.0, ik[half].real) == -1.0
        edge = math.nextafter(20.0, 0.0)
        shifts = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, edge, -edge, grid.spacing]
        shifts += np.random.default_rng(n).uniform(-20.0, 20.0, 200).tolist()
        for a in shifts:
            angle = a * k
            angle[:half] += 0.0
            phase = np.empty(half + 1, dtype=complex)
            phase.real, phase.imag = np.cos(angle), np.sin(angle)
            assert same_bits(phase, np.exp(ik * a)), a

    def test_a_norm_off_in_one_row_of_a_block_is_named(self):
        # zero-offset rows hold the input amplitudes, so with the second
        # packet's spectrum scaled only its row at 1.3 is off, last of the block
        grid = PositionGrid(256, 40.0)
        out = act_mixed(mix([(0.5, make_delta(0.0)), (0.5, make_delta(1.3))]), mixture_of_two(grid))
        out.spectra[1] *= 1.0 + 1e-6
        norms = [grid.norm(row) for row in out._rows()]
        assert [abs(x - 1.0) > quantum_system.NORM_TOL for x in norms] == [False, False, False, True]
        named = f"^wavefunction norm is {re.escape(repr(norms[3]))}, expected 1$"
        with pytest.raises(NormalizationError, match=named):
            position_density(out)

    def test_density_pass_holds_about_one_block(self):
        # 128 rows at n = 8192 are 16 MiB; the pass holds one block of them:
        # phase and row buffers of 1 MiB each and the block's densities (3.4 MiB measured)
        psi = gaussian_wavepacket(PositionGrid(8192, 40.0), 0.75)
        position_density(act_mixed(make_gaussian(0.3, 0.5), pure_state(psi), 128))  # warm-up
        out = act_mixed(make_gaussian(0.3, 0.5), pure_state(psi), 128)
        tracemalloc.start()
        try:
            position_density(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPurity:
    def test_single_term_is_pure(self, grid):
        assert purity(pure_state(gaussian_wavepacket(grid, 0.75))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("edge, outward", [(1e-100, 0.0), (1e100, math.inf)])
    def test_spacing_range_includes_its_ends(self, edge, outward):
        # 64 points over 64 spacings: a spacing of exactly 1e-100 or 1e100 is accepted, one ulp outside is not
        for spacing, accepted in ((edge, True), (math.nextafter(edge, outward), False)):
            grid = PositionGrid(64, 64.0 * spacing)
            assert grid.spacing == spacing
            state = pure_state(gaussian_wavepacket(grid, 4.0 * spacing))
            if accepted:
                assert purity(state) == pytest.approx(1.0, abs=1e-12)
            else:
                with pytest.raises(DomainError, match="grid spacing"):
                    purity(state)

    def test_orthogonal_half_mixture(self, grid):
        far = mix_state(grid, [(0.5, (0.3, -6.0)), (0.5, (0.3, 6.0))])
        assert purity(far) == pytest.approx(0.5, abs=1e-12)

    def test_half_translation_value(self, fine_grid):
        alpha, a2 = 0.75, 2.5
        psi = gaussian_wavepacket(fine_grid, alpha)
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(a2))])
        value = purity(act_mixed(rho, pure_state(psi)))
        expected = 0.5 + 0.5 * math.exp(-(a2**2) / (4 * alpha**2))
        assert value == pytest.approx(expected, abs=1e-10)
        assert value == pytest.approx(0.5310882620110582, abs=1e-10)

    @pytest.mark.parametrize("alpha, sigma", [(0.75, 1.0), (0.5, 0.3), (1.2, 2.0)])
    def test_gaussian_smearing_closed_form(self, fine_grid, alpha, sigma):
        # E exp(-(a - b)^2 / 4 alpha^2) over a - b ~ N(0, 2 sigma^2): the dephasing path
        state = pure_state(gaussian_wavepacket(fine_grid, alpha))
        value = purity(act_mixed(make_gaussian(0.3, sigma**2), state))
        assert value == pytest.approx(alpha / math.hypot(alpha, sigma), abs=1e-10)

    def test_matches_dense_oracle(self):
        grid = PositionGrid(256, 40.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            term_params = [
                (w, (float(rng.uniform(0.3, 1.0)), float(rng.uniform(-3, 3))))
                for w in (0.2, 0.3, 0.5)
            ]
            state = mix_state(grid, term_params)
            dense = dense_density_matrix(state)
            oracle = float(np.real(np.trace(dense @ dense)))
            assert purity(state) == pytest.approx(oracle, abs=1e-10)

    def test_dephasing_path_leaves_the_mixture_public_form_alone(self, grid, monkeypatch):
        # every channel output, a sharp one too, takes the dephasing path, which
        # needs FFTs; the Gram path of a built mixture does not
        state = pure_state(gaussian_wavepacket(grid, 0.75))
        smeared = act_mixed(make_gaussian(0.4, 0.5), state, 16)
        expected = purity(smeared)
        rebuilt = quantum_system.PureMixture(grid, smeared.terms)
        sharp = act_mixed(make_delta(1.3), state)
        dephased = []
        dephased_purity = quantum_system._dephased_purity
        monkeypatch.setattr(
            quantum_system, "_dephased_purity", lambda out: dephased.append(out) or dephased_purity(out)
        )
        assert purity(sharp) == pytest.approx(purity(state), abs=1e-12)
        assert dephased == [sharp]

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT on the Gram path")

        monkeypatch.setattr(quantum_system.np.fft, "fft", no_fft)
        monkeypatch.setattr(quantum_system.np.fft, "ifft", no_fft)
        assert abs(purity(rebuilt) - expected) <= 1e-13
        assert dephased == [sharp]

    def test_non_increasing_under_channel(self, grid):
        rng = np.random.default_rng(6)
        state = mixture_of_two(grid)
        for _ in range(10):
            rho = mix([(0.5, make_delta(float(rng.uniform(-3, 3)))), (0.5, make_gaussian(0.0, 0.5))])
            assert purity(act_mixed(rho, state, 24)) <= purity(state) + 1e-9


class TestSuperposition:
    def test_coincident_sum_is_single_gaussian(self, fine_grid):
        psi = two_gaussian_superposition(fine_grid, 0.75, 0.0, +1)
        ref = gaussian_wavepacket(fine_grid, 0.75)
        assert np.max(np.abs(np.abs(psi.amplitudes) - np.abs(ref.amplitudes))) < 1e-12

    def test_sum_density_closed_form(self, fine_grid):
        psi = two_gaussian_superposition(fine_grid, 0.75, 2.5, +1)
        dens = position_density(pure_state(psi))
        ref = analytic.superposition_density(fine_grid.points(), 0.75, 2.5, +1)
        assert np.max(np.abs(dens.values - ref)) < 1e-7

    def test_difference_density_closed_form_and_node(self, fine_grid):
        psi = two_gaussian_superposition(fine_grid, 0.75, 2.5, -1)
        dens = position_density(pure_state(psi))
        ref = analytic.superposition_density(fine_grid.points(), 0.75, 2.5, -1)
        assert np.max(np.abs(dens.values - ref)) < 1e-7
        i_mid = np.argmin(np.abs(fine_grid.points() - 1.25))
        assert dens.values[i_mid] < 1e-10

    def test_difference_normalization_constant(self, fine_grid):
        # the correct normalization denominator carries (1 - overlap), not (1 + overlap)
        alpha, a2 = 0.75, 2.5
        x = fine_grid.points()
        g0 = np.exp(-(x**2) / (4 * alpha**2))
        g2 = np.exp(-((x - a2) ** 2) / (4 * alpha**2))
        overlap = math.exp(-(a2**2) / (8 * alpha**2))
        correct = (g2 - g0) ** 2 / (2 * math.sqrt(2 * math.pi) * alpha * (1 - overlap))
        wrong = (g2 - g0) ** 2 / (2 * math.sqrt(2 * math.pi) * alpha * (1 + overlap))
        assert float(np.trapezoid(correct, x)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.trapezoid(wrong, x)) == pytest.approx((1 - overlap) / (1 + overlap), abs=1e-9)
        dens = position_density(pure_state(two_gaussian_superposition(fine_grid, alpha, a2, -1)))
        assert np.max(np.abs(dens.values - correct)) < 1e-7

    def test_zero_function_rejected(self, grid):
        with pytest.raises(DomainError):
            two_gaussian_superposition(grid, 0.75, 0.0, -1)


class TestCoherentlyTranslated:
    def test_equals_the_sequential_translate_sum(self, grid):
        psi = gaussian_wavepacket(grid, 0.75, 0.5)
        smear = GaussianComponent(0.3, 0.5)
        nodes, weights = quantum_system._node_comb(smear, 33)
        amps = np.zeros(grid.n_points, dtype=complex)
        for w, a in zip(weights, nodes):
            amps += w * spectral_shift(psi, a)
        got = coherently_translated(smear, psi, 33).amplitudes
        assert np.array_equal(got, amps / grid.norm(amps))

    def test_sharp_limit_matches_translate(self, fine_grid):
        psi = gaussian_wavepacket(fine_grid, 0.75)
        smeared = coherently_translated(GaussianComponent(1.5, 1e-8), psi)
        sharp = translate(psi, 1.5)
        assert np.max(np.abs(smeared.amplitudes - sharp.amplitudes)) < 1e-6

    def test_density_closed_form(self, fine_grid):
        alpha, sigma = 0.75, 1.0
        psi = gaussian_wavepacket(fine_grid, alpha)
        out = coherently_translated(GaussianComponent(0.0, sigma**2), psi, 64)
        dens = position_density(pure_state(out))
        ref = analytic.smeared_pure_density(fine_grid.points(), alpha, sigma)
        assert np.max(np.abs(dens.values - ref)) < 1e-6

    def test_more_localized_than_channel_output(self, fine_grid):
        for sigma in (0.5, 1.0, 2.0):
            alpha = 0.75
            psi = gaussian_wavepacket(fine_grid, alpha)
            mixed = position_density(act_mixed(make_gaussian(0.0, sigma**2), pure_state(psi), 64))
            pure = position_density(
                pure_state(coherently_translated(GaussianComponent(0.0, sigma**2), psi, 64))
            )
            assert density_variance(pure) < density_variance(mixed)
            assert density_variance(mixed) == pytest.approx(sigma**2 + alpha**2, abs=1e-6)
            assert density_variance(pure) == pytest.approx(
                (sigma**2 + 2 * alpha**2) / 2, abs=1e-6
            )


class TestSmearedPair:
    """``smeared_pair`` against the two paths it replaces, bit for bit, and its one pass."""

    @pytest.mark.parametrize("n, extent", [(256, 25.0), (1024, 40.0)])
    @pytest.mark.parametrize("order", [16, 33, 64])  # 33 is not a multiple of ROW_BLOCK
    @pytest.mark.parametrize(
        "smear", [GaussianComponent(0.3, 0.5), DiracComponent(0.3)], ids=["gaussian", "dirac"]
    )
    def test_equals_the_channel_density_and_the_comb_sum(self, n, extent, order, smear):
        grid = PositionGrid(n, extent)
        psi = gaussian_wavepacket(grid, 0.75, 0.5)
        mixed, packet = quantum_system.smeared_pair(smear, psi, order)
        out = act_mixed(GroupDensity(((1.0, smear),)), pure_state(psi), order)
        assert np.array_equal(mixed.values, position_density(out).values)
        amps = np.zeros(n, dtype=complex)
        for c, (_, row) in zip(quantum_system._node_comb(smear, order)[1], out.terms, strict=True):
            amps += c * row.amplitudes
        assert np.array_equal(packet.amplitudes, quantum_system._normalized(grid, amps).amplitudes)

    @staticmethod
    def _passes(monkeypatch) -> list:
        """The channel outputs whose rows are streamed, one entry per pass."""
        outputs = []
        real = quantum_system.ChannelOutput._blocks

        def spy(out, *args, **kwargs):
            outputs.append(out)
            return real(out, *args, **kwargs)

        monkeypatch.setattr(quantum_system.ChannelOutput, "_blocks", spy)
        return outputs

    def test_smear_figure_streams_its_rows_once(self, monkeypatch):
        outputs = self._passes(monkeypatch)
        build_figure("gaussian-smear", {**DEFAULTS, "grid_n": 256})
        assert len(outputs) == 1

    def test_localization_check_streams_each_smearing_once(self, monkeypatch):
        outputs = self._passes(monkeypatch)
        verify.check_localization_inequality(256, 64)
        assert len(outputs) == len(set(map(id, outputs))) == 16  # 4 sigma x 4 alpha


class TestDensityDistance:
    def test_zero_for_identical(self, grid):
        dens = position_density(pure_state(gaussian_wavepacket(grid, 0.75)))
        assert density_distance(dens, dens) == (0.0, 0.0)

    def test_midpoint_gap_between_mixed_and_pure(self, fine_grid):
        alpha, a2 = 0.75, 2.5
        psi = gaussian_wavepacket(fine_grid, alpha)
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(-a2))])
        mixed = position_density(act_mixed(rho, pure_state(psi)))
        pure = position_density(pure_state(two_gaussian_superposition(fine_grid, alpha, a2, +1)))
        sup, l1 = density_distance(mixed, pure)
        i_mid = np.argmin(np.abs(fine_grid.points() - a2 / 2))
        assert pure.values[i_mid] - mixed.values[i_mid] > 0.05
        assert sup > 0.0
        assert l1 <= 2.0

    def test_disjoint_boxes_read_their_height_and_full_l1(self):
        # boxes of height 0.5 over 4 cells of width 0.5: the gap is exact in binary
        box_grid = PositionGrid(64, 32.0)
        left, right = np.zeros(64), np.zeros(64)
        left[10:14] = right[40:44] = 0.5
        d1, d2 = PositionDensity(box_grid, left), PositionDensity(box_grid, right)
        assert density_distance(d1, d2) == (0.5, 2.0)

    def test_grid_mismatch(self, grid, fine_grid):
        d1 = position_density(pure_state(gaussian_wavepacket(grid, 0.75)))
        d2 = position_density(pure_state(gaussian_wavepacket(fine_grid, 0.75)))
        with pytest.raises(GridMismatchError):
            density_distance(d1, d2)


class TestChannelInvariants:
    def test_density_equals_reflected_convolution(self, grid):
        psi = gaussian_wavepacket(grid, 0.8, 0.3)
        base = position_density(pure_state(psi)).values
        step = grid.spacing
        rho = mix([(0.25, make_delta(16 * step)), (0.75, make_gaussian(-0.4, 0.36))])
        channel = position_density(act_mixed(rho, pure_state(psi), 64)).values
        kernel = sample_on_grid(antipode(rho), grid.points())
        oracle = np.real(np.fft.ifft(np.fft.fft(base) * np.fft.fft(np.fft.ifftshift(kernel)))) * step
        assert np.max(np.abs(channel - oracle)) < 1e-6

    def test_composition_matches_convolution(self, grid):
        psi = gaussian_wavepacket(grid, 0.7)
        r1 = mix([(0.4, make_delta(0.6)), (0.6, make_gaussian(-0.3, 0.25))])
        r2 = mix([(0.5, make_delta(-1.1)), (0.5, make_gaussian(0.8, 0.16))])
        sequential = position_density(act_mixed(r1, act_mixed(r2, pure_state(psi), 48), 48))
        combined = position_density(act_mixed(convolve(r1, r2), pure_state(psi), 48))
        sup, _ = density_distance(sequential, combined)
        assert sup < 1e-6

    def test_mean_shift_convention(self, fine_grid):
        # translating by rho with mean mu moves the density mean to -mu
        psi = gaussian_wavepacket(fine_grid, 0.75)
        out = position_density(act_mixed(make_gaussian(1.2, 0.25), pure_state(psi), 64))
        assert density_mean(out) == pytest.approx(-1.2, abs=1e-8)


def _array_records(grid):
    """Builders of each frozen record that holds a numpy array, from one float."""
    from mixedframes.thermal import ThermalParameters, thermal_state

    def wave(center):
        return gaussian_wavepacket(grid, 0.8, center)

    return {
        "WaveFunction": wave,
        "PureMixture": lambda center: pure_state(wave(center)),
        "PositionDensity": lambda center: position_density(pure_state(wave(center))),
        "MomentumMixture": lambda x: thermal_state(ThermalParameters(1.0, 1.0 + x), MomentumGrid(201, 20.0)),
    }


class TestArrayRecords:
    """Records that hold arrays compare and hash by identity, as ``ChannelOutput`` does:
    a generated ``==`` would compare arrays elementwise and raise, and the generated
    ``__hash__`` would hash an unhashable array."""

    @pytest.mark.parametrize("name", ["WaveFunction", "PureMixture", "PositionDensity", "MomentumMixture"])
    def test_compare_and_hash_by_identity(self, grid, name):
        make = _array_records(grid)[name]
        a, b, same_values = make(0.0), make(1.0), make(0.0)
        assert type(a).__name__ == name
        assert a == a and a != b and a != same_values
        assert len({a, b, same_values, a}) == 3


class TestCsvExports:
    def test_density_export_matches_columns_csv_across_grids(self):
        from mixedframes.quantum_system import _x_cells, position_density_csv
        from mixedframes.textio import columns_csv

        grids = [PositionGrid(n, extent) for n, extent in
                 ((64, 40.0), (128, 40.0), (64, 20.0), (256, 40.0), (512, 10.0), (1024, 40.0))]
        _x_cells.cache_clear()
        # forward, back (hits on the last four, misses beyond), then every other
        for grid in grids + grids[::-1] + grids[::2]:
            dens = position_density(pure_state(gaussian_wavepacket(grid, 0.5)))
            expected = columns_csv(["x", "density"], [grid.points(), dens.values])
            assert position_density_csv(dens) == expected
            assert _x_cells.cache_info().currsize <= 4
        info = _x_cells.cache_info()
        assert info.hits >= 4 and info.misses > len(grids)

    def test_density_export_round_trips(self, grid):
        from mixedframes.quantum_system import position_density_csv

        dens = position_density(pure_state(gaussian_wavepacket(grid, 0.75)))
        lines = position_density_csv(dens).splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == grid.n_points + 1
        x, value = (float(tok) for tok in lines[1].split(","))
        assert x == grid.points()[0]
        assert value == dens.values[0]
