import math
import tracemalloc

import numpy as np
import pytest

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
from mixedframes import analytic, quantum_system
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


    def test_underflowing_width_rejected(self, grid):
        # alpha**2 underflows to zero; the packet was all NaN
        with pytest.raises(DomainError):
            gaussian_wavepacket(grid, 1e-300)

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
                nodes, node_weights = quantum_system._gaussian_comb(comp, 24)
                offsets.extend(zip(w * node_weights, nodes))
        expected = [(wa * wt, a, psi) for wa, a in offsets for wt, psi in state.terms]
        total = math.fsum(w for w, _, _ in expected)

        out = act_mixed(rho, state, 24)
        assert len(out.terms) == len(expected)
        for (w, got), (w_ref, a, psi) in zip(out.terms, expected):
            assert w == w_ref / total
            assert np.array_equal(got.amplitudes, translate(psi, a).amplitudes)
            assert np.array_equal(got.amplitudes, spectral_shift(psi, a))
            if a == 0.0:
                assert got is psi
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
        with pytest.raises(DomainError):
            act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=8)

    def test_term_cap(self, grid):
        psi = gaussian_wavepacket(grid, 0.75)
        rho = mix([(0.5, make_gaussian(0.0, 1.0)), (0.5, make_gaussian(1.0, 1.0))])
        # 2 * 2049 terms, two over TERM_CAP = 4096
        with pytest.raises(ResourceLimitError):
            act_mixed(rho, pure_state(psi), quad_order=2049)

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

        monkeypatch.setattr(quantum_system, "_gaussian_comb", no_comb)
        psi = gaussian_wavepacket(grid, 0.75)
        with pytest.raises(ResourceLimitError):
            act_mixed(make_gaussian(0.0, 1.0), pure_state(psi), quad_order=10**6)

    def test_coherent_smearing_has_the_same_term_cap(self, grid, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("node comb or FFT before the term-cap check")

        psi = gaussian_wavepacket(grid, 0.75)
        monkeypatch.setattr(quantum_system, "_gaussian_comb", fail)
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
        check = WaveFunction.__post_init__

        def counted(psi):
            built.append(psi)
            check(psi)

        monkeypatch.setattr(WaveFunction, "__post_init__", counted)
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
        check = WaveFunction.__post_init__

        def counted(psi):
            built.append(psi)
            check(psi)

        monkeypatch.setattr(WaveFunction, "__post_init__", counted)
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


class TestPurity:
    def test_single_term_is_pure(self, grid):
        assert purity(pure_state(gaussian_wavepacket(grid, 0.75))) == pytest.approx(1.0, abs=1e-12)

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
        nodes, weights = quantum_system._gaussian_comb(smear, 33)
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
