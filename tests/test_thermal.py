import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from mixedframes import (
    DomainError,
    MomentumGrid,
    MomentumMixture,
    NormalizationError,
    PhysicalConstants,
    ThermalParameters,
    beta_of_temperature,
    energy_momentum_consistency,
    energy_smearing_density,
    maxwell_boltzmann_density,
    momentum_smearing_density,
    temperature_of_beta,
    thermal_state,
    time_translate_diagonal,
)
from mixedframes.thermal import grid_purity_proxy
from mixedframes import thermal, verify
from mixedframes.verify import check_thermal_densities

UNIT_SYSTEMS = [PhysicalConstants(), PhysicalConstants(hbar=0.7, k_boltzmann=1.3)]


@pytest.fixture(params=UNIT_SYSTEMS, ids=["natural", "nonunit"])
def constants(request):
    return request.param


class TestEnergyDensity:
    def test_normalizes_to_one(self, constants):
        tp = ThermalParameters(1.7, 1.3, constants)
        # substitution u = sqrt(E) removes the integrable singularity at zero
        integrand = lambda u: 2.0 * u * float(energy_smearing_density(tp, np.array([u * u]))[0])
        upper = 8.0 * math.sqrt(constants.hbar / tp.beta)
        val, _ = integrate.quad(integrand, 1e-12, upper, epsabs=1e-14, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_verify_normalization_row_measures_the_density(self):
        # a lower limit above E = 0 would show as its own sliver, 2 sqrt(beta / (pi hbar)) per
        # unit of u, not as the density's normalization error
        row = next(r for r in check_thermal_densities() if r.name == "thermal_energy_normalization")
        assert row.residual <= 1e-14

    def test_rejects_nonpositive_energy(self):
        tp = ThermalParameters(1.0, 1.0)
        with pytest.raises(DomainError):
            energy_smearing_density(tp, np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            energy_smearing_density(tp, np.array([-0.5]))

    def test_beta_scaling_identity(self):
        # rho_{2 beta}(E) = 2 rho_beta(2 E): the density is beta * g(beta E)
        tp1 = ThermalParameters(1.1, 1.0)
        tp2 = ThermalParameters(2.2, 1.0)
        E = np.linspace(0.05, 4.0, 50)
        assert np.allclose(
            energy_smearing_density(tp2, E),
            2.0 * energy_smearing_density(tp1, 2.0 * E),
            rtol=1e-13,
        )

    def test_exponential_tail_profile(self):
        tp = ThermalParameters(0.9, 1.0)
        E = np.linspace(0.5, 8.0, 40)
        flattened = (
            energy_smearing_density(tp, E) * np.exp(E * tp.beta / tp.constants.hbar) * np.sqrt(E)
        )
        assert np.max(np.abs(flattened - flattened[0])) < 1e-12


class TestMomentumDensity:
    def test_normalizes_to_one(self, constants):
        tp = ThermalParameters(0.8, 2.1, constants)
        sd = math.sqrt(tp.momentum_variance)
        p = np.linspace(-10 * sd, 10 * sd, 40001)
        total = float(np.trapezoid(momentum_smearing_density(tp, p), p))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_even_with_zero_mean(self):
        tp = ThermalParameters(1.0, 1.0)
        half = np.linspace(0, 5, 51)
        p = np.concatenate([-half[:0:-1], half])  # exactly mirrored grid
        values = momentum_smearing_density(tp, p)
        assert np.array_equal(values, values[::-1])
        assert float(np.trapezoid(p * values, p)) == pytest.approx(0.0, abs=1e-14)

    def test_variance_formula(self, constants):
        tp = ThermalParameters(1.4, 0.6, constants)
        sd = math.sqrt(tp.momentum_variance)
        p = np.linspace(-10 * sd, 10 * sd, 40001)
        values = momentum_smearing_density(tp, p)
        variance = float(np.trapezoid(p**2 * values, p))
        assert variance == pytest.approx(tp.momentum_variance, rel=1e-9)


class TestMeasureIdentity:
    def test_pointwise_identity(self, constants):
        tp = ThermalParameters(1.7, 1.3, constants)
        assert energy_momentum_consistency(tp) < 1e-10

    def test_mass_rescales_width(self):
        tp1 = ThermalParameters(1.0, 1.0)
        tp2 = ThermalParameters(1.0, 2.0)
        assert math.sqrt(tp2.momentum_variance / tp1.momentum_variance) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )


class TestTemperatureDictionary:
    def test_natural_units_identity(self):
        assert beta_of_temperature(1.0) == pytest.approx(1.0, abs=0)

    def test_round_trip(self, constants):
        for beta in (0.2, 1.0, 7.5):
            assert temperature_of_beta(
                beta_of_temperature(temperature_of_beta(beta, constants), constants), constants
            ) == pytest.approx(temperature_of_beta(beta, constants), rel=1e-14)

    def test_matches_maxwell_boltzmann(self, constants):
        mass = 1.0
        p = np.linspace(-12, 12, 2001)
        for T in (0.1, 1.0, 10.0):
            tp = ThermalParameters(beta_of_temperature(T, constants), mass, constants)
            smeared = momentum_smearing_density(tp, p)
            mb = maxwell_boltzmann_density(p, T, mass, constants)
            scale = np.maximum(np.abs(mb), 1e-280)
            assert float(np.max(np.abs(smeared - mb) / scale)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_of_temperature(0.0)
        with pytest.raises(DomainError):
            temperature_of_beta(-1.0)
        with pytest.raises(DomainError):
            ThermalParameters(-1.0, 1.0)


class TestMomentumGrid:
    def test_two_points_are_the_fewest(self):
        assert MomentumGrid(2, 1.0).points().tolist() == [-1.0, 1.0]
        with pytest.raises(DomainError, match="at least 2"):
            MomentumGrid(1, 1.0)

    def test_outermost_point_must_be_finite(self):
        # the spacing 8e307 is finite in all three; |center| + p_max is 1.7e308, then 1.8e308
        MomentumGrid(3, 8e307, center=9e307)
        for center in (1e308, -1e308):
            with pytest.raises(DomainError, match="outermost point"):
                MomentumGrid(3, 8e307, center=center)

    def test_spacing_must_be_positive(self):
        # 2 p_max / (n_points - 1) is 5e-324 for 3 points and underflows to 0 for 9
        assert MomentumGrid(3, 5e-324).spacing == 5e-324
        with pytest.raises(DomainError, match="spacing"):
            MomentumGrid(9, 5e-324)

    def test_weights_integrate_to_one_within_grid_norm_tol(self):
        # on a grid of spacing 1, weights that integrate to 1 + k eps: the largest k eps within
        # GRID_NORM_TOL = 1e-9 passes, the next does not
        grid = MomentumGrid(3, 1.0)
        eps = sys.float_info.epsilon
        inside = 1.0 + math.floor(1e-9 / eps) * eps
        assert MomentumMixture(grid, [0.0, inside, 0.0]).weights[1] == inside
        with pytest.raises(NormalizationError, match="integrate to"):
            MomentumMixture(grid, [0.0, inside + eps, 0.0])


class TestThermalState:
    def test_truncation_guard(self):
        tp = ThermalParameters(1.0, 1.0)
        with pytest.raises(DomainError):
            thermal_state(tp, MomentumGrid(801, 2.0))

    def test_truncation_guard_names_the_needed_p_max(self):
        tp = ThermalParameters(1.0, 4.0)  # momentum sd 2
        thermal_state(tp, MomentumGrid(801, 16.0))
        with pytest.raises(DomainError, match=r"truncates the thermal state: need >= 16\.0$"):
            thermal_state(tp, MomentumGrid(801, math.nextafter(16.0, 0.0)))

    def test_nan_weights_rejected(self):
        grid = MomentumGrid(801, 8.0)
        with pytest.raises(NormalizationError):
            MomentumMixture(grid, np.full(grid.n_points, np.nan))

    def test_weights_even_and_normalized(self):
        tp = ThermalParameters(1.0, 1.0)
        grid = MomentumGrid(801, 8.5 * math.sqrt(tp.momentum_variance))
        state = thermal_state(tp, grid)
        assert np.allclose(state.weights, state.weights[::-1], rtol=0, atol=0)
        assert float(np.sum(state.weights)) * grid.spacing == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_limit_concentrates(self):
        cold = ThermalParameters(400.0, 1.0)
        grid = MomentumGrid(801, 8.5 * math.sqrt(cold.momentum_variance))
        state = thermal_state(cold, grid)
        p = grid.points()
        inside = np.abs(p) < 0.2
        assert float(np.sum(state.weights[inside])) * grid.spacing > 0.999

    def test_purity_proxy_increases_with_beta(self):
        proxies = []
        for beta in (0.5, 1.0, 2.0, 4.0):
            tp = ThermalParameters(beta, 1.0)
            grid = MomentumGrid(801, 8.5 * math.sqrt(tp.momentum_variance))
            proxies.append(grid_purity_proxy(thermal_state(tp, grid)))
        assert all(b > a for a, b in zip(proxies, proxies[1:]))

    def test_huge_momenta_get_zero_weight_without_warning(self):
        # the Gaussian exponent overflows to inf at the grid's ends: exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = thermal_state(ThermalParameters(1.0, 1.0), MomentumGrid(3, 1e200))
            assert state.weights[[0, 2]].tolist() == [0.0, 0.0]
            assert state.weights[1] == pytest.approx(1e-200, rel=1e-15)
            assert maxwell_boltzmann_density(np.array([1e200]), 1.0, 1.0).tolist() == [0.0]


class TestTimeTranslation:
    def test_diagonal_invariance(self):
        tp = ThermalParameters(1.3, 0.9)
        grid = MomentumGrid(801, 8.0 * math.sqrt(tp.momentum_variance))
        state = thermal_state(tp, grid)
        for t0 in (0.0, 0.4, -2.7, 11.0):
            out = time_translate_diagonal(state, t0, tp)
            assert np.max(np.abs(out.weights - state.weights)) < 1e-15

    def test_composition_cancels(self):
        tp = ThermalParameters(0.7, 1.5)
        grid = MomentumGrid(401, 8.0 * math.sqrt(tp.momentum_variance))
        state = thermal_state(tp, grid)
        out = time_translate_diagonal(time_translate_diagonal(state, 3.2, tp), -3.2, tp)
        assert np.max(np.abs(out.weights - state.weights)) < 1e-15

    def test_overflowing_phase_rejected_without_warning(self):
        tp = ThermalParameters(1.0, 1.0)
        state = thermal_state(tp, MomentumGrid(2001, 8.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = time_translate_diagonal(state, 1e300, tp)
            assert np.max(np.abs(out.weights - state.weights)) < 1e-15
            for t0 in (1e308, -1e308):
                with pytest.raises(DomainError, match="t0="):
                    time_translate_diagonal(state, t0, tp)

    def test_phase_near_the_float_range_is_applied(self):
        # the bound and the phases form E = p^2 / 2m at the grid's ends first, then E t0, then
        # divide by hbar: E t0 just below the largest float is applied, just above it is rejected
        tp = ThermalParameters(1.0, 1e10, PhysicalConstants(hbar=2.0))
        grid = MomentumGrid(5, 1e150)
        state = MomentumMixture(grid, np.full(5, 0.2 / grid.spacing))
        edge = sys.float_info.max / (1e150 * 1e150 / 2e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = time_translate_diagonal(state, edge * (1.0 - 5e-7), tp)
            assert np.max(np.abs(out.weights - state.weights)) <= 1e-15 * state.weights.max()
            with pytest.raises(DomainError, match="t0="):
                time_translate_diagonal(state, edge * (1.0 + 5e-7), tp)

    def test_overflowing_energy_rejected_without_warning(self):
        # p**2 overflows at the grid's ends, so the phase bound is formed before it
        tp = ThermalParameters(1.0, 1.0)
        state = MomentumMixture(MomentumGrid(3, 1e200), np.array([0.0, 1e-200, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t0 in (1.0, 0.0):
                with pytest.raises(DomainError, match="t0="):
                    time_translate_diagonal(state, t0, tp)

class TestCsvExports:
    def test_energy_density_export(self):
        from mixedframes.textio import columns_csv

        tp = ThermalParameters(1.0, 1.0)
        E = np.linspace(0.01, 4.0, 10)
        lines = columns_csv(["E", "density"], [E, energy_smearing_density(tp, E)]).splitlines()
        assert lines[0] == "E,density"
        assert len(lines) == 11
        # zip would silently drop the rows past the shorter column
        with pytest.raises(ValueError):
            columns_csv(["E", "density"], [E, np.ones(3)])


def test_invariance_check_translates_each_state_once_per_direction(monkeypatch):
    # four values of t0, each one forward translation and one back from it
    calls = []
    real = thermal.time_translate_diagonal

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(thermal, "time_translate_diagonal", spy)
    verify.check_thermal_invariance()
    assert len(calls) == 8
