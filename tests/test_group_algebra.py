import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from mixedframes import (
    DiracComponent,
    DomainError,
    GalileiParams,
    GaussianComponent,
    GroupDensity,
    NormalizationError,
    antipode,
    boost_mixed,
    characteristic_function,
    convolve,
    densities_close,
    evaluate,
    from_text,
    is_invertible,
    is_pure,
    make_delta,
    make_gaussian,
    mix,
    sample_on_grid,
    to_text,
)
from mixedframes.group_algebra import density_gap, mass_within, parse_densities

RNG = np.random.default_rng(42)


def random_density(rng, max_components=5):
    n = int(rng.integers(1, max_components + 1))
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    comps = []
    for w in weights:
        if rng.random() < 0.5:
            comps.append((float(w), DiracComponent(float(rng.uniform(-3, 3)))))
        else:
            comps.append(
                (float(w), GaussianComponent(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 2))))
            )
    return GroupDensity(tuple(comps))


class TestConstruction:
    def test_make_delta_identity(self):
        rho = make_delta(0.0)
        assert is_pure(rho)
        assert rho.components[0][1].location == 0.0

    def test_make_delta_offset(self):
        assert is_pure(make_delta(2.5))

    def test_make_delta_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_delta(float("nan"))
        with pytest.raises(ValueError):
            make_delta(float("inf"))

    def test_gaussian_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            GaussianComponent(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianComponent(0.0, -1.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(NormalizationError):
            GroupDensity(((0.5, DiracComponent(0.0)), (0.6, DiracComponent(1.0))))

    def test_weights_must_be_positive(self):
        with pytest.raises(NormalizationError):
            GroupDensity(((1.5, DiracComponent(0.0)), (-0.5, DiracComponent(1.0))))


class TestMix:
    def test_two_point_state(self):
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(2.5))])
        assert not is_pure(rho)
        assert len(rho.components) == 2

    def test_single_term_is_identity(self):
        rho = make_gaussian(0.3, 1.2)
        assert densities_close(mix([(1.0, rho)]), rho)

    def test_weight_sum_violation(self):
        with pytest.raises(NormalizationError):
            mix([(0.5, make_delta(0.0)), (0.6, make_delta(1.0))])

    def test_flattening_merges_duplicates(self):
        rho = mix([(0.5, make_delta(1.0)), (0.5, make_delta(1.0))])
        assert is_pure(rho)

    def test_mixed_kind_density_samples_to_unit_integral(self):
        rho = mix([(0.3, make_delta(0.0)), (0.7, make_gaussian(0.0, 1.0))])
        grid = np.linspace(-10, 10, 4001)
        values = sample_on_grid(rho, grid)
        assert float(np.trapezoid(values, grid)) == pytest.approx(1.0, abs=1e-9)


def _bad_grids() -> dict[str, np.ndarray]:
    grid = np.linspace(-5.0, 5.0, 11)
    uneven, with_nan = grid.copy(), grid.copy()
    uneven[4] += 0.3
    with_nan[4] = np.nan
    return {
        "two_points": np.array([-5.0, 5.0]),
        "decreasing": grid[::-1].copy(),
        "non_uniform": uneven,
        "nan_inside": with_nan,
        # every step is finite, the span grid[-1] - grid[0] is not
        "span_overflows": np.array([-1.7e308, 0.0, 1.7e308]),
    }


GRID_CONSUMERS = {
    "sample_on_grid": lambda rho, g: sample_on_grid(rho, g),
    "boost_mixed": lambda rho, g: boost_mixed(rho, 0.0, GalileiParams(1.0, 0.0), g),
}


class TestGridRules:
    """One uniform-grid validator and one Dirac-to-bin rule behind every grid consumer."""

    @pytest.mark.parametrize("grid_name", sorted(_bad_grids()))
    @pytest.mark.parametrize("consumer", sorted(GRID_CONSUMERS))
    def test_bad_grid_rejected(self, consumer, grid_name):
        # a narrow Gaussian keeps boost_mixed's truncation guard out of the way
        with pytest.raises(ValueError):
            GRID_CONSUMERS[consumer](make_gaussian(0.0, 0.01), _bad_grids()[grid_name])

    @pytest.mark.parametrize("consumer", ["sample_on_grid", "boost_mixed"])
    def test_dirac_on_edge_accepted_and_beyond_rejected(self, consumer):
        grid = np.linspace(-5.0, 5.0, 11)
        for edge in (grid[0], grid[-1]):
            GRID_CONSUMERS[consumer](make_delta(edge), grid)
        for beyond in (grid[0] - 1.0, grid[-1] + 1.0):
            # light enough to pass the 1e-12 truncation guard of boost_mixed
            rho = mix([(1.0 - 1e-13, make_delta(0.0)), (1e-13, make_delta(beyond))])
            with pytest.raises(DomainError):
                GRID_CONSUMERS[consumer](rho, grid)
        # far enough that (location - grid[0]) / spacing overflows
        far = mix([(1.0 - 1e-13, make_delta(0.0)), (1e-13, make_delta(1e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                GRID_CONSUMERS[consumer](far, np.linspace(-1e-300, 1e-300, 3))

    @pytest.mark.parametrize("consumer", ["sample_on_grid", "boost_mixed"])
    def test_dirac_on_a_grid_with_overflowing_span_rejected(self, consumer):
        grid = _bad_grids()["span_overflows"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sampling grid"):
                GRID_CONSUMERS[consumer](make_delta(1.7e308), grid)


class TestEvaluate:
    def test_two_point_average(self):
        rho = mix([(0.5, make_delta(1.0)), (0.5, make_delta(2.0))])
        f = lambda a: a**3
        assert evaluate(rho, f) == pytest.approx(0.5 * 1.0 + 0.5 * 8.0, abs=1e-12)

    def test_counit_is_evaluation_at_zero(self):
        f = lambda a: math.cos(a) + 2.0
        assert evaluate(make_delta(0.0), f) == pytest.approx(f(0.0), abs=1e-14)

    def test_gaussian_second_moment(self):
        # independent oracle: fine trapezoid grid instead of adaptive quadrature
        a = np.linspace(-12, 12, 200001)
        oracle = np.trapezoid(a**2 * np.exp(-a**2 / 2) / np.sqrt(2 * np.pi), a)
        got = evaluate(make_gaussian(0.0, 1.0), lambda t: t * t)
        assert got == pytest.approx(float(oracle), abs=1e-9)
        assert got == pytest.approx(1.0, abs=1e-9)


class TestConvolve:
    def test_delta_delta(self):
        out = convolve(make_delta(1.2), make_delta(-0.7))
        assert densities_close(out, make_delta(0.5))

    def test_identity_element(self):
        rho = random_density(np.random.default_rng(7))
        assert densities_close(convolve(make_delta(0.0), rho), rho)
        assert densities_close(convolve(rho, make_delta(0.0)), rho)

    def test_gaussian_gaussian_symbolic(self):
        out = convolve(make_gaussian(1.0, 0.25), make_gaussian(-1.0, 0.75))
        assert densities_close(out, make_gaussian(0.0, 1.0))

    def test_gaussian_gaussian_against_grid_convolution(self):
        # oracle: numerical convolution of grid-sampled densities
        grid = np.linspace(-16, 16, 8001)
        step = grid[1] - grid[0]
        d1 = sample_on_grid(make_gaussian(1.0, 0.25), grid)
        d2 = sample_on_grid(make_gaussian(-1.0, 0.75), grid)
        numeric = np.convolve(d1, d2, mode="same") * step
        symbolic = sample_on_grid(convolve(make_gaussian(1.0, 0.25), make_gaussian(-1.0, 0.75)), grid)
        assert float(np.max(np.abs(numeric - symbolic))) < 1e-6

    def test_delta_shifts_gaussian(self):
        out = convolve(make_delta(2.0), make_gaussian(0.5, 0.3))
        assert densities_close(out, make_gaussian(2.5, 0.3))

    def test_mixtures_distribute_bilinearly(self):
        r1 = mix([(0.4, make_delta(1.0)), (0.6, make_delta(-1.0))])
        r2 = mix([(0.5, make_delta(0.5)), (0.5, make_gaussian(0.0, 1.0))])
        out = convolve(r1, r2)
        expected = GroupDensity(
            (
                (0.3, DiracComponent(-0.5)),
                (0.2, DiracComponent(1.5)),
                (0.3, GaussianComponent(-1.0, 1.0)),
                (0.2, GaussianComponent(1.0, 1.0)),
            )
        )
        assert densities_close(out, expected)


class TestAntipode:
    def test_reflects_delta(self):
        assert densities_close(antipode(make_delta(1.0)), make_delta(-1.0))

    def test_involution(self):
        rho = random_density(np.random.default_rng(3))
        assert densities_close(antipode(antipode(rho)), rho)

    def test_reflects_gaussian(self):
        assert densities_close(antipode(make_gaussian(2.0, 1.0)), make_gaussian(-2.0, 1.0))

    def test_inverts_pure_states_only(self):
        pure = make_delta(1.7)
        assert densities_close(convolve(pure, antipode(pure)), make_delta(0.0))
        two_point = mix([(0.5, make_delta(0.0)), (0.5, make_delta(2.5))])
        product = convolve(two_point, antipode(two_point))
        expected = GroupDensity(
            (
                (0.25, DiracComponent(-2.5)),
                (0.5, DiracComponent(0.0)),
                (0.25, DiracComponent(2.5)),
            )
        )
        assert densities_close(product, expected)
        assert not densities_close(product, make_delta(0.0))


def _exponential_sum_chi(rho, p):
    """chi(p) summed component by component: the same formula, written out as the oracle."""
    values = np.zeros(p.shape, dtype=complex)
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            values += w * np.exp(-1j * comp.location * p)
        else:
            with np.errstate(over="ignore"):
                decay = 0.5 * comp.variance * p * p
            values += w * np.exp(-1j * comp.mean * p - decay)
    return values


class TestCharacteristicFunction:
    def test_two_point_zero(self):
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(np.pi))])
        p_grid = np.linspace(-2, 2, 5)
        chi = characteristic_function(rho, p_grid)
        assert abs(chi[np.argmin(np.abs(p_grid - 1.0))]) < 1e-14

    def test_delta_is_unimodular(self):
        chi = characteristic_function(make_delta(1.3), np.linspace(-10, 10, 101))
        assert np.max(np.abs(np.abs(chi) - 1.0)) < 1e-12

    def test_gaussian_decay_matches_quadrature(self):
        sigma2 = 0.8
        rho = make_gaussian(0.0, sigma2)
        p_grid = np.linspace(-4.0, 4.0, 17)
        chi = characteristic_function(rho, p_grid)
        for p, value in zip(p_grid, chi):
            re, _ = integrate.quad(
                lambda a: math.cos(a * p) * math.exp(-a * a / (2 * sigma2))
                / math.sqrt(2 * math.pi * sigma2),
                -12, 12, epsabs=1e-13, epsrel=1e-12,
            )
            assert value.real == pytest.approx(re, abs=1e-10)
            assert value == pytest.approx(math.exp(-sigma2 * p * p / 2), abs=1e-12)

    def test_unit_at_zero(self):
        rho = random_density(np.random.default_rng(11))
        chi = characteristic_function(rho, np.linspace(-5, 5, 11))
        assert abs(chi[5] - 1.0) < 1e-12

    def test_morphism_under_convolution(self):
        rng = np.random.default_rng(12)
        p_grid = np.linspace(-8, 8, 161)
        for _ in range(50):
            r1, r2 = random_density(rng), random_density(rng)
            chi12 = characteristic_function(convolve(r1, r2), p_grid)
            chi1 = characteristic_function(r1, p_grid)
            chi2 = characteristic_function(r2, p_grid)
            assert np.max(np.abs(chi12 - chi1 * chi2)) < 1e-10

    def test_equals_the_component_sum_bit_for_bit(self):
        rng = np.random.default_rng(13)
        p = np.concatenate((np.linspace(-40.0, 40.0, 801), [1e5, -1e9, 5e-324]))
        for _ in range(50):
            rho = random_density(rng)
            assert np.array_equal(characteristic_function(rho, p), _exponential_sum_chi(rho, p))

    def test_accepts_nonuniform_and_0d_points(self):
        rho = mix([(0.4, make_delta(0.7)), (0.6, make_gaussian(-1.0, 0.5))])
        p = np.array([3.0, -1.0, 0.0, 0.25, 10.0])
        chi = characteristic_function(rho, p)
        assert chi.shape == p.shape and chi.dtype == complex
        assert np.array_equal(chi, _exponential_sum_chi(rho, p))
        point = characteristic_function(rho, 0.25)
        assert point.shape == () and point == chi[3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_points(self, bad):
        # a centred Gaussian has location 0: 0 * inf and 0 * nan are NaN as well
        for rho in (make_delta(2.0), make_gaussian(0.0, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="phase location\\*p"):
                    characteristic_function(rho, np.array([0.0, bad, 1.0]))

    def test_rejects_overflowing_phase_without_warning(self):
        rho = mix([(0.5, make_delta(10.0)), (0.5, make_delta(-3.0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at location 10.0"):
                characteristic_function(rho, np.linspace(0.0, 1e308, 5))


class TestMassWithin:
    def test_dirac_on_either_end_is_inside(self):
        rho = mix([(0.25, make_delta(-1.5)), (0.75, make_delta(2.0))])
        assert mass_within(rho, -1.5, 2.0) == 1.0
        assert mass_within(rho, -1.5, 1.9) == 0.25
        assert mass_within(rho, -1.4, 2.0) == 0.75
        assert mass_within(rho, 2.0, 2.0) == 0.75

    def test_gaussian_one_sigma_mass(self):
        mu, sigma = 0.7, 1.3
        got = mass_within(make_gaussian(mu, sigma * sigma), mu - sigma, mu + sigma)
        assert got == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-15)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            mass_within(make_delta(0.0), 1.0, -1.0)


class TestInvertibility:
    def test_delta_is_invertible(self):
        verdict, witness = is_invertible(make_delta(3.0), band=10.0, floor=1e-3)
        assert verdict and witness is None

    def test_two_point_witness(self):
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(2.5))])
        verdict, witness = is_invertible(rho, band=10.0, floor=1e-3)
        assert not verdict
        assert abs(abs(witness) - np.pi / 2.5) < 1e-6

    def test_gaussian_witness_at_band_edge(self):
        verdict, witness = is_invertible(make_gaussian(0.0, 1.0), band=10.0, floor=1e-3)
        assert not verdict
        assert abs(abs(witness) - 10.0) < 1e-9

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            is_invertible(make_delta(0.0), band=-1.0, floor=1e-3)
        with pytest.raises(ValueError):
            is_invertible(make_delta(0.0), band=1.0, floor=2.0)


class TestSemigroupProperties:
    def test_associativity_and_commutativity(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            r1, r2, r3 = (random_density(rng) for _ in range(3))
            left = convolve(convolve(r1, r2), r3)
            right = convolve(r1, convolve(r2, r3))
            assert densities_close(left, right)
            assert densities_close(convolve(r1, r2), convolve(r2, r1))

    def test_normalization_closure(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            r1, r2 = random_density(rng), random_density(rng)
            for rho in (convolve(r1, r2), mix([(0.3, r1), (0.7, r2)]), antipode(r1)):
                assert abs(math.fsum(w for w, _ in rho.components) - 1.0) < 1e-12

    def test_bialgebra_double_integral(self):
        r1 = mix([(0.5, make_delta(-0.4)), (0.5, make_delta(1.3))])
        r2 = make_gaussian(0.5, 0.8)
        f = lambda a: math.cos(0.7 * a)
        direct = evaluate(convolve(r1, r2), f)

        def inner(a):
            val, _ = integrate.quad(
                lambda b: f(a + b) * math.exp(-((b - 0.5) ** 2) / 1.6) / math.sqrt(1.6 * math.pi),
                0.5 - 10 * math.sqrt(0.8), 0.5 + 10 * math.sqrt(0.8),
                epsabs=1e-13, epsrel=1e-11,
            )
            return val

        double = 0.5 * inner(-0.4) + 0.5 * inner(1.3)
        assert direct == pytest.approx(double, abs=1e-8)


class TestSerialization:
    def test_round_trip(self):
        rho = mix([(0.25, make_delta(-1.5)), (0.75, make_gaussian(0.5, 0.3))])
        assert density_gap(from_text(to_text(rho)), rho) == 0.0

    def test_format_shape(self):
        text = to_text(mix([(0.5, make_delta(0.0)), (0.5, make_gaussian(1.0, 2.0))]))
        lines = text.strip().splitlines()
        assert lines[0] == "dirac weight=0.5 a=0.0"
        assert lines[1] == "gauss weight=0.5 mean=1.0 var=2.0"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            from_text("splork weight=1.0 a=0.0")
        with pytest.raises(ValueError):
            from_text("dirac weight=1.0")
        with pytest.raises(ValueError):
            from_text("")

    def test_parse_multiple_densities(self):
        text = "dirac weight=1.0 a=0.5\n\n# comment\ngauss weight=1.0 mean=0.0 var=1.0\n"
        densities = parse_densities(text)
        assert len(densities) == 2
        assert is_pure(densities[0])
        assert not is_pure(densities[1])
