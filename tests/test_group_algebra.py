import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    is_invertible,
    is_pure,
    make_delta,
    make_gaussian,
    mix,
    parse_densities,
    sample_on_grid,
    to_text,
)
from mixedframes import group_algebra as ga
from mixedframes.errors import QuadratureError
from mixedframes.group_algebra import density_gap, mass_within

RNG = np.random.default_rng(42)
QUAD_FNS = {
    "cos": lambda a: math.cos(0.7 * a),
    "cauchy": lambda a: 1.0 / (1.0 + a * a),
    "square": lambda a: a * a,
    "kink": lambda a: math.exp(-abs(a)),
}


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
        "zero_step": np.full(11, 2.5),
        # every step is finite, the span grid[-1] - grid[0] is not
        "span_overflows": np.array([-1.7e308, 0.0, 1.7e308]),
    }


GRID_CONSUMERS = {
    "sample_on_grid": lambda rho, g: sample_on_grid(rho, g),
    "boost_mixed": lambda rho, g: boost_mixed(rho, 0.0, GalileiParams(1.0, 0.0), g),
}


class TestGridRules:
    """One uniform-grid validator and one Dirac-to-bin rule behind every grid consumer."""

    def test_zero_step_is_not_uniform(self):
        assert ga.uniform_step(np.full(3, 2.5)) is None

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

    @pytest.mark.parametrize("name", sorted(QUAD_FNS))
    @pytest.mark.parametrize("mean, variance", [(0.0, 1.0), (0.5, 0.8), (-3.0, 0.05), (2.0, 25.0),
                                                (-1.1, 0.6), (10.0, 1e-4)])
    def test_matches_scipy_quad(self, name, mean, variance):
        f = QUAD_FNS[name]
        sd = math.sqrt(variance)
        g = lambda a: f(a) * math.exp(-((a - mean) ** 2) / (2.0 * variance)) / math.sqrt(
            2.0 * math.pi * variance
        )
        # quad is told where the kink of exp(-|a|) is; evaluate has to find it
        options = dict(epsrel=1e-13, epsabs=1e-15, limit=500,
                       points=[0.0] if name == "kink" and abs(mean) < 10.0 * sd else None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            exact, _ = integrate.quad(g, mean - 10.0 * sd, mean + 10.0 * sd, **options)
            scale, _ = integrate.quad(lambda a: abs(g(a)), mean - 10 * sd, mean + 10 * sd, **options)
        # the contract: 1e-10 relative to the integral of |f| times the density
        assert abs(evaluate(make_gaussian(mean, variance), f) - exact) <= 1e-10 * scale + 1e-13

    def test_split_limit_raises_and_bounds_the_work(self):
        calls = []

        def fast(a):  # resolving 1e4 rad per unit takes about 1e5 panels over +-10 sigma
            calls.append(a)
            return math.sin(1e4 * a + 0.3)  # not odd: symmetric nodes would cancel it exactly

        with pytest.raises(QuadratureError, match=f"after {ga.QUAD_MAX_SPLITS + 1} splits"):
            evaluate(make_gaussian(0.0, 1.0), fast)
        assert len(calls) <= (4 * ga.QUAD_MAX_SPLITS + 5) * ga.QUAD_NODES

    def test_kink_off_the_panel_edges_needs_more_than_ten_splits(self, monkeypatch):
        monkeypatch.setattr(ga, "QUAD_MAX_SPLITS", 10)
        with pytest.raises(QuadratureError, match="after 11 splits"):
            evaluate(make_gaussian(0.5, 0.8), QUAD_FNS["kink"])


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
    """chi(p) with a Dirac branch beside the Gaussian one: the reference for the one formula."""
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
        p = np.concatenate((np.linspace(-40.0, 40.0, 801), [1e5, -1e9, 5e-324, 1e200]))
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
        # |chi| = exp(-p^2/2) reaches its least at the band edge; the witness is the
        # first scan sample within 1e-9 of it, where the tail has become flat to 1e-9
        rho = make_gaussian(0.0, 1.0)
        verdict, witness = is_invertible(rho, band=10.0, floor=1e-3)
        assert not verdict
        least = ga._min_modulus(rho, 10.0)[0]
        assert least == abs(characteristic_function(rho, 10.0))
        grid = np.linspace(0.0, 10.0, (ga.SCAN_POINTS + 1) // 2)
        first = int(np.argmax(np.exp(-0.5 * grid * grid) <= least + 1e-9))
        assert first == 6438 and witness == grid[first]

    def test_stop_rule_refines_a_zero_to_1e10(self):
        # |chi| = |cos(1.25 p)| vanishes at pi / 2.5: a step tolerance of 1e-10 is what lands there
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(2.5))])
        witness = is_invertible(rho, band=10.0, floor=1e-3)[1]
        assert abs(witness - math.pi / 2.5) <= 1e-10

    @pytest.mark.parametrize("gap", [1e7, 1e-6, 1e-300])
    def test_stop_rule_scales_with_the_band(self, monkeypatch, gap):
        # the zero at pi / gap, in a band of 10 / gap: the rounds stop within 1e-7 of a
        # scan step of it, neither at the first sample of a band whose step is below 1e-10
        # nor stepping between neighbouring floats where their spacing exceeds 1e-10
        rho = mix([(0.5, make_delta(0.0)), (0.5, make_delta(gap))])
        calls = _count_chi_calls(monkeypatch)
        least, witness = ga._min_modulus(rho, 10.0 / gap)
        assert least < 1e-10 and witness == pytest.approx(math.pi / gap, rel=1e-10)
        assert calls[0] <= 6

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            is_invertible(make_delta(0.0), band=-1.0, floor=1e-3)
        with pytest.raises(ValueError):
            is_invertible(make_delta(0.0), band=1.0, floor=2.0)

    def test_floor_interval_is_open(self):
        # |chi| = exp(-p^2/2) over [0, 1]: its least, exp(-1/2), is above the lower end and below the upper
        rho = make_gaussian(0.0, 1.0)
        for edge in (0.0, 1.0):
            with pytest.raises(DomainError, match="floor"):
                is_invertible(rho, band=1.0, floor=edge)
        assert is_invertible(rho, band=1.0, floor=math.nextafter(0.0, 1.0))[0] is True
        assert is_invertible(rho, band=1.0, floor=math.nextafter(1.0, 0.0))[0] is False

    def test_floor_at_the_least_modulus_is_invertible(self):
        rho = make_gaussian(0.0, 1.0)
        least = ga._min_modulus(rho, 1.0)[0]
        assert is_invertible(rho, band=1.0, floor=least)[0] is True
        assert is_invertible(rho, band=1.0, floor=math.nextafter(least, 1.0))[0] is False


def _count_chi_calls(monkeypatch):
    """Count the calls of ``group_algebra._chi`` from here on, in a one-element list."""
    calls = [0]
    real = ga._chi

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(ga, "_chi", counting)
    return calls


def _library_products(rng, count):
    """Products of two or three densities of one to three components, as perfbench's
    ``library`` sessions convolve them; the pure ones are dropped."""
    products = []
    while len(products) < count:
        factors = [random_density(rng, 3) for _ in range(int(rng.integers(2, 4)))]
        product = factors[0]
        for rho in factors[1:]:
            product = convolve(product, rho)
        if not is_pure(product):
            products.append(product)
    return products


# |chi| is flat to rounding past p = 8 here: the Gaussians' tails are below 1e-12,
# so which samples of the plateau are local minima depends on the scan's rounding
FLAT_TAIL = GroupDensity((
    (0.42374008541926755, DiracComponent(-0.8474131377351384)),
    (0.37614103946877075, GaussianComponent(-1.5141274582431437, 0.9759300882520227)),
    (0.20011887511196166, GaussianComponent(-0.6639343414057448, 0.808336304381043)),
))


class TestRotationScan:
    """The scan of ``_min_modulus`` against the full-grid scan it replaced."""

    @staticmethod
    def full_grid_scan(monkeypatch, rho, band):
        """``_min_modulus`` with every scan point through ``characteristic_function``:
        the full-grid scan, bit for bit, sharing the settling and the refinement."""
        with monkeypatch.context() as patch:
            patch.setattr(ga, "_rotated_chi", characteristic_function)
            return ga._min_modulus(rho, band)

    @pytest.mark.parametrize("rho", [*_library_products(np.random.default_rng(30), 60), FLAT_TAIL])
    def test_matches_the_full_grid_scan(self, monkeypatch, rho):
        band = 10.0
        least, witness = ga._min_modulus(rho, band)
        ref_least, ref_witness = self.full_grid_scan(monkeypatch, rho, band)
        assert least == ref_least
        assert witness == ref_witness
        assert is_invertible(rho, band, 1e-3)[0] == (ref_least >= 1e-3)

    def test_flat_tail_is_settled_from_its_samples(self, monkeypatch):
        # the least is the band edge's, and no bracket of the plateau is refined
        calls = _count_chi_calls(monkeypatch)
        least, witness = ga._min_modulus(FLAT_TAIL, 10.0)
        assert calls[0] == 1  # the two ends
        assert least == abs(characteristic_function(FLAT_TAIL, 10.0))
        grid = np.linspace(0.0, 10.0, (ga.SCAN_POINTS + 1) // 2)
        modulus = np.abs(characteristic_function(FLAT_TAIL, grid))
        assert witness == grid[np.argmax(modulus <= least + 1e-9)]


def test_median_product_takes_at_most_12_chi_rounds(monkeypatch):
    """``_chi`` calls per library product, the two ends included (the golden
    section took 30 to 38)."""
    calls = _count_chi_calls(monkeypatch)
    counts = []
    for rho in _library_products(np.random.default_rng(30), 96):
        calls[0] = 0
        ga._min_modulus(rho, 10.0)
        counts.append(calls[0])
    assert np.median(counts) <= 12


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


def _two_diracs(w0, w1):
    return mix([(w0, make_delta(0.0)), (w1, make_delta(1.0))])


class TestDensityGap:
    """Positive controls: each kind of gap reads its known value, not just a nonzero one."""

    @pytest.mark.parametrize(
        "rho1, rho2, expected",
        [
            (_two_diracs(0.3, 0.7), _two_diracs(0.4, 0.6), abs(0.3 - 0.4)),
            (make_delta(0.0), make_delta(5e-11), 5e-11),
            (make_gaussian(0.0, 1.0), make_gaussian(0.0, 1.0 + 5e-11), (1.0 + 5e-11) - 1.0),
            (make_delta(0.0), make_gaussian(0.0, 1.0), 1.0),
            (make_delta(0.0), make_delta(2 * ga.MATCH_TOL), 1.0),
        ],
        ids=["weight", "location", "variance", "kind-unmatched", "location-beyond-tol"],
    )
    def test_reads_the_known_gap(self, rho1, rho2, expected):
        assert density_gap(rho1, rho2) == expected
        assert density_gap(rho2, rho1) == expected


class TestSerialization:
    def test_round_trip(self):  # both directions exported by the package
        rho = mix([(0.25, make_delta(-1.5)), (0.75, make_gaussian(0.5, 0.3))])
        (parsed,) = parse_densities(to_text(rho))
        assert density_gap(parsed, rho) == 0.0

    def test_format_shape(self):
        text = to_text(mix([(0.5, make_delta(0.0)), (0.5, make_gaussian(1.0, 2.0))]))
        lines = text.strip().splitlines()
        assert lines[0] == "dirac weight=0.5 a=0.0"
        assert lines[1] == "gauss weight=0.5 mean=1.0 var=2.0"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_densities("splork weight=1.0 a=0.0")
        with pytest.raises(ValueError):
            parse_densities("dirac weight=1.0")
        assert parse_densities("") == []

    # each bad line is line 6, after a density, a blank line and comment-only lines
    @pytest.mark.parametrize(
        "bad, error, says",
        [
            ("splork weight=1.0 a=0.0", ValueError, "unknown component kind 'splork'"),
            ("gauss weight=0.5 mean=0.0", ValueError, "gauss takes weight= mean= var="),
            ("dirac weight=0.5 a=1.0 extra", ValueError, "dirac takes weight= a="),
            ("dirac weight=0.5 a=1.0 a=2.0", ValueError, "dirac takes weight= a="),
            ("dirac weight=0.5 a=zz", ValueError, "'zz'"),
            ("dirac weight=0.5 a=nan", DomainError, "Dirac location must be finite"),
            ("gauss weight=0.5 mean=0.0 var=0", DomainError, "Gaussian variance must be positive"),
        ],
    )
    def test_errors_name_their_line_of_the_text(self, bad, error, says):
        text = f"dirac weight=1 a=0\n\n# second density\n  # indented note\ndirac weight=0.5 a=3\n{bad}\n"
        with pytest.raises(error, match=r"^line 6: ") as caught:
            parse_densities(text)
        assert says in str(caught.value)

    def test_weights_that_do_not_sum_to_one_name_the_lines_of_their_density(self):
        text = "dirac weight=1 a=0\n\n# second\ndirac weight=0.5 a=0\n# inside\ndirac weight=0.4 a=1\n"
        with pytest.raises(NormalizationError, match=r"^lines 4-6: component weights sum to 0\.9"):
            parse_densities(text)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0.01, 1.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_several_densities_round_trip(self, parts, data):
        densities = []
        for part in parts:
            total = math.fsum(w for w, _, _ in part)
            densities.append(GroupDensity(tuple(
                (w / total, DiracComponent(loc) if var is None else GaussianComponent(loc, var))
                for w, loc, var in part
            )))
        lines = [line for rho in densities for line in [*to_text(rho).splitlines(), ""]]
        for _ in range(data.draw(st.integers(0, 6))):
            lines.insert(data.draw(st.integers(0, len(lines))), "  # comment only")
        parsed = parse_densities("\n".join(lines))
        assert len(parsed) == len(densities)
        for got, want in zip(parsed, densities):
            assert density_gap(got, want) == 0.0

    def test_parse_multiple_densities(self):
        text = "dirac weight=1.0 a=0.5\n\n# comment\ngauss weight=1.0 mean=0.0 var=1.0\n"
        densities = parse_densities(text)
        assert len(densities) == 2
        assert is_pure(densities[0])
        assert not is_pure(densities[1])

    def test_full_line_comment_does_not_split_a_density(self):
        text = "# two-point\ndirac weight=0.5 a=0\n# second\ndirac weight=0.5 a=1\n"
        (density,) = parse_densities(text)
        assert len(density.components) == 2
        # a block of comments alone yields no density
        assert len(parse_densities("dirac weight=1.0 a=0.5\n\n# note\n  \n")) == 1
