"""States on the group of 1-D translations and their convolution algebra.

A state is a probability density over the group parameter ``a``, stored
symbolically as a finite mixture of point masses (Dirac) and Gaussians.
The mixture family is closed under the convolution product, so products,
the identity ``delta_0`` and the reflection ``a -> -a`` are all exact: they
merge only identical components. The one tolerance is in the comparison,
:func:`density_gap`, which matches components that rounding has moved apart.
Pure states (single Dirac components) are invertible under convolution;
everything else only forms a semigroup, which the banded characteristic-
function test below makes decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import norm_pdf
from .errors import DomainError, QuadratureError, finite, positive, probability_weights

WEIGHT_TOL = 1e-12
MATCH_TOL = 1e-10
SCAN_POINTS = 20001
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_STEPS = 200  # each step shrinks a bracket by GOLDEN; 200 steps by 1e-42


@dataclass(frozen=True)
class DiracComponent:
    """Point mass delta(a - location)."""

    location: float

    def __post_init__(self) -> None:
        finite("Dirac location", self.location)


@dataclass(frozen=True)
class GaussianComponent:
    """Normal density with the given mean and variance (sigma squared)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        finite("Gaussian mean", self.mean)
        positive("Gaussian variance", self.variance)


Component = DiracComponent | GaussianComponent
WeightedComponent = tuple[float, Component]


@dataclass(frozen=True)
class GroupDensity:
    """Normalized probability density on the translation group.

    ``components`` is an ordered list of ``(weight, component)`` pairs with
    positive weights summing to one.
    """

    components: tuple[WeightedComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), c) for w, c in self.components)
        object.__setattr__(self, "components", comps)
        probability_weights("component weights", [w for w, _ in comps], WEIGHT_TOL)
        for _, comp in comps:
            if not isinstance(comp, (DiracComponent, GaussianComponent)):
                raise TypeError(f"unsupported component type {type(comp).__name__}")


def _moments(c: Component) -> tuple[float, float]:
    """``(location, variance)`` of a component; a Dirac has variance 0.0."""
    return (c.location, 0.0) if isinstance(c, DiracComponent) else (c.mean, c.variance)


def _component(location: float, variance: float) -> Component:
    """Inverse of :func:`_moments`: a Dirac when the variance is 0.0."""
    return DiracComponent(location) if variance == 0.0 else GaussianComponent(location, variance)


def _canonical(components: Iterable[WeightedComponent]) -> tuple[WeightedComponent, ...]:
    """Sum the weights of identical components and sort into a canonical order.

    A component is keyed ``(is_gaussian, location, variance)``, with ``-0.0``
    read as ``0.0``. Only equal keys merge, so canonicalisation commutes
    exactly with :func:`convolve`, :func:`antipode` and :func:`mix`; components
    that differ in the last bit stay apart for :func:`density_gap` to match.
    """
    weights: dict[tuple[bool, float, float], float] = {}
    for w, c in components:
        loc, var = _moments(c)
        key = (var > 0.0, loc + 0.0, var)
        weights[key] = weights.get(key, 0.0) + w
    return tuple((w, _component(loc, var)) for (_, loc, var), w in sorted(weights.items()))


def make_delta(a0: float) -> GroupDensity:
    """Pure state: the point mass at group parameter ``a0``."""
    return GroupDensity(((1.0, DiracComponent(float(a0))),))


def make_gaussian(mean: float, variance: float) -> GroupDensity:
    """Mixed state: a single Gaussian density."""
    return GroupDensity(((1.0, GaussianComponent(float(mean), float(variance))),))


def mix(parts: Sequence[tuple[float, GroupDensity]]) -> GroupDensity:
    """Convex combination of densities; weights must sum to one."""
    parts = list(parts)
    probability_weights("mixture weights", [w for w, _ in parts], WEIGHT_TOL)
    flattened = [(w * u, comp) for w, rho in parts for u, comp in rho.components]
    return GroupDensity(_canonical(flattened))


def evaluate(rho: GroupDensity, f: Callable[[float], float]) -> float:
    """Expectation of a bounded continuous test function under the density.

    Dirac components evaluate ``f`` pointwise; Gaussian components use
    adaptive quadrature over mean +- 10 sigma at relative tolerance 1e-10.
    """
    from scipy import integrate

    total = 0.0
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            total += w * f(comp.location)
        else:
            sd = math.sqrt(comp.variance)
            value, abserr, info, *tail = integrate.quad(
                lambda a: f(a) * norm_pdf(a, comp.mean, comp.variance),
                comp.mean - 10.0 * sd,
                comp.mean + 10.0 * sd,
                epsrel=1e-10,
                epsabs=1e-13,
                limit=200,
                full_output=True,
            )
            if tail or not math.isfinite(value):
                raise QuadratureError(f"quadrature failed for component {comp}")
            total += w * value
    return total


def convolve(rho1: GroupDensity, rho2: GroupDensity) -> GroupDensity:
    """Convolution product of two group states.

    Closed-form rules: locations add, variances add (a Dirac has variance 0),
    and mixtures distribute bilinearly with weight products.
    """
    m1 = [(w, *_moments(c)) for w, c in rho1.components]
    m2 = [(w, *_moments(c)) for w, c in rho2.components]
    out = [(w1 * w2, _component(l1 + l2, v1 + v2)) for w1, l1, v1 in m1 for w2, l2, v2 in m2]
    return GroupDensity(_canonical(out))


def antipode(rho: GroupDensity) -> GroupDensity:
    """Reflection a -> -a; inverts pure states, and only those."""
    moments = [(w, *_moments(c)) for w, c in rho.components]
    return GroupDensity(_canonical([(w, _component(-loc, var)) for w, loc, var in moments]))


def characteristic_function(rho: GroupDensity, p: np.ndarray) -> np.ndarray:
    """chi(p) = integral of rho(a) exp(-i a p) da at every dual point ``p``.

    Any array of finite points is accepted; the one input check is that the
    largest phase ``location * p`` is finite, which also rejects NaN and
    infinite points with :class:`DomainError`.
    """
    p = np.asarray(p, dtype=float)
    far = max(abs(_moments(c)[0]) for _, c in rho.components)
    # Python floats: the product is inf or NaN without a numpy warning
    widest = float(np.max(np.abs(p), initial=0.0))
    finite(f"phase location*p at location {far!r} and |p| {widest!r}", far * widest)
    values = np.zeros(p.shape, dtype=complex)
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            values += w * np.exp(-1j * comp.location * p)
        else:
            # a decay that overflows to inf gives exp(-inf) = 0, the right value
            with np.errstate(over="ignore"):
                decay = 0.5 * comp.variance * p * p
            values += w * np.exp(-1j * comp.mean * p - decay)
    return values


def is_invertible(rho: GroupDensity, band: float, floor: float) -> tuple[bool, float | None]:
    """Banded invertibility test for the convolution semigroup.

    Returns ``(True, None)`` for a single Dirac component (unimodular
    characteristic function, decided analytically). Otherwise reports
    whether the infimum of ``|chi(p)|`` over ``|p| <= band`` stays at or
    above ``floor``, together with a nonnegative argmin witness ``p*``.

    ``|chi(-p)| = |chi(p)|`` for a real density, so only ``0 <= p <= band``
    is scanned, at ``(SCAN_POINTS + 1) // 2`` points: the spacing of a
    ``SCAN_POINTS``-point scan of the full range. The candidates are the two
    ends and every interior sample no larger than its neighbours. Each
    interior candidate's bracket ``[p[i-1], p[i+1]]`` is refined by golden-
    section search (Brent, *Algorithms for Minimization without
    Derivatives*, 1973), all brackets at once on numpy arrays, until every
    bracket ``[a, b]`` is narrower than ``1e-10 + 4 eps b`` or
    ``GOLDEN_MAX_STEPS`` steps have run. The relative term lets brackets stop
    at large ``p``, where the float spacing exceeds 1e-10. The witness is the
    smallest ``p`` among the candidates within 1e-9 of the least ``|chi|``.
    """
    positive("band", band)
    if not 0.0 < floor < 1.0:
        raise DomainError(f"floor must lie in (0, 1), got {floor}")
    if is_pure(rho):
        return True, None
    least, witness = _min_modulus(rho, band)
    return least >= floor, witness


def _min_modulus(rho: GroupDensity, band: float) -> tuple[float, float]:
    """Least ``|chi|`` over ``0 <= p <= band`` and its witness; see :func:`is_invertible`."""

    def abs2(p: np.ndarray) -> np.ndarray:
        return np.abs(characteristic_function(rho, p)) ** 2

    grid = np.linspace(0.0, band, (SCAN_POINTS + 1) // 2)
    vals = abs2(grid)
    interior = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    # golden section on every bracket [a, b] at once, with probes a < c < d < b
    a, b = grid[interior - 1], grid[interior + 1]
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = abs2(c), abs2(d)
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(GOLDEN_MAX_STEPS):
        if np.all(b - a < 1e-10 + eps4 * b):
            break
        left = fc < fd  # the minimum lies in [a, d]; otherwise in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        probe = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        f_probe = abs2(probe)
        c, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    points = np.concatenate(([grid[0], grid[-1]], np.where(fc <= fd, c, d)))
    moduli = np.sqrt(np.maximum(np.concatenate(([vals[0], vals[-1]], np.minimum(fc, fd))), 0.0))
    least = float(np.min(moduli))
    return least, float(np.min(points[moduli <= least + 1e-9]))


def is_pure(rho: GroupDensity) -> bool:
    """True iff the state is exactly one distinct point mass.

    Two Diracs merge only at identical locations; a pair that rounding has
    split is not pure, however close.
    """
    comps = _canonical(rho.components)
    return len(comps) == 1 and isinstance(comps[0][1], DiracComponent)


def _chains(entries: list[tuple], i: int, tol: float) -> list[list[tuple]]:
    """Sort entries by field ``i`` and split where neighbours differ by more than ``tol``."""
    chains: list[list[tuple]] = []
    for e in sorted(entries, key=lambda e: e[i]):
        if chains and e[i] - chains[-1][-1][i] <= tol:
            chains[-1].append(e)
        else:
            chains.append([e])
    return chains


def _side_summary(cluster: list[tuple], side: int) -> tuple[float, float, float]:
    """Total weight, weighted-mean location and variance of one side's members."""
    members = [(w, loc, var) for s, _, loc, var, w in cluster if s == side]
    if not members:
        return 0.0, 0.0, 0.0
    total = math.fsum(w for w, _, _ in members)
    return (total, math.fsum(w * loc for w, loc, _ in members) / total,
            math.fsum(w * var for w, _, var in members) / total)


def density_gap(rho1: GroupDensity, rho2: GroupDensity) -> float:
    """Distance between two states that tolerates rounding in their parameters.

    Both sides' components are pooled and, for each kind, chained within
    ``MATCH_TOL`` first by location and then by variance. In each cluster the
    gap is the larger of the two sides' weight difference and the differences
    of their weighted-mean location and variance; a cluster that one side lacks
    counts with its full weight. The result is the largest cluster gap: zero
    for a state against itself, symmetric, and covariant under
    :func:`antipode` and translation.
    """
    pooled = [(side, var > 0.0, loc, var, w)
              for side, rho in enumerate((rho1, rho2))
              for w, c in rho.components for loc, var in (_moments(c),)]
    gap = 0.0
    for same_kind in _chains(pooled, 1, 0.0):  # kinds never chain together
        for near in _chains(same_kind, 2, MATCH_TOL):
            for cluster in _chains(near, 3, MATCH_TOL):
                (w1, l1, v1), (w2, l2, v2) = (_side_summary(cluster, side) for side in (0, 1))
                if w1 == 0.0 or w2 == 0.0:
                    gap = max(gap, w1 + w2)
                else:
                    gap = max(gap, abs(w1 - w2), abs(l1 - l2), abs(v1 - v2))
    return gap


def densities_close(rho1: GroupDensity, rho2: GroupDensity) -> bool:
    """Equality of states up to rounding: :func:`density_gap` within ``MATCH_TOL``."""
    return density_gap(rho1, rho2) <= MATCH_TOL


def mass_within(rho: GroupDensity, lo: float, hi: float) -> float:
    """Probability mass of the density inside the closed interval [lo, hi]."""
    if hi < lo:
        raise DomainError("interval must satisfy lo <= hi")
    total = 0.0
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            if lo <= comp.location <= hi:
                total += w
        else:
            sd = math.sqrt(2.0 * comp.variance)
            total += 0.5 * w * (
                math.erf((hi - comp.mean) / sd) - math.erf((lo - comp.mean) / sd)
            )
    return total


def sample_on_grid(rho: GroupDensity, a_grid: np.ndarray) -> np.ndarray:
    """Sample the density on a uniform grid.

    Gaussian components are evaluated pointwise; each Dirac component becomes
    a single-bin spike of height weight/spacing at the nearest grid point, so
    the rectangle-rule integral of the samples is one. A Dirac off the grid
    raises :class:`DomainError`.
    """
    grid = np.asarray(a_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("sampling grid must be a 1-D array with at least 3 points")
    # Python floats: a span past the float range is inf without a numpy warning
    if not (np.all(np.isfinite(grid)) and math.isfinite(float(grid[-1]) - float(grid[0]))):
        raise ValueError("sampling grid must be finite and span a finite interval")
    step = float(grid[1] - grid[0])
    if step <= 0.0 or np.any(np.abs(np.diff(grid) - step) > 1e-9 * step):
        raise ValueError("sampling grid must be uniform and increasing")
    values = np.zeros_like(grid)
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            # range-check in Python floats first, which do not warn on overflow:
            # (location - grid[0]) / step overflows for a far Dirac on a fine grid
            inside = float(grid[0]) - step <= comp.location <= float(grid[-1]) + step
            idx = int(round((comp.location - grid[0]) / step)) if inside else -1
            if not 0 <= idx < grid.size:
                raise DomainError(
                    f"Dirac location {comp.location} lies outside the grid [{grid[0]}, {grid[-1]}]"
                )
            values[idx] += w / step
        else:
            values += w * norm_pdf(grid, comp.mean, comp.variance)
    return values


def to_text(rho: GroupDensity) -> str:
    """Serialize to the plain-text component format, one line per component."""
    lines = []
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            lines.append(f"dirac weight={w!r} a={comp.location!r}")
        else:
            lines.append(f"gauss weight={w!r} mean={comp.mean!r} var={comp.variance!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> GroupDensity:
    """Parse the plain-text component format produced by :func:`to_text`."""
    components: list[WeightedComponent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *pairs = line.split()
        fields: dict[str, float] = {}
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value, got {pair!r}")
            fields[key] = float(value)
        if kind == "dirac":
            if set(fields) != {"weight", "a"}:
                raise ValueError(f"line {lineno}: dirac needs weight= and a=")
            components.append((fields["weight"], DiracComponent(fields["a"])))
        elif kind == "gauss":
            if set(fields) != {"weight", "mean", "var"}:
                raise ValueError(f"line {lineno}: gauss needs weight=, mean= and var=")
            components.append((fields["weight"], GaussianComponent(fields["mean"], fields["var"])))
        else:
            raise ValueError(f"line {lineno}: unknown component kind {kind!r}")
    if not components:
        raise ValueError("no components found")
    return GroupDensity(tuple(components))


def parse_densities(text: str) -> list[GroupDensity]:
    """Parse several densities separated by blank lines."""
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            if blocks[-1]:
                blocks.append([])
        else:
            blocks[-1].append(raw)
    return [from_text("\n".join(block)) for block in blocks if block]
