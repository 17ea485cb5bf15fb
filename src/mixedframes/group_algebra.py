"""States on the group of 1-D translations and their convolution algebra.

A state is a probability density over the group parameter ``a``, stored
symbolically as a finite mixture of point masses (Dirac) and Gaussians.
The mixture family is closed under the convolution product, so products,
the identity ``delta_0`` and the reflection ``a -> -a`` are all exact.
Pure states (single Dirac components) are invertible under convolution;
everything else only forms a semigroup, which the banded characteristic-
function test below makes decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate, optimize

from .analytic import norm_pdf
from .errors import DomainError, NormalizationError, QuadratureError

WEIGHT_TOL = 1e-12
MERGE_TOL = 1e-12
MATCH_TOL = 1e-10
SCAN_POINTS = 20001


@dataclass(frozen=True)
class DiracComponent:
    """Point mass delta(a - location)."""

    location: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise ValueError(f"Dirac location must be finite, got {self.location}")


@dataclass(frozen=True)
class GaussianComponent:
    """Normal density with the given mean and variance (sigma squared)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("Gaussian parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"Gaussian variance must be positive, got {self.variance}")


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
        if not comps:
            raise NormalizationError("a density needs at least one component")
        for w, comp in comps:
            if not math.isfinite(w) or w <= 0.0:
                raise NormalizationError(f"component weights must be positive, got {w}")
            if not isinstance(comp, (DiracComponent, GaussianComponent)):
                raise TypeError(f"unsupported component type {type(comp).__name__}")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise NormalizationError(f"weights sum to {total!r}, expected 1")


def _canonical(components: Iterable[WeightedComponent]) -> tuple[WeightedComponent, ...]:
    """Merge near-identical components and sort into a canonical order."""
    diracs: list[list[float]] = []
    gaussians: list[list[float]] = []
    for w, comp in components:
        if isinstance(comp, DiracComponent):
            diracs.append([w, comp.location])
        else:
            gaussians.append([w, comp.mean, comp.variance])

    merged_d: list[list[float]] = []
    for w, loc in sorted(diracs, key=lambda e: e[1]):
        if merged_d and abs(loc - merged_d[-1][1]) < MERGE_TOL:
            prev_w, prev_loc = merged_d[-1]
            total = prev_w + w
            merged_d[-1] = [total, (prev_w * prev_loc + w * loc) / total]
        else:
            merged_d.append([w, loc])

    merged_g: list[list[float]] = []
    for w, mean, var in sorted(gaussians, key=lambda e: (e[1], e[2])):
        if (
            merged_g
            and abs(mean - merged_g[-1][1]) < MERGE_TOL
            and abs(var - merged_g[-1][2]) < MERGE_TOL
        ):
            prev_w, prev_mean, prev_var = merged_g[-1]
            total = prev_w + w
            merged_g[-1] = [
                total,
                (prev_w * prev_mean + w * mean) / total,
                (prev_w * prev_var + w * var) / total,
            ]
        else:
            merged_g.append([w, mean, var])

    out: list[WeightedComponent] = [(w, DiracComponent(loc + 0.0)) for w, loc in merged_d]
    out.extend((w, GaussianComponent(mean + 0.0, var)) for w, mean, var in merged_g)
    return tuple(out)


def make_delta(a0: float) -> GroupDensity:
    """Pure state: the point mass at group parameter ``a0``."""
    a0 = float(a0)
    if not math.isfinite(a0):
        raise ValueError(f"delta location must be finite, got {a0}")
    return GroupDensity(((1.0, DiracComponent(a0)),))


def make_gaussian(mean: float, variance: float) -> GroupDensity:
    """Mixed state: a single Gaussian density."""
    return GroupDensity(((1.0, GaussianComponent(float(mean), float(variance))),))


def mix(parts: Sequence[tuple[float, GroupDensity]]) -> GroupDensity:
    """Convex combination of densities; weights must sum to one."""
    parts = list(parts)
    if not parts:
        raise NormalizationError("cannot mix an empty list of states")
    for w, _ in parts:
        if not math.isfinite(w) or w <= 0.0:
            raise NormalizationError(f"mixture weights must be positive, got {w}")
    total = math.fsum(w for w, _ in parts)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise NormalizationError(f"mixture weights sum to {total!r}, expected 1")
    flattened = [(w * u, comp) for w, rho in parts for u, comp in rho.components]
    return GroupDensity(_canonical(flattened))


def evaluate(rho: GroupDensity, f: Callable[[float], float]) -> float:
    """Expectation of a bounded continuous test function under the density.

    Dirac components evaluate ``f`` pointwise; Gaussian components use
    adaptive quadrature over mean +- 10 sigma at relative tolerance 1e-10.
    """
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

    Closed-form rules: locations add, Gaussian variances add, and mixtures
    distribute bilinearly with weight products.
    """
    out: list[WeightedComponent] = []
    for w1, c1 in rho1.components:
        for w2, c2 in rho2.components:
            out.append((w1 * w2, _convolve_pair(c1, c2)))
    return GroupDensity(_canonical(out))


def _convolve_pair(c1: Component, c2: Component) -> Component:
    if isinstance(c1, DiracComponent) and isinstance(c2, DiracComponent):
        return DiracComponent(c1.location + c2.location)
    if isinstance(c1, DiracComponent):
        assert isinstance(c2, GaussianComponent)
        return GaussianComponent(c2.mean + c1.location, c2.variance)
    if isinstance(c2, DiracComponent):
        return GaussianComponent(c1.mean + c2.location, c1.variance)
    return GaussianComponent(c1.mean + c2.mean, c1.variance + c2.variance)


def antipode(rho: GroupDensity) -> GroupDensity:
    """Reflection a -> -a; inverts pure states, and only those."""
    out: list[WeightedComponent] = []
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            out.append((w, DiracComponent(-comp.location)))
        else:
            out.append((w, GaussianComponent(-comp.mean, comp.variance)))
    return GroupDensity(_canonical(out))


@dataclass(frozen=True)
class CharacteristicFunction:
    """Values of chi(p) = integral of rho(a) exp(-i a p) da on a dual grid."""

    dual_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.dual_grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("dual grid and values must be matching 1-D arrays")
        if np.any(np.abs(values) > 1.0 + 1e-12):
            raise ValueError("characteristic function exceeds modulus one")
        at_zero = np.abs(grid) < 1e-300
        if np.any(np.abs(values[at_zero] - 1.0) > 1e-12):
            raise ValueError("characteristic function must equal one at p=0")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dual_grid", grid)
        object.__setattr__(self, "values", values)


def characteristic_function(rho: GroupDensity, dual_grid: np.ndarray) -> CharacteristicFunction:
    """Characteristic function of the density on a uniform dual grid."""
    p = np.asarray(dual_grid, dtype=float)
    uniform_step(p, "dual grid")
    return CharacteristicFunction(p, _chi(rho, p))


def _chi(rho: GroupDensity, p: np.ndarray) -> np.ndarray:
    values = np.zeros(np.shape(p), dtype=complex)
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            values += w * np.exp(-1j * comp.location * p)
        else:
            values += w * np.exp(-1j * comp.mean * p - 0.5 * comp.variance * p * p)
    return values


def is_invertible(rho: GroupDensity, band: float, floor: float) -> tuple[bool, float | None]:
    """Banded invertibility test for the convolution semigroup.

    Returns ``(True, None)`` for a single Dirac component (unimodular
    characteristic function, decided analytically). Otherwise scans
    ``|chi(p)|`` at ``SCAN_POINTS`` points over ``|p| <= band`` and reports
    whether its infimum stays at or above ``floor``, together with a refined
    argmin witness ``p*`` (the smallest ``|p|`` among equal minima).
    """
    if not (band > 0.0 and math.isfinite(band)):
        raise ValueError(f"band must be positive and finite, got {band}")
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    if is_pure(rho):
        return True, None

    def abs2(p: float | np.ndarray) -> float | np.ndarray:
        return np.abs(_chi(rho, np.asarray(p, dtype=float))) ** 2

    grid = np.linspace(-band, band, SCAN_POINTS)
    vals = np.asarray(abs2(grid), dtype=float)

    candidate_idx = [0, SCAN_POINTS - 1]
    interior = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    candidate_idx.extend(int(i) for i in interior)

    refined: list[tuple[float, float]] = []
    for i in candidate_idx:
        if i in (0, SCAN_POINTS - 1):
            refined.append((float(vals[i]), float(grid[i])))
            continue
        res = optimize.minimize_scalar(
            lambda p: float(abs2(p)), bounds=(grid[i - 1], grid[i + 1]), method="bounded",
            options={"xatol": 1e-10},
        )
        refined.append((float(res.fun), float(res.x)))

    best = min(v for v, _ in refined)
    ties = [p for v, p in refined if math.sqrt(max(v, 0.0)) <= math.sqrt(max(best, 0.0)) + 1e-9]
    witness = min(ties, key=lambda p: (abs(p), -p))
    return math.sqrt(max(best, 0.0)) >= floor, witness


def is_pure(rho: GroupDensity) -> bool:
    """True iff the state is a single point mass after simplification."""
    comps = _canonical(rho.components)
    return len(comps) == 1 and isinstance(comps[0][1], DiracComponent)


def density_gap(rho1: GroupDensity, rho2: GroupDensity) -> float:
    """Worst parameter/weight mismatch between canonical forms (inf if shapes differ)."""
    c1 = _canonical(rho1.components)
    c2 = _canonical(rho2.components)
    if len(c1) != len(c2):
        return math.inf
    gap = 0.0
    for (w1, a), (w2, b) in zip(c1, c2):
        if type(a) is not type(b):
            return math.inf
        gap = max(gap, abs(w1 - w2))
        if isinstance(a, DiracComponent):
            gap = max(gap, abs(a.location - b.location))
        else:
            gap = max(gap, abs(a.mean - b.mean), abs(a.variance - b.variance))
    return gap


def densities_close(rho1: GroupDensity, rho2: GroupDensity, tol: float = MATCH_TOL) -> bool:
    """Equality of states as a canonical-form component match within ``tol``."""
    return density_gap(rho1, rho2) <= tol


def mass_within(rho: GroupDensity, lo: float, hi: float) -> float:
    """Probability mass of the density inside the closed interval [lo, hi]."""
    if hi < lo:
        raise ValueError("interval must satisfy lo <= hi")
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


def uniform_step(grid: np.ndarray, what: str) -> float:
    """Spacing of a finite, increasing, uniform 1-D grid of at least 3 points."""
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError(f"{what} must be a 1-D array with at least 3 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{what} must be finite")
    step = grid[1] - grid[0]
    if step <= 0.0 or np.any(np.abs(np.diff(grid) - step) > 1e-9 * step):
        raise ValueError(f"{what} must be uniform and increasing")
    return step


def dirac_bin(location: float, grid: np.ndarray, step: float) -> int:
    """Index of the grid point nearest a Dirac location, which must lie on the grid."""
    idx = int(round((location - grid[0]) / step))
    if not 0 <= idx < grid.size:
        raise DomainError(
            f"Dirac location {location} lies outside the grid [{grid[0]}, {grid[-1]}]"
        )
    return idx


def sample_on_grid(rho: GroupDensity, a_grid: np.ndarray) -> np.ndarray:
    """Sample the density on a uniform grid.

    Gaussian components are evaluated pointwise; each Dirac component becomes
    a single-bin spike of height weight/spacing at the nearest grid point
    (see :func:`dirac_bin`), so the rectangle-rule integral of the samples
    is one.
    """
    grid = np.asarray(a_grid, dtype=float)
    step = uniform_step(grid, "sampling grid")
    values = np.zeros_like(grid)
    for w, comp in rho.components:
        if isinstance(comp, DiracComponent):
            values[dirac_bin(comp.location, grid, step)] += w / step
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
