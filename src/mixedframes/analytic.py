"""Closed-form position densities used as regression references.

These are the exact continuum expressions the grid pipelines must
reproduce; all of them place the translated peak at ``x = +shift``, i.e.
they describe a packet moved forward by ``shift``. To realize the same
curve through the channel (whose convention is ``psi(x + a)``) the group
density must carry the opposite parameter sign; the figure builders do
that mapping in one place.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def gaussian_kernel(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    """The unnormalized Gaussian exp(-(x - mean)^2 / (2 variance))."""
    with np.errstate(over="ignore"):  # an exponent of -inf gives exp(-inf) = 0, the exact value
        return np.exp(-((x - mean) ** 2) / (2.0 * variance))


def norm_pdf(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    return gaussian_kernel(x, mean, variance) / math.sqrt(2.0 * math.pi * variance)


def two_point_mixed_density(x: np.ndarray, alpha: float, a2: float) -> np.ndarray:
    """Equal-weight mixture of a packet at 0 and a packet at a2."""
    both = gaussian_kernel(x, a2, alpha**2) + gaussian_kernel(x, 0.0, alpha**2)
    return both / (2.0 * math.sqrt(2.0 * math.pi) * alpha)


def superposition_density(x: np.ndarray, alpha: float, a2: float, sign: int = +1) -> np.ndarray:
    """Density of the normalized coherent sum/difference of two packets.

    The normalization constant is 2 sqrt(2 pi) alpha (1 + sign * exp(-a2^2/8 alpha^2)),
    derived from the Gaussian overlap integral; grid integration confirms it
    for both signs.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    g0 = gaussian_kernel(x, 0.0, 2.0 * alpha**2)
    g2 = gaussian_kernel(x, a2, 2.0 * alpha**2)
    exponent = -(a2 * a2) / (8.0 * alpha**2)  # a2**2 would raise on overflow
    # 1 - exp(x) cancels to exactly 0 once |x| is below machine epsilon; expm1 does not
    overlap_term = 1.0 + math.exp(exponent) if sign == +1 else -math.expm1(exponent)
    norm = 2.0 * math.sqrt(2.0 * math.pi) * alpha * overlap_term
    return (g2 + sign * g0) ** 2 / norm


def smeared_mixture_density(
    x: np.ndarray, alpha: float, sigma: float, shift: float = 0.0
) -> np.ndarray:
    """Channel output density: Gaussian of variance sigma^2 + alpha^2 at shift."""
    return norm_pdf(x, shift, sigma**2 + alpha**2)


def smeared_pure_density(
    x: np.ndarray, alpha: float, sigma: float, shift: float = 0.0
) -> np.ndarray:
    """Coherently smeared packet density: variance (sigma^2 + 2 alpha^2) / 2.

    Narrower than :func:`smeared_mixture_density` for every sigma > 0.
    """
    return norm_pdf(x, shift, (sigma**2 + 2.0 * alpha**2) / 2.0)
