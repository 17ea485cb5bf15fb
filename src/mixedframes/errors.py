"""Exception types shared across the package, and the input checks that raise them."""

import math
import operator
from typing import Sequence


class NormalizationError(ValueError):
    """A probability weight vector or density failed its normalization check."""


class DomainError(ValueError):
    """An argument is outside the domain an operation supports."""


class GridMismatchError(ValueError):
    """Two grid-based values do not live on the same grid."""


class QuadratureError(RuntimeError):
    """A numerical integration did not converge to the requested tolerance."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured size cap."""


def finite(name: str, value: float) -> float:
    """``float(value)``; raises :class:`DomainError` naming ``name`` if it is NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def integer(name: str, value: int) -> int:
    """``operator.index(value)``; raises :class:`DomainError` naming ``name`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def positive(name: str, value: float) -> float:
    """``float(value)``; raises :class:`DomainError` naming ``name`` unless it is finite and > 0."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def probability_weights(what: str, weights: Sequence[float], tol: float) -> None:
    """Raise :class:`NormalizationError` unless ``weights`` is non-empty, every
    weight is positive and finite, and their ``fsum`` is within ``tol`` of one."""
    if not weights:
        raise NormalizationError(f"{what} need at least one weight")
    for w in weights:
        if not (w > 0.0 and math.isfinite(w)):
            raise NormalizationError(f"{what} must be positive and finite, got {w}")
    total = math.fsum(weights)
    if not abs(total - 1.0) <= tol:
        raise NormalizationError(f"{what} sum to {total!r}, expected 1")
