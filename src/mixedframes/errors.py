"""Exception types shared across the package, the input checks that raise them,
and the base class of the package's immutable records."""

import math
import operator
from typing import Sequence


class Frozen:
    """Base of the package's immutable records.

    A record's fields are the parameters of its own ``__init__``, in order,
    read once per class into ``_fields``; a subclass without an ``__init__``
    keeps its parent's. The ``__init__`` validates its arguments and stores
    one value per field with :meth:`_set`. After that, assignment and deletion
    raise ``AttributeError``. ``repr`` reads ``Name(field=value!r, ...)``.
    ``==`` and ``hash`` compare the tuple of fields of two instances of one
    class, unless the subclass is declared with ``eq=False``: then they are
    identity's, as for a record that holds arrays.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
            return
        fields = operator.attrgetter(*cls._fields)  # the field tuple, read in C
        # attrgetter of a single name returns the bare value, not its 1-tuple
        key = fields if len(cls._fields) > 1 else lambda self: (fields(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def _set(self, *values) -> None:
        """Store ``values`` as the fields, in order; one value per field."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


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
