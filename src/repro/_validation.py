"""Internal validation helpers shared across the library.

These helpers centralise the conversion of user input into well-formed
``numpy`` arrays and the checking of common preconditions (positivity,
shape, finiteness).  They raise :class:`repro.exceptions.ValidationError`
with descriptive messages instead of letting numpy errors propagate.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from .exceptions import ConfigurationError, ValidationError

ArrayLike = Union[np.ndarray, Sequence[float], Sequence[Sequence[float]]]


def as_rng(seed: Union[None, int, np.random.Generator]) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or generator.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an integer seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_matrix(
    data: ArrayLike,
    name: str = "data",
    *,
    allow_empty: bool = False,
    dtype: type = float,
) -> np.ndarray:
    """Validate and return a 2-D float array of shape ``(n, d)``.

    A 1-D input of length ``n`` is promoted to shape ``(n, 1)``.
    """
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 1-D or 2-D array, got {arr.ndim} dimensions"
        )
    if not allow_empty and arr.shape[0] == 0:
        raise ValidationError(f"{name} must contain at least one row")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_vector(
    data: ArrayLike,
    name: str = "vector",
    *,
    allow_empty: bool = False,
) -> np.ndarray:
    """Validate and return a 1-D float array."""
    arr = np.asarray(data, dtype=float).ravel()
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must contain at least one element")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_weights(
    weights: ArrayLike,
    name: str = "weights",
    *,
    normalize: bool = False,
) -> np.ndarray:
    """Validate a vector of non-negative weights with positive total mass."""
    arr = check_vector(weights, name)
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise ValidationError(f"{name} must have positive total mass")
    if normalize:
        arr = arr / total
    return arr


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate an integer parameter that must be at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate a probability-like scalar in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_same_dimension(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    """Raise if two 2-D arrays do not share the same number of columns."""
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"{name_a} and {name_b} must have the same dimensionality: "
            f"{a.shape[1]} != {b.shape[1]}"
        )


def check_window(value: Optional[int], name: str) -> Optional[int]:
    """Validate an optional window length (``None`` or a positive integer)."""
    if value is None:
        return None
    return check_positive_int(value, name, minimum=1)


def check_choices(config: Any) -> None:
    """Raise :class:`ConfigurationError` for a field outside its registry.

    ``config.CHOICES`` maps field names to the tuple of accepted values;
    the same table gives the CLI its ``choices=``.
    """
    for name, allowed in config.CHOICES.items():
        value = getattr(config, name)
        if value not in allowed:
            raise ConfigurationError(f"{name} must be one of {allowed}, got {value!r}")
