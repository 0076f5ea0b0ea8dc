"""Small argument-validation helpers.

These raise early, with the offending parameter named, so that
mis-configured simulations fail at construction rather than deep inside
the event loop.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
