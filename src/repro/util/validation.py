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


def check_in_range(
    name: str, value: float, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    """Require ``lo <= value <= hi`` (or strict, if not inclusive)."""
    ok = lo <= value <= hi if inclusive else lo < value < hi
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )
    return value
