"""Shared utilities: units, argument validation, seeded RNG helpers."""

from repro.util.units import (
    KB,
    MB,
    GB,
    KIB,
    MIB,
    GIB,
    OC3,
    OC12,
    OC48,
    OC192,
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    mbps,
    bytes_per_sec_to_mbps,
    fmt_seconds,
)
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
)
from repro.util.rng import make_rng, spawn_rngs

__all__ = [
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "OC3",
    "OC12",
    "OC48",
    "OC192",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "mbps",
    "bytes_per_sec_to_mbps",
    "fmt_seconds",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "make_rng",
    "spawn_rngs",
]
