"""Units and constants used throughout the reproduction.

Conventions
-----------
- Data sizes are measured in **bytes** (floats are permitted for fluid
  models).
- Rates are measured in **bytes per second** internally; the paper
  quotes megabits per second (Mbps), so conversion helpers are
  provided and used at the reporting boundary.
- Times are in **seconds**.

The SONET line rates below are the *payload-visible* line rates the
paper quotes (622 Mbps for OC-12, 2.4 Gbps for OC-48), not the exact
SONET payload envelope; the paper itself uses the rounded figures when
computing utilization (e.g. 433 Mbps / 622 Mbps ~= 70%).
"""

from __future__ import annotations

# -- sizes (decimal, as used by the paper: "160 megabytes" = 160e6) ---
KB = 1_000.0
MB = 1_000_000.0
GB = 1_000_000_000.0

# -- binary sizes, for block/buffer arithmetic ------------------------
KIB = 1024.0
MIB = 1024.0 * 1024.0
GIB = 1024.0 * 1024.0 * 1024.0

BITS_PER_BYTE = 8.0


def mbps(value: float) -> float:
    """Convert a rate in megabits/second to bytes/second."""
    return value * 1_000_000.0 / BITS_PER_BYTE


def bytes_per_sec_to_mbps(value: float) -> float:
    """Convert a rate in bytes/second to megabits/second."""
    return value * BITS_PER_BYTE / 1_000_000.0


# -- link rates (bytes/second) ---------------------------------------
OC3 = mbps(155.0)
OC12 = mbps(622.0)
OC48 = mbps(2488.0)
OC192 = mbps(9953.0)
FAST_ETHERNET = mbps(100.0)
GIGABIT_ETHERNET = mbps(1000.0)


def fmt_seconds(t: float) -> str:
    """Human-readable duration."""
    if t >= 3600.0:
        return f"{t / 3600.0:.2f} h"
    if t >= 60.0:
        return f"{t / 60.0:.1f} min"
    if t >= 1.0:
        return f"{t:.2f} s"
    return f"{t * 1000.0:.2f} ms"
