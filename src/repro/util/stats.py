"""Sample statistics the reports need, without NumPy's lazy imports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample.

    ``np.percentile``'s default method, bit for bit on finite samples,
    in pure Python: NumPy 2's version imports ``numpy.ma`` on its first
    call, which would land in the first simulated run of a process.
    Raises ``ValueError`` for a NaN sample or ``q`` outside [0, 100].
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(map(float, values))
    if any(map(math.isnan, ordered)):
        raise ValueError("percentile of a sample containing NaN")
    n = len(ordered)
    if not n:
        return 0.0
    v = (n - 1) * (q / 100)
    lo = int(v)
    hi = lo + 1
    if v >= n - 1:
        # NumPy's clamp: the last value on both sides, at weight v + 1.
        lo = hi = -1
    a, b = ordered[lo], ordered[hi]
    g = v - lo
    d = b - a
    if g >= 0.5:
        return b - d * (1 - g)
    return a + d * g
