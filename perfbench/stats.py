"""Order statistics used for every reported timing.

Pure Python on purpose: the benchmark's summaries must not depend on the
numpy build that the measured program uses.
"""

from __future__ import annotations

import math


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks.

    Same definition as numpy's default ('linear') method.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

