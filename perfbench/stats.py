"""Nearest-rank percentiles, the reported tails and the capacity rate ladder."""

from __future__ import annotations

import math

#: Capacity ladder: rung k serves LADDER_BASE * LADDER_RATIO**k requests/s.
#: Steps of 5% keep the reported capacity within one step of the truth.
LADDER_BASE = 1.0
LADDER_RATIO = 1.05
#: 1 req/s .. 119 req/s: the highest rung a capacity search can probe
#: is the write_mix base rung plus two gallop steps, 74 + 8 + 16 = 98.
LADDER_RUNGS = 99


#: The tail percentile reported next to p50 for each operation: the
#: highest one with ten or more samples beyond it in every base phase
#: (at least 200 reads and 100 updates).
TAIL = {"read": 95, "update": 90}


def rung(index: int) -> float:
    return LADDER_BASE * LADDER_RATIO ** index


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample.

    With 1000 samples, p99 is the 990th smallest value: ten samples lie
    beyond it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
