"""Latency percentiles under the ten-samples-beyond rule."""

from __future__ import annotations

import math

TAIL_SAMPLES = 10  # a reported percentile needs at least this many samples beyond it


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: element ceil(q * n), 1-based."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile's position."""
    return n - max(1, math.ceil(q * n))


def min_samples(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``tail`` samples beyond the q-quantile."""
    n = 1
    while beyond(n, q) < tail:
        n += 1
    return n


def latency_summary(item_ms: list[float]) -> dict:
    ordered = sorted(item_ms)
    n = len(ordered)
    return {
        "item_ms_p50": nearest_rank(ordered, 0.5),
        "item_ms_p90": nearest_rank(ordered, 0.9),
        "samples": n,
        "beyond_p90": beyond(n, 0.9),
    }
