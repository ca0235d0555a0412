"""Seeded workload inputs: data, patterns, update batches, exact counts.

Everything the benchmark sends to the program under test is made here
from ``--seed``; the program receives only these generated inputs.  The
exact counts the accuracy metrics compare against come from a plain
NumPy recount of the code matrix, never from ``repro``'s own counters.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import load_dataset

DATASET = "compas"
BOUND = 100
MIN_ARITY, MAX_ARITY = 1, 3


def make_dataset(seed: int):
    """The compas generator at paper scale (60,843 rows x 17 attributes)."""
    return load_dataset(DATASET, seed=seed)


def sample_patterns(data, n: int, rng: np.random.Generator) -> list[dict]:
    """``n`` patterns of 1-3 attributes, each read off a random data row.

    Every pattern therefore has a count of at least 1.  Returned as
    ``{attribute: value}`` dicts, the wire form of ``POST .../estimate``.
    """
    names = data.attribute_names
    codes = data.codes_matrix()
    columns = [data.schema[name].categories for name in names]
    rows = rng.integers(0, data.n_rows, size=n)
    arities = rng.integers(MIN_ARITY, MAX_ARITY + 1, size=n)
    patterns = []
    for row, arity in zip(rows, arities):
        chosen = np.sort(rng.choice(len(names), size=arity, replace=False))
        patterns.append(
            {names[j]: columns[j][codes[row, j]] for j in chosen}
        )
    return patterns


def distinct(patterns: list[dict]) -> list[dict]:
    """Patterns with duplicates removed, first occurrence order kept."""
    seen: dict[tuple, dict] = {}
    for pattern in patterns:
        seen.setdefault(tuple(sorted(pattern.items())), pattern)
    return list(seen.values())


def exact_counts(data, patterns: list[dict]) -> np.ndarray:
    """Exact pattern counts by a direct NumPy scan of the code matrix."""
    codes = data.codes_matrix()
    position = {name: j for j, name in enumerate(data.attribute_names)}
    code_of = {
        name: {value: code for code, value in enumerate(data.schema[name].categories)}
        for name in data.attribute_names
    }
    masks: dict[tuple, np.ndarray] = {}

    def mask_of(name, value):
        key = (name, value)
        if key not in masks:
            masks[key] = codes[:, position[name]] == code_of[name][value]
        return masks[key]

    counts = np.empty(len(patterns), dtype=np.int64)
    for i, pattern in enumerate(patterns):
        mask = np.ones(data.n_rows, dtype=bool)
        for name, value in pattern.items():
            mask &= mask_of(name, value)
        counts[i] = int(np.count_nonzero(mask))
    return counts


def zipf_ranks(n_requests: int, n_distinct: int, s: float, rng) -> np.ndarray:
    """Request ranks drawn from a zipf(s) law truncated to ``n_distinct``."""
    weights = 1.0 / np.arange(1, n_distinct + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    return rng.choice(n_distinct, size=n_requests, p=weights)


def update_rows(data, n_rows: int, rng: np.random.Generator) -> list[list]:
    """Rows resampled from the base data, in attribute order.

    Drawing inserted rows from the data keeps every value inside the
    counter's frozen domains, so a streamed counter never detaches.
    """
    codes = data.codes_matrix()
    columns = [data.schema[name].categories for name in data.attribute_names]
    picks = rng.integers(0, data.n_rows, size=n_rows)
    return [
        [columns[j][codes[row, j]] for j in range(len(columns))]
        for row in picks
    ]


def arrivals(n: int, rate: float, rng: np.random.Generator) -> list[float]:
    """Poisson arrival offsets (seconds from phase start) at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n)).tolist()
