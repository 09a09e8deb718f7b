"""Seeded random generators for norm specs and raw approach sequences.

Campaign runs and the test suite share these; everything is a pure function
of the generator handed in, so identical seeds reproduce identical
instances.
"""

from __future__ import annotations

import numpy as np

from .algebra import Basis, require_memory
from .errors import UnusableSequenceError
from .norms import (
    BaseCostTable,
    MetricSpec,
    NormOracle,
    WeightSpec,
    oracle_for,
)
from .rebasing import ApproachSequence, normalize_sequence

COST_LOW = 0.1
COST_HIGH = 10.0

# A raw approach sequence has at most this many terms, and random_sequence
# gives up after this many unusable draws.
SEQUENCE_MAX_TERMS = 6
SEQUENCE_ATTEMPTS = 10


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...) - stable across runs."""
    return np.random.default_rng([int(seed), *(int(k) for k in key)])


def _log_uniform(rng: np.random.Generator, size) -> np.ndarray:
    return np.exp(rng.uniform(np.log(COST_LOW), np.log(COST_HIGH), size=size))


def random_weight_spec(rng: np.random.Generator, rank: int) -> WeightSpec:
    return WeightSpec(_log_uniform(rng, rank))


def random_metric_spec(rng: np.random.Generator, rank: int) -> MetricSpec:
    """Random metric on rank+1 points: symmetric log-uniform edge costs,
    closed under shortest paths so the triangle inequality holds."""
    m = rank + 1
    a = _log_uniform(rng, (m, m))
    a = np.minimum(a, a.T)
    np.fill_diagonal(a, 0.0)
    for k in range(m):
        a = np.minimum(a, np.add.outer(a[:, k], a[k, :]))
    np.fill_diagonal(a, 0.0)
    return MetricSpec(a)


def random_base_table(rng: np.random.Generator, rank: int) -> BaseCostTable:
    require_memory(8 << rank, f"a rank-{rank} cost table")
    costs = _log_uniform(rng, 1 << rank)
    costs[0] = 0.0
    return BaseCostTable(rank, costs)


# Norm family -> spec drawer; the keys are the families in CLI order.
_SPEC_DRAWERS = {
    "weighted": random_weight_spec,
    "graev": random_metric_spec,
    "closure": random_base_table,
}
NORM_FAMILIES = tuple(_SPEC_DRAWERS)


def random_norm(
    rng: np.random.Generator, rank: int, family: str
) -> tuple[WeightSpec | MetricSpec | BaseCostTable, NormOracle]:
    if family not in _SPEC_DRAWERS:
        raise ValueError(f"unknown norm family {family!r}")
    spec = _SPEC_DRAWERS[family](rng, rank)
    return spec, oracle_for(spec)


def random_raw_sequence(rng: np.random.Generator, rank: int) -> list[int]:
    """Raw approach-sequence material: strictly increasing top letters with
    random lower support.  Parity is left to normalization."""
    if rank < 3:
        raise ValueError("sequences need rank >= 3")
    count = int(rng.integers(2, min(SEQUENCE_MAX_TERMS, rank - 1) + 1))
    tops = np.sort(rng.choice(np.arange(2, rank + 1), size=count, replace=False))
    terms = []
    for t in tops:
        t = int(t)
        lower = int(rng.integers(0, 1 << (t - 1)))
        terms.append(lower | 1 << (t - 1))
    return terms


def random_sequence(
    rng: np.random.Generator, basis: Basis, oracle: NormOracle
) -> ApproachSequence:
    """Draw raw material until it normalizes to a usable sequence."""
    rank = len(basis.rows)
    for _ in range(SEQUENCE_ATTEMPTS):
        raw = random_raw_sequence(rng, rank)
        try:
            return normalize_sequence(raw, basis, oracle)
        except UnusableSequenceError:
            continue
    raise UnusableSequenceError(f"no usable sequence after {SEQUENCE_ATTEMPTS} draws")
