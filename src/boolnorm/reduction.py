"""Greedy norm-minimizing basis construction over generator cosets.

Row k+1 of the reduced basis is the cheapest element of the coset
e_{k+1} + span(rows 1..k); ties go to the lexicographically smallest
support, so reduction is deterministic for any fixed norm.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .algebra import Element, TriangularBasis, require_memory, support
from .errors import NanNormError, SearchBoundExceededError
from .norms import NormOracle, restrict_oracle

DEFAULT_SEARCH_BOUND = 24
SEARCH_BOUND_ENV = "BOOLNORM_SEARCH_BOUND"


def search_bound() -> int:
    """Effective coset search bound: the BOOLNORM_SEARCH_BOUND environment
    variable, else the default."""
    env = os.environ.get(SEARCH_BOUND_ENV)
    if env is None:
        return DEFAULT_SEARCH_BOUND
    bound = int(env)
    if bound < 1:
        raise ValueError(f"{SEARCH_BOUND_ENV} must be >= 1, got {bound}")
    return bound


@dataclass(frozen=True)
class RowRecord:
    """Per-row search statistics emitted by reduce_basis_report."""

    index: int
    support: tuple[int, ...]
    norm: float
    coset_size: int
    candidates_evaluated: int


def _argmin_dense(members: np.ndarray, values: np.ndarray) -> tuple[Element, float]:
    # Minimum norm, then lexicographically smallest support among the ties.
    best = values.min()
    ties = members[values == best]
    elem = int(ties[0]) if ties.size == 1 else min(map(int, ties), key=support)
    return elem, float(best)


def _argmin_pruned(
    table: np.ndarray, offset: Element, rows: tuple[Element, ...]
) -> tuple[Element, float, int]:
    # Depth-first over row subsets.  A subtree below a partial element p,
    # with undecided rows j+1.., is cut only when N(p) minus the summed
    # norms of those rows strictly exceeds the incumbent: the triangle
    # inequality then rules out improvements *and* ties, so the answer is
    # identical to an exhaustive search.
    item = table.item
    k = len(rows)
    suffix = [0.0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + item(rows[j])
    best_norm = item(offset)
    ties = [offset]
    evaluated = 1
    # (j, p): rows j.. are still undecided below p.  The child p + row j
    # is pushed above the rest of p's rows, so it is walked first.
    stack = [(0, offset)] if k else []
    while stack:
        j, cur = stack.pop()
        if j + 1 < k:
            stack.append((j + 1, cur))
        child = cur ^ rows[j]
        v = item(child)
        evaluated += 1
        if v < best_norm:
            best_norm, ties = v, [child]
        elif v == best_norm:
            ties.append(child)
        if j + 1 < k and v - suffix[j + 1] <= best_norm:
            stack.append((j + 1, child))
    return min(ties, key=support), best_norm, evaluated


def reduce_basis_report(
    oracle: NormOracle, rank: int, *, prune: bool = False
) -> tuple[TriangularBasis, list[RowRecord]]:
    """Reduced basis plus per-row search statistics.

    Row 1 is the first generator; row k+1 minimizes the norm over the coset
    of generator k+1 by span(rows 1..k).  The output is unitriangular by
    construction: every coset member contains index k+1 and nothing above.
    The plain search takes the minimum over the dense norm table at all
    2**k coset members at once; the pruned one walks them depth first.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > oracle.rank:
        raise ValueError(f"norm oracle covers rank {oracle.rank}, need {rank}")
    limit = search_bound()
    if rank > limit:
        raise SearchBoundExceededError(f"rank {rank} exceeds search bound {limit}")
    table = restrict_oracle(oracle, rank).table()
    # The row cosets partition the nonzero masks, so both searches read
    # every entry but the zero element's; NaN compares false both ways, so
    # no search order could rank it.
    nan = np.flatnonzero(np.isnan(table[1:]))
    if nan.size:
        g = int(nan[0]) + 1
        raise NanNormError(f"norm of {support(g)} is NaN; the coset minimum is undefined")
    if not prune:
        # span[c] = sum of the rows selected by c, doubled as rows arrive.
        require_memory(8 << (rank - 1), f"the span of {rank - 1} rows")
        span = np.zeros(1 << (rank - 1), dtype=np.int64)
    rows: list[Element] = []
    records: list[RowRecord] = []
    for k in range(1, rank + 1):
        size = 1 << (k - 1)
        if prune:
            elem, norm, evaluated = _argmin_pruned(table, size, tuple(rows))
        else:
            members = span[:size] ^ size
            elem, norm = _argmin_dense(members, table[members])
            evaluated = size
            if k < rank:
                span[size : 2 * size] = span[:size] ^ elem
        rows.append(elem)
        records.append(RowRecord(k, support(elem), norm, size, evaluated))
    return TriangularBasis(tuple(rows)), records


def reduce_basis(oracle: NormOracle, rank: int, *, prune: bool = False) -> TriangularBasis:
    """Reduced basis of the rank-n truncation under the given norm.

    prune=True gives the same basis only when the oracle really is a norm:
    its cut assumes the triangle inequality, so on a table that is not
    subadditive it may return a different, wrong basis."""
    return reduce_basis_report(oracle, rank, prune=prune)[0]
