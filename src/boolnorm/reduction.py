"""Greedy norm-minimizing basis construction over generator cosets.

Row k+1 of the reduced basis is the cheapest element of the coset
e_{k+1} + span(rows 1..k); ties go to the lexicographically smallest
support, so reduction is deterministic for any fixed norm.  A reduced
basis is unitriangular, so that coset is the contiguous slice of the dense
norm table holding the masks whose top letter is k+1, and each row is read
off its slice: no span of the earlier rows is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Element, TriangularBasis, support
from .errors import NanNormError, SearchBoundExceededError
from .norms import NormOracle, restrict_oracle

DEFAULT_SEARCH_BOUND = 24


@dataclass(frozen=True)
class RowRecord:
    """Per-row search statistics emitted by reduce_basis_report."""

    index: int
    support: tuple[int, ...]
    norm: float
    coset_size: int
    candidates_evaluated: int


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


def _reduced_rows(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (B, r) and row norms (B, r) of the reduced bases of a
    (B, 2**r) stack of norm tables, by plain search: row k of basis b is
    the cheapest mask of tables[b, 2**(k-1) : 2**k], with ties to the
    lexicographically smallest support.  Raises NanNormError for the first
    table holding a NaN, at its first NaN mask."""
    b, r = len(tables), tables.shape[1].bit_length() - 1
    rows = np.empty((b, r), dtype=np.int64)
    norms = np.empty((b, r))
    for k in range(1, r + 1):
        size = 1 << (k - 1)
        coset = tables[:, size : 2 * size]
        best = coset.min(axis=1)
        ties = coset == best[:, None]
        rows[:, k - 1] = ties.argmax(axis=1) + size
        norms[:, k - 1] = best
        # Without a NaN every table has at least one minimum, so more than b
        # of them in all means a tie.  A table with a NaN raises below.
        if np.count_nonzero(ties) > b:
            for t in range(b):
                tied = np.flatnonzero(ties[t]) + size
                if tied.size > 1:
                    rows[t, k - 1] = min(map(int, tied), key=support)
    # A coset minimum is NaN exactly when its slice holds a NaN, and NaN
    # compares false both ways, so no search could rank it.
    nan = np.isnan(norms).any(axis=1)
    if nan.any():
        _raise_nan(tables[int(nan.argmax())])
    return rows, norms


def _raise_nan(table: np.ndarray) -> None:
    # The slices partition the nonzero masks in mask order, so the table's
    # first NaN is in the first slice holding one.
    g = 1 + int(np.flatnonzero(np.isnan(table[1:]))[0])
    raise NanNormError(f"norm of {support(g)} is NaN; the coset minimum is undefined")


def reduce_basis_report(
    oracle: NormOracle, rank: int, *, prune: bool = False
) -> tuple[TriangularBasis, list[RowRecord]]:
    """Reduced basis plus per-row search statistics.

    Row 1 is the first generator; row k+1 minimizes the norm over the coset
    of generator k+1 by span(rows 1..k).  The output is unitriangular by
    construction, so rows 1..k span exactly the masks below 2**k and the
    coset is the table slice [2**k, 2**(k+1)): the masks whose top letter
    is k+1.  The plain search takes the minimum of that slice in place
    (_reduced_rows on one table); the pruned one walks its members depth
    first.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > oracle.rank:
        raise ValueError(f"norm oracle covers rank {oracle.rank}, need {rank}")
    if rank > DEFAULT_SEARCH_BOUND:
        raise SearchBoundExceededError(f"rank {rank} exceeds search bound {DEFAULT_SEARCH_BOUND}")
    table = restrict_oracle(oracle, rank).table()
    if not prune:
        rows, norms = _reduced_rows(table[None])
        records = [
            RowRecord(k, support(elem), norm, 1 << (k - 1), 1 << (k - 1))
            for k, (elem, norm) in enumerate(zip(rows[0].tolist(), norms[0].tolist()), 1)
        ]
        return TriangularBasis(tuple(rows[0].tolist())), records
    pruned: list[Element] = []
    records = []
    for k in range(1, rank + 1):
        size = 1 << (k - 1)
        if np.isnan(table[size : 2 * size].min()):
            _raise_nan(table)
        elem, norm, evaluated = _argmin_pruned(table, size, tuple(pruned))
        pruned.append(elem)
        records.append(RowRecord(k, support(elem), norm, size, evaluated))
    return TriangularBasis(tuple(pruned)), records


def reduce_basis(oracle: NormOracle, rank: int, *, prune: bool = False) -> TriangularBasis:
    """Reduced basis of the rank-n truncation under the given norm.

    prune=True gives the same basis only when the oracle really is a norm:
    its cut assumes the triangle inequality, so on a table that is not
    subadditive it may return a different, wrong basis."""
    return reduce_basis_report(oracle, rank, prune=prune)[0]
