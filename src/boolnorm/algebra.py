"""Bit-mask arithmetic for finite-rank Boolean groups.

An element of the rank-n truncation is a finite set of generator indices,
stored as an int bit mask with generator i on bit i-1.  Group addition is
symmetric difference of the index sets, i.e. XOR of the masks, so every
element is its own inverse, the zero element is the empty mask, and mask
equality is element equality.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import IndexOutOfRankError, RankTooLargeError

Element = int


def _index(i) -> int:
    # Indices come from JSON too: 1.9 or true must be refused, not rounded
    # to 1; numpy integers are accepted.
    if isinstance(i, bool):
        raise TypeError(f"index must be an integer, got {i!r}")
    try:
        return operator.index(i)
    except TypeError:
        raise TypeError(f"index must be an integer, got {i!r}") from None


def from_support(indices: Iterable[int], rank: int | None = None) -> Element:
    """Element with the given generator indices (each >= 1, no repeats,
    and at most rank when a rank is given)."""
    mask = 0
    for i in indices:
        i = _index(i)
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if rank is not None and i > rank:
            # Refused before 1 << (i - 1) is built: a huge index would
            # exhaust memory first.
            raise IndexOutOfRankError(f"generator index {i} exceeds rank {rank}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"duplicate generator index {i}")
        mask |= bit
    return mask


def support(g: Element) -> tuple[int, ...]:
    """Sorted generator indices of g; empty for the zero element."""
    if g < 0:
        raise ValueError(f"element mask must be nonnegative, got {g}")
    out = []
    while g:
        low = g & -g
        out.append(low.bit_length())
        g ^= low
    return tuple(out)


@dataclass(frozen=True)
class TriangularBasis:
    """Basis over the original generators whose row j contains index j and
    uses only indices <= j; such rows are independent by construction."""

    rows: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for j, row in enumerate(self.rows, 1):
            if not row & (1 << (j - 1)):
                raise ValueError(f"row {j} must contain index {j}")
            if row >> j:
                raise ValueError(f"row {j} uses indices above {j}")

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class GeneralBasis:
    """Candidate basis given as arbitrary nonzero-or-zero rows; independence
    is a checked property (see rebasing.verify_independence), not enforced
    at construction."""

    rows: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if row < 0:
                raise ValueError("rows must be nonnegative masks")


Basis = Union[TriangularBasis, GeneralBasis]


@functools.cache
def _physical_memory() -> int:
    # Read once per process: graev_norm asks on every scalar evaluation.
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes: int, what: str) -> None:
    """Refuse an allocation of nbytes that physical memory could not hold."""
    physical = _physical_memory()
    if nbytes > physical:
        raise RankTooLargeError(
            f"{what} needs {nbytes} bytes, physical memory is {physical} bytes"
        )


def require_int64_masks(rows: Sequence[Element]) -> None:
    """Refuse rows that an int64 element array cannot hold: it stores
    generators 1..63 only."""
    top = max(rows, default=0)
    if top >> 63:
        raise RankTooLargeError(
            f"element arrays hold generators 1..63, a row reaches generator {top.bit_length()}"
        )


def span_elements(rows: Sequence[Element]) -> np.ndarray:
    """span[c] = sum of the rows selected by coordinate mask c, for every
    c < 2**len(rows), built by doubling: span[2^j : 2^(j+1)] = span[:2^j] + row j."""
    require_int64_masks(rows)
    k = len(rows)
    require_memory(8 << k, f"the span of {k} rows")
    return _spans(np.array(rows, dtype=np.int64).reshape(1, k))[0]


def _spans(rows: np.ndarray) -> np.ndarray:
    """span_elements of each row of a (B, k) int64 stack of bases, as one
    (B, 2**k) stack."""
    b, k = rows.shape
    span = np.zeros((b, 1 << k), dtype=np.int64)
    for j in range(k):
        np.bitwise_xor(span[:, : 1 << j], rows[:, j, None], out=span[:, 1 << j : 2 << j])
    return span


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the given int-mask rows: Gaussian elimination,
    one pivot per independent row, keyed by its top index.  A negative mask
    is refused: its XOR walk would cycle."""
    pivots: dict[int, Element] = {}
    for vec in rows:
        if vec < 0:
            raise ValueError(f"element mask must be nonnegative, got {vec}")
        while vec and vec.bit_length() in pivots:
            vec ^= pivots[vec.bit_length()]
        if vec:
            pivots[vec.bit_length()] = vec
    return len(pivots)
