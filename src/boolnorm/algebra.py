"""Bit-mask arithmetic for finite-rank Boolean groups.

An element of the rank-n truncation is a finite set of generator indices,
stored as an int bit mask with generator i on bit i-1.  Group addition is
symmetric difference of the index sets, i.e. XOR of the masks, so every
element is its own inverse, the zero element is the empty mask, and mask
equality is element equality.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import IndexOutOfRankError, NotInSpanError, RankTooLargeError, StratumRangeError

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


def reduce_word(letters: Iterable[int]) -> Element:
    """Element represented by a word: indices with odd multiplicity survive,
    paired repeats cancel."""
    mask = 0
    for i in letters:
        i = _index(i)
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        mask ^= 1 << (i - 1)
    return mask


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

    @property
    def size(self) -> int:
        return len(self.rows)


Basis = Union[TriangularBasis, GeneralBasis]


def _reduce(
    vec: Element, combo: int, pivots: dict[int, tuple[Element, int]]
) -> tuple[Element, int]:
    """XOR pivot rows into vec (and their coordinate masks into combo) until
    its top index has no pivot; returns the residue, 0 when vec is in their
    span.  A negative mask is refused: its XOR walk would cycle."""
    if vec < 0:
        raise ValueError(f"element mask must be nonnegative, got {vec}")
    while vec:
        pivot = pivots.get(vec.bit_length())
        if pivot is None:
            break
        vec ^= pivot[0]
        combo ^= pivot[1]
    return vec, combo


def _pivots(rows: Iterable[Element]) -> dict[int, tuple[Element, int]]:
    """Gaussian elimination over GF(2): top index -> (reduced row, mask of
    the row positions summed into it), one entry per independent row."""
    pivots: dict[int, tuple[Element, int]] = {}
    for pos, row in enumerate(rows):
        vec, combo = _reduce(row, 1 << pos, pivots)
        if vec:
            pivots[vec.bit_length()] = (vec, combo)
    return pivots


def express_in_basis(g: Element, basis: Basis) -> tuple[int, ...]:
    """Row positions (1-based, sorted) whose rows sum to g; NotInSpanError
    when a nonzero residue remains after elimination."""
    vec, combo = _reduce(g, 0, _pivots(basis.rows))
    if vec:
        raise NotInSpanError("element has a residue outside the row span")
    return support(combo)


def reduced_length(g: Element, basis: Basis) -> int:
    """Number of rows in the expansion of g, i.e. its reduced length."""
    return len(express_in_basis(g, basis))


def element_from_coordinates(basis: Basis, coords: Iterable[int]) -> Element:
    """Inverse of express_in_basis: XOR of the selected rows."""
    rows = basis.rows
    g = 0
    for pos in coords:
        pos = _index(pos)
        if not 1 <= pos <= len(rows):
            raise ValueError(f"row position {pos} out of range 1..{len(rows)}")
        g ^= rows[pos - 1]
    return g


def enumerate_stratum(rank: int, k: int, mode: str = "exactly") -> Iterator[tuple[int, ...]]:
    """Coordinate sets of reduced length k ("exactly") or <= k ("at-most"),
    in lexicographic order within each size.  Validates eagerly."""
    if k < 0:
        raise ValueError("stratum length must be >= 0")
    if k > rank:
        raise StratumRangeError(f"stratum length {k} exceeds rank {rank}")
    if mode not in ("exactly", "at-most"):
        raise ValueError(f"unknown mode {mode!r}")
    sizes: Iterable[int] = (k,) if mode == "exactly" else range(k + 1)

    def generate() -> Iterator[tuple[int, ...]]:
        for m in sizes:
            yield from itertools.combinations(range(1, rank + 1), m)

    return generate()


def require_memory(nbytes: int, what: str) -> None:
    """Refuse an allocation of nbytes that physical memory could not hold."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise RankTooLargeError(
            f"{what} needs {nbytes} bytes, physical memory is {physical} bytes"
        )


def span_elements(rows: Sequence[Element]) -> np.ndarray:
    """span[c] = sum of the rows selected by coordinate mask c, for every
    c < 2**len(rows), built by doubling: span[2^j : 2^(j+1)] = span[:2^j] + row j."""
    k = len(rows)
    require_memory(8 << k, f"the span of {k} rows")
    span = np.zeros(1 << k, dtype=np.int64)
    for j, row in enumerate(rows):
        span[1 << j : 2 << j] = span[: 1 << j] ^ row
    return span


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the given int-mask rows."""
    return len(_pivots(rows))
