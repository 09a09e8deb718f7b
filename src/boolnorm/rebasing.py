"""Rebasing a reduced basis along an approach sequence.

Terms and built rows all live in coordinates of the reduced basis: the
coordinate mask c stands for the sum of the rows selected by c.  The
transform adds one sequence term to every row in the block it drives, and
independence of the result is certified two ways: by the combinatorial
block argument (witness_nonvanishing) and by Gaussian elimination
(verify_independence).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Basis, GeneralBasis, TriangularBasis, _index, gf2_rank
from .errors import (
    InvalidIndexError,
    RankTooLargeError,
    SequenceTooShortError,
    UnusableSequenceError,
)
from .norms import NormOracle


@dataclass(frozen=True)
class ApproachSequence:
    """Sequence of coordinate masks with odd sizes, strictly increasing top
    index f(i), f(1) >= 2, and first term equal to the single letter f(1)."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        terms = tuple(_index(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("sequence must be nonempty")
        if len(set(terms)) != len(terms):
            raise ValueError("terms must be pairwise distinct")
        last_f = 1
        for i, t in enumerate(terms, 1):
            if t <= 0:
                raise ValueError(f"term {i} must be nonzero")
            if t.bit_count() % 2 == 0:
                raise ValueError(f"term {i} must have odd reduced length")
            f = t.bit_length()
            if f <= last_f:
                raise ValueError("top indices must be strictly increasing and >= 2")
            last_f = f
        if terms[0] != 1 << (terms[0].bit_length() - 1):
            raise ValueError("first term must be the single letter at its top index")


def _fix_parity(term: int, basis: Basis, oracle: NormOracle) -> int | None:
    # Add one unused letter to make the size odd.  Prefer letters below the
    # current top index (so f is preserved) and among those the cheapest
    # row norm, then the smallest index; fall back to letters above the top.
    rows = basis.rows
    rank = len(rows)
    top = term.bit_length()
    below = [j for j in range(1, top) if not term >> (j - 1) & 1]
    above = [j for j in range(top + 1, rank + 1)]
    pool = below or above
    if not pool:
        return None
    j = min(pool, key=lambda i: (oracle(rows[i - 1]), i))
    return term | 1 << (j - 1)


def normalize_sequence(
    raw_terms: Sequence[int], basis: Basis, oracle: NormOracle
) -> ApproachSequence:
    """Massage raw coordinate masks into a valid approach sequence.

    Steps, in order: make every term's size odd by adding one cheap unused
    letter (terms with no letter available are dropped); keep the greedy
    subsequence with strictly increasing top index starting at >= 2; replace
    the first survivor by the single letter at its top index.  Fails when
    fewer than two terms survive.
    """
    rank = len(basis.rows)
    if not raw_terms:
        raise UnusableSequenceError("sequence is empty")
    fixed: list[int] = []
    for i, t in enumerate(raw_terms, 1):
        t = _index(t)
        if t <= 0:
            raise UnusableSequenceError(f"term {i} is zero or negative")
        if t >> rank:
            raise UnusableSequenceError(f"term {i} uses coordinates above rank {rank}")
        if t.bit_count() % 2 == 0:
            patched = _fix_parity(t, basis, oracle)
            if patched is None:
                continue
            t = patched
        fixed.append(t)
    kept: list[int] = []
    last_f = 1
    for t in fixed:
        f = t.bit_length()
        if f > last_f:
            kept.append(t)
            last_f = f
    if len(kept) < 2:
        raise UnusableSequenceError(f"only {len(kept)} usable term(s) survive normalization")
    kept[0] = 1 << (kept[0].bit_length() - 1)
    return ApproachSequence(tuple(kept))


def f_iterates(seq: ApproachSequence, rank: int) -> list[int]:
    """Iterated top-index values [1, f(1), f(f(1)), ...], extended while the
    needed term exists and the next value stays within rank."""
    terms = seq.terms
    vals = [1]
    while vals[-1] <= len(terms):
        nxt = terms[vals[-1] - 1].bit_length()
        if nxt > rank:
            break
        vals.append(nxt)
    return vals


def build_second_basis(basis: TriangularBasis, seq: ApproachSequence) -> GeneralBasis:
    """Blockwise rebasing: row 0 is the first coordinate letter, and inside
    block k (coordinate positions f^k(1) .. f^{k+1}(1)-1) each position j
    becomes letter j plus the term driving the block.  Rows are coordinate
    masks; there are f^K(1) of them."""
    iters = f_iterates(seq, basis.rank)
    if len(iters) < 2:
        raise SequenceTooShortError("no block fits: the first top index already exceeds rank")
    rows = [1]
    for k in range(len(iters) - 1):
        term = seq.terms[iters[k] - 1]
        for j in range(iters[k], iters[k + 1]):
            rows.append((1 << (j - 1)) ^ term)
    return GeneralBasis(tuple(rows))


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    rank: int


def verify_independence(basis: GeneralBasis) -> IndependenceResult:
    """Gaussian elimination over GF(2): independent iff rank = row count."""
    r = gf2_rank(basis.rows)
    return IndependenceResult(r == len(basis.rows), r)


def witness_nonvanishing(
    combo: Iterable[int], basis: TriangularBasis, seq: ApproachSequence
) -> int:
    """Coordinate letter guaranteed to survive in the sum of the selected
    rebased rows, found by the block case analysis alone (no elimination).

    The top block either has even size, in which case its driving terms
    cancel and the largest selected label survives, or odd size, in which
    case one driving term survives and contributes its own top index.
    Label 0 is block -1 (row 0, the first letter), and block k holds the
    labels [f^k(1), f^{k+1}(1)).  This is the per-combination reference
    that check_witnesses computes for many masks at once.
    """
    iters = f_iterates(seq, basis.rank)
    if len(iters) < 2:
        raise SequenceTooShortError("no block fits: the first top index already exceeds rank")
    nrows = iters[-1]
    labels = {_index(i) for i in combo}
    bad = [label for label in labels if not 0 <= label < nrows]
    if bad:
        raise InvalidIndexError(f"row label {min(bad)} out of range 0..{nrows - 1}")
    if not labels:
        raise InvalidIndexError("combination must be nonempty")
    top = max(labels)
    if top == 0:
        return 1
    m = bisect_right(iters, top) - 1  # the top block holds the top label
    if sum(label >= iters[m] for label in labels) % 2 == 0:
        return top
    return iters[m + 1]


def _witness_letters(masks: np.ndarray, tags: np.ndarray, iters: list[list[int]]) -> np.ndarray:
    """witness_nonvanishing of every combination mask of a block at once:
    masks[i] belongs to trial tags[i], whose f-iterates are iters[tags[i]]
    (every one below 64), and bit j of it selects row label j, every label
    below that trial's iters[-1].  The top label is the mask's exact bit
    length - 1 (bits smeared down, then counted); block k of a trial holds
    labels [iters[k], iters[k+1]), found by one searchsorted over the
    trials' iterates on one axis, trial b's shifted by 64*b.  An even count
    of selected labels in the top block gives the top label, an odd one
    iters[k+1].  Mask 1 is block -1, letter 1."""
    keys = np.array([64 * b + f for b, it in enumerate(iters) for f in it], dtype=np.int64)
    bounds = keys & 63
    smear = masks
    for shift in (1, 2, 4, 8, 16, 32):
        smear = smear | smear >> shift
    top = np.bitwise_count(smear).astype(np.int64) - 1
    block = np.searchsorted(keys, top + 64 * tags, side="right") - 1
    inside = np.diff(1 << bounds)  # inside[k]: the labels of block k
    # mask 1 reads the block before its trial's first here (the last block
    # for trial 0); its letter is 1 whatever that gives
    odd = np.bitwise_count(masks & inside[block]) & 1 == 1
    return np.where(top == 0, 1, np.where(odd, bounds[block + 1], top))


def _witness_failures(items: list[tuple[tuple[int, ...], list[int], np.ndarray]]) -> list[int]:
    """check_witnesses' failure count for each (rows, iters, masks) item of
    a block: a trial's rebased rows, its f-iterates (iters[-1] <= 62) and an
    int64 array of its combination masks, each in 1..2**min(len(rows),
    iters[-1]) - 1.  The witnessed letter w of a mask occurs in the sum of
    the selected rows iff an odd number of them hold it, so each trial's
    rows are transposed once, into the labels holding each letter, and
    every mask reads its letter's labels with one gather."""
    b = len(items)
    masks = np.concatenate([m for _, _, m in items])
    tags = np.repeat(np.arange(b), [m.size for _, _, m in items])
    wit = _witness_letters(masks, tags, [it for _, it, _ in items])
    width = max(it[-1] for _, it, _ in items)
    # rows[t, j]: row j of trial t, cut below its letter iters[-1], the
    # largest any witness of the trial reads
    rows = np.zeros((b, width), dtype=np.int64)
    for t, (built, it, _) in enumerate(items):
        low = (1 << it[-1]) - 1
        cut = [row & low for row in built[: it[-1]]]
        rows[t, : len(cut)] = cut
    bit = np.arange(width)
    # holds[t, w]: the labels of trial t whose row holds letter w + 1
    holds = ((rows[:, :, None] >> bit & 1) << bit[:, None]).sum(axis=1)
    odd = np.bitwise_count(masks & holds.ravel()[tags * width + wit - 1]) & 1
    return np.bincount(tags[odd == 0], minlength=b).tolist()


def check_witnesses(
    built: GeneralBasis,
    basis: TriangularBasis,
    seq: ApproachSequence,
    combo_masks: Iterable[int],
) -> tuple[int, int]:
    """Cross-check witness_nonvanishing against the rebased rows: for each
    combination mask (bit i selects row label i), the witnessed letter must
    occur in the sum of the selected rows.  Returns (checked, failures).

    The masks are checked in one array pass, a block of one trial; a mask
    outside 1..2**rows - 1, or one that witness_nonvanishing would refuse,
    raises the error it would, the first such mask first."""
    masks = [_index(m) for m in combo_masks]
    if not masks:
        return 0, 0
    rows = built.rows
    iters = f_iterates(seq, basis.rank)
    # A witnessed letter is at most iters[-1] <= rank, and reduce_basis
    # needs a 2**rank table, so iters[-1] stays far below the 62 bits that
    # keep masks, row bits and block masks inside int64.
    if iters[-1] > 62:
        raise RankTooLargeError(f"witness pass holds masks of at most 62 bits, not {iters[-1]}")
    limit = 1 << len(rows)
    # From 2**iters[-1] on a mask selects a label that no block holds, and
    # every label lacks one when no block fits.
    bound = min(limit, 1 << iters[-1]) if len(iters) > 1 else 1
    if not (min(masks) > 0 and max(masks) < bound):
        bad = next(m for m in masks if not 0 < m < bound)
        if not 0 < bad < limit:
            raise InvalidIndexError(f"combination mask {bad} out of range 1..{limit - 1}")
        # refuses the mask with the error of the block argument
        witness_nonvanishing([i for i in range(len(rows)) if bad >> i & 1], basis, seq)
    arr = np.array(masks, dtype=np.int64)
    return len(masks), _witness_failures([(rows, iters, arr)])[0]


def separation_profile(
    basis2: GeneralBasis, oracle: NormOracle, seq: ApproachSequence
) -> dict:
    """Observational distance report for a rebased basis: pairwise row
    distances plus, for each driving term, its distance to every row outside
    the block it drives.  The oracle must act on the same coordinate domain
    as the rows (see norms.coordinate_norm)."""
    rows = basis2.rows
    nrows = len(rows)
    iters = f_iterates(seq, nrows)
    pairwise = []
    for i in range(nrows):
        for j in range(i + 1, nrows):
            pairwise.append(oracle(rows[i] ^ rows[j]))
    pairwise.sort()
    term_entries = []
    for k in range(len(iters) - 1):
        term = seq.terms[iters[k] - 1]
        block = range(iters[k], iters[k + 1])
        outside = [lab for lab in range(nrows) if lab not in block]
        dmin = min(oracle(term ^ rows[lab]) for lab in outside) if outside else None
        term_entries.append({"term_index": iters[k], "min_distance": dmin})
    return {
        "pair_count": len(pairwise),
        "min_pairwise_distance": pairwise[0] if pairwise else None,
        "pairwise_distances": pairwise,
        "term_separations": term_entries,
    }
