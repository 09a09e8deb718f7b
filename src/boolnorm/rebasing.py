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

from .algebra import Basis, GeneralBasis, TriangularBasis, _index, gf2_rank
from .errors import InvalidIndexError, SequenceTooShortError, UnusableSequenceError
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

    @property
    def f_values(self) -> tuple[int, ...]:
        return tuple(t.bit_length() for t in self.terms)


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
    the first survivor by the single letter at its top index; drop
    duplicates.  Fails when fewer than two terms survive.
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
        if f > last_f and f >= 2:
            kept.append(t)
            last_f = f
    if kept:
        kept[0] = 1 << (kept[0].bit_length() - 1)
    seen: set[int] = set()
    terms = [t for t in kept if not (t in seen or seen.add(t))]
    if len(terms) < 2:
        raise UnusableSequenceError(f"only {len(terms)} usable term(s) survive normalization")
    return ApproachSequence(tuple(terms))


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


def block_partition(
    combo: Iterable[int], basis: TriangularBasis, seq: ApproachSequence
) -> dict[int, list[int]]:
    """Partition of row labels by block: key -1 holds label 0, key k holds
    labels in [f^k(1), f^{k+1}(1) - 1]."""
    iters = f_iterates(seq, basis.rank)
    if len(iters) < 2:
        raise SequenceTooShortError("no block fits: the first top index already exceeds rank")
    nrows = iters[-1]
    blocks: dict[int, list[int]] = {}
    for label in sorted(set(_index(i) for i in combo)):
        if not 0 <= label < nrows:
            raise InvalidIndexError(f"row label {label} out of range 0..{nrows - 1}")
        key = -1 if label == 0 else bisect_right(iters, label) - 1
        blocks.setdefault(key, []).append(label)
    if not blocks:
        raise InvalidIndexError("combination must be nonempty")
    return blocks


def witness_nonvanishing(
    combo: Iterable[int], basis: TriangularBasis, seq: ApproachSequence
) -> int:
    """Coordinate letter guaranteed to survive in the sum of the selected
    rebased rows, found by the block case analysis alone (no elimination).

    The top block either has even size, in which case its driving terms
    cancel and the largest selected label survives, or odd size, in which
    case one driving term survives and contributes its own top index.  A
    combination inside block -1 is row 0, i.e. the first letter.
    """
    blocks = block_partition(combo, basis, seq)
    m = max(blocks)
    if m == -1:
        return 1
    top_block = blocks[m]
    if len(top_block) % 2 == 0:
        return max(label for labels in blocks.values() for label in labels)
    iters = f_iterates(seq, basis.rank)
    return iters[m + 1]


def check_witnesses(
    built: GeneralBasis,
    basis: TriangularBasis,
    seq: ApproachSequence,
    combo_masks: Iterable[int],
) -> tuple[int, int]:
    """Cross-check witness_nonvanishing against the rebased rows: for each
    combination mask (bit i selects row label i), the witnessed letter must
    occur in the sum of the selected rows.  Returns (checked, failures)."""
    rows = built.rows
    checked = failures = 0
    for mask in combo_masks:
        if not 0 < mask < 1 << len(rows):
            raise InvalidIndexError(
                f"combination mask {mask} out of range 1..{(1 << len(rows)) - 1}"
            )
        labels = [i for i in range(len(rows)) if mask >> i & 1]
        total = 0
        for lab in labels:
            total ^= rows[lab]
        wit = witness_nonvanishing(labels, basis, seq)
        checked += 1
        failures += not total >> (wit - 1) & 1
    return checked, failures


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
