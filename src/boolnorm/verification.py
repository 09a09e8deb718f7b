"""Exhaustive finite-scale checkers for the quantitative basis properties.

Every checker accepts an arbitrary basis/norm pair, including invalid ones:
violations are report content, not errors, so negative controls run through
the same code paths as conforming instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import Basis, _index, _spans, require_int64_masks, span_elements, support
from .errors import RankTooLargeError, StratumRangeError
from .norms import _CHUNK, EXHAUSTIVE_RANK_BOUND, RELATIVE_TOLERANCE, NormOracle, exceeds


@dataclass(frozen=True)
class Violation:
    witness: dict
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"witness": self.witness, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    passed: bool
    checked: int
    violations: tuple[Violation, ...] = ()

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "pass": self.passed,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
        }


class _View(NamedTuple):
    """Tables over the coordinate masks c < 2**r of a block of B bases of
    rank r, basis b in row b: vals[b, c] is the norm of the element c
    selects, pop[c] its reduced length, eps[b, c] its separation radius, the
    cheapest letter norm over 4**pop[c] (inf at c = 0), and scaled[b, c] the
    largest of row_norm[b, j] / 2**k over its letters j, k the depth of j in
    c (the letters of c above j; -inf at c = 0); row_norm[b, j] =
    vals[b, 2**j].  pop is shared by the block."""

    vals: np.ndarray
    row_norm: np.ndarray
    pop: np.ndarray
    eps: np.ndarray
    scaled: np.ndarray


def _view(vals: np.ndarray) -> _View:
    """The view of a (B, 2**r) stack of coordinate tables, built by the
    doubling of span_elements: the masks in [2^j, 2^(j+1)) are those below
    2^j plus letter j, which sits on top at depth 0 while each lower letter
    sits one deeper.  Halving is exact above the subnormal range."""
    b, size = vals.shape
    r = size.bit_length() - 1
    row_norm = vals[:, 1 << np.arange(r)]
    pop = np.zeros(size, dtype=np.int16)
    low = np.full((b, size), np.inf)
    scaled = np.empty((b, size))
    scaled[:, 0] = -np.inf
    for j in range(r):
        pop[1 << j : 2 << j] = pop[: 1 << j] + 1
        np.minimum(low[:, : 1 << j], row_norm[:, j, None], out=low[:, 1 << j : 2 << j])
        np.maximum(scaled[:, : 1 << j] * 0.5, row_norm[:, j, None], out=scaled[:, 1 << j : 2 << j])
    return _View(vals, row_norm, pop, low / 4.0**pop, scaled)


def _coordinate_view(basis: Basis, oracle: NormOracle) -> _View:
    """The view of one basis: a block of B = 1."""
    r = len(basis.rows)
    if r > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"checker needs 2**{r} coordinate sets, bound is {EXHAUSTIVE_RANK_BOUND}"
        )
    return _view(oracle.values(span_elements(basis.rows))[None])


def _reports(lemma: str, b: int, checked: int, found) -> list[LemmaReport]:
    """One report per basis of a block of b from the (basis, violation)
    pairs found, each basis's violations in the order found."""
    by_basis: list[list[Violation]] = [[] for _ in range(b)]
    for t, violation in found:
        by_basis[t].append(violation)
    return [LemmaReport(lemma, not v, checked, tuple(v)) for v in by_basis]


def _tail_report(view: _View, tol: float) -> list[LemmaReport]:
    vals, row_norm, *_ = view
    b, size = vals.shape
    # The 2^j masks in [2^j, 2^(j+1)) are the sets whose top letter is j.
    lhs = np.repeat(row_norm, 1 << np.arange(row_norm.shape[1]), axis=1)
    rhs = vals[:, 1:]
    sets = size - 1
    found = (
        (h // sets, Violation({"set": list(support(h % sets + 1))}, lhs.item(h), rhs.item(h)))
        for h in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist()
    )
    return _reports("L0iii", b, sets, found)


def _doubling_report(view: _View, tol: float) -> list[LemmaReport]:
    """L1 over the pairs (word c, letter j of c), with rhs = 2**k * vals[c],
    k the depth of j in c; scaling by a power of two is exact.

    On a finite table with tol >= 0 a violation needs row_norm[j] > rhs,
    i.e. scaled[c] > vals[c], so only those words are scanned.  `scaled`
    halves each row norm up to r times, which is exact unless a nonzero row
    norm is below 2**r times the smallest normal float; such a table, a NaN
    or inf, or tol < 0 scans every word of its basis.  `checked` counts
    every pair."""
    vals, row_norm, pop, _, scaled = view
    b, size = vals.shape
    r = row_norm.shape[1]
    small = np.abs(row_norm) < np.ldexp(np.finfo(float).tiny, r)
    exact = np.isfinite(vals[:, 1:]).all(axis=1) & ~(small & (row_norm != 0)).any(axis=1)
    exact &= tol >= 0
    scan = scaled > vals
    scan[~exact] = True
    flat = np.flatnonzero(scan)  # (basis, word), as b * size + c
    words = flat & (size - 1)
    # Every (word, letter) pair in (basis, word, depth) order: columns run
    # from the top letter down.
    w, col = np.nonzero(words[:, None] >> np.arange(r - 1, -1, -1) & 1)
    c, j, t = words[w], r - 1 - col, flat[w] >> r
    k = pop[c >> (j + 1)]
    lhs = row_norm[t, j]
    v = vals.ravel()[flat[w]]
    with np.errstate(over="ignore"):
        rhs = np.ldexp(v, k)
    bad = exceeds(lhs, rhs, tol)
    over = np.isinf(rhs) & np.isfinite(v)
    if over.any():
        # 2**k * vals[c] left the float range, so it outweighs every finite
        # lhs and the slack bound is 2**k * (vals[c] + tol * |vals[c]|).
        # As k < r <= 14, |vals[c]| > 2**1011, so the sum in parentheses is 0
        # or of magnitude at least 2**958, and ldexp is exact or overflows to
        # the inf of its sign: the comparison an unbounded range would make.
        v_o, lhs_o = v[over], lhs[over]
        with np.errstate(over="ignore"):
            bar = np.ldexp(v_o + tol * np.abs(v_o), k[over])
        bad[over] = (lhs_o > bar) | ~np.isfinite(lhs_o)
    i = np.flatnonzero(bad)
    found = (
        (basis, Violation({"word": list(support(word)), "k": depth}, lo, hi))
        for basis, word, depth, lo, hi in zip(
            t[i].tolist(), c[i].tolist(), k[i].tolist(), lhs[i].tolist(), rhs[i].tolist()
        )
    )
    return _reports("L1", b, r * (size // 2), found)


def _ratio(view: _View) -> list[float]:
    vals, row_norm, _, _, scaled = view
    r = row_norm.shape[1]
    if r < 2:
        return [0.0] * len(vals)
    short = np.append(0, 1 << np.arange(r))  # the words of length < 2
    nonpositive = vals <= 0.0
    nonpositive[:, short] = False
    bad = ~np.isfinite(vals[:, 1:]).all(axis=1) | nonpositive.any(axis=1)
    # Dividing by a positive word norm keeps the maximum; a quotient past
    # the float range is the inf it rounds to.  A bad basis's quotients, and
    # those of short words, are dropped, so numpy need not report them.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = scaled / vals
    q[:, short] = -np.inf
    q = q.max(axis=1)
    return np.where(bad, np.inf, np.where(q > 0.0, q, 0.0)).tolist()


def _separation(row_norm: np.ndarray) -> np.ndarray:
    """min_separation of each basis of a block, from its (B, r) row norms."""
    return row_norm.min(axis=1, initial=np.inf) / float(4 ** row_norm.shape[1])


def check_monotone_tail(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Top-letter bound: for every nonempty coordinate set, the norm of the
    highest-index row never exceeds the norm of the set's sum."""
    return _tail_report(_coordinate_view(basis, oracle), tol)[0]


def check_geometric_bound(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Doubling bound: in any reduced word, the k-th letter from the top
    costs at most 2**k times the word.  A bound 2**k times a finite norm
    beyond the float range is compared as if that range were unbounded."""
    return _doubling_report(_coordinate_view(basis, oracle), tol)[0]


def worst_geometric_ratio(basis: Basis, oracle: NormOracle) -> float:
    """Largest observed (letter norm) / (2**k * word norm) over words of
    length >= 2, floored at 0; <= 1 exactly when the doubling bound holds
    there.  Single letters are skipped because their depth-0 case is an
    exact identity.  A non-finite norm, or a word norm <= 0, makes the
    ratio inf."""
    return _ratio(_coordinate_view(basis, oracle))[0]


def min_separation(basis: Basis, oracle: NormOracle) -> float:
    """Smallest separation radius over all coordinate sets, i.e. the
    cheapest row norm over 4**rank; NaN if any row norm is NaN, and inf for
    a rank-0 basis, which has no coordinate set (as eps is inf at c = 0)."""
    row_norm = np.array([[oracle(row) for row in basis.rows]], dtype=float)
    return float(_separation(row_norm)[0])


def _stratum_report(lemma: str, view: _View, n: int | None, tol: float) -> list[LemmaReport]:
    """Separation of every word of reduced length n (of every length when n
    is None, strata in increasing order) from its partners: the other words
    of its stratum for L2, every strictly shorter word for L3.  Each pair
    must stay at least the word's separation radius apart.

    Every distance read is vals[c] for some nonzero c, so at least
    m0 = min(vals[1:]).  On a finite table with tol >= 0 a violation needs
    eps > d + tol * max(|eps|, |d|) >= d >= m0, so a word whose radius is
    at most m0 is cleared without a pair scan; `checked` still counts every
    pair covered.  A NaN or inf value, or tol < 0, scans every word of its
    basis.

    Scanned (basis, word) rows are taken a stratum at a time, in chunks of
    max(1, _CHUNK // len(partners)) rows, with one gather and one `exceeds`
    per chunk; `exceeds` answers each pair alike however pairs are grouped."""
    vals, row_norm, pop, eps, _ = view
    b, size = vals.shape
    rank = row_norm.shape[1]
    if n is not None:
        n = _index(n)
        if n < 0:
            raise ValueError("stratum length must be >= 0")
        if n > rank:
            raise StratumRangeError(f"stratum length {n} exceeds rank {rank}")
    counts = np.bincount(pop, minlength=rank + 1)
    same = lemma == "L2"
    # pairs[k]: the pairs of stratum k, with its other words or every shorter one
    pairs = counts * (counts - 1) if same else counts * (np.cumsum(counts) - counts)
    if n is not None:
        pairs[:n] = pairs[n + 1 :] = 0
    scan = (pairs > 0).take(pop)  # take: a fraction of the cost of indexing by int16
    if tol >= 0:
        m0 = vals[:, 1:].min(axis=1, initial=np.inf)  # rank 0 has no pair to clear
        uncleared = eps > m0[:, None]
        uncleared[~np.isfinite(vals[:, 1:]).all(axis=1)] = True
        scan = uncleared & scan
    flat = np.flatnonzero(np.broadcast_to(scan, vals.shape))  # (basis, word), as b * size + c
    depth = pop[flat & (size - 1)]
    flat = flat[np.argsort(depth, kind="stable"), None]  # a column, stratum by stratum
    words = flat & (size - 1)
    radius = eps.ravel()[flat]
    table = vals.ravel()
    found = []
    stop = 0
    for k, count in enumerate(np.bincount(depth, minlength=rank + 1).tolist()):
        start, stop = stop, stop + count
        if not count:
            continue
        partners = np.flatnonzero(pop == k if same else pop < k)
        step = max(1, _CHUNK // partners.size)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            # a partner flips word bits only: its distance in the row's basis
            d = table[flat[lo:hi] ^ partners]
            bad = exceeds(radius[lo:hi], d, tol)
            if same:
                bad &= words[lo:hi] != partners  # w itself
            # flatnonzero and divmod keep (row, partner) order, at a fraction
            # of the per-call cost of np.nonzero on the 2-D mask
            hit = np.flatnonzero(bad)
            if hit.size:
                i, j = np.divmod(hit, partners.size)
                for f, p, dist, rad in zip(
                    flat[lo + i, 0].tolist(),
                    partners[j].tolist(),
                    d.ravel()[hit].tolist(),
                    radius[lo + i, 0].tolist(),
                ):
                    pair = {"w": list(support(f & (size - 1))), "w_prime": list(support(p))}
                    found.append((f >> rank, Violation(pair, dist, rad)))
    return _reports(lemma, b, int(pairs.sum()), found)


def check_discreteness(
    basis: Basis, oracle: NormOracle, n: int | None = None, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Within each reduced-length stratum (only stratum n when n is given),
    every two distinct words stay at least the first word's separation
    radius apart."""
    return _stratum_report("L2", _coordinate_view(basis, oracle), n, tol)[0]


def check_closedness(
    basis: Basis, oracle: NormOracle, n: int | None = None, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Words of reduced length n (of every length when n is omitted) keep
    their separation radius away from every strictly shorter word
    (including the zero word)."""
    return _stratum_report("L3", _coordinate_view(basis, oracle), n, tol)[0]


def _null_tail(
    lhs: np.ndarray, rhs: np.ndarray, i: np.ndarray, j: np.ndarray, tol: float
) -> list[LemmaReport]:
    """L4 over a block: over the row pairs (i, j) = np.triu_indices(r, 1),
    lhs[b, p] is the norm of row j[p] of basis b and rhs[b, p] that of the
    sum of its rows i[p] and j[p]."""
    pairs = i.size
    found = []
    for h in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist():
        t, p = divmod(h, pairs)
        pair = {"i": i.item(p) + 1, "j": j.item(p) + 1}
        found.append((t, Violation(pair, lhs.item(h), rhs.item(h))))
    return _reports("L4", len(lhs), pairs, found)


def _view_null_tail(view: _View, tol: float) -> list[LemmaReport]:
    vals, row_norm, *_ = view
    i, j = np.triu_indices(row_norm.shape[1], 1)
    # rows i and j sum to the element of coordinate mask 2^i + 2^j
    return _null_tail(row_norm[:, j], vals[:, (1 << i) | (1 << j)], i, j, tol)


def check_null_tail(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Pairwise tail bound over every pair of rows i < j: the higher-index
    letter never costs more than the two-letter sum."""
    require_int64_masks(basis.rows)
    rows = np.array(basis.rows, dtype=np.int64)
    i, j = np.triu_indices(rows.size, 1)
    lhs = oracle.values(rows[j])[None]
    return _null_tail(lhs, oracle.values(rows[i] ^ rows[j])[None], i, j, tol)[0]


# Every lemma run_checks can run, in the CLI's default order.
LEMMA_CHECKS = ("L0iii", "L1", "L2", "L3", "L4")

# Lemma name -> its check of every case over one view, one report per basis
# of its block, at tolerance tol.  A run_checks of L4 alone reads the rows
# instead (check_null_tail), so it builds no view and has no rank bound.
_VIEW_CHECKS = {
    "L0iii": _tail_report,
    "L1": _doubling_report,
    "L2": lambda view, tol: _stratum_report("L2", view, None, tol),
    "L3": lambda view, tol: _stratum_report("L3", view, None, tol),
    "L4": _view_null_tail,
}


def run_checks(
    basis: Basis, oracle: NormOracle, names: Iterable[str], *, ratio: bool = False
) -> tuple[dict[str, LemmaReport], float | None]:
    """The reports of the named LEMMA_CHECKS, in the order named, and
    worst_geometric_ratio when ratio is set (None otherwise), each equal to
    what its public function returns.  They read one coordinate view of the
    basis, built only if some check needs it."""
    names = tuple(names)
    if not ratio and set(names) <= {"L4"}:
        # L4 alone reads its rows: no view of 2**rank sets, no rank bound
        return {name: check_null_tail(basis, oracle) for name in names}, None
    view = _coordinate_view(basis, oracle)
    reports = {name: _VIEW_CHECKS[name](view, RELATIVE_TOLERANCE)[0] for name in names}
    return reports, _ratio(view)[0] if ratio else None


def _check_block(
    tables: np.ndarray, rows: np.ndarray, names: Iterable[str]
) -> tuple[dict[str, list[LemmaReport]], list[float], np.ndarray]:
    """For a block of B bases, the (B, r) int64 rows, each with its norm
    table in the (B, 2**r) stack tables: per named LEMMA_CHECKS lemma one
    report per basis, and per basis worst_geometric_ratio and
    min_separation, all read off one view of the block."""
    view = _view(np.take_along_axis(tables, _spans(rows), axis=1))
    reports = {name: _VIEW_CHECKS[name](view, RELATIVE_TOLERANCE) for name in names}
    return reports, _ratio(view), _separation(view.row_norm)
