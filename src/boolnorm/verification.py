"""Exhaustive finite-scale checkers for the quantitative basis properties.

Every checker accepts an arbitrary basis/norm pair, including invalid ones:
violations are report content, not errors, so negative controls run through
the same code paths as conforming instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import Basis, _index, require_int64_masks, span_elements, support
from .errors import RankTooLargeError, StratumRangeError
from .norms import EXHAUSTIVE_RANK_BOUND, RELATIVE_TOLERANCE, NormOracle, exceeds


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
    """Tables over the coordinate masks c < 2**r of a basis: vals[c] is the
    norm of the element c selects, pop[c] its reduced length, low[c] its
    cheapest letter norm (inf at c = 0) and scaled[c] the largest of
    row_norm[j] / 2**k over its letters j, k the depth of j in c (the
    letters of c above j; -inf at c = 0); row_norm[j] = vals[2**j]."""

    vals: np.ndarray
    row_norm: np.ndarray
    pop: np.ndarray
    low: np.ndarray
    scaled: np.ndarray


def _coordinate_view(basis: Basis, oracle: NormOracle) -> _View:
    """Built by the doubling of span_elements: the masks in [2^j, 2^(j+1))
    are those below 2^j plus letter j, which sits on top at depth 0 while
    each lower letter sits one deeper.  Halving is exact above the
    subnormal range."""
    r = len(basis.rows)
    if r > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"checker needs 2**{r} coordinate sets, bound is {EXHAUSTIVE_RANK_BOUND}"
        )
    vals = oracle.values(span_elements(basis.rows))
    row_norm = vals[1 << np.arange(r)]
    pop = np.zeros(vals.size, dtype=np.int16)
    low = np.full(vals.size, np.inf)
    scaled = np.empty(vals.size)
    scaled[0] = -np.inf
    for j in range(r):
        pop[1 << j : 2 << j] = pop[: 1 << j] + 1
        np.minimum(low[: 1 << j], row_norm[j], out=low[1 << j : 2 << j])
        np.maximum(scaled[: 1 << j] * 0.5, row_norm[j], out=scaled[1 << j : 2 << j])
    return _View(vals, row_norm, pop, low, scaled)


def _tail_report(view: _View, tol: float) -> LemmaReport:
    vals, row_norm, *_ = view
    # The 2^j masks in [2^j, 2^(j+1)) are the sets whose top letter is j.
    lhs = np.repeat(row_norm, 1 << np.arange(row_norm.size))
    rhs = vals[1:]
    violations = tuple(
        Violation({"set": list(support(i + 1))}, float(lhs[i]), float(rhs[i]))
        for i in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist()
    )
    return LemmaReport("L0iii", not violations, rhs.size, violations)


def _doubling_report(view: _View, tol: float) -> LemmaReport:
    """L1 over the pairs (word c, letter j of c), with rhs = 2**k * vals[c],
    k the depth of j in c; scaling by a power of two is exact.

    On a finite table with tol >= 0 a violation needs row_norm[j] > rhs,
    i.e. scaled[c] > vals[c], so only those words are scanned.  `scaled`
    halves each row norm up to r times, which is exact unless a nonzero row
    norm is below 2**r times the smallest normal float; such a table, a NaN
    or inf, or tol < 0 scans every word.  `checked` counts every pair."""
    vals, row_norm, pop, _, scaled = view
    r = row_norm.size
    words = np.arange(vals.size)
    small = np.abs(row_norm) < np.ldexp(np.finfo(float).tiny, r)
    if tol >= 0 and np.isfinite(vals[1:]).all() and not (small & (row_norm != 0)).any():
        words = words[scaled > vals]
    # Every (word, letter) pair in (word, depth) order: columns run from the
    # top letter down.
    w, col = np.nonzero(words[:, None] >> np.arange(r - 1, -1, -1) & 1)
    c, j = words[w], r - 1 - col
    k = pop[c >> (j + 1)]
    lhs = row_norm[j]
    with np.errstate(over="ignore"):
        rhs = np.ldexp(vals[c], k)
    bad = exceeds(lhs, rhs, tol)
    over = np.isinf(rhs) & np.isfinite(vals[c])
    if over.any():
        # 2**k * vals[c] left the float range, so it outweighs every finite
        # lhs and the slack bound is 2**k * (vals[c] + tol * |vals[c]|).
        # As k < r <= 14, |vals[c]| > 2**1011, so the sum in parentheses is 0
        # or of magnitude at least 2**958, and ldexp is exact or overflows to
        # the inf of its sign: the comparison an unbounded range would make.
        v, lhs_o = vals[c[over]], lhs[over]
        with np.errstate(over="ignore"):
            bar = np.ldexp(v + tol * np.abs(v), k[over])
        bad[over] = (lhs_o > bar) | ~np.isfinite(lhs_o)
    i = np.flatnonzero(bad)
    violations = tuple(
        Violation({"word": list(support(word)), "k": depth}, lo, hi)
        for word, depth, lo, hi in zip(
            c[i].tolist(), k[i].tolist(), lhs[i].tolist(), rhs[i].tolist()
        )
    )
    return LemmaReport("L1", not violations, r * (vals.size // 2), violations)


def _ratio(view: _View) -> float:
    vals, row_norm, pop, _, scaled = view
    if row_norm.size < 2:
        return 0.0
    long = pop >= 2
    if not np.isfinite(vals[1:]).all() or (vals[long] <= 0.0).any():
        return float("inf")
    # Dividing by a positive word norm keeps the maximum; a quotient past
    # the float range is the inf it rounds to.
    with np.errstate(over="ignore"):
        return max(0.0, float((scaled[long] / vals[long]).max()))


def check_monotone_tail(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Top-letter bound: for every nonempty coordinate set, the norm of the
    highest-index row never exceeds the norm of the set's sum."""
    return _tail_report(_coordinate_view(basis, oracle), tol)


def check_geometric_bound(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Doubling bound: in any reduced word, the k-th letter from the top
    costs at most 2**k times the word.  A bound 2**k times a finite norm
    beyond the float range is compared as if that range were unbounded."""
    return _doubling_report(_coordinate_view(basis, oracle), tol)


def worst_geometric_ratio(basis: Basis, oracle: NormOracle) -> float:
    """Largest observed (letter norm) / (2**k * word norm) over words of
    length >= 2, floored at 0; <= 1 exactly when the doubling bound holds
    there.  Single letters are skipped because their depth-0 case is an
    exact identity.  A non-finite norm, or a word norm <= 0, makes the
    ratio inf."""
    return _ratio(_coordinate_view(basis, oracle))


def min_separation(basis: Basis, oracle: NormOracle) -> float:
    """Smallest separation radius over all coordinate sets, i.e. the
    cheapest row norm over 4**rank; NaN if any row norm is NaN."""
    rows = basis.rows
    return float(np.min([oracle(row) for row in rows])) / float(4 ** len(rows))


def _stratum_report(lemma: str, view: _View, n: int | None, tol: float) -> LemmaReport:
    """Separation of every word of reduced length n (of every length when n
    is None, strata in increasing order) from its partners: the other words
    of its stratum for L2, every strictly shorter word for L3.  Each pair
    must stay at least the word's separation radius apart.

    Every distance read is vals[c] for some nonzero c, so at least
    m0 = min(vals[1:]).  On a finite table with tol >= 0 a violation needs
    eps > d + tol * max(|eps|, |d|) >= d >= m0, so a word whose radius is
    at most m0 is cleared without a pair scan; `checked` still counts every
    pair covered.  A NaN or inf value, or tol < 0, scans every word."""
    vals, row_norm, pop, low, _ = view
    rank = row_norm.size
    strata: Iterable[int] = range(rank + 1)
    if n is not None:
        n = _index(n)
        if n < 0:
            raise ValueError("stratum length must be >= 0")
        if n > rank:
            raise StratumRangeError(f"stratum length {n} exceeds rank {rank}")
        strata = (n,)
    m0 = None
    if tol >= 0 and np.isfinite(vals[1:]).all():
        m0 = vals[1:].min(initial=np.inf)  # rank 0 has no pair to clear
    same = lemma == "L2"
    checked = 0
    violations: list[Violation] = []
    for k in strata:
        stratum = np.flatnonzero(pop == k)
        partners = stratum if same else np.flatnonzero(pop < k)
        pairs = stratum.size * (partners.size - same)
        if pairs == 0:
            continue
        checked += pairs
        eps = low[stratum] / float(4**k)
        scan = range(stratum.size) if m0 is None else np.flatnonzero(eps > m0).tolist()
        for i in scan:
            w = int(stratum[i])
            d = vals[partners ^ w]
            bad = exceeds(eps[i], d, tol)
            if same:
                bad[i] = False  # w itself
            for j in np.flatnonzero(bad).tolist():
                pair = {"w": list(support(w)), "w_prime": list(support(int(partners[j])))}
                violations.append(Violation(pair, float(d[j]), float(eps[i])))
    return LemmaReport(lemma, not violations, checked, tuple(violations))


def check_discreteness(
    basis: Basis, oracle: NormOracle, n: int | None = None, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Within each reduced-length stratum (only stratum n when n is given),
    every two distinct words stay at least the first word's separation
    radius apart."""
    return _stratum_report("L2", _coordinate_view(basis, oracle), n, tol)


def check_closedness(
    basis: Basis, oracle: NormOracle, n: int | None = None, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Words of reduced length n (of every length when n is omitted) keep
    their separation radius away from every strictly shorter word
    (including the zero word)."""
    return _stratum_report("L3", _coordinate_view(basis, oracle), n, tol)


def check_null_tail(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Pairwise tail bound over every pair of rows i < j: the higher-index
    letter never costs more than the two-letter sum."""
    require_int64_masks(basis.rows)
    rows = np.array(basis.rows, dtype=np.int64)
    a, b = np.triu_indices(rows.size, 1)
    lhs = oracle.values(rows[b])
    rhs = oracle.values(rows[a] ^ rows[b])
    violations = tuple(
        Violation({"i": int(a[t]) + 1, "j": int(b[t]) + 1}, float(lhs[t]), float(rhs[t]))
        for t in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist()
    )
    return LemmaReport("L4", not violations, a.size, violations)


# Every lemma run_checks can run, in the CLI's default order.
LEMMA_CHECKS = ("L0iii", "L1", "L2", "L3", "L4")

# Lemma name -> its check of every case over one coordinate view, at
# tolerance tol.  L4 reads rows, not the view.
_VIEW_CHECKS = {
    "L0iii": _tail_report,
    "L1": _doubling_report,
    "L2": lambda view, tol: _stratum_report("L2", view, None, tol),
    "L3": lambda view, tol: _stratum_report("L3", view, None, tol),
}


def run_checks(
    basis: Basis, oracle: NormOracle, names: Iterable[str], *, ratio: bool = False
) -> tuple[dict[str, LemmaReport], float | None]:
    """The reports of the named LEMMA_CHECKS, in the order named, and
    worst_geometric_ratio when ratio is set (None otherwise), each equal to
    what its public function returns.  They read one coordinate view of the
    basis, built only if some check needs it."""
    names = tuple(names)
    view = None
    if ratio or any(name != "L4" for name in names):
        view = _coordinate_view(basis, oracle)
    reports = {}
    for name in names:
        if name == "L4":
            reports[name] = check_null_tail(basis, oracle)
        else:
            reports[name] = _VIEW_CHECKS[name](view, RELATIVE_TOLERANCE)
    return reports, _ratio(view) if ratio else None
