"""Exhaustive finite-scale checkers for the quantitative basis properties.

Every checker accepts an arbitrary basis/norm pair, including invalid ones:
violations are report content, not errors, so negative controls run through
the same code paths as conforming instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .algebra import Basis, _index, span_elements, support
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


def _coordinate_view(
    basis: Basis, oracle: NormOracle
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables over the coordinate masks c < 2**r of the basis: vals[c] is
    the norm of the element c selects, pop[c] its reduced length and low[c]
    its cheapest letter norm (inf at c = 0); row_norm[j] = vals[2**j].
    Built by the doubling of span_elements: the masks in [2^j, 2^(j+1))
    are those below 2^j plus letter j."""
    r = len(basis.rows)
    if r > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"checker needs 2**{r} coordinate sets, bound is {EXHAUSTIVE_RANK_BOUND}"
        )
    vals = oracle.values(span_elements(basis.rows))
    row_norm = vals[1 << np.arange(r)]
    pop = np.zeros(vals.size, dtype=np.int16)
    low = np.full(vals.size, np.inf)
    for j in range(r):
        pop[1 << j : 2 << j] = pop[: 1 << j] + 1
        np.minimum(low[: 1 << j], row_norm[j], out=low[1 << j : 2 << j])
    return vals, row_norm, pop, low


def check_monotone_tail(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Top-letter bound: for every nonempty coordinate set, the norm of the
    highest-index row never exceeds the norm of the set's sum."""
    vals, row_norm, _, _ = _coordinate_view(basis, oracle)
    # The 2^j masks in [2^j, 2^(j+1)) are the sets whose top letter is j.
    lhs = np.repeat(row_norm, 1 << np.arange(row_norm.size))
    rhs = vals[1:]
    violations = tuple(
        Violation({"set": list(support(i + 1))}, float(lhs[i]), float(rhs[i]))
        for i in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist()
    )
    return LemmaReport("L0iii", not violations, rhs.size, violations)


def check_geometric_bound(
    basis: Basis, oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Doubling bound: in any reduced word, the k-th letter from the top
    costs at most 2**k times the word."""
    vals, row_norm, pop, _ = _coordinate_view(basis, oracle)
    masks = np.arange(vals.size)
    found = []
    for j in range(row_norm.size):
        # The masks c holding letter j in increasing order, the depth k of j
        # in c (the letters of c above j) and 2**k * vals[c]; scaling by a
        # power of two is exact.
        c = masks.reshape(-1, 2, 1 << j)[:, 1, :].ravel()
        k = pop[c >> (j + 1)]
        rhs = np.ldexp(vals[c], k)
        bad = np.flatnonzero(exceeds(row_norm[j], rhs, tol))
        found += zip(c[bad].tolist(), k[bad].tolist(), [j] * bad.size, rhs[bad].tolist())
    found.sort()  # by word, then depth
    violations = tuple(
        Violation({"word": list(support(c)), "k": k}, float(row_norm[j]), rhs)
        for c, k, j, rhs in found
    )
    return LemmaReport("L1", not violations, row_norm.size * (vals.size // 2), violations)


def worst_geometric_ratio(basis: Basis, oracle: NormOracle) -> float:
    """Largest observed (letter norm) / (2**k * word norm) over words of
    length >= 2, floored at 0; <= 1 exactly when the doubling bound holds
    there.  Single letters are skipped because their depth-0 case is an
    exact identity.  A non-finite norm, or a word norm <= 0, makes the
    ratio inf."""
    vals, row_norm, pop, _ = _coordinate_view(basis, oracle)
    if row_norm.size < 2:
        return 0.0
    long = pop >= 2
    if not np.isfinite(vals[1:]).all() or (vals[long] <= 0.0).any():
        return float("inf")
    # scaled[c] = max over letters j of c of row_norm[j] / 2**k, k the depth
    # of j in c.  The masks in [2^j, 2^(j+1)) have top letter j at depth 0,
    # and each letter below it sits one deeper than in c - 2^j.  Halving is
    # exact above the subnormal range, and dividing by a positive word norm
    # keeps the maximum.
    scaled = np.empty(vals.size)
    scaled[0] = -np.inf
    for j in range(row_norm.size):
        np.maximum(scaled[: 1 << j] * 0.5, row_norm[j], out=scaled[1 << j : 2 << j])
    return max(0.0, float((scaled[long] / vals[long]).max()))


def separation_epsilon(coord_set: Iterable[int], basis: Basis, oracle: NormOracle) -> float:
    """Separation radius of a nonempty coordinate set: its cheapest letter
    norm divided by 4**n, n being the set size."""
    letters = tuple(_index(i) for i in coord_set)
    if not letters:
        raise ValueError("coordinate set must be nonempty")
    rows = basis.rows
    for t, i in enumerate(letters):
        if not 1 <= i <= len(rows):
            raise ValueError(f"coordinate {i} out of range 1..{len(rows)}")
        if i in letters[:t]:
            # n counts the letters, so a repeat would shrink the radius
            raise ValueError(f"duplicate coordinate {i}")
    # np.min propagates NaN wherever it sits; Python's min would not.
    cheapest = float(np.min([oracle(rows[i - 1]) for i in letters]))
    return cheapest / float(4 ** len(letters))


def min_separation(basis: Basis, oracle: NormOracle) -> float:
    """Smallest separation radius over all coordinate sets, i.e. the
    cheapest row norm over 4**rank; NaN if any row norm is NaN."""
    rows = basis.rows
    return float(np.min([oracle(row) for row in rows])) / float(4 ** len(rows))


def _stratum_report(
    lemma: str, basis: Basis, oracle: NormOracle, n: int | None, tol: float
) -> LemmaReport:
    """Separation of every word of reduced length n (of every length when n
    is None, strata in increasing order) from its partners: the other words
    of its stratum for L2, every strictly shorter word for L3.  Each pair
    must stay at least the word's separation radius apart.

    Every distance read is vals[c] for some nonzero c, so at least
    m0 = min(vals[1:]).  On a finite table with tol >= 0 a violation needs
    eps > d + tol * max(|eps|, |d|) >= d >= m0, so a word whose radius is
    at most m0 is cleared without a pair scan; `checked` still counts every
    pair covered.  A NaN or inf value, or tol < 0, scans every word."""
    vals, _, pop, low = _coordinate_view(basis, oracle)
    rank = len(basis.rows)
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
    return _stratum_report("L2", basis, oracle, n, tol)


def check_closedness(
    basis: Basis, oracle: NormOracle, n: int | None = None, *, tol: float = RELATIVE_TOLERANCE
) -> LemmaReport:
    """Words of reduced length n (of every length when n is omitted) keep
    their separation radius away from every strictly shorter word
    (including the zero word)."""
    return _stratum_report("L3", basis, oracle, n, tol)


def check_null_tail(
    basis: Basis,
    oracle: NormOracle,
    indices: Iterable[int],
    *,
    tol: float = RELATIVE_TOLERANCE,
) -> LemmaReport:
    """Pairwise tail bound over strictly increasing row indices: the
    higher-index letter never costs more than the two-letter sum."""
    idx = tuple(_index(i) for i in indices)
    rows = basis.rows
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise ValueError("indices must be strictly increasing")
    for i in idx:
        if not 1 <= i <= len(rows):
            raise ValueError(f"index {i} out of range 1..{len(rows)}")
    a, b = np.triu_indices(len(idx), 1)
    sel = np.array([rows[i - 1] for i in idx], dtype=np.int64)
    lhs = oracle.values(sel[b])
    rhs = oracle.values(sel[a] ^ sel[b])
    violations = tuple(
        Violation({"i": idx[a[t]], "j": idx[b[t]]}, float(lhs[t]), float(rhs[t]))
        for t in np.flatnonzero(exceeds(lhs, rhs, tol)).tolist()
    )
    return LemmaReport("L4", not violations, a.size, violations)


# Lemma name -> check of every case the lemma covers for a basis under a
# norm.  The entries look the public checkers up when they run, so a checker
# replaced on this module (as perfbench's tracer does) is the one called.
LEMMA_CHECKS: dict[str, Callable[[Basis, NormOracle], LemmaReport]] = {
    "L0iii": lambda basis, oracle: check_monotone_tail(basis, oracle),
    "L1": lambda basis, oracle: check_geometric_bound(basis, oracle),
    "L2": lambda basis, oracle: check_discreteness(basis, oracle),
    "L3": lambda basis, oracle: check_closedness(basis, oracle),
    "L4": lambda basis, oracle: check_null_tail(basis, oracle, range(1, len(basis.rows) + 1)),
}
