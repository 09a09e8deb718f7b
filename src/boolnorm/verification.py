"""Exhaustive finite-scale checkers for the quantitative basis properties.

Every checker accepts an arbitrary basis/norm pair, including invalid ones:
violations are report content, not errors, so negative controls run through
the same code paths as conforming instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Basis, span_elements, support
from .errors import RankTooLargeError, StratumRangeError
from .norms import EXHAUSTIVE_RANK_BOUND, RELATIVE_TOLERANCE, NormOracle


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


def merge_reports(lemma: str, reports: Iterable[LemmaReport]) -> LemmaReport:
    """Combine per-slice reports into one (checked counts add up)."""
    checked = 0
    violations: list[Violation] = []
    for rep in reports:
        checked += rep.checked
        violations.extend(rep.violations)
    return LemmaReport(lemma, not violations, checked, tuple(violations))


def _guard_rank(basis: Basis, rank_bound: int) -> int:
    r = len(basis.rows)
    if r > rank_bound:
        raise RankTooLargeError(f"checker needs 2**{r} coordinate sets, bound is {rank_bound}")
    return r


def _coordinate_values(basis: Basis, oracle: NormOracle) -> np.ndarray:
    """vals[c] = norm of the element selected by coordinate mask c."""
    return oracle.values(span_elements(basis.rows))


def _row_norms(vals: np.ndarray, r: int) -> list[float]:
    return [float(vals[1 << j]) for j in range(r)]


def check_monotone_tail(
    basis: Basis,
    oracle: NormOracle,
    *,
    tol: float = RELATIVE_TOLERANCE,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> LemmaReport:
    """Top-letter bound: for every nonempty coordinate set, the norm of the
    highest-index row never exceeds the norm of the set's sum."""
    r = _guard_rank(basis, rank_bound)
    vals = _coordinate_values(basis, oracle)
    row_norm = _row_norms(vals, r)
    violations: list[Violation] = []
    for c in range(1, 1 << r):
        lhs = row_norm[c.bit_length() - 1]
        rhs = float(vals[c])
        if lhs > rhs + tol * max(lhs, rhs):
            violations.append(Violation({"set": list(support(c))}, lhs, rhs))
    return LemmaReport("L0iii", not violations, (1 << r) - 1, tuple(violations))


def check_geometric_bound(
    basis: Basis,
    oracle: NormOracle,
    *,
    tol: float = RELATIVE_TOLERANCE,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> LemmaReport:
    """Doubling bound: in any reduced word, the k-th letter from the top
    costs at most 2**k times the word."""
    r = _guard_rank(basis, rank_bound)
    vals = _coordinate_values(basis, oracle)
    row_norm = _row_norms(vals, r)
    checked = 0
    violations: list[Violation] = []
    for c in range(1, 1 << r):
        w = float(vals[c])
        letters = support(c)
        scale = 1.0
        for k, pos in enumerate(reversed(letters)):
            lhs = row_norm[pos - 1]
            rhs = scale * w
            checked += 1
            if lhs > rhs + tol * max(lhs, rhs):
                violations.append(Violation({"word": list(letters), "k": k}, lhs, rhs))
            scale *= 2.0
    return LemmaReport("L1", not violations, checked, tuple(violations))


def worst_geometric_ratio(
    basis: Basis,
    oracle: NormOracle,
    *,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> float:
    """Largest observed (letter norm) / (2**k * word norm) over words of
    length >= 2; <= 1 exactly when the doubling bound holds there.  Single
    letters are skipped because their depth-0 case is an exact identity."""
    r = _guard_rank(basis, rank_bound)
    vals = _coordinate_values(basis, oracle)
    row_norm = _row_norms(vals, r)
    worst = 0.0
    for c in range(1, 1 << r):
        if c & (c - 1) == 0:
            continue
        w = float(vals[c])
        if w <= 0.0:
            return float("inf")
        scale = 1.0
        for pos in reversed(support(c)):
            ratio = row_norm[pos - 1] / (scale * w)
            if ratio > worst:
                worst = ratio
            scale *= 2.0
    return worst


def separation_epsilon(coord_set: Iterable[int], basis: Basis, oracle: NormOracle) -> float:
    """Separation radius of a nonempty coordinate set: its cheapest letter
    norm divided by 4**n, n being the set size."""
    letters = tuple(int(i) for i in coord_set)
    if not letters:
        raise ValueError("coordinate set must be nonempty")
    rows = basis.rows
    for i in letters:
        if not 1 <= i <= len(rows):
            raise ValueError(f"coordinate {i} out of range 1..{len(rows)}")
    cheapest = min(oracle(rows[i - 1]) for i in letters)
    return cheapest / float(4 ** len(letters))


def min_separation(basis: Basis, oracle: NormOracle) -> float:
    """Smallest separation radius over all coordinate sets, i.e. the
    cheapest row norm over 4**rank."""
    rows = basis.rows
    return min(oracle(row) for row in rows) / float(4 ** len(rows))


def _popcounts(size: int) -> np.ndarray:
    pop = np.zeros(size, dtype=np.int16)
    for c in range(1, size):
        pop[c] = pop[c & (c - 1)] + 1
    return pop


def _min_letter_norms(row_norm: Sequence[float], size: int) -> np.ndarray:
    out = np.empty(size, dtype=float)
    out[0] = np.inf
    vals = [np.inf] * size
    for c in range(1, size):
        low = row_norm[(c & -c).bit_length() - 1]
        rest = vals[c & (c - 1)]
        vals[c] = low if low < rest else rest
    out[1:] = vals[1:]
    return out


def check_discreteness(
    basis: Basis,
    oracle: NormOracle,
    n: int,
    *,
    tol: float = RELATIVE_TOLERANCE,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> LemmaReport:
    """Within the reduced-length-n stratum, every two distinct words stay at
    least the first word's separation radius apart."""
    r = _guard_rank(basis, rank_bound)
    if n > r:
        raise StratumRangeError(f"stratum length {n} exceeds rank {r}")
    vals = _coordinate_values(basis, oracle)
    row_norm = _row_norms(vals, r)
    size = 1 << r
    pop = _popcounts(size)
    stratum = np.nonzero(pop == n)[0].astype(np.int64)
    s = stratum.size
    checked = s * (s - 1)
    if s < 2:
        return LemmaReport("L2", True, checked)
    eps = _min_letter_norms(row_norm, size)[stratum] / float(4**n)
    violations: list[Violation] = []
    for i in range(s):
        w = int(stratum[i])
        d = vals[stratum ^ w]
        e = eps[i]
        bad = d < e - tol * np.maximum(d, e)
        bad[i] = False
        for j in np.nonzero(bad)[0]:
            violations.append(
                Violation(
                    {"w": list(support(w)), "w_prime": list(support(int(stratum[j])))},
                    float(d[j]),
                    float(e),
                )
            )
    return LemmaReport("L2", not violations, checked, tuple(violations))


def check_closedness(
    basis: Basis,
    oracle: NormOracle,
    n: int,
    *,
    tol: float = RELATIVE_TOLERANCE,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> LemmaReport:
    """Words of reduced length n keep their separation radius away from
    every strictly shorter word (including the zero word)."""
    r = _guard_rank(basis, rank_bound)
    if n > r:
        raise StratumRangeError(f"stratum length {n} exceeds rank {r}")
    vals = _coordinate_values(basis, oracle)
    row_norm = _row_norms(vals, r)
    size = 1 << r
    pop = _popcounts(size)
    stratum = np.nonzero(pop == n)[0].astype(np.int64)
    shorter = np.nonzero(pop < n)[0].astype(np.int64)
    checked = stratum.size * shorter.size
    if checked == 0:
        return LemmaReport("L3", True, checked)
    eps = _min_letter_norms(row_norm, size)[stratum] / float(4**n)
    violations: list[Violation] = []
    for i in range(stratum.size):
        w = int(stratum[i])
        d = vals[shorter ^ w]
        e = eps[i]
        bad = d < e - tol * np.maximum(d, e)
        for j in np.nonzero(bad)[0]:
            violations.append(
                Violation(
                    {"w": list(support(w)), "w_prime": list(support(int(shorter[j])))},
                    float(d[j]),
                    float(e),
                )
            )
    return LemmaReport("L3", not violations, checked, tuple(violations))


def check_null_tail(
    basis: Basis,
    oracle: NormOracle,
    indices: Iterable[int],
    *,
    tol: float = RELATIVE_TOLERANCE,
) -> LemmaReport:
    """Pairwise tail bound over strictly increasing row indices: the
    higher-index letter never costs more than the two-letter sum."""
    idx = tuple(int(i) for i in indices)
    rows = basis.rows
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise ValueError("indices must be strictly increasing")
    for i in idx:
        if not 1 <= i <= len(rows):
            raise ValueError(f"index {i} out of range 1..{len(rows)}")
    checked = 0
    violations: list[Violation] = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            lhs = oracle(rows[j - 1])
            rhs = oracle(rows[i - 1] ^ rows[j - 1])
            checked += 1
            if lhs > rhs + tol * max(lhs, rhs):
                violations.append(Violation({"i": i, "j": j}, lhs, rhs))
    return LemmaReport("L4", not violations, checked, tuple(violations))
