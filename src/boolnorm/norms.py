"""Norm oracles on finite-rank Boolean groups.

Three constructions are provided: weighted letter norms, basepoint-pairing
norms over a finite metric space, and subadditive-closure norms obtained by
relaxing an arbitrary positive cost table.  A NormOracle is one dense
float64 table per truncation; weighted and pairing norms fill it with
vectorized recurrences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra import Basis, Element, from_support, require_memory, span_elements, support
from .errors import IndexOutOfRankError, RankTooLargeError

RELATIVE_TOLERANCE = 1e-9
EXHAUSTIVE_RANK_BOUND = 14


def exceeds(lhs, rhs, tol: float = RELATIVE_TOLERANCE):
    """lhs > rhs beyond relative slack tol, for scalars or elementwise.

    A NaN or infinite value on either side always exceeds: a bound that
    cannot be evaluated is a violation, never a pass."""
    big = np.maximum(np.abs(lhs), np.abs(rhs))
    return (lhs > rhs + tol * big) | ~np.isfinite(big)


@dataclass(frozen=True)
class WeightSpec:
    """Positive per-letter weights for generators 1..rank."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise ValueError("at least one weight is required")
        for i, w in enumerate(self.weights, 1):
            if not (w > 0.0 and np.isfinite(w)):
                raise ValueError(f"weight {i} must be a positive finite real, got {w}")

    @property
    def rank(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MetricSpec:
    """Finite metric on points 0..n; point 0 doubles as the basepoint and
    point i stands for generator i."""

    dist: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        d = tuple(tuple(float(x) for x in row) for row in self.dist)
        object.__setattr__(self, "dist", d)
        m = len(d)
        if m < 2:
            raise ValueError("metric needs the basepoint plus at least one generator")
        if any(len(row) != m for row in d):
            raise ValueError("distance matrix must be square")
        for i in range(m):
            if d[i][i] != 0.0:
                raise ValueError(f"dist({i},{i}) must be 0")
            for j in range(m):
                x = d[i][j]
                if not np.isfinite(x) or x < 0.0:
                    raise ValueError(f"dist({i},{j}) must be a finite nonnegative real")
                if i != j and x == 0.0:
                    raise ValueError(f"dist({i},{j}) must be positive off the diagonal")
                if x != d[j][i]:
                    raise ValueError(f"dist({i},{j}) != dist({j},{i})")
        a = np.array(d)
        for i in range(m):
            bad = exceeds(a[i], a[i][:, None] + a)  # [j, k]: d(i,k) vs d(i,j) + d(j,k)
            if bad.any():
                j, k = divmod(int(np.argmax(bad)), m)
                raise ValueError(
                    f"triangle inequality fails at ({i},{j},{k}): "
                    f"{d[i][k]} > {d[i][j]} + {d[j][k]}"
                )

    @property
    def rank(self) -> int:
        return len(self.dist) - 1


@dataclass(frozen=True)
class BaseCostTable:
    """Positive cost for every nonzero element of a rank-n truncation.

    costs is indexed by element mask; costs[0] is fixed to 0.0 and the
    remaining 2**rank - 1 entries must be positive finite reals.
    """

    rank: int
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        if len(costs) != 1 << self.rank:
            raise ValueError(
                f"cost table needs {1 << self.rank} entries (index 0 unused), got {len(costs)}"
            )
        if costs[0] != 0.0:
            raise ValueError("costs[0] must be 0.0")
        for mask, c in enumerate(costs[1:], 1):
            if not (c > 0.0 and np.isfinite(c)):
                raise ValueError(f"cost of {support(mask)} must be positive finite, got {c}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "BaseCostTable":
        """Build from {"comma-separated support": cost} covering every
        nonzero element; rank is inferred from the largest index."""
        entries: dict[int, float] = {}
        rank = 0
        for key, cost in mapping.items():
            parts = [p for p in str(key).split(",") if p.strip()]
            mask = from_support(int(p) for p in parts)
            if mask == 0:
                raise ValueError("cost table keys must name nonzero elements")
            if mask in entries:
                raise ValueError(f"duplicate cost entry for {support(mask)}")
            entries[mask] = float(cost)
            rank = max(rank, mask.bit_length())
        if len(entries) != (1 << rank) - 1:
            raise ValueError(
                f"cost table for rank {rank} needs {(1 << rank) - 1} entries, got {len(entries)}"
            )
        costs = [0.0] * (1 << rank)
        for mask, cost in entries.items():
            costs[mask] = cost
        return cls(rank, tuple(costs))

    def to_mapping(self) -> dict[str, float]:
        return {
            ",".join(map(str, support(mask))): self.costs[mask]
            for mask in range(1, 1 << self.rank)
        }


def _require_in_rank(g: Element, rank: int) -> None:
    if g < 0:
        raise IndexOutOfRankError(f"element mask {g} is negative")
    if g >> rank:
        raise IndexOutOfRankError(f"support of {support(g)} exceeds rank {rank}")


class NormOracle:
    """Total nonnegative map on a rank-n truncation, stored as one dense
    float64 table indexed by element mask.

    Oracles built from a spec or a function materialize lazily and only the
    prefix a caller needs: the values on generators 1..m are the first 2**m
    entries, so a query below 2**m never builds the rest.  A query of a few
    elements far above the built prefix is answered element by element
    instead, so it costs what those elements cost, not 2**m.  Construction
    performs no axiom validation on purpose: raw cost tables must be
    runnable through the same checkers as genuine norms.
    """

    # A query builds its prefix when the prefix has at most this many
    # entries or at most four per element asked for.
    DENSE_QUERY_FLOOR = 1 << 12

    def __init__(
        self,
        rank: int,
        fn: Callable[[Element], float] | None = None,
        table: np.ndarray | None = None,
        kind: str = "custom",
        build: Callable[[int], np.ndarray] | None = None,
    ) -> None:
        """Values come from table (all 2**rank values) or from fn (one
        element to its value); build (m to the table over generators 1..m)
        optionally fills prefixes of an fn oracle faster than fn would."""
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if (fn is None) == (table is None):
            raise ValueError("exactly one of fn or table is required")
        if build is not None and fn is None:
            raise ValueError("build needs fn for single elements")
        self.rank = rank
        self.kind = kind
        self._array: np.ndarray | None = None
        self._lock = threading.Lock()
        self._fn = fn
        if build is None and fn is not None:
            build = lambda m: np.fromiter(map(fn, range(1 << m)), dtype=float, count=1 << m)  # noqa: E731
        self._build = build
        if table is not None:
            arr = np.asarray(table, dtype=float)
            if arr.shape != (1 << rank,):
                raise ValueError(f"table must have 2**{rank} entries")
            self._array = arr

    def _prefix(self, m: int) -> np.ndarray:
        """Values on generators 1..m: the first 2**m table entries."""
        arr = self._array
        if arr is None or arr.size < 1 << m:
            with self._lock:
                arr = self._array
                if arr is None or arr.size < 1 << m:
                    require_memory(8 << m, f"a rank-{m} norm table")
                    arr = self._array = np.asarray(self._build(m), dtype=float)
        return arr[: 1 << m]

    def _builds_prefix(self, m: int, count: int) -> bool:
        return 1 << m <= max(self.DENSE_QUERY_FLOOR, 4 * count)

    def __call__(self, g: Element) -> float:
        arr = self._array
        if arr is not None and 0 <= g < arr.size:
            return arr.item(g)
        _require_in_rank(g, self.rank)
        m = int(g).bit_length()
        if self._builds_prefix(m, 1):
            return self._prefix(m).item(g)
        return float(self._fn(int(g)))

    def table(self) -> np.ndarray:
        """All 2**rank values indexed by element mask (built on demand)."""
        return self._prefix(self.rank)

    def values(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an array of element masks."""
        masks = np.asarray(masks)
        if masks.size == 0:
            return np.empty(masks.shape, dtype=float)
        top = int(masks.max())
        _require_in_rank(int(masks.min()), self.rank)
        _require_in_rank(top, self.rank)
        arr = self._array
        if arr is not None and top < arr.size:
            return arr[masks]
        m = top.bit_length()
        if self._builds_prefix(m, masks.size):
            return self._prefix(m)[masks]
        fn = self._fn
        return np.fromiter(
            (fn(g) for g in masks.ravel().tolist()), dtype=float, count=masks.size
        ).reshape(masks.shape)


def weighted_norm(spec: WeightSpec, g: Element) -> float:
    """Sum of the letter weights occurring in g."""
    _require_in_rank(g, spec.rank)
    w = spec.weights
    total = 0.0
    while g:
        low = g & -g
        total += w[low.bit_length() - 1]
        g ^= low
    return total


def _weighted_table(weights: tuple[float, ...], m: int) -> np.ndarray:
    # Doubling adds weight i to every mask below 2^i, so each mask sums its
    # weights in ascending letter order, exactly as weighted_norm does.
    t = np.zeros(1 << m)
    for i in range(m):
        t[1 << i : 2 << i] = t[: 1 << i] + weights[i]
    return t


def weighted_oracle(spec: WeightSpec) -> NormOracle:
    return NormOracle(
        spec.rank,
        fn=lambda g: weighted_norm(spec, g),
        build=lambda m: _weighted_table(spec.weights, m),
        kind="weighted",
    )


def _pairing_cost(dist: tuple[tuple[float, ...], ...], mask: int, memo: dict[int, float]) -> float:
    # Lowest letter pairs with the basepoint or with one other letter; the
    # remainder recurses.  Exact min over all pairings, O(2^s * s).
    cost = memo.get(mask)
    if cost is not None:
        return cost
    low = mask & -mask
    i = low.bit_length()
    rest = mask ^ low
    best = dist[i][0] + _pairing_cost(dist, rest, memo)
    mm = rest
    while mm:
        low2 = mm & -mm
        j = low2.bit_length()
        cand = dist[i][j] + _pairing_cost(dist, rest ^ low2, memo)
        if cand < best:
            best = cand
        mm ^= low2
    memo[mask] = best
    return best


def graev_norm(spec: MetricSpec, g: Element) -> float:
    """Minimum total distance over pairings of the letters of g, where any
    letter may instead pair with the basepoint 0 (extra basepoint pairs are
    free)."""
    _require_in_rank(g, spec.rank)
    return _pairing_cost(spec.dist, g, {0: 0.0})


def _graev_table(dist: tuple[tuple[float, ...], ...], m: int) -> np.ndarray:
    # _pairing_cost vectorized over all masks whose lowest letter is i, from
    # the top letter down: those masks are the odd multiples of 2^(i-1), and
    # their remainders (the multiples of 2^i) only hold letters above i, so
    # they are final when letter i is reached.  The sums are the scalar
    # DP's, term for term.
    t = np.zeros(1 << m)
    for i in range(m, 0, -1):
        step = 1 << i
        rest = t[::step]  # rest[r] = value at mask r * 2^i
        best = dist[i][0] + rest
        for p in range(m - i):
            # masks whose remainder holds letter j = i + 1 + p: bit p of r
            pairs = rest.reshape(-1, 2, 1 << p)[:, 0, :]
            with_j = best.reshape(-1, 2, 1 << p)[:, 1, :]
            np.minimum(with_j, dist[i][i + 1 + p] + pairs, out=with_j)
        t[step >> 1 :: step] = best
    return t


def graev_oracle(spec: MetricSpec) -> NormOracle:
    return NormOracle(
        spec.rank,
        fn=lambda g: graev_norm(spec, g),
        build=lambda m: _graev_table(spec.dist, m),
        kind="graev",
    )


def closure_norm(base: BaseCostTable, *, rank_bound: int = EXHAUSTIVE_RANK_BOUND) -> NormOracle:
    """Largest norm dominated by the cost table: the value at g is the
    cheapest finite decomposition of g into nonzero parts priced by the
    table.

    Label-setting relaxation: elements are finalized in increasing value
    order and every single-part extension of a finalized element is relaxed.
    Positive costs make the pass exact.
    """
    n = base.rank
    if n > rank_bound:
        raise RankTooLargeError(f"closure needs 2**{n} labels, bound is 2**{rank_bound}")
    size = 1 << n
    step = np.asarray(base.costs, dtype=float).copy()
    step[0] = np.inf  # the zero element is not a usable part
    dist = step.copy()
    dist[0] = 0.0
    done = np.zeros(size, dtype=bool)
    idx = np.arange(size)
    for _ in range(size):
        u = int(np.argmin(np.where(done, np.inf, dist)))
        done[u] = True
        np.minimum(dist, dist[u] + step[idx ^ u], out=dist)
    return NormOracle(n, table=dist, kind="closure")


def table_norm(base: BaseCostTable) -> NormOracle:
    """Cost table used directly as a candidate norm, no closure applied."""
    return NormOracle(base.rank, table=np.asarray(base.costs, dtype=float), kind="table")


def distance(oracle: NormOracle, g: Element, h: Element) -> float:
    """Invariant metric induced by the norm: the norm of g + h."""
    return oracle(g ^ h)


def coordinate_norm(basis: Basis, oracle: NormOracle) -> NormOracle:
    """Norm pulled back through basis coordinates: the value at coordinate
    mask c is the norm of the element the coordinates select.  This is again
    a norm because coordinates <-> elements is a group isomorphism."""
    rows = basis.rows
    return NormOracle(
        len(rows), table=oracle.values(span_elements(rows)), kind=f"coords[{oracle.kind}]"
    )


def restrict_oracle(oracle: NormOracle, rank: int) -> NormOracle:
    """The oracle on a smaller truncation: the first 2**rank table entries."""
    if rank > oracle.rank:
        raise ValueError(f"cannot restrict rank-{oracle.rank} oracle to rank {rank}")
    if rank == oracle.rank:
        return oracle
    return NormOracle(rank, table=oracle._prefix(rank), kind=oracle.kind)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    g: tuple[int, ...]
    h: tuple[int, ...] | None
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    pairs_checked: int
    violation: AxiomViolation | None = None

    def to_json(self) -> dict:
        out: dict = {"pass": self.passed, "pairs_checked": self.pairs_checked}
        if self.violation is not None:
            v = self.violation
            out["violation"] = {
                "axiom": v.axiom,
                "g": list(v.g),
                "h": None if v.h is None else list(v.h),
                "lhs": v.lhs,
                "rhs": v.rhs,
            }
        return out


def check_norm_axioms(
    oracle: NormOracle,
    *,
    tol: float = RELATIVE_TOLERANCE,
    rank_bound: int = EXHAUSTIVE_RANK_BOUND,
) -> AxiomReport:
    """Exhaustive axiom check over the truncation: zero exactly at zero,
    finite and positive elsewhere, and subadditive on every ordered pair up
    to relative tolerance.  The first violating case (in mask order) is
    reported."""
    n = oracle.rank
    if n > rank_bound:
        raise RankTooLargeError(f"axiom check needs 4**{n} pairs, bound is rank {rank_bound}")
    size = 1 << n
    pairs = size * size
    t = oracle.table()
    if t[0] != 0.0:
        return AxiomReport(False, pairs, AxiomViolation("zero", (), None, float(t[0]), 0.0))
    for axiom, bad, bound in (
        ("finite", ~np.isfinite(t), float("inf")),
        ("positivity", t <= 0.0, 0.0),
    ):
        bad[0] = False
        if bad.any():
            g = int(np.argmax(bad))
            return AxiomReport(
                False, pairs, AxiomViolation(axiom, support(g), None, float(t[g]), bound)
            )
    # bad(g, h) is symmetric (IEEE addition commutes), so scanning h >= g
    # suffices: a violation at h < g would have been found in row h first.
    # The values are now finite and nonnegative, so rhs + tol * max >= rhs
    # and only pairs with lhs > rhs can be bad.
    idx = np.arange(size)
    for g in range(size):
        lhs = t[idx[g:] ^ g]
        rhs = t[g] + t[g:]
        over = np.flatnonzero(lhs > rhs)
        if over.size == 0:
            continue
        bad = over[exceeds(lhs[over], rhs[over], tol)]
        if bad.size:
            h = g + int(bad[0])
            return AxiomReport(
                False,
                pairs,
                AxiomViolation(
                    "subadditivity", support(g), support(h), float(t[g ^ h]), float(t[g] + t[h])
                ),
            )
    return AxiomReport(True, pairs, None)


def parse_norm_spec(data: Mapping) -> WeightSpec | MetricSpec | BaseCostTable:
    """Parse the JSON object form of a norm spec; rank is inferred."""
    if not isinstance(data, Mapping):
        raise ValueError("norm spec must be a JSON object")
    kind = data.get("kind")
    if kind == "weighted":
        return WeightSpec(tuple(data["weights"]))
    if kind == "graev":
        return MetricSpec(tuple(tuple(row) for row in data["dist"]))
    if kind == "closure":
        return BaseCostTable.from_mapping(data["base"])
    raise ValueError(f"unknown norm kind {kind!r}")


def spec_to_json(spec: WeightSpec | MetricSpec | BaseCostTable) -> dict:
    if isinstance(spec, WeightSpec):
        return {"kind": "weighted", "weights": list(spec.weights)}
    if isinstance(spec, MetricSpec):
        return {"kind": "graev", "dist": [list(row) for row in spec.dist]}
    if isinstance(spec, BaseCostTable):
        return {"kind": "closure", "base": spec.to_mapping()}
    raise TypeError(f"not a norm spec: {type(spec).__name__}")


def oracle_for(spec: WeightSpec | MetricSpec | BaseCostTable) -> NormOracle:
    if isinstance(spec, WeightSpec):
        return weighted_oracle(spec)
    if isinstance(spec, MetricSpec):
        return graev_oracle(spec)
    if isinstance(spec, BaseCostTable):
        return closure_norm(spec)
    raise TypeError(f"not a norm spec: {type(spec).__name__}")


def oracle_from_spec(data: Mapping) -> NormOracle:
    return oracle_for(parse_norm_spec(data))
