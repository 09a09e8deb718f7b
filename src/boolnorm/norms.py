"""Norm oracles on finite-rank Boolean groups.

Three constructions are provided: weighted letter norms, basepoint-pairing
norms over a finite metric space, and subadditive-closure norms obtained by
relaxing an arbitrary positive cost table.  A NormOracle is one dense
float64 table per truncation; weighted and pairing norms fill it with
vectorized recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .algebra import Basis, Element, from_support, require_memory, span_elements, support
from .errors import IndexOutOfRankError, RankTooLargeError

RELATIVE_TOLERANCE = 1e-9
EXHAUSTIVE_RANK_BOUND = 14
# Entries per array pass of the L2/L3 pair scans and the triangle check:
# 64 KiB of float64, under glibc's default 128 KiB mmap threshold.
_CHUNK = 1 << 13


def exceeds(lhs, rhs, tol: float = RELATIVE_TOLERANCE):
    """lhs > rhs beyond relative slack tol, for scalars or elementwise.

    A NaN or infinite value on either side always exceeds: a bound that
    cannot be evaluated is a violation, never a pass.  A NaN tol raises
    ValueError, as no lhs would exceed a bound with NaN slack."""
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    big = np.maximum(np.abs(lhs), np.abs(rhs))
    # rhs + tol * big lies within big * (1 + |tol|), so below this limit it
    # is finite (a NaN or inf big fails the test).  errstate stays off this
    # path: checkers make thousands of tiny calls.
    if big.max(initial=0.0) < 2.0**1022 / (1 + abs(tol)):
        return lhs > rhs + tol * big
    # A bound past the float range rounds to the inf of its sign, which a
    # finite lhs compares with as with the exact bound.  A non-finite big can
    # make the slack 0 * inf or -inf + inf; those NaNs are masked by the
    # finiteness test.  So numpy need not report either.
    with np.errstate(over="ignore", invalid="ignore"):
        return (lhs > rhs + tol * big) | ~np.isfinite(big)


@dataclass(frozen=True)
class WeightSpec:
    """Positive per-letter weights for generators 1..rank."""

    kind: ClassVar[str] = "weighted"
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

    kind: ClassVar[str] = "graev"
    dist: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        d = tuple(tuple(float(x) for x in row) for row in self.dist)
        object.__setattr__(self, "dist", d)
        m = len(d)
        if m < 2:
            raise ValueError("metric needs the basepoint plus at least one generator")
        if any(len(row) != m for row in d):
            raise ValueError("distance matrix must be square")
        a = np.array(d)
        # The first failing entry in row-major order, row i's diagonal before
        # its columns, and per entry the tests in the order reported here.
        diagonal = a.diagonal() != 0.0
        bad_value = ~np.isfinite(a) | (a < 0.0)
        zero_off = (a == 0.0) & ~np.eye(m, dtype=bool)
        failed = bad_value | zero_off | (a != a.T)
        rows = diagonal | failed.any(axis=1)
        if rows.any():
            i = int(rows.argmax())
            if diagonal[i]:
                raise ValueError(f"dist({i},{i}) must be 0")
            j = int(failed[i].argmax())
            if bad_value[i, j]:
                raise ValueError(f"dist({i},{j}) must be a finite nonnegative real")
            if zero_off[i, j]:
                raise ValueError(f"dist({i},{j}) must be positive off the diagonal")
            raise ValueError(f"dist({i},{j}) != dist({j},{i})")
        failure = _triangle_failure(a, RELATIVE_TOLERANCE)
        if failure is not None:
            i, j, k = failure
            raise ValueError(
                f"triangle inequality fails at ({i},{j},{k}): "
                f"{d[i][k]} > {d[i][j]} + {d[j][k]}"
            )

    @property
    def rank(self) -> int:
        return len(self.dist) - 1


def _triangle_failure(a: np.ndarray, tol: float) -> tuple[int, int, int] | None:
    """The first (i, j, k) in row-major order with d(i,k) > d(i,j) + d(j,k)
    beyond relative slack tol, or None.  A sum past the float range is a
    bound that no finite distance beats, so it passes.  Rows i are read in
    blocks of max(1, _CHUNK // m**2), so a block holds at most _CHUNK
    triples unless it is a single row."""
    m = len(a)
    step = max(1, _CHUNK // (m * m))
    for lo in range(0, m, step):
        with np.errstate(over="ignore"):
            bound = a[lo : lo + step, :, None] + a  # [i, j, k]: d(i,j) + d(j,k)
        bad = exceeds(a[lo : lo + step, None, :], bound, tol) & (bound < np.inf)
        if bad.any():
            i, j, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return lo + int(i), int(j), int(k)
    return None


@dataclass(frozen=True)
class BaseCostTable:
    """Positive cost for every nonzero element of a rank-n truncation.

    costs is a read-only float64 array indexed by element mask: costs[0] is
    0.0 and the other 2**rank - 1 entries must be positive finite reals.
    """

    kind: ClassVar[str] = "closure"
    rank: int
    costs: np.ndarray

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        costs = np.array(self.costs, dtype=float)
        object.__setattr__(self, "costs", costs)
        if costs.shape != (1 << self.rank,):
            raise ValueError(
                f"cost table needs {1 << self.rank} entries (index 0 unused), got {costs.size}"
            )
        if costs[0] != 0.0:
            raise ValueError("costs[0] must be 0.0")
        ok = (costs > 0.0) & (costs < np.inf)  # false on NaN
        if not ok[1:].all():
            mask = int(ok[1:].argmin()) + 1
            raise ValueError(f"cost of {support(mask)} must be positive finite, got {costs[mask]}")
        costs.flags.writeable = False

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseCostTable) and np.array_equal(self.costs, other.costs)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "BaseCostTable":
        """Build from {"comma-separated support": cost} covering every
        nonzero element; rank is inferred from the largest index."""
        # A rank-r table has 2**r - 1 entries, so no valid key names an
        # index above this bound.
        bound = len(mapping).bit_length()
        keys = _support_keys(bound)
        if list(mapping) == keys[1:]:
            # to_mapping's own key order names every nonzero mask once, in
            # mask order, so the values fill the table as they come.
            costs = np.zeros(1 << bound)
            costs[1:] = np.fromiter(mapping.values(), float, len(mapping))
            return cls(bound, costs)
        # Keys spelled the way to_mapping writes them are looked up; any
        # other spelling is parsed, with the same result or error.
        canonical = {key: mask for mask, key in enumerate(keys)}
        entries: dict[int, float] = {}
        for key, cost in mapping.items():
            mask = canonical.get(key)
            if mask is None:
                parts = [p for p in str(key).split(",") if p.strip()]
                mask = from_support(map(int, parts), bound)
            if mask == 0:
                raise ValueError("cost table keys must name nonzero elements")
            if mask in entries:
                raise ValueError(f"duplicate cost entry for {support(mask)}")
            entries[mask] = cost
        rank = max(entries, default=0).bit_length()
        if len(entries) != (1 << rank) - 1:
            raise ValueError(
                f"cost table for rank {rank} needs {(1 << rank) - 1} entries, got {len(entries)}"
            )
        costs = np.zeros(1 << rank)
        costs[np.fromiter(entries, int)] = np.fromiter(entries.values(), float)
        return cls(rank, costs)

    def to_mapping(self) -> dict[str, float]:
        return dict(zip(_support_keys(self.rank)[1:], self.costs.tolist()[1:]))


def _support_keys(rank: int) -> list[str]:
    """keys[mask]: the comma-joined ascending support of every mask below
    2**rank, e.g. keys[5] == "1,3"."""
    keys = [""]
    for i in range(1, rank + 1):
        # Masks with bit i - 1 set: the lower masks' supports, then i.
        suffix = f",{i}"
        upper = [key + suffix for key in keys]
        upper[0] = str(i)
        keys += upper
    return keys


def _require_in_rank(g: Element, rank: int) -> None:
    if g < 0:
        raise IndexOutOfRankError(f"element mask {g} is negative")
    if g >> rank:
        raise IndexOutOfRankError(f"support of {support(g)} exceeds rank {rank}")


class NormOracle:
    """Total nonnegative map on a rank-n truncation, stored as one dense
    float64 table indexed by element mask.

    The values come from exactly one source: a table of all 2**rank values,
    or a norm spec (WeightSpec, MetricSpec, or BaseCostTable for its
    closure) with at least rank generators.  Never both: check_norm_axioms
    passes an oracle with a spec by the spec's proof, which speaks only
    for the values the spec builds.  The spec also names the oracle's kind.
    A weighted or graev spec's table is built lazily and only the prefix a
    caller needs: the values on generators 1..m are the first 2**m entries,
    so a query below 2**m never builds the rest.  A query of a few of its
    elements far above the built prefix is answered element by element
    instead, so it costs what those elements cost, not 2**m.  A closure is
    relaxed whole, once, on the first query.  Construction performs no axiom
    validation on purpose: raw cost tables must be runnable through the same
    checkers as genuine norms.  A spec's table is read-only.
    """

    # A query builds its prefix when the prefix has at most this many
    # entries or at most four per element asked for.
    DENSE_QUERY_FLOOR = 1 << 12

    def __init__(
        self,
        rank: int,
        table: np.ndarray | None = None,
        spec: WeightSpec | MetricSpec | BaseCostTable | None = None,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if (table is None) == (spec is None):
            raise ValueError("exactly one of table or spec is required")
        if spec is not None and spec.rank < rank:
            raise ValueError(f"a rank-{spec.rank} spec cannot give a rank-{rank} oracle")
        self.rank = rank
        self.spec = spec
        self._array: np.ndarray | None = None
        if table is not None:
            arr = np.asarray(table, dtype=float)
            if arr.shape != (1 << rank,):
                raise ValueError(f"table must have 2**{rank} entries")
            self._array = arr

    @property
    def kind(self) -> str:
        """The spec's kind, or "table" for an oracle built from a table."""
        return "table" if self.spec is None else self.spec.kind

    def _prefix(self, m: int) -> np.ndarray:
        """Values on generators 1..m: the first 2**m table entries."""
        arr = self._array
        if arr is None or arr.size < 1 << m:
            require_memory(8 << m, f"a rank-{m} norm table")
            arr = self._keep(_spec_tables((self.spec,), m)[0])
        return arr[: 1 << m]

    def _keep(self, row: np.ndarray) -> np.ndarray:
        """Keep row, the values on generators 1..m, as this oracle's
        read-only table.  No entry above the rank is kept: __call__ answers
        any mask below the table's size."""
        arr = self._array = row[: 1 << self.rank]
        arr.flags.writeable = False
        return arr

    def __call__(self, g: Element) -> float:
        arr = self._array
        if arr is not None and 0 <= g < arr.size:
            return arr.item(g)
        return self.values(g).item()

    def table(self) -> np.ndarray:
        """All 2**rank values indexed by element mask (built on demand)."""
        return self._prefix(self.rank)

    def values(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an array of element masks; the one path
        that decides, for masks beyond the built table, between building
        the prefix they need and evaluating them one by one."""
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
        spec = self.spec
        dense = 1 << m <= max(self.DENSE_QUERY_FLOOR, 4 * masks.size)
        if dense or isinstance(spec, BaseCostTable):  # a closure has no element path
            return self._prefix(m)[masks]
        norm = weighted_norm if isinstance(spec, WeightSpec) else graev_norm
        return np.fromiter(
            (norm(spec, g) for g in masks.ravel().tolist()), dtype=float, count=masks.size
        ).reshape(masks.shape)


def _spec_tables(specs, m: int) -> np.ndarray:
    """The values each spec gives on generators 1..m, or for a closure on
    all its generators, as one (B, 2**m) stack; the specs share a kind.  A
    closure value on 1..m may use parts above m, so each closure is relaxed
    whole, once, spec by spec."""
    spec = specs[0]
    if isinstance(spec, WeightSpec):
        return _weighted_table(np.array([s.weights[:m] for s in specs]), m)
    if isinstance(spec, MetricSpec):
        return _graev_table(np.array([s.dist for s in specs]), m)
    return np.stack([_closure_table(s) for s in specs])


def _spec_oracles(specs, m: int) -> list[NormOracle]:
    """Rank-m oracles of rank-m specs of one kind, their tables built as
    one (B, 2**m) stack (_spec_tables): oracle b keeps row b."""
    oracles = [NormOracle(m, spec=spec) for spec in specs]
    for oracle, row in zip(oracles, _spec_tables(specs, m)):
        oracle._keep(row)
    return oracles


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


def _weighted_table(weights: np.ndarray, m: int) -> np.ndarray:
    # One table per row of weights (B, >= m).  Doubling adds weight i to
    # every mask below 2^i, so each mask sums its weights in ascending letter
    # order, exactly as weighted_norm does.  A sum past the float range is
    # inf, which the axiom gate reports.
    t = np.zeros((len(weights), 1 << m))
    with np.errstate(over="ignore"):
        for i in range(m):
            np.add(t[:, : 1 << i], weights[:, i, None], out=t[:, 1 << i : 2 << i])
    return t


def weighted_oracle(spec: WeightSpec) -> NormOracle:
    return NormOracle(spec.rank, spec=spec)


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
    # The memo holds one entry per remainder the recursion reaches, F(s + 2)
    # of them for s letters (Fibonacci), at up to about 144 bytes each.
    s = g.bit_count()
    fib, fib_next = 0, 1
    for _ in range(s + 2):
        fib, fib_next = fib_next, fib + fib_next
    require_memory(144 * fib, f"the pairing DP over {s} letters")
    return _pairing_cost(spec.dist, g, {0: 0.0})


def _graev_table(dist: np.ndarray, m: int) -> np.ndarray:
    # One table per metric of the stack dist (B, >= m + 1, >= m + 1).
    # _pairing_cost vectorized over all masks whose lowest letter is i, from
    # the top letter down: those masks are the odd multiples of 2^(i-1), and
    # their remainders (the multiples of 2^i) only hold letters above i, so
    # they are final when letter i is reached.  The sums are the scalar
    # DP's, term for term.  A sum past the float range is inf, as in
    # _weighted_table; an entry that stays inf is reported by the axiom gate.
    #
    # Two layout choices, neither of which changes a sum: each candidate is
    # still dist[i][j] + rest[r ^ 2^p], and np.minimum keeps the same float
    # whatever order the candidates come in.
    # - The remainders are copied once per level, so the m - i bit passes
    #   read a contiguous array, not t at stride 2^i.  At rank 20 (numpy
    #   2.4, one Xeon core) level 2 takes 6.0 ms against 10.9, level 3 3.0
    #   against 7.2, level 4 1.6 against 5.1.  The copy adds one half-size
    #   array to the peak, at level 1.
    # - Bit 1 runs as two 1-D stride-4 passes: through a (-1, 2, 2) view
    #   numpy's inner loop is 2 elements long, 2.7 ms for the 2^18 entries
    #   of level 1 against 0.9 ms split and a 0.36 ms contiguous floor.
    # A rank-20 build takes about 28 ms, against 47 ms without the two.
    b = len(dist)
    t = np.zeros((b, 1 << m))
    with np.errstate(over="ignore"):
        for i in range(m, 0, -1):
            step = 1 << i
            rest = t[:, ::step].copy()  # rest[:, r] = value at mask r * 2^i
            best = dist[:, i, 0, None] + rest
            for p in range(m - i):
                # masks whose remainder holds letter j = i + 1 + p: bit p of r
                d = dist[:, i, i + 1 + p, None]
                if p == 1:
                    for o in (0, 1):
                        with_j = best[:, 2 + o :: 4]
                        np.minimum(with_j, d + rest[:, o :: 4], out=with_j)
                    continue
                pairs = rest.reshape(b, -1, 2, 1 << p)[:, :, 0]
                with_j = best.reshape(b, -1, 2, 1 << p)[:, :, 1]
                np.minimum(with_j, d[:, :, None] + pairs, out=with_j)
            t[:, step >> 1 :: step] = best
    return t


def graev_oracle(spec: MetricSpec) -> NormOracle:
    return NormOracle(spec.rank, spec=spec)


def closure_norm(base: BaseCostTable) -> NormOracle:
    """Largest norm dominated by the cost table: the value at g is the
    cheapest finite decomposition of g into nonzero parts priced by the
    table.

    Label-setting relaxation: elements are finalized in increasing value
    order and every single-part extension of a finalized element is relaxed.
    Positive costs make the pass exact.  The table is the least left-fold
    rounded sum over the part sequences reaching each element, the one
    fixed point of the relaxation, so every finalization order that reaches
    it gives the same floats.

    Labels are finalized a bucket at a time.  With lo the least value not
    yet final, every candidate from a live label is at least
    fl(lo + cheapest part), so no live label at or below that sum can still
    improve: all of them are final at once.  The bucket relaxes in
    ascending order, in chunks of 1, 2, 4, ... rows of at most
    max(2**n, _CHUNK) candidates in all, each one scatter through
    np.minimum.at.

    Only extensions priced below top, the largest value in the table, are
    relaxed: a candidate at or above top changes nothing.  A chunk's window
    is its first row's, the largest, and top is read afresh after each
    chunk.  The pass stops once lo + cheapest reaches top.

    The table is read-only and a norm by proof: it passes the axiom scan
    at any tol >= about 2^-37 up to the rank bound, so check_norm_axioms
    passes the oracle without the scan (the proof is at _proved).
    """
    oracle = NormOracle(base.rank, spec=base)
    oracle._prefix(base.rank)
    return oracle


def _closure_table(base: BaseCostTable) -> np.ndarray:
    """The closure of base on all its generators (see closure_norm)."""
    n = base.rank
    if n > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"closure needs 2**{n} labels, bound is 2**{EXHAUSTIVE_RANK_BOUND}"
        )
    size = 1 << n
    dist = base.costs.copy()
    parts = np.argsort(dist[1:]) + 1  # the nonzero elements, cheapest first
    ascending = dist[parts]
    # Python floats: a sum with them past the float range is inf, which
    # stops the pass, without a numpy overflow warning.
    cheapest = ascending.item(0)
    top = dist.max().item()
    # Label 0 is final from the start: its candidates are the costs.
    live = np.ones(size, dtype=bool)
    live[0] = False
    with np.errstate(over="ignore"):  # rows past their window may overflow
        while True:
            bar = dist.min(where=live, initial=np.inf).item() + cheapest
            if bar >= top:
                break
            bucket = np.flatnonzero(live & (dist <= bar))
            live[bucket] = False
            rows = bucket[np.argsort(dist[bucket])]
            start, width = 0, 1
            while start < rows.size:
                m = _window_end(ascending, dist.item(rows[start]), top)
                if not m:  # so is every later row's window
                    break
                us = rows[start : start + min(width, max(size, _CHUNK) // m)]
                # A row past its own window adds candidates at or above top.
                targets = us[:, None] ^ parts[:m]
                np.minimum.at(dist, targets.ravel(), (dist[us, None] + ascending[:m]).ravel())
                top = dist.max().item()
                start += us.size
                width *= 2
    return dist


def _window_end(ascending: np.ndarray, base: float, top: float) -> int:
    """A position j with base + ascending[b] >= top for every b >= j, at or
    after the first such position: ascending[:j] holds every value whose
    rounded sum with base falls below top."""
    j = int(ascending.searchsorted(top - base))
    # top - base rounds too, so step over any run of equal values whose
    # rounded sum with base is still below top.  As a Python float, a sum
    # past the float range is inf, at or above top, without a numpy warning.
    while j < ascending.size and float(base) + ascending.item(j) < top:
        j = int(ascending.searchsorted(ascending[j], "right"))
    return j


def table_norm(base: BaseCostTable) -> NormOracle:
    """Cost table used directly as a candidate norm, no closure applied."""
    return NormOracle(base.rank, table=base.costs)


def coordinate_norm(basis: Basis, oracle: NormOracle) -> NormOracle:
    """Norm pulled back through basis coordinates: the value at coordinate
    mask c is the norm of the element the coordinates select.  This is again
    a norm because coordinates <-> elements is a group isomorphism."""
    rows = basis.rows
    return NormOracle(len(rows), table=oracle.values(span_elements(rows)))


def restrict_oracle(oracle: NormOracle, rank: int) -> NormOracle:
    """The oracle on a smaller truncation: the first 2**rank table entries.
    It keeps the spec, each proof at _proved covering every restriction, and
    takes the prefix the parent built, so a closure is relaxed only once."""
    if rank > oracle.rank:
        raise ValueError(f"cannot restrict rank-{oracle.rank} oracle to rank {rank}")
    if rank == oracle.rank:
        return oracle
    if oracle.spec is None:
        return NormOracle(rank, table=oracle._prefix(rank))
    restricted = NormOracle(rank, spec=oracle.spec)
    restricted._keep(oracle._prefix(rank))
    return restricted


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


def check_norm_axioms(oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE) -> AxiomReport:
    """Exhaustive axiom check over the truncation: zero exactly at zero,
    finite and positive elsewhere, and subadditive on every ordered pair up
    to relative tolerance tol >= 0.  The first violating case (in mask
    order) is reported, and pairs_checked counts every pair covered.

    An oracle passes at any rank, without its table, where its spec
    certifies that the scan would pass (_certified): a closure of at most
    14 generators at tol >= 2^-37; at tol >= 2^-40 (more from rank 64),
    weights of finite sum, or a metric meeting the triangle inequality to
    slack 2^-50 whose basepoint distances have a finite sum.  Any other
    oracle is checked on its table, up to rank EXHAUSTIVE_RANK_BOUND.

    Subadditivity is scanned only inside a value window: t[g ^ h] is at
    most T = max(t), so a pair with t[g] + t[h] >= T cannot fail.  Rows
    are walked in ascending value order, each over the partners whose sum
    with it stays below T, and the walk ends at the first empty row."""
    n = oracle.rank
    if _certified(oracle.spec, n, tol):
        return AxiomReport(True, 4**n, None)
    if n > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"axiom check needs 4**{n} pairs, bound is rank {EXHAUSTIVE_RANK_BOUND}"
        )
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative real, got {tol}")
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
    if _proved(oracle.spec, n, tol):
        return AxiomReport(True, pairs, None)
    # The values are now finite and nonnegative, so with tol >= 0 only pairs
    # with lhs > rhs can be bad, and lhs <= T bounds rhs below T.  bad(g, h)
    # is symmetric (IEEE addition commutes), so each row a scans the sorted
    # positions [a, end).  Once end <= a, row a's own sum st[a] + st[a]
    # reaches T, and so does every pair of the rows after it.
    order = np.argsort(t)
    st = t[order]
    top = st[-1]
    first = size * size  # smallest min(g, h) * size + max(g, h) over bad pairs
    for a in range(size):
        end = _window_end(st, st[a], top)
        if end <= a:
            break
        g = int(order[a])
        hs = order[a:end]
        lhs = t[hs ^ g]
        rhs = st[a] + st[a:end]
        over = np.flatnonzero(lhs > rhs)
        if over.size == 0:
            continue
        bad = hs[over[exceeds(lhs[over], rhs[over], tol)]]
        if bad.size:
            first = min(first, int((np.minimum(bad, g) * size + np.maximum(bad, g)).min()))
    if first == size * size:
        return AxiomReport(True, pairs, None)
    g, h = divmod(first, size)
    return AxiomReport(
        False,
        pairs,
        AxiomViolation(
            "subadditivity", support(g), support(h), float(t[g ^ h]), float(t[g] + t[h])
        ),
    )


def _proved(spec, n: int, tol: float) -> bool:
    """Whether every pair of the table that spec built, restricted to
    generators 1..n, passes the subadditivity scan at tol.  The caller has
    checked that the table is 0 at 0 and finite and positive elsewhere."""
    # With u = 2^-53.  exceeds' slack is fl(tol * big) with big >= rhs; a
    # product that underflows matters only where every sum is subnormal and
    # so exact.  The scan visits no pair whose rhs overflows.  The weighted
    # and graev bounds below grow with n, so their floor is 2^-40 up to n =
    # 63 and (n + 1) 2^-46 past it (1e-9 covers n <= 70367).  No spec in
    # memory has 2^40 letters, so nu < 2^-13 and first-order bounds hold.
    floor = max(2.0**-40, (n + 1) * 2.0**-46)
    if isinstance(spec, BaseCostTable):
        # A closure table t = _closure_table(spec) passes at any tol >= 2^-37,
        # and so does each restriction, whose pairs are pairs of t:
        # - 0 < cheapest <= t[g] <= costs[g] < inf for g != 0, since a
        #   BaseCostTable admits only positive finite costs;
        # - fl(a + c) is nondecreasing in a and at least a, so t[v] is the
        #   least left-fold rounded sum over the part sequences reaching v,
        #   the relaxation's one fixed point whatever order labels are
        #   finalized in (closure_norm equals the one-label-at-a-time full
        #   pass, a tested fact), attained by a simple path: k <= 2^n - 1
        #   parts;
        # - g's optimal sequence (fold t[g]) followed by h's parts q_1..q_k
        #   reaches g ^ h, so lhs = t[g ^ h] <= (t[g] + Σq)(1 + u)^k; and
        #   t[h] >= Σq (1 - u)^(k-1), rhs = fl(t[g] + t[h]) >=
        #   (t[g] + t[h])(1 - u), so lhs <= rhs ((1 + u) / (1 - u))^k;
        # - k < 2^spec.rank, and the proof assumes n <= spec.rank <= 14
        #   (_closure_table's bound): there the factor is below 1 + 2^-38,
        #   which 2^-37 covers twice over and RELATIVE_TOLERANCE about 270
        #   times; g = h gives lhs 0.
        return spec.rank <= EXHAUSTIVE_RANK_BOUND and tol >= 2.0**-37
    if isinstance(spec, WeightSpec):
        # The table is _weighted_table's build of spec.weights on n letters:
        # doubling writes the first 2^n entries from the first n weights
        # alone.  With S_g the exact sum of the weights of g's letters:
        # - each t[g] is a sum of at most n positive terms in order, so
        #   t[g] = S_g (1 + θ) with |θ| <= γ_{n-1} = (n-1)u / (1 - (n-1)u);
        #   addition is exact where it underflows, so this holds down to the
        #   subnormals;
        # - the letters of g ^ h are a subset of those of g and h, so
        #   S_{g^h} <= S_g + S_h, and lhs = t[g ^ h] against
        #   rhs = fl(t[g] + t[h]) gives lhs - rhs <= (2γ_n + u)(S_g + S_h);
        # - the slack covers that once tol is about 2(n + 1)u (3e-15 at
        #   n = 14), so the floor leaves more than 60x margin.
        # Below 2^-40 the table is scanned: at tol = 0 many weighted tables
        # fail by an ulp, e.g. weights (0.7, 1/3, 1.1, 0.1) at ({3}, {1, 4}).
        return tol >= floor
    if isinstance(spec, MetricSpec):
        # The table is _graev_table's build of spec.dist on n letters: the
        # first 2^n entries of a larger build read only letters up to n, in
        # the same order.  With
        # D = spec.dist on points 0..n, N_D the exact Graev norm of D (the
        # min over pairings of the exact sum of their distances) and
        # S = N_D(g) + N_D(h):
        # - rounded addition is monotone, so the DP's value at g is the min
        #   over pairings P of g of P's at most n terms summed in one fixed
        #   order, and t[g] = N_D(g)(1 + θ) with |θ| <= γ_n = nu / (1 - nu);
        #   a pairing sum that overflows is above every finite t[g] and never
        #   sets it;
        # - the edges of optimal pairings of g and h (each basepoint end its
        #   own copy) form paths and cycles whose interior letters lie in
        #   g ∩ h, and each path joins two letters of g ^ h, a letter and the
        #   basepoint, or the basepoint twice.  Shortcutting every path to
        #   its end-to-end edge and dropping the rest pairs g ^ h, at most n
        #   shortcuts in all;
        # - a passed check gives D(i,k) <= fl(fl(D(i,j) + D(j,k)) + 2^-50
        #   D(i,k)), so each shortcut costs at most a factor 1 + 11u, and
        #   N_D(g ^ h) <= (1 + 11u)^n S;
        # - so lhs = t[g ^ h] and rhs = fl(t[g] + t[h]) >= (1 - u)(1 - γ_n) S
        #   give lhs - rhs <= about (13n + 2)u S, 2.0e-14 S at n = 14, and
        #   the slack at the floor is more than 40 times that at n = 14
        #   and about 10 times past n = 63.
        # Metrics that MetricSpec admits with up to 1e-9 slack need not
        # pass: merging can spend that slack once per shared letter, past
        # the gate's own 1e-9, so they go to the scan.
        dist = np.array(spec.dist)[: n + 1, : n + 1]
        return tol >= floor and _triangle_failure(dist, 2.0**-50) is None
    return False


def _certified(spec, n: int, tol: float) -> bool:
    """Whether the table spec builds on generators 1..n passes
    check_norm_axioms at tol, read off the spec at any n without building
    or scanning the table; False for no spec."""
    # Zero at zero holds for every builder.  Finite and positive: rounded
    # addition is monotone and fl(a + w) >= a for w >= 0, so a fold of a
    # subsequence of positive terms is positive and at most the fold of the
    # whole sequence, in the same order.
    # - weighted: every entry folds its weights in ascending letter order
    #   (_weighted_table, weighted_norm), so the ascending fold of the first
    #   n weights bounds it;
    # - graev: both builders pair the lowest letter and recurse on the rest,
    #   so pairing every letter of g with the basepoint folds D(i, 0) from
    #   g's top letter down, and t[g], the least pairing, is at most the
    #   same fold over letters n..1.  Distances off the diagonal are
    #   positive;
    # - closure: 0 < t[g] <= costs[g] < inf, as _proved shows.
    # Subadditivity is _proved's, at n, which holds a closure to rank 14.
    if isinstance(spec, WeightSpec):
        terms: tuple[float, ...] = spec.weights[:n]
    elif isinstance(spec, MetricSpec):
        terms = tuple(row[0] for row in spec.dist[n:0:-1])
    else:
        terms = ()
    top = 0.0
    for x in terms:
        top += x
    return top < math.inf and _proved(spec, n, tol)


def parse_norm_spec(data: Mapping) -> WeightSpec | MetricSpec | BaseCostTable:
    """Parse the JSON object form of a norm spec; rank is inferred."""
    if not isinstance(data, Mapping):
        raise ValueError("norm spec must be a JSON object")
    kind = data.get("kind")
    if kind == WeightSpec.kind:
        return WeightSpec(_numbers(data["weights"], "weight"))
    if kind == MetricSpec.kind:
        return MetricSpec(tuple(_numbers(row, "distance") for row in data["dist"]))
    if kind == BaseCostTable.kind:
        base = data["base"]
        if not isinstance(base, Mapping):
            raise ValueError("closure base must be a JSON object")
        _numbers(base.values(), "cost")
        return BaseCostTable.from_mapping(base)
    raise ValueError(f"unknown norm kind {kind!r}")


def _numbers(values, what: str) -> tuple:
    # float() would read true as 1.0 and "2.5" as 2.5; a spec holds JSON
    # numbers only, as algebra._index holds indices to JSON integers.
    values = tuple(values)
    if all(type(x) is float for x in values):  # what json.load gives a spec_to_json spec
        return values
    for x in values:
        if isinstance(x, (bool, str)):
            raise TypeError(f"{what} must be a number, got {x!r}")
        try:
            float(x)
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(
                f"{what} must fit in a float, got an integer of {len(str(abs(x)))} digits"
            ) from None
    return values


def spec_to_json(spec: WeightSpec | MetricSpec | BaseCostTable) -> dict:
    if isinstance(spec, WeightSpec):
        return {"kind": spec.kind, "weights": list(spec.weights)}
    if isinstance(spec, MetricSpec):
        return {"kind": spec.kind, "dist": [list(row) for row in spec.dist]}
    if isinstance(spec, BaseCostTable):
        return {"kind": spec.kind, "base": spec.to_mapping()}
    raise TypeError(f"not a norm spec: {type(spec).__name__}")


def oracle_for(spec: WeightSpec | MetricSpec | BaseCostTable) -> NormOracle:
    if isinstance(spec, BaseCostTable):
        return closure_norm(spec)
    if isinstance(spec, (WeightSpec, MetricSpec)):
        return NormOracle(spec.rank, spec=spec)
    raise TypeError(f"not a norm spec: {type(spec).__name__}")
