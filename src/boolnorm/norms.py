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
from typing import Callable, Mapping

import numpy as np

from .algebra import Basis, Element, from_support, require_memory, span_elements, support
from .errors import IndexOutOfRankError, RankTooLargeError

RELATIVE_TOLERANCE = 1e-9
EXHAUSTIVE_RANK_BOUND = 14


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
        failure = _triangle_failure(np.array(d), RELATIVE_TOLERANCE)
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
    bound that no finite distance beats, so it passes."""
    m = len(a)
    for i in range(m):
        with np.errstate(over="ignore"):
            bound = a[i][:, None] + a  # [j, k]: d(i,j) + d(j,k)
        bad = exceeds(a[i], bound, tol) & (bound < np.inf)
        if bad.any():
            j, k = divmod(int(np.argmax(bad)), m)
            return i, j, k
    return None


@dataclass(frozen=True)
class BaseCostTable:
    """Positive cost for every nonzero element of a rank-n truncation.

    costs is a read-only float64 array indexed by element mask: costs[0] is
    0.0 and the other 2**rank - 1 entries must be positive finite reals.
    """

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
        # Keys spelled the way to_mapping writes them are looked up; any
        # other spelling is parsed, with the same result or error.
        canonical = {key: mask for mask, key in enumerate(_support_keys(bound))}
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
            require_memory(8 << m, f"a rank-{m} norm table")
            arr = self._array = np.asarray(self._build(m), dtype=float)
        return arr[: 1 << m]

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
        if 1 << m <= max(self.DENSE_QUERY_FLOOR, 4 * masks.size):
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
    # weights in ascending letter order, exactly as weighted_norm does.  A
    # sum past the float range is inf, which the axiom gate reports.
    t = np.zeros(1 << m)
    with np.errstate(over="ignore"):
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
    # The memo holds one entry per remainder the recursion reaches, F(s + 2)
    # of them for s letters (Fibonacci), at up to about 144 bytes each.
    s = g.bit_count()
    fib, fib_next = 0, 1
    for _ in range(s + 2):
        fib, fib_next = fib_next, fib + fib_next
    require_memory(144 * fib, f"the pairing DP over {s} letters")
    return _pairing_cost(spec.dist, g, {0: 0.0})


def _graev_table(dist: tuple[tuple[float, ...], ...], m: int) -> np.ndarray:
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
    t = np.zeros(1 << m)
    with np.errstate(over="ignore"):
        for i in range(m, 0, -1):
            step = 1 << i
            rest = t[::step].copy()  # rest[r] = value at mask r * 2^i
            best = dist[i][0] + rest
            for p in range(m - i):
                # masks whose remainder holds letter j = i + 1 + p: bit p of r
                d = dist[i][i + 1 + p]
                if p == 1:
                    for o in (0, 1):
                        with_j = best[2 + o :: 4]
                        np.minimum(with_j, d + rest[o :: 4], out=with_j)
                    continue
                pairs = rest.reshape(-1, 2, 1 << p)[:, 0, :]
                with_j = best.reshape(-1, 2, 1 << p)[:, 1, :]
                np.minimum(with_j, d + pairs, out=with_j)
            t[step >> 1 :: step] = best
    return t


def graev_oracle(spec: MetricSpec) -> NormOracle:
    return NormOracle(
        spec.rank,
        fn=lambda g: graev_norm(spec, g),
        build=lambda m: _graev_table(spec.dist, m),
        kind="graev",
    )


def closure_norm(base: BaseCostTable) -> NormOracle:
    """Largest norm dominated by the cost table: the value at g is the
    cheapest finite decomposition of g into nonzero parts priced by the
    table.

    Label-setting relaxation: elements are finalized in increasing value
    order and every single-part extension of a finalized element is relaxed.
    Positive costs make the pass exact.

    Only extensions priced below top, the largest value of a label not yet
    final, are relaxed: a candidate at or above top is at or above every
    live label, and above every final one since costs are positive, so it
    changes nothing.  The pass stops at the first label whose cheapest
    extension reaches top.
    """
    n = base.rank
    if n > EXHAUSTIVE_RANK_BOUND:
        raise RankTooLargeError(
            f"closure needs 2**{n} labels, bound is 2**{EXHAUSTIVE_RANK_BOUND}"
        )
    size = 1 << n
    step = base.costs.copy()
    step[0] = np.inf  # the zero element is not a usable part
    dist = step.copy()
    dist[0] = 0.0
    parts = np.argsort(step)
    ascending = step[parts]
    # A Python float: a sum with it past the float range is inf, which
    # stops the pass, without a numpy overflow warning.
    cheapest = ascending.item(0)
    # inf once a label is final, so the argmin of dist + done skips final
    # labels; positive finite costs keep every dist finite.
    done = np.zeros(size)
    for k in range(size):
        if not k % 32:
            # Values only fall and labels only become final, so a stale top
            # is still at or above every live label.
            top = (dist - done).max()
        u = int((dist + done).argmin())
        du = dist.item(u)
        if du + cheapest >= top:
            break
        done[u] = np.inf
        m = _window_end(ascending, du, top)
        targets = parts[:m] ^ u
        dist[targets] = np.minimum(dist[targets], du + ascending[:m])
    return NormOracle(n, table=dist, kind="closure")


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
    return NormOracle(base.rank, table=base.costs, kind="table")


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


def check_norm_axioms(oracle: NormOracle, *, tol: float = RELATIVE_TOLERANCE) -> AxiomReport:
    """Exhaustive axiom check over the truncation: zero exactly at zero,
    finite and positive elsewhere, and subadditive on every ordered pair up
    to relative tolerance tol >= 0.  The first violating case (in mask
    order) is reported, and pairs_checked counts every pair covered.

    Subadditivity is scanned only inside a value window: t[g ^ h] is at
    most T = max(t), so a pair with t[g] + t[h] >= T cannot fail.  Rows
    are walked in ascending value order, each over the partners whose sum
    with it stays below T, and the walk ends at the first empty row.

    Two kinds of table pass without a scan when tol >= 2^-40, each read
    off the table alone: one that is exactly the ascending letter sum of
    its singleton values (a weighted norm), and one that is exactly the
    graev table of the metric its singleton and two-letter values form,
    where that metric meets the triangle inequality to relative slack
    2^-50.  The proofs are at the shortcuts."""
    n = oracle.rank
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
    # An additive table passes by proof: when t is, bit for bit, the
    # ascending letter sum of its own singleton values (a weighted norm),
    # no visited pair can exceed at tol >= 2^-40.  With S_g the exact sum
    # over the letters of g and u = 2^-53:
    # - each t[g] is a sum of at most n positive terms in order, so
    #   t[g] = S_g (1 + θ) with |θ| <= γ_{n-1} = (n-1)u / (1 - (n-1)u);
    #   addition is exact where it underflows, so this holds down to the
    #   subnormals;
    # - the letters of g ^ h are a subset of those of g and h, so
    #   S_{g^h} <= S_g + S_h, and lhs = t[g ^ h] against
    #   rhs = fl(t[g] + t[h]) gives lhs - rhs <= (2γ_n + u)(S_g + S_h);
    # - exceeds' slack fl(tol * big), with big >= rhs, covers that once tol
    #   is about 2(n + 1)u (3e-15 at n = 14), so 2^-40 leaves more than 100x
    #   margin; a product that underflows loses at most 2^-1075, which
    #   matters only where every sum is below 2^-1021 and so exact;
    # - the scan visits only pairs whose rhs is below max(t), so no visited
    #   sum overflows.
    # Below 2^-40 the table is scanned: at tol = 0 many weighted tables fail
    # by an ulp, e.g. weights (0.7, 1/3, 1.1, 0.1) at ({3}, {1, 4}).
    if tol >= 2.0**-40:
        singles = t[1 << np.arange(n)].tolist()
        total = 0.0
        for w in singles:  # t[-1]'s sum: an O(n) reject for most other tables
            total += w
        if total == t[-1] and np.array_equal(t, _weighted_table(singles, n)):
            return AxiomReport(True, pairs, None)
        if _is_graev_table(t, n, singles):
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


def _is_graev_table(t: np.ndarray, n: int, singles: list[float]) -> bool:
    """Whether t is, bit for bit, _graev_table of the metric read off its
    own entries, and that metric meets the triangle inequality to relative
    slack 2^-50: then no pair fails the axiom gate at tol >= 2^-40."""
    # The proof.  With D(i,0) = t[{i}], D(i,j) = t[{i,j}], N_D the exact
    # Graev norm of D (the min over pairings of the exact sum of their
    # distances), S = N_D(g) + N_D(h) and u = 2^-53:
    # - rounded addition is monotone, so the DP's value at g is the min over
    #   pairings P of g of P's at most n terms summed in one fixed order, and
    #   t[g] = N_D(g)(1 + θ) with |θ| <= γ_n = nu / (1 - nu); a pairing sum
    #   that overflows is above every finite t[g] and never sets it;
    # - the edges of optimal pairings of g and h (each basepoint end its own
    #   copy) form paths and cycles whose interior letters lie in g ∩ h, and
    #   each path joins two letters of g ^ h, a letter and the basepoint, or
    #   the basepoint twice.  Shortcutting every path to its end-to-end edge
    #   and dropping the rest pairs g ^ h, at most n shortcuts in all;
    # - a passed check gives D(i,k) <= fl(fl(D(i,j) + D(j,k)) + 2^-50 D(i,k)),
    #   so each shortcut costs at most a factor 1 + 11u, and
    #   N_D(g ^ h) <= (1 + 11u)^n S;
    # - so lhs = t[g ^ h] and rhs = fl(t[g] + t[h]) >= (1 - u)(1 - γ_n) S
    #   give lhs - rhs <= about (13n + 2)u S, 2.0e-14 S at n = 14, and the
    #   slack fl(tol * big) with big >= rhs is at least about 2^-40 S, more
    #   than 40 times that.  A product that underflows loses at most
    #   2^-1075, which matters only where rhs is subnormal, and there every
    #   sum the pair reads is exact.
    # Metrics that MetricSpec admits with up to 1e-9 slack need not pass:
    # merging can spend that slack once per shared letter, past the gate's
    # own 1e-9, so they go to the scan.
    d = np.zeros((n + 1, n + 1))
    d[0, 1:] = d[1:, 0] = singles
    bits = 1 << np.arange(n)
    d[1:, 1:] = t[bits[:, None] | bits]
    np.fill_diagonal(d, 0.0)
    dist = d.tolist()
    low = min(n, 4)  # a cheap reject: most other tables differ in their first 16 entries
    return (
        np.array_equal(t[: 1 << low], _graev_table(dist, low))
        and _triangle_failure(d, 2.0**-50) is None
        and np.array_equal(t, _graev_table(dist, n))
    )


def parse_norm_spec(data: Mapping) -> WeightSpec | MetricSpec | BaseCostTable:
    """Parse the JSON object form of a norm spec; rank is inferred."""
    if not isinstance(data, Mapping):
        raise ValueError("norm spec must be a JSON object")
    kind = data.get("kind")
    if kind == "weighted":
        return WeightSpec(_numbers(data["weights"], "weight"))
    if kind == "graev":
        return MetricSpec(tuple(_numbers(row, "distance") for row in data["dist"]))
    if kind == "closure":
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
