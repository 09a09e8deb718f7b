import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    BaseCostTable,
    NanNormError,
    NormOracle,
    RankTooLargeError,
    RowRecord,
    SearchBoundExceededError,
    WeightSpec,
    reduce_basis,
    reduce_basis_report,
    span_elements,
    support,
    table_norm,
    weighted_oracle,
)
from boolnorm.instances import random_base_table, random_norm, rng_from
from boolnorm.norms import closure_norm
from boolnorm.reduction import DEFAULT_SEARCH_BOUND


def argmin_exhaustive(oracle, offset, rows):
    """Gray-code walk over all 2**k coset members, each step flipping one
    row: (minimum, its norm, members evaluated) under (norm, lexicographic
    support).  The reference that the dense search is tested against."""
    best = offset
    best_norm = oracle(offset)
    best_support: tuple[int, ...] | None = None
    cur = offset
    evaluated = 1
    call = oracle.__call__
    for i in range(1, 1 << len(rows)):
        cur ^= rows[(i & -i).bit_length() - 1]
        v = call(cur)
        evaluated += 1
        if v < best_norm:
            best, best_norm, best_support = cur, v, None
        elif v == best_norm:
            if best_support is None:
                best_support = support(best)
            s = support(cur)
            if s < best_support:
                best, best_support = cur, s
    return best, best_norm, evaluated


def brute_coset_min(oracle, offset, rows):
    """Oracle: scan every subset of the span rows, minimum under
    (norm, lexicographic support)."""
    best = None
    best_elem = None
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(rows, r):
            g = offset
            for row in combo:
                g ^= row
            key = (oracle(g), support(g))
            if best is None or key < best:
                best = key
                best_elem = g
    return best_elem, best[0]


def test_reduce_basis_norm_a(norm_a):
    basis, records = reduce_basis_report(norm_a, 2)
    assert [support(r) for r in basis.rows] == [(1,), (1, 2)]
    assert [rec.norm for rec in records] == [1.0, 2.0]
    assert [rec.coset_size for rec in records] == [1, 2]


def test_reduce_basis_weighted_is_identity():
    for seed in range(4):
        rng = rng_from(11, seed)
        weights = tuple(float(w) for w in rng.uniform(0.1, 10.0, 6))
        basis = reduce_basis(weighted_oracle(WeightSpec(weights)), 6)
        assert [support(r) for r in basis.rows] == [(j,) for j in range(1, 7)]


def test_reduce_basis_rank_one(norm_a):
    basis = reduce_basis(norm_a, 1)
    assert [support(r) for r in basis.rows] == [(1,)]


def test_tie_break_prefers_lexicographic_support():
    # N({1})=1, N({2})=N({1,2})=2: the coset {2}+span({1}) ties at norm 2
    # and (1,2) < (2,) lexicographically.
    oracle = table_norm(BaseCostTable(2, (0.0, 1.0, 2.0, 2.0)))
    basis = reduce_basis(oracle, 2)
    assert support(basis.rows[1]) == (1, 2)


def test_rows_match_exhaustive_coset_minimum():
    for seed in range(8):
        oracle = closure_norm(random_base_table(rng_from(77, seed), 7))
        basis = reduce_basis(oracle, 7)
        for k in range(1, 8):
            expect, _ = brute_coset_min(oracle, 1 << (k - 1), basis.rows[: k - 1])
            assert basis.rows[k - 1] == expect, f"seed {seed}, row {k}"


def test_unitriangular_structure():
    oracle = closure_norm(random_base_table(rng_from(78, 0), 8))
    basis = reduce_basis(oracle, 8)
    for j, row in enumerate(basis.rows, 1):
        assert row >> (j - 1) & 1
        assert row >> j == 0


def test_pruned_search_is_answer_identical():
    for seed in range(6):
        oracle = closure_norm(random_base_table(rng_from(79, seed), 8))
        plain = reduce_basis(oracle, 8, prune=False)
        pruned = reduce_basis(oracle, 8, prune=True)
        assert plain.rows == pruned.rows


def test_reduction_is_deterministic():
    oracle = closure_norm(random_base_table(rng_from(80, 0), 8))
    assert reduce_basis(oracle, 8).rows == reduce_basis(oracle, 8).rows


def test_search_bound_enforced():
    # the bound is refused before any table is built
    assert DEFAULT_SEARCH_BOUND == 24
    oracle = weighted_oracle(WeightSpec((1.0,) * 25))
    with pytest.raises(SearchBoundExceededError, match="rank 25 exceeds search bound 24"):
        reduce_basis(oracle, 25)


def test_rank_validation(norm_a):
    with pytest.raises(ValueError):
        reduce_basis(norm_a, 0)
    with pytest.raises(ValueError):
        reduce_basis(norm_a, 3)  # oracle only covers rank 2


def test_candidates_evaluated_counts(norm_a):
    _, records = reduce_basis_report(norm_a, 2)
    assert [rec.candidates_evaluated for rec in records] == [1, 2]
    _, pruned_records = reduce_basis_report(norm_a, 2, prune=True)
    assert pruned_records[-1].candidates_evaluated <= 2


# Per-row candidates_evaluated of the pruned walk, recorded before the walk
# was rewritten as an explicit-stack loop: the cut and the visiting order
# decide these counts, so a change to either shows here.
PRUNED_CANDIDATES = {
    ("weighted", 0, 8): [1, 2, 4, 6, 8, 14, 22, 61],
    ("weighted", 1, 10): [1, 2, 3, 5, 8, 16, 25, 110, 177, 234],
    ("weighted", 2, 12): [1, 2, 3, 5, 14, 24, 44, 64, 96, 158, 314, 891],
    ("graev", 0, 8): [1, 2, 4, 8, 16, 30, 61, 103],
    ("graev", 1, 10): [1, 2, 4, 7, 16, 27, 36, 75, 128, 221],
    ("graev", 2, 12): [1, 2, 4, 8, 14, 27, 41, 74, 145, 283, 474, 737],
    ("closure", 0, 8): [1, 2, 4, 8, 16, 29, 58, 98],
    ("closure", 1, 10): [1, 2, 4, 8, 16, 32, 64, 124, 216, 405],
    ("closure", 2, 12): [1, 2, 4, 8, 16, 32, 52, 104, 217, 421, 843, 1627],
}


@pytest.mark.parametrize("family, seed, rank", sorted(PRUNED_CANDIDATES))
def test_pruned_candidates_evaluated_are_pinned(family, seed, rank):
    _, oracle = random_norm(rng_from(seed, rank), rank, family)
    basis, records = reduce_basis_report(oracle, rank, prune=True)
    assert [rec.candidates_evaluated for rec in records] == PRUNED_CANDIDATES[family, seed, rank]
    assert basis == reduce_basis(oracle, rank)


def test_pruned_search_survives_heavy_ties():
    # small-integer cost tables make exact norm ties common, so the
    # lexicographic tie-break does real work in both walks
    for seed in range(10):
        rng = rng_from(81, seed)
        costs = rng.integers(1, 4, size=1 << 6).astype(float)
        costs[0] = 0.0
        oracle = closure_norm(BaseCostTable(6, tuple(costs.tolist())))
        plain = reduce_basis(oracle, 6, prune=False)
        pruned = reduce_basis(oracle, 6, prune=True)
        assert plain.rows == pruned.rows, f"seed {seed}"


def gray_walk_report(oracle, rank):
    """Reference reduction: the scalar Gray-code walk for every row."""
    rows, records = [], []
    for k in range(1, rank + 1):
        elem, norm, evaluated = argmin_exhaustive(oracle, 1 << (k - 1), tuple(rows))
        rows.append(elem)
        records.append(RowRecord(k, support(elem), norm, 1 << (k - 1), evaluated))
    return tuple(rows), records


def tie_heavy_table(data, rank, values):
    costs = data.draw(st.lists(st.sampled_from(values), min_size=1 << rank, max_size=1 << rank))
    costs[0] = 0.0
    return np.array(costs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dense_search_matches_gray_walk_on_tie_heavy_tables(data):
    # arbitrary tables, not norms: small-integer costs (and inf) tie often
    rank = data.draw(st.integers(min_value=1, max_value=7))
    oracle = NormOracle(rank, table=tie_heavy_table(data, rank, [1.0, 2.0, 3.0, float("inf")]))
    basis, records = reduce_basis_report(oracle, rank)
    rows, expected = gray_walk_report(oracle, rank)
    assert basis.rows == rows
    assert records == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dense_gray_and_pruned_agree_on_tie_heavy_norms(data):
    # the pruned walk relies on the triangle inequality, so only norms here
    rank = data.draw(st.integers(min_value=1, max_value=7))
    costs = tie_heavy_table(data, rank, [1.0, 2.0, 3.0])
    oracle = closure_norm(BaseCostTable(rank, tuple(costs.tolist())))
    basis, records = reduce_basis_report(oracle, rank)
    pruned_basis, pruned_records = reduce_basis_report(oracle, rank, prune=True)
    rows, expected = gray_walk_report(oracle, rank)
    assert basis.rows == pruned_basis.rows == rows
    assert records == expected
    for rec, pruned in zip(records, pruned_records):
        assert pruned.candidates_evaluated <= rec.candidates_evaluated
        assert pruned == RowRecord(
            rec.index, rec.support, rec.norm, rec.coset_size, pruned.candidates_evaluated
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_cosets_are_the_top_letter_slices(data):
    # the fact the plain search rests on: rows 1..k-1 of a reduced basis
    # span exactly the masks below 2**(k-1), so row k's coset is the slice
    # [2**(k-1), 2**k), and row k is that slice's minimum under (norm,
    # lexicographic support); arbitrary tables, ties and inf included
    rank = data.draw(st.integers(min_value=1, max_value=8))
    costs = tie_heavy_table(data, rank, [1.0, 2.0, 3.0, float("inf")])
    for oracle in (
        NormOracle(rank, table=costs),
        closure_norm(BaseCostTable(rank, tuple(np.minimum(costs, 4.0).tolist()))),
    ):
        basis = reduce_basis(oracle, rank)
        for k in range(1, rank + 1):
            size = 1 << (k - 1)
            earlier = basis.rows[: k - 1]
            assert sorted(span_elements(earlier).tolist()) == list(range(size))
            expect = min(range(size, 2 * size), key=lambda g: (oracle(g), support(g)))
            assert basis.rows[k - 1] == expect
            assert brute_coset_min(oracle, size, earlier) == (expect, oracle(expect))


@pytest.mark.parametrize("prune", [False, True])
def test_nan_in_the_searched_table_raises(prune):
    oracle = NormOracle(2, table=np.array([0.0, 1.0, float("nan"), 2.0]))
    with pytest.raises(NanNormError, match=r"norm of \(2,\)"):
        reduce_basis(oracle, 2, prune=prune)
    # the first NaN in mask order is named
    both = NormOracle(2, table=np.array([0.0, 1.0, float("nan"), float("nan")]))
    message = r"^norm of \(2,\) is NaN; the coset minimum is undefined$"
    with pytest.raises(NanNormError, match=message):
        reduce_basis(both, 2, prune=prune)
    # no coset holds the zero element, so a NaN there is never searched
    zero_nan = NormOracle(2, table=np.array([float("nan"), 1.0, 1.0, 2.0]))
    assert reduce_basis(zero_nan, 2, prune=prune).rows == (0b01, 0b10)


def test_reduce_refuses_tables_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr("boolnorm.reduction.DEFAULT_SEARCH_BOUND", 40)
    oracle = weighted_oracle(WeightSpec((1.0,) * 40))
    tracemalloc.start()
    try:
        with pytest.raises(RankTooLargeError):
            reduce_basis(oracle, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the same spec reduces at a rank whose table fits
    assert reduce_basis(oracle, 10).rows == tuple(1 << j for j in range(10))


@pytest.mark.parametrize("family", ["weighted", "graev"])
def test_plain_search_reads_the_table_in_place(family):
    # on a prebuilt table the search allocates one slice-sized bool mask at
    # a time, not a span of the earlier rows (8 bytes per coset member) or
    # a gather of the table through it
    rank = 18
    _, oracle = random_norm(rng_from(26, rank), rank, family)
    oracle.table()
    tracemalloc.start()
    try:
        basis, records = reduce_basis_report(oracle, rank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << (rank - 1)
    assert [rec.coset_size for rec in records] == [1 << k for k in range(rank)]
    assert basis == reduce_basis(oracle, rank, prune=True)
