import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    BaseCostTable,
    GeneralBasis,
    IndexOutOfRankError,
    MetricSpec,
    NormOracle,
    RankTooLargeError,
    TriangularBasis,
    WeightSpec,
    check_norm_axioms,
    closure_norm,
    coordinate_norm,
    distance,
    from_support,
    graev_norm,
    graev_oracle,
    oracle_for,
    parse_norm_spec,
    restrict_oracle,
    spec_to_json,
    support,
    table_norm,
    weighted_norm,
    weighted_oracle,
)
from boolnorm.instances import random_base_table, random_metric_spec, random_norm, rng_from


def pairing_min(dist, letters):
    """Oracle: enumerate every pairing of the letters, each letter either
    paired with a later letter or sent to the basepoint.  Recursion peels
    the lowest letter first, mirroring the production DP's summation order
    so minima agree exactly."""
    if not letters:
        return 0.0
    first, rest = letters[0], letters[1:]
    best = dist[first][0] + pairing_min(dist, rest)
    for i, other in enumerate(rest):
        cand = dist[first][other] + pairing_min(dist, rest[:i] + rest[i + 1 :])
        if cand < best:
            best = cand
    return best


def relaxation_fixpoint(costs, rank):
    """Oracle: iterate the two-part relaxation v[g] <- min(v[g], v[h] +
    v[g^h]) from the raw costs until nothing changes.  Values only decrease
    and every value is a finite sum of costs, so this terminates."""
    n = 1 << rank
    vals = list(costs)
    vals[0] = 0.0
    changed = True
    while changed:
        changed = False
        for g in range(1, n):
            for h in range(1, n):
                cand = vals[h] + vals[g ^ h]
                if cand < vals[g]:
                    vals[g] = cand
                    changed = True
    return vals


def test_weighted_examples():
    assert weighted_norm(WeightSpec((1.0, 1.0, 1.0)), from_support([1, 3])) == 2.0
    assert weighted_norm(WeightSpec((1.0, 1.0)), 0) == 0.0
    assert weighted_norm(WeightSpec((0.5, 2.0)), from_support([1, 2])) == 2.5
    with pytest.raises(IndexOutOfRankError):
        weighted_norm(WeightSpec((1.0,)), from_support([2]))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(())
    with pytest.raises(ValueError):
        WeightSpec((1.0, -2.0))
    with pytest.raises(ValueError):
        WeightSpec((0.0,))


def test_weighted_axioms_pass():
    report = check_norm_axioms(weighted_oracle(WeightSpec((1.0, 2.0, 3.0))))
    assert report.passed
    assert report.pairs_checked == 64


def test_metric_spec_validation():
    good = ((0.0, 1.0, 1.0), (1.0, 0.0, 0.5), (1.0, 0.5, 0.0))
    MetricSpec(good)
    with pytest.raises(ValueError):  # zero off-diagonal
        MetricSpec(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):  # asymmetric
        MetricSpec(((0.0, 1.0, 1.0), (2.0, 0.0, 0.5), (1.0, 0.5, 0.0)))
    with pytest.raises(ValueError):  # triangle fails: d(1,2)=9 > 1+1
        MetricSpec(((0.0, 1.0, 1.0), (1.0, 0.0, 9.0), (1.0, 9.0, 0.0)))
    with pytest.raises(ValueError):  # nonzero diagonal
        MetricSpec(((1.0, 1.0), (1.0, 0.0)))


def test_metric_spec_reports_the_first_failing_triple():
    d = ((0.0, 1.0, 1.0, 5.0), (1.0, 0.0, 9.0, 1.0), (1.0, 9.0, 0.0, 1.0), (5.0, 1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"fails at \(0,1,3\): 5.0 > 1.0 \+ 1.0"):
        MetricSpec(d)


# -inf on the right makes the slack -inf + inf = NaN, which numpy reports.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exceeds_is_strict_up_to_relative_slack_and_refuses_non_finite():
    from boolnorm.norms import exceeds

    assert not exceeds(1.0, 1.0)
    assert not exceeds(1.0 + 1e-12, 1.0)
    assert exceeds(1.0 + 1e-6, 1.0)
    assert not exceeds(-2.0, -2.0 - 1e-12)  # slack scales with |value|
    for bad in (float("nan"), float("inf"), -float("inf")):
        assert exceeds(bad, 1.0) and exceeds(1.0, bad)
    got = exceeds(np.array([1.0, 3.0, np.nan, 0.5]), np.array([2.0, 1.0, 1.0, np.inf]))
    assert got.tolist() == [False, True, True, True]


def test_graev_examples():
    m = MetricSpec(((0.0, 1.0, 1.0), (1.0, 0.0, 0.5), (1.0, 0.5, 0.0)))
    assert graev_norm(m, from_support([1, 2])) == 0.5
    assert graev_norm(m, from_support([1])) == 1.0
    assert graev_norm(m, 0) == 0.0
    with pytest.raises(IndexOutOfRankError):
        graev_norm(m, from_support([3]))


def test_graev_matches_pairing_enumeration():
    for i in range(8):
        spec = random_metric_spec(rng_from(101, i), 6)
        oracle = graev_oracle(spec)
        for g in range(1 << 6):
            expected = pairing_min(spec.dist, list(support(g)))
            assert oracle(g) == expected, f"seed {i}, element {support(g)}"


def test_graev_axioms_pass_exhaustively():
    for i in range(5):
        spec = random_metric_spec(rng_from(202, i), 6)
        assert check_norm_axioms(graev_oracle(spec)).passed


def test_closure_examples():
    n = closure_norm(BaseCostTable(2, (0.0, 1.0, 1.0, 3.0)))
    assert n(from_support([1, 2])) == 2.0
    assert n(0) == 0.0
    already = BaseCostTable(2, (0.0, 1.0, 3.0, 2.0))
    m = closure_norm(already)
    assert m.table().tolist() == [0.0, 1.0, 3.0, 2.0]


def test_closure_matches_relaxation_fixpoint():
    for i in range(6):
        base = random_base_table(rng_from(303, i), 4)
        oracle = closure_norm(base)
        expected = relaxation_fixpoint(base.costs, 4)
        for g in range(1 << 4):
            assert oracle(g) == pytest.approx(expected[g], rel=1e-12), f"seed {i}, g={support(g)}"


def test_closure_is_idempotent():
    for i in range(6):
        base = random_base_table(rng_from(404, i), 6)
        closed = closure_norm(base).table()
        again = closure_norm(BaseCostTable(6, tuple(closed.tolist()))).table()
        assert np.allclose(again, closed, rtol=1e-9, atol=0.0)


def test_closure_dominated_by_base_and_maximal():
    for i in range(10):
        rng = rng_from(505, i)
        candidate = closure_norm(random_base_table(rng, 4)).table()
        inflation = rng.uniform(0.0, 1.0, 1 << 4)
        inflation[0] = 0.0
        base = BaseCostTable(4, tuple((candidate + inflation).tolist()))
        closed = closure_norm(base).table()
        assert np.all(closed <= np.asarray(base.costs) + 1e-12)
        # any norm below the table stays below the closure
        assert np.all(candidate <= closed + 1e-12)


def test_closure_axioms_pass():
    for i in range(5):
        base = random_base_table(rng_from(606, i), 6)
        assert check_norm_axioms(closure_norm(base)).passed


def test_closure_rank_bound():
    base = random_base_table(rng_from(1, 1), 4)
    with pytest.raises(RankTooLargeError):
        closure_norm(base, rank_bound=3)


def test_base_cost_table_validation():
    with pytest.raises(ValueError):
        BaseCostTable(2, (0.0, 1.0, 1.0))  # wrong size
    with pytest.raises(ValueError):
        BaseCostTable(2, (0.0, 1.0, -1.0, 3.0))  # nonpositive entry
    with pytest.raises(ValueError):
        BaseCostTable(2, (1.0, 1.0, 1.0, 3.0))  # nonzero at zero


def test_axiom_checker_flags_raw_table():
    report = check_norm_axioms(table_norm(BaseCostTable(2, (0.0, 1.0, 1.0, 3.0))))
    assert not report.passed
    v = report.violation
    assert v.axiom == "subadditivity"
    assert (v.g, v.h) == ((1,), (2,))
    assert (v.lhs, v.rhs) == (3.0, 2.0)


def test_axiom_checker_flags_zero_and_positivity():
    bad_zero = NormOracle(2, table=np.array([0.5, 1.0, 1.0, 1.0]))
    assert check_norm_axioms(bad_zero).violation.axiom == "zero"
    bad_pos = NormOracle(2, table=np.array([0.0, 1.0, 0.0, 1.0]))
    assert check_norm_axioms(bad_pos).violation.axiom == "positivity"


def test_distance_properties(norm_a):
    g, h = 0b01, 0b10
    assert distance(norm_a, g, g) == 0.0
    w = weighted_oracle(WeightSpec((1.0, 1.0)))
    assert distance(w, 0b01, 0b10) == 2.0


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_distance_is_translation_invariant_metric(g, h, x):
    oracle = weighted_oracle(WeightSpec((0.7, 1.3, 2.9)))
    assert distance(oracle, g, h) == distance(oracle, h, g)
    assert (distance(oracle, g, h) == 0.0) == (g == h)
    assert distance(oracle, x ^ g, x ^ h) == distance(oracle, g, h)
    k = (g ^ h) & 0b101
    assert distance(oracle, g, h) <= distance(oracle, g, g ^ k) + distance(oracle, g ^ k, h) + 1e-12


def test_coordinate_norm_composes(norm_a, norm_a_basis):
    comp = coordinate_norm(norm_a_basis, norm_a)
    # coordinates {1,2} select {1} + {1,2} = {2}, whose norm is 3
    assert comp(0b11) == 3.0
    assert check_norm_axioms(comp).passed


def test_norm_spec_json_round_trip():
    specs = [
        WeightSpec((1.0, 2.5)),
        MetricSpec(((0.0, 1.0, 1.0), (1.0, 0.0, 0.5), (1.0, 0.5, 0.0))),
        BaseCostTable(2, (0.0, 1.0, 3.0, 2.0)),
    ]
    for spec in specs:
        data = json.loads(json.dumps(spec_to_json(spec)))
        assert parse_norm_spec(data) == spec


def test_parse_norm_spec_errors():
    with pytest.raises(ValueError):
        parse_norm_spec({"kind": "nope"})
    with pytest.raises(ValueError):
        parse_norm_spec({"kind": "weighted", "weights": [1.0, -1.0]})
    with pytest.raises(ValueError):
        parse_norm_spec({"kind": "closure", "base": {"1": 1.0, "2": 1.0}})  # {1,2} missing
    with pytest.raises(ValueError):
        parse_norm_spec({"kind": "closure", "base": {"1": 1.0, "2": 1.0, "2,1": 1.0, "1,2": 2.0}})


def test_oracle_for_dispatch():
    assert oracle_for(WeightSpec((1.0,))).kind == "weighted"
    assert oracle_for(MetricSpec(((0.0, 1.0), (1.0, 0.0)))).kind == "graev"
    assert oracle_for(BaseCostTable(1, (0.0, 2.0))).kind == "closure"


def test_restrict_oracle_matches_smaller_family():
    big = weighted_oracle(WeightSpec((1.0, 2.0, 4.0, 8.0)))
    small = weighted_oracle(WeightSpec((1.0, 2.0)))
    restricted = restrict_oracle(big, 2)
    assert restricted.table().tolist() == small.table().tolist()
    with pytest.raises(ValueError):
        restrict_oracle(small, 3)
    assert restrict_oracle(small, 2) is small


def test_oracle_values_vectorized(norm_a):
    masks = np.array([0, 3, 1, 2])
    assert norm_a.values(masks).tolist() == [0.0, 2.0, 1.0, 3.0]
    fn_oracle = weighted_oracle(WeightSpec((1.0, 2.0)))
    assert fn_oracle.values(masks).tolist() == [0.0, 3.0, 1.0, 2.0]


def test_oracle_memo_is_thread_consistent():
    from concurrent.futures import ThreadPoolExecutor

    spec = random_metric_spec(rng_from(91, 0), 8)
    expected = [graev_oracle(spec)(g) for g in range(1 << 8)]
    shared = graev_oracle(spec)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(shared, list(range(1 << 8)) * 4))
    assert results == expected * 4


def full_scan_axioms(table, tol=1e-9):
    """Reference: the subadditivity scan over every ordered pair, row by
    row in mask order; the first (g, h, lhs, rhs) that fails, else None."""
    t = np.asarray(table, dtype=float)
    idx = np.arange(t.size)
    for g in range(t.size):
        lhs = t[idx ^ g]
        rhs = t[g] + t
        bad = lhs > rhs + tol * np.maximum(lhs, rhs)
        if bad.any():
            h = int(np.argmax(bad))
            return support(g), support(h), float(lhs[h]), float(t[g] + t[h])
    return None


def small_metric(rank, edges):
    """Shortest-path metric on points 0..rank from integer edge costs, so
    that pairing costs tie often."""
    m = rank + 1
    d = np.zeros((m, m))
    it = iter(edges)
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = next(it)
    for k in range(m):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MetricSpec(tuple(tuple(float(x) for x in row) for row in d))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subadditivity_upper_triangle_matches_full_scan(data):
    rank = data.draw(st.integers(min_value=1, max_value=5))
    costs = data.draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.0 + 1e-10, 7.25]),
            min_size=(1 << rank) - 1,
            max_size=(1 << rank) - 1,
        )
    )
    table = [0.0] + costs
    report = check_norm_axioms(NormOracle(rank, table=np.array(table)))
    assert report.pairs_checked == 4**rank
    expected = full_scan_axioms(table)
    if expected is None:
        assert report.passed
    else:
        v = report.violation
        assert v.axiom == "subadditivity"
        assert (v.g, v.h, v.lhs, v.rhs) == expected


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_axiom_checker_flags_non_finite_values(bad):
    report = check_norm_axioms(NormOracle(2, table=np.array([0.0, 1.0, bad, 2.0])))
    assert not report.passed
    assert report.violation.axiom == "finite"
    assert report.violation.g == (2,)
    fn_oracle = NormOracle(3, fn=lambda g: bad if g == 5 else float(g.bit_count()))
    assert check_norm_axioms(fn_oracle).violation.g == (1, 3)
    # a non-finite value is reported before a nonpositive one
    both = NormOracle(2, table=np.array([0.0, -1.0, bad, 2.0]))
    assert check_norm_axioms(both).violation.axiom == "finite"


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_weighted_table_equals_scalar_norm(data):
    weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10))
    spec = WeightSpec(tuple(weights))
    expected = [weighted_norm(spec, g) for g in range(1 << spec.rank)]
    assert np.array_equal(weighted_oracle(spec).table(), expected)
    m = data.draw(st.integers(min_value=1, max_value=spec.rank))
    assert np.array_equal(restrict_oracle(weighted_oracle(spec), m).table(), expected[: 1 << m])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_graev_table_equals_scalar_norm(data):
    rank = data.draw(st.integers(min_value=1, max_value=7))
    if data.draw(st.booleans()):
        spec = random_metric_spec(rng_from(data.draw(st.integers(0, 10**6)), 0), rank)
    else:
        n_edges = (rank + 1) * rank // 2
        edges = data.draw(st.lists(st.integers(1, 3), min_size=n_edges, max_size=n_edges))
        spec = small_metric(rank, edges)
    expected = [graev_norm(spec, g) for g in range(1 << rank)]
    assert np.array_equal(graev_oracle(spec).table(), expected)


def per_element_coordinate_values(basis, oracle):
    """Reference: walk the set bits of every coordinate mask."""
    out = []
    for c in range(1 << len(basis.rows)):
        g = 0
        for pos in support(c):
            g ^= basis.rows[pos - 1]
        out.append(oracle(g))
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coordinate_norm_and_restriction_match_per_element(data):
    rank = data.draw(st.integers(min_value=1, max_value=7))
    family = data.draw(st.sampled_from(["weighted", "graev", "closure"]))
    _, oracle = random_norm(rng_from(data.draw(st.integers(0, 10**6)), 1), rank, family)
    m = data.draw(st.integers(min_value=1, max_value=rank))
    restricted = restrict_oracle(oracle, m)
    assert restricted.rank == m
    assert restricted.table().tolist() == [oracle(g) for g in range(1 << m)]
    assert restricted.table().tolist() == NormOracle(m, fn=oracle).table().tolist()

    rows = data.draw(st.lists(st.integers(0, (1 << rank) - 1), min_size=1, max_size=rank))
    triangular = tuple((1 << j) | (r & ((1 << j) - 1)) for j, r in enumerate(rows))
    for basis in (GeneralBasis(tuple(rows)), TriangularBasis(triangular)):
        comp = coordinate_norm(basis, oracle)
        assert comp.rank == len(rows)
        assert comp.table().tolist() == per_element_coordinate_values(basis, oracle)


def test_oracle_builds_only_the_prefix_it_needs():
    spec = WeightSpec(tuple(1.0 + i / 30 for i in range(30)))
    big = weighted_oracle(spec)
    tracemalloc.start()
    try:
        assert restrict_oracle(big, 10).table().size == 1 << 10
        assert big(from_support([2, 9])) == weighted_norm(spec, from_support([2, 9]))
        assert big.values(np.array([0, 1 << 11])).tolist() == [0.0, weighted_norm(spec, 1 << 11)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # far below the 8 GiB of a rank-30 table


def test_few_high_elements_are_evaluated_one_by_one():
    weights = tuple(1.0 + i / 50 for i in range(50))
    metric = MetricSpec(tuple(tuple(float(i != j) for j in range(41)) for i in range(41)))
    calls = []

    def fn(g):
        calls.append(g)
        return float(bin(g).count("1"))

    high = [1 << 49, from_support([3, 47]), from_support([1, 30, 50])]
    tracemalloc.start()
    try:
        weighted = weighted_oracle(WeightSpec(weights))
        for g in high:
            assert weighted(g) == weighted_norm(WeightSpec(weights), g)
        assert weighted.values(np.array(high)).tolist() == [weighted(g) for g in high]
        graev = graev_oracle(metric)
        assert graev(from_support([2, 40])) == graev_norm(metric, from_support([2, 40])) == 1.0
        counted = NormOracle(50, fn=fn)
        assert counted.values(np.array(high)).tolist() == [1.0, 2.0, 3.0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert calls == high
    # a query that fills much of its prefix builds the prefix once
    dense = NormOracle(14, fn=fn)
    assert dense.values(np.arange(1 << 13, 1 << 14)).size == 1 << 13
    assert dense(5) == 2.0 and len(calls) == 3 + (1 << 14)


def test_out_of_rank_and_negative_masks_raise():
    spec = WeightSpec((1.0, 2.0, 3.0))
    oracle = weighted_oracle(spec)
    for g in (1 << 3, -1, -6):
        with pytest.raises(IndexOutOfRankError):
            oracle(g)
        with pytest.raises(IndexOutOfRankError):
            oracle.values(np.array([0, g]))
        with pytest.raises(IndexOutOfRankError):
            weighted_norm(spec, g)
        with pytest.raises(IndexOutOfRankError):
            graev_norm(MetricSpec(((0.0, 1.0), (1.0, 0.0))), g)


def test_dense_table_refuses_more_than_physical_memory():
    huge = weighted_oracle(WeightSpec((1.0,) * 50))
    with pytest.raises(RankTooLargeError):
        huge.table()
    assert huge(from_support([3])) == 1.0
