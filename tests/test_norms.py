import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolnorm import (
    EXHAUSTIVE_RANK_BOUND,
    RELATIVE_TOLERANCE,
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


def label_setting_closure(costs):
    """Reference: the closure pass without the value window or buckets.  It
    finalizes one label at a time and relaxes every part from it.  Both
    passes reach the relaxation's one fixed point, the least left-fold
    rounded sum over the part sequences reaching each element, whatever
    order labels are finalized in, so the tables must match bit for bit."""
    step = np.asarray(costs, dtype=float).copy()
    step[0] = np.inf
    dist = step.copy()
    dist[0] = 0.0
    done = np.zeros(step.size)
    idx = np.arange(step.size)
    with np.errstate(over="ignore"):  # sums past the float range are inf
        for _ in range(step.size):
            u = int((dist + done).argmin())
            done[u] = np.inf
            np.minimum(dist, dist[u] + step[idx ^ u], out=dist)
    return dist


def cost_family(rng, family, count):
    """Positive costs that stress the value window (COST_FAMILIES: ties,
    exact binary fractions and values far below 1) and the rounding in the
    closure proof (PROOF_FAMILIES: also thirds, 600 decades, values whose
    sums overflow, subnormal multiples, an entrywise mix and log-uniform
    values)."""
    if family == "ties":
        return rng.integers(1, 4, count).astype(float)
    if family == "ones":
        return np.ones(count)
    if family == "64ths":
        return rng.integers(1, 257, count) / 64
    if family == "quarters":
        return 0.25 ** rng.integers(0, 8, count)
    if family == "tiny":
        return np.exp(rng.uniform(np.log(1e-310), np.log(1e-290), count))
    if family == "thirds":
        return rng.integers(1, 31, count) / 3
    if family == "wide":
        return np.exp(rng.uniform(np.log(1e-300), np.log(1e300), count))
    if family == "huge":
        return np.finfo(float).max * rng.uniform(0.5, 1.0, count)
    if family == "subnormal":
        return rng.integers(1, 64, count) * 5e-324
    if family == "mixed":
        drawn = np.stack([cost_family(rng, f, count) for f in PROOF_FAMILIES[:5]])
        return drawn[rng.integers(0, 5, count), np.arange(count)]
    return np.exp(rng.uniform(np.log(1e-3), np.log(1e3), count))  # log-uniform


COST_FAMILIES = ["ties", "ones", "64ths", "quarters", "tiny"]
PROOF_FAMILIES = ["ties", "thirds", "wide", "huge", "subnormal", "mixed", "log-uniform"]
ALL_FAMILIES = sorted(set(COST_FAMILIES + PROOF_FAMILIES))


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


def test_closure_keeps_a_candidate_just_below_the_top():
    # {1} + {2} = 2.0 lies a hair under the direct cost 2.001 of {1,2}: a
    # pass that stopped when the cheapest extension came near the top would
    # leave 2.001.
    closed = closure_norm(BaseCostTable(2, (0.0, 1.0, 1.0, 2.001)))
    assert closed(from_support([1, 2])) == 2.0


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


# The least tolerance the closure proof at norms._proved covers up to the
# rank bound.
PROOF_FLOOR = 2.0**-37
# Below, at and above each proof's floor (2^-40 for weighted and graev).
GATE_TOLERANCES = [0.0, 2.0**-41, 2.0**-40, PROOF_FLOOR, RELATIVE_TOLERANCE, 0.25]


def assert_gate_reports_what_the_scan_does(oracle, rank, tol):
    """A builder's oracle, and its restriction to rank generators, give the
    report that the scan of a spec-less copy gives: a proof that passes is
    never taken where the scan would fail."""
    for o in (oracle, restrict_oracle(oracle, rank)):
        scanned = check_norm_axioms(NormOracle(o.rank, table=o.table()), tol=tol)
        assert check_norm_axioms(o, tol=tol) == scanned


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALL_FAMILIES), st.sampled_from(GATE_TOLERANCES))
def test_closure_tables_pass_the_axiom_scan_as_the_proof_says(data, family, tol):
    rank = data.draw(st.integers(min_value=1, max_value=10))
    costs = cost_family(rng_from(data.draw(st.integers(0, 10**6))), family, (1 << rank) - 1)
    oracle = closure_norm(BaseCostTable(rank, np.concatenate([[0.0], costs])))
    assert_gate_reports_what_the_scan_does(oracle, data.draw(st.integers(1, rank)), tol)
    if tol >= PROOF_FLOOR:
        assert check_norm_axioms(oracle, tol=tol).passed


def test_closure_tables_need_the_proof_floor():
    # At tol 0 a closure table can fail by an ulp: t[{2,3,4}] folds its
    # parts in another order than t[{1}] + t[{1,2,3,4}] adds.
    costs = np.array([0, 10, 1, 1, 16, 11, 25, 5, 1, 5, 20, 20, 29, 10, 14, 19]) / 3
    oracle = closure_norm(BaseCostTable(4, costs))
    expected = ((1,), (1, 2, 3, 4), 2.666666666666667, 2.6666666666666665)
    assert axiom_outcome(check_norm_axioms(oracle, tol=0.0)) == (False, expected, 4**4)
    assert check_norm_axioms(oracle, tol=PROOF_FLOOR).passed
    assert check_norm_axioms(NormOracle(4, table=oracle.table()), tol=PROOF_FLOOR).passed


def test_the_closure_proof_covers_the_rank_bound():
    # The proof bounds lhs by rhs ((1 + u) / (1 - u))^(2^n - 1); raising
    # closure_norm's rank cap must not push that factor near the tolerance
    # the CLI gates at.
    u = 2.0**-53
    parts = (1 << EXHAUSTIVE_RANK_BOUND) - 1
    factor = math.expm1(parts * (math.log1p(u) - math.log1p(-u)))
    assert factor < RELATIVE_TOLERANCE / 100
    assert factor < PROOF_FLOOR


# SHA-256 of closure_norm(random_base_table(rng_from(seed, rank), rank))
# table bytes, recorded before the label-setting loop dropped np.where (the
# rank-14 entry before it took the argmin over live labels only) and kept
# through the bucketed pass.  The table is the relaxation's one fixed
# point, whatever order labels are finalized in, so a pass that writes a
# sum no part sequence reaches, or stops short of the fixed point, shows
# here.
CLOSURE_TABLE_SHA256 = {
    (0, 4): "82f9690b59bf07a8031ebc2c2ca9ca4f2b6176abfcfb3075394c26de81b309a5",
    (1, 4): "7ee6878f62ec0bb6d218e18de19a43e2a0b97e6dd06af9cc4eec63f386f0f191",
    (2, 4): "8a289849833ccb350b03d1cb1ab0770844c8ed4a11789f72931b4f3874040d4a",
    (0, 8): "05fae39afc3a67ea45544c1051265b1080f2caa3d0788c87bf3f30826ec8ccc4",
    (1, 8): "f17ce387684c4a203a4530cfd51d586dba2f06408a39ce755a3478bfe5432328",
    (2, 8): "5d3779165c06f552fabed28d1ca4e8cd2ac39cfb4490d1a0c44986940aedcde6",
    (0, 10): "7c130036b1e224cab55cbf50bbde2b29051dc79b9a9c35bc067c5f2fb07e3830",
    (1, 10): "66ebbed38c8273e437cddbae280c9fd42192d5440739141fa4ea22dd6c86cebc",
    (2, 10): "394ae2f6fe6f04ba148f3d49de957d8bd0a98a052bd3db5a28df7faf35eb3330",
    (0, 14): "0c1ae3508f28e20faf773177861f3fdada6b182a71b27c7eb6dbec6f94874e0f",
}


@pytest.mark.parametrize("seed, rank", sorted(CLOSURE_TABLE_SHA256))
def test_closure_tables_are_pinned(seed, rank):
    table = closure_norm(random_base_table(rng_from(seed, rank), rank)).table()
    assert hashlib.sha256(table.tobytes()).hexdigest() == CLOSURE_TABLE_SHA256[seed, rank]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.sampled_from(ALL_FAMILIES),
    st.integers(0, 10**6),
)
def test_closure_matches_the_unwindowed_pass(rank, family, seed):
    costs = np.concatenate([[0.0], cost_family(rng_from(seed), family, (1 << rank) - 1)])
    table = closure_norm(BaseCostTable(rank, tuple(costs.tolist()))).table()
    assert table.tobytes() == label_setting_closure(costs).tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_closure_matches_the_unwindowed_pass_at_rank_12(family):
    # The property above stops at rank 10.  Here the cap of 2**12 candidates
    # cuts doubling chunks short in every family but ones and huge.
    costs = np.concatenate([[0.0], cost_family(rng_from(12), family, (1 << 12) - 1)])
    table = closure_norm(BaseCostTable(12, costs)).table()
    assert table.tobytes() == label_setting_closure(costs).tobytes()


@pytest.mark.parametrize(
    "costs, closed",
    [
        # 1 + 1e-300 rounds to 1: the bucket after {1} holds exactly the
        # labels at the least live value 1, and the pass still ends.
        ([0, 1e-300, 1, 1e300, 1, 1e300, 1e300, 1e300], [0, 1e-300, 1, 1, 1, 1, 2, 2]),
        # The bucket at value 1 holds the labels at 1 and 2.  {1} costs 3
        # but falls to 2 = t[{2,3,4}] + t[{1,2,3,4}] while that bucket
        # relaxes, so a bucket one cheapest part wider would relax {1} at 3
        # and leave {3} at 4, not t[{1}] + t[{1,3}] = 3.
        (
            [0, 3, 4, 5, 5, 1, 2, 3, 3, 4, 3, 3, 1, 3, 1, 1],
            [0, 2, 2, 2, 3, 1, 2, 3, 3, 2, 2, 2, 1, 3, 1, 1],
        ),
    ],
    ids=["cheapest-part-rounds-away", "bucket-ends-one-cheapest-part-up"],
)
def test_closure_buckets_end_one_cheapest_part_above_the_least_value(costs, closed):
    costs = np.array(costs, dtype=float)
    table = closure_norm(BaseCostTable(len(costs).bit_length() - 1, costs)).table()
    assert table.tolist() == closed
    assert table.tobytes() == label_setting_closure(costs).tobytes()


def count_window_ends(monkeypatch):
    """The calls to _window_end: one per closure chunk relaxed and one per
    axiom row scanned."""
    from boolnorm import norms

    calls = []
    window_end = norms._window_end
    monkeypatch.setattr(norms, "_window_end", lambda *a: calls.append(a) or window_end(*a))
    return calls


def test_value_window_skips_most_of_both_kernels(monkeypatch):
    # On a rank-10 closure table both kernels stop early.  The closure
    # relaxes 30 chunks here; one window per label would take 138.  The
    # oracle itself passes by proof, so the scan runs on a spec-less copy.
    calls = count_window_ends(monkeypatch)
    oracle = closure_norm(random_base_table(rng_from(0, 10), 10))
    assert 0 < len(calls) < 1024 // 16
    calls.clear()
    assert check_norm_axioms(oracle).passed
    assert not calls
    assert check_norm_axioms(NormOracle(10, table=oracle.table())).passed
    assert 0 < len(calls) < 1024 // 4


def test_closure_rank_bound():
    # Both 4**n kernels refuse the first rank above the exhaustive bound
    # before doing any work.
    n = EXHAUSTIVE_RANK_BOUND + 1
    base = BaseCostTable(n, (0.0,) + (1.0,) * ((1 << n) - 1))
    with pytest.raises(RankTooLargeError, match=r"closure needs 2\*\*15 labels"):
        closure_norm(base)
    with pytest.raises(RankTooLargeError, match=r"axiom check needs 4\*\*15 pairs"):
        check_norm_axioms(table_norm(base))


def test_base_cost_table_validation():
    with pytest.raises(ValueError):
        BaseCostTable(2, (0.0, 1.0, 1.0))  # wrong size
    with pytest.raises(ValueError):
        BaseCostTable(2, (0.0, 1.0, -1.0, 3.0))  # nonpositive entry
    with pytest.raises(ValueError):
        BaseCostTable(2, (1.0, 1.0, 1.0, 3.0))  # nonzero at zero
    # The first bad entry in mask order is reported, as the per-entry loop did.
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match=r"^cost of \(2,\) must be positive finite, got -1\.0$"):
        BaseCostTable(3, (0, 1, -1, nan, 2, inf, 0, 1))
    with pytest.raises(ValueError, match=r"^cost table needs 8 entries \(index 0 unused\), got 7$"):
        BaseCostTable(3, (0.0,) + (1.0,) * 6)
    with pytest.raises(ValueError, match=r"^costs\[0\] must be 0\.0$"):
        BaseCostTable(3, (0.5,) + (1.0,) * 7)


def test_base_cost_table_holds_a_read_only_copy():
    costs = np.array([0.0, 1.0, 3.0, 2.0])
    base = BaseCostTable(2, costs)
    costs[1] = 9.0
    assert base.costs.dtype == np.float64
    assert base.costs.tolist() == [0.0, 1.0, 3.0, 2.0]
    with pytest.raises(ValueError):
        base.costs[1] = 5.0
    assert np.shares_memory(table_norm(base).table(), base.costs)
    assert BaseCostTable(2, (0, 1, 3, 2)) == base  # tuples are still accepted
    assert parse_norm_spec(json.loads(json.dumps(spec_to_json(base)))) == base
    assert BaseCostTable(2, (0.0, 1.0, 3.0, 2.5)) != base


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
    # The invariant metric a norm induces is d(g, h) = N(g + h).
    g = 0b01
    assert norm_a(g ^ g) == 0.0
    w = weighted_oracle(WeightSpec((1.0, 1.0)))
    assert w(0b01 ^ 0b10) == 2.0


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_distance_is_translation_invariant_metric(g, h, x):
    oracle = weighted_oracle(WeightSpec((0.7, 1.3, 2.9)))

    def d(a, b):
        return oracle(a ^ b)

    assert d(g, h) == d(h, g)
    assert (d(g, h) == 0.0) == (g == h)
    assert d(x ^ g, x ^ h) == d(g, h)
    k = (g ^ h) & 0b101
    assert d(g, h) <= d(g, g ^ k) + d(g ^ k, h) + 1e-12


def test_coordinate_norm_composes(norm_a, norm_a_basis):
    comp = coordinate_norm(norm_a_basis, norm_a)
    # coordinates {1,2} select {1} + {1,2} = {2}, whose norm is 3
    assert comp(0b11) == 3.0
    assert check_norm_axioms(comp).passed


def test_coordinate_norm_refuses_rows_above_generator_63():
    # an int64 element array holds generators 1..63
    oracle = weighted_oracle(WeightSpec(tuple(float(i) for i in range(1, 65))))
    assert coordinate_norm(GeneralBasis((1 << 62,)), oracle)(1) == 63.0
    with pytest.raises(RankTooLargeError, match="generators 1..63, a row reaches generator 64"):
        coordinate_norm(GeneralBasis((1, 1 << 63 | 1)), oracle)


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


def reference_from_mapping(mapping):
    """Reference: BaseCostTable.from_mapping with every key split and sent
    through from_support, as before canonical keys were looked up."""
    bound = len(mapping).bit_length()
    entries = {}
    for key, cost in mapping.items():
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
    return BaseCostTable(rank, costs)


def parse_outcome(parse, mapping):
    try:
        return parse(mapping).costs.tolist()
    except Exception as e:  # the error itself is the outcome compared
        return type(e), str(e)


def respell(indices, rng):
    """A non-canonical key for the same support: indices permuted, padded
    with spaces, leading zeros or "+", and empty parts mixed in."""
    parts = [
        " " * int(rng.integers(3)) + str(rng.choice(["", "0", "00", "+"])) + str(i)
        + " " * int(rng.integers(3))
        for i in rng.permutation(indices).tolist()
    ]
    for _ in range(int(rng.integers(3))):
        parts.insert(int(rng.integers(len(parts) + 1)), str(rng.choice(["", " "])))
    return ",".join(parts)


# Values a spec may hold in place of a float cost, each drawn alone; the
# empty draw leaves every cost a float.
BAD_COSTS = [(), (True,), ("2.5",), (None,), (1,), (10**400,), (np.nan,), (-1.0,), (0.0,)]


@settings(max_examples=100, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shuffled=st.booleans(),
    respelled=st.sampled_from([0.0, 0.1, 1.0]),
    corruption=st.sampled_from([None, "zero", "index zero", "duplicate", "out of rank", "1.5"]),
    bad_cost=st.sampled_from(BAD_COSTS),
)
def test_from_mapping_matches_the_reference_parser(
    rank, seed, shuffled, respelled, corruption, bad_cost
):
    # Unshuffled and unrespelled, the keys come in to_mapping's order.
    rng = np.random.default_rng(seed)
    masks = list(range(1, 1 << rank))
    if shuffled:
        masks = rng.permutation(masks).tolist()
    else:
        respelled = 0.0
    keys = [
        respell(support(m), rng) if rng.random() < respelled else ",".join(map(str, support(m)))
        for m in masks
    ]
    if corruption is not None:
        at = int(rng.integers(len(keys)))
        other = support(masks[(at + 1) % len(masks)])
        keys[at] = {
            "zero": str(rng.choice(["", " ", ",", " , "])),
            "index zero": ",".join(map(str, (0,) + other)),
            "duplicate": ",".join(map(str, other[::-1])) + " ",
            "out of rank": ",".join(map(str, other + (rank + 1 + int(rng.integers(3)),))),
            "1.5": "1.5",
        }[corruption]
    costs = rng.uniform(0.25, 4.0, len(keys)).tolist()
    for cost in bad_cost:
        costs[int(rng.integers(len(costs)))] = cost
    # A corrupted key can coincide with another; both parsers then see
    # the same shorter mapping.
    mapping = dict(zip(keys, costs))
    want = parse_outcome(reference_from_mapping, mapping)
    assert parse_outcome(BaseCostTable.from_mapping, mapping) == want
    if corruption is None and not bad_cost:  # every key names its mask, however spelled
        assert want == [0.0] + [c for _, c in sorted(zip(masks, costs))]


def reference_numbers(values, what):
    """Reference: parse_norm_spec's check that a spec holds JSON numbers,
    value by value, as before float lists were read in one pass."""
    values = tuple(values)
    for x in values:
        if isinstance(x, (bool, str)):
            raise TypeError(f"{what} must be a number, got {x!r}")
        try:
            float(x)
        except OverflowError:
            raise ValueError(
                f"{what} must fit in a float, got an integer of {len(str(abs(x)))} digits"
            ) from None
    return values


def reference_closure_spec(data):
    reference_numbers(data["base"].values(), "cost")
    return reference_from_mapping(data["base"])


@settings(max_examples=60, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bad_cost=st.sampled_from(BAD_COSTS),
)
def test_canonical_closure_spec_reads_as_the_two_pass_reference(rank, seed, bad_cost):
    rng = np.random.default_rng(seed)
    data = spec_to_json(random_base_table(rng, rank))
    keys = list(data["base"])
    for cost in bad_cost:
        data["base"][keys[int(rng.integers(len(keys)))]] = cost
    want = parse_outcome(reference_closure_spec, data)
    assert parse_outcome(parse_norm_spec, data) == want
    if not bad_cost:
        assert want == [0.0, *data["base"].values()]


def test_to_mapping_writes_each_support_in_mask_order():
    from boolnorm.norms import _support_keys

    assert _support_keys(0) == [""]
    for rank in range(1, 11):
        assert len(_support_keys(rank)) == 2**rank
        base = random_base_table(rng_from(31, rank), rank)
        want = [
            (",".join(map(str, support(mask))), base.costs.item(mask)) for mask in range(1, 1 << rank)
        ]
        assert list(base.to_mapping().items()) == want


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


def axiom_outcome(report):
    """(passed, (g, h, lhs, rhs) or None, pairs_checked) of a report."""
    v = report.violation
    if v is not None:
        assert v.axiom == "subadditivity"
    found = None if v is None else (v.g, v.h, v.lhs, v.rhs)
    return report.passed, found, report.pairs_checked


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["closure", "graev", "weighted", "raw", "raw-ties"]),
    st.sampled_from(COST_FAMILIES),
    st.sampled_from([0.0, 1e-9, 0.25]),
    st.integers(0, 10**6),
)
def test_axiom_scan_matches_the_full_scan(rank, kind, family, tol, seed):
    rng = rng_from(seed)
    if kind in ("graev", "weighted"):
        table = random_norm(rng, rank, kind)[1].table()
    elif kind == "raw":  # not subadditive, fails at many pairs
        table = np.concatenate([[0.0], rng.uniform(0.1, 3.0, (1 << rank) - 1)])
    else:
        table = np.concatenate([[0.0], cost_family(rng, family, (1 << rank) - 1)])
        if kind == "closure":
            table = closure_norm(BaseCostTable(rank, tuple(table.tolist()))).table()
    expected = full_scan_axioms(table, tol)
    report = check_norm_axioms(NormOracle(rank, table=table), tol=tol)
    assert axiom_outcome(report) == (expected is None, expected, 4**rank)


def test_axiom_scan_reports_the_first_violation_in_mask_order():
    # Two violations: {1},{2} (4 > 2 + 1) comes first in mask order, while
    # {2},{3} (3 > 1 + 1) holds the two smallest values, so a walk in
    # ascending value order meets it first.
    table = np.array([0.0, 2.0, 1.0, 4.0, 1.0, 3.0, 3.0, 4.0])
    assert table[2 ^ 4] > table[2] + table[4]
    expected = ((1,), (2,), 4.0, 3.0)
    assert full_scan_axioms(table) == expected
    report = check_norm_axioms(NormOracle(3, table=table))
    assert axiom_outcome(report) == (False, expected, 4**3)


def test_value_window_keeps_a_part_that_rounds_below_the_top():
    # x = top - base rounded; base + x rounds one ulp below top, so a
    # window cut at the first value >= top - base would skip x.
    from boolnorm.norms import _window_end

    base, top = 1.0769262873648544, 6.208606402247557
    x = top - base
    assert base + x < top
    assert _window_end(np.array([base, x, top, np.inf]), base, top) == 2
    costs = np.array([0.0, base, x, top])
    closed = closure_norm(BaseCostTable(2, tuple(costs.tolist()))).table()
    assert closed.tobytes() == label_setting_closure(costs).tobytes()
    assert closed[3] == base + x
    report = check_norm_axioms(NormOracle(2, table=costs), tol=0.0)
    assert axiom_outcome(report) == (False, ((1,), (2,), top, base + x), 16)


def test_value_window_sums_past_the_float_range_stay_quiet():
    # 1e308 + 1e308 overflows to inf, which is at or above any top: both
    # kernels cut the window there without a numpy overflow warning.
    costs = (0.0, 1e308, 1e308, 1.5e308)
    assert closure_norm(BaseCostTable(2, costs)).table().tolist() == list(costs)
    assert check_norm_axioms(NormOracle(2, table=np.array(costs)), tol=0.0).passed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(min_value=0, max_value=12))
def test_value_window_end_covers_every_sum_below_the_top(seed, count):
    # Each array holds top - base rounded: in about one case in 200 its
    # rounded sum with base still falls below top.
    from boolnorm.norms import _window_end

    rng = rng_from(seed)
    for base, top in np.sort(rng.uniform(0.0, 8.0, (100, 2)), axis=1):
        ascending = np.sort(np.append(rng.uniform(0.0, 8.0, count), top - base))
        j = _window_end(ascending, base, top)
        assert np.all(base + ascending[j:] >= top)


@pytest.mark.parametrize("tol", [-0.1, -1e-9, float("nan")])
def test_axiom_checker_refuses_a_negative_tolerance(tol):
    # With tol < 0 an equal pair exceeds: 2.0 > 2.0 - 0.1 * 2.0.
    oracle = NormOracle(2, table=np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="tol must be a nonnegative real"):
        check_norm_axioms(oracle, tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_axiom_checker_flags_non_finite_values(bad):
    report = check_norm_axioms(NormOracle(2, table=np.array([0.0, 1.0, bad, 2.0])))
    assert not report.passed
    assert report.violation.axiom == "finite"
    assert report.violation.g == (2,)
    popcounts = NormOracle(3, table=[0.0, 1.0, 1.0, 2.0, 1.0, bad, 2.0, 3.0])
    assert check_norm_axioms(popcounts).violation.g == (1, 3)
    # a non-finite value is reported before a nonpositive one
    both = NormOracle(2, table=np.array([0.0, -1.0, bad, 2.0]))
    assert check_norm_axioms(both).violation.axiom == "finite"


# Positive weights from the subnormals up to totals near the float maximum,
# and totals past it, which the finite check refuses before any shortcut.
positive_weights = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e300, max_value=np.finfo(float).max),
    st.floats(min_value=5e-324, max_value=np.finfo(float).max),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(positive_weights, min_size=1, max_size=10),
        st.builds(
            lambda rank, family, seed: cost_family(rng_from(seed), family, rank).tolist(),
            st.integers(min_value=1, max_value=10),
            st.sampled_from(ALL_FAMILIES),
            st.integers(0, 10**6),
        ),
    ),
    st.sampled_from(GATE_TOLERANCES),
    st.data(),
)
def test_weighted_shortcut_reports_what_the_full_scan_does(weights, tol, data):
    # A weighted oracle passes the gate by its spec's proof from 2^-40 up:
    # its report, and its restriction's, must be what the scan gives.
    oracle = weighted_oracle(WeightSpec(weights))
    assert_gate_reports_what_the_scan_does(oracle, data.draw(st.integers(1, len(weights))), tol)


def test_weighted_tables_below_the_shortcut_tolerance_are_scanned(monkeypatch):
    # At tol = 0 the ascending sums differ by an ulp: 0.7 + 1.1 + 0.1 rounds
    # above 1.1 + (0.7 + 0.1).
    rows = count_window_ends(monkeypatch)
    oracle = weighted_oracle(WeightSpec((0.7, 1 / 3, 1.1, 0.1)))
    expected = ((3,), (1, 4), 1.9000000000000001, 1.9)
    assert full_scan_axioms(oracle.table(), 0.0) == expected
    assert axiom_outcome(check_norm_axioms(oracle, tol=0.0)) == (False, expected, 4**4)
    assert rows
    rows.clear()
    assert check_norm_axioms(oracle, tol=np.nextafter(2.0**-40, 0.0)).passed
    assert rows
    rows.clear()
    assert check_norm_axioms(oracle, tol=2.0**-40).passed
    assert not rows


def test_a_weighted_table_with_one_raised_entry_is_scanned(monkeypatch):
    # Only {1,2} is raised, so the top entry still equals the sum of the
    # singletons; the copy carries no spec, so the scan finds the raise.
    rows = count_window_ends(monkeypatch)
    table = weighted_oracle(WeightSpec((1.0, 2.0, 4.0))).table().copy()
    table[0b011] = 3.0 * (1 + 1e-8)
    report = check_norm_axioms(NormOracle(3, table=table))
    assert rows
    assert axiom_outcome(report) == (False, ((1,), (2,), table[0b011], 3.0), 4**3)
    # raised within the tolerance, the scan passes it
    table[0b011] = np.nextafter(3.0, 4.0)
    assert check_norm_axioms(NormOracle(3, table=table)).passed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.booleans(),
    st.integers(0, 10**6),
    st.sampled_from(GATE_TOLERANCES),
    st.data(),
)
def test_graev_shortcut_reports_what_the_full_scan_does(rank, ties, seed, tol, data):
    # A graev oracle passes the gate by its spec's proof from 2^-40 up: its
    # report, and its restriction's, must be what the scan gives, on
    # log-uniform metrics and on integer ones whose pairings tie often.
    rng = rng_from(seed)
    if ties:
        spec = small_metric(rank, rng.integers(1, 4, (rank + 1) * rank // 2).tolist())
    else:
        spec = random_metric_spec(rng, rank)
    assert_gate_reports_what_the_scan_does(graev_oracle(spec), data.draw(st.integers(1, rank)), tol)


def test_graev_tables_pass_without_a_scan_only_from_the_shortcut_tolerance(monkeypatch):
    rows = count_window_ends(monkeypatch)
    graev = graev_oracle(random_metric_spec(rng_from(3, 0), 10))
    assert check_norm_axioms(graev, tol=2.0**-40).passed
    assert not rows
    assert check_norm_axioms(graev, tol=2.0**-41).passed
    assert rows
    rows.clear()
    # the same table without its spec is scanned
    assert check_norm_axioms(NormOracle(10, table=graev.table()), tol=2.0**-40).passed
    assert rows


def test_admitted_triangle_slack_is_scanned_and_can_fail_the_gate(monkeypatch, slack_dist):
    # The table is the graev table of its own metric, whose triangles are
    # loose by 0.9e-9: a shortcut that allowed that slack would pass it.
    rows = count_window_ends(monkeypatch)
    oracle = graev_oracle(MetricSpec(slack_dist))
    report = check_norm_axioms(oracle, tol=1e-9)
    assert rows
    expected = ((2, 3), (1, 2, 3, 4), 1.0000000017991002, 1.0)
    assert full_scan_axioms(oracle.table(), 1e-9) == expected
    assert axiom_outcome(report) == (False, expected, 4**4)


def test_a_graev_table_with_one_raised_entry_is_scanned(monkeypatch):
    # {1,2,5} is no distance of the metric; the copy carries no spec, so
    # the scan finds the raise.
    rows = count_window_ends(monkeypatch)
    table = graev_oracle(small_metric(5, [2] * 15)).table().copy()
    table[0b10011] *= 1 + 1e-8
    report = check_norm_axioms(NormOracle(5, table=table))
    assert rows
    assert not report.passed
    assert report.violation.lhs == table[0b10011]


def test_an_oracle_takes_a_table_or_a_spec_never_both():
    # check_norm_axioms passes an oracle with a spec by the spec's proof.
    # This table fails the scan, t[{2}] = 5 > t[{1}] + t[{1,2}] = 2, while
    # the proof for the weights holds: with both, the table would pass.
    table, spec = [0.0, 1.0, 5.0, 1.0], WeightSpec((1.0, 1.0))
    assert check_norm_axioms(NormOracle(2, table=table)).violation.axiom == "subadditivity"
    assert check_norm_axioms(NormOracle(2, spec=spec)).passed
    with pytest.raises(ValueError, match="exactly one of table or spec is required"):
        NormOracle(2, table=table, spec=spec)
    with pytest.raises(ValueError, match="exactly one of table or spec is required"):
        NormOracle(2)
    with pytest.raises(ValueError, match="a rank-2 spec cannot give a rank-3 oracle"):
        NormOracle(3, spec=spec)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        NormOracle(0, table=[0.0])
    with pytest.raises(ValueError, match=r"table must have 2\*\*2 entries"):
        NormOracle(2, table=[0.0, 1.0, 1.0])


def test_a_closure_prefix_reads_parts_above_it(monkeypatch):
    # {1} costs 5 alone but 2 as {2} + {1,2}: the closure on generator 1
    # is read off the closure on both, not taken of the cost of {1}.
    import boolnorm.norms as norms

    base = BaseCostTable(2, (0.0, 5.0, 1.0, 1.0))
    assert NormOracle(1, spec=base).table().tolist() == [0.0, 2.0]
    relaxed, closure_table = [], norms._closure_table
    monkeypatch.setattr(norms, "_closure_table", lambda b: relaxed.append(b) or closure_table(b))
    restricted = restrict_oracle(closure_norm(base), 1)
    assert restricted.spec == base and restricted.table().tolist() == [0.0, 2.0]
    assert check_norm_axioms(restricted).passed
    assert len(relaxed) == 1  # the restriction takes its parent's table


def test_a_closure_oracle_relaxes_its_closure_once(monkeypatch):
    # A query of one element builds the whole closure, so the full table
    # that follows reads it and relaxes nothing again.
    import boolnorm.norms as norms

    base = random_base_table(rng_from(41, 0), 3)
    relaxed, closure_table = [], norms._closure_table
    monkeypatch.setattr(norms, "_closure_table", lambda b: relaxed.append(b) or closure_table(b))
    oracle = NormOracle(3, spec=base)
    assert oracle(1) == oracle.table()[1]
    assert oracle.table().tolist() == closure_table(base).tolist()
    assert len(relaxed) == 1


def test_a_closure_oracle_keeps_no_value_above_its_rank():
    # The whole rank-2 closure is relaxed, but the rank-1 oracle holds only
    # its own two entries, so a lookup above them still checks the rank.
    oracle = NormOracle(1, spec=BaseCostTable(2, (0.0, 5.0, 1.0, 1.0)))
    with pytest.raises(IndexOutOfRankError):
        oracle(2)
    assert oracle(1) == 2.0
    with pytest.raises(IndexOutOfRankError):
        oracle(2)


SPECS = [
    WeightSpec((1.0, 1.0)),
    MetricSpec(((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0))),
    BaseCostTable(2, (0.0, 1.0, 1.0, 1.5)),
]


@pytest.mark.parametrize("spec", SPECS, ids=["weighted", "graev", "closure"])
def test_an_oracle_reads_its_kind_off_its_spec(spec):
    assert NormOracle(2, spec=spec).kind == type(spec).kind
    assert oracle_for(parse_norm_spec(spec_to_json(spec))).kind == type(spec).kind
    assert spec_to_json(spec)["kind"] == type(spec).kind


def test_an_oracle_built_from_a_table_reads_table():
    oracle = table_norm(BaseCostTable(2, (0.0, 1.0, 1.0, 1.5)))
    assert oracle.kind == "table"
    assert restrict_oracle(oracle, 1).kind == "table"
    basis = GeneralBasis((0b01, 0b11))
    assert coordinate_norm(basis, oracle).kind == "table"
    assert coordinate_norm(basis, weighted_oracle(SPECS[0])).kind == "table"


def test_builders_hand_out_read_only_tables():
    # The gate trusts a builder's table to be the one its spec built.
    oracles = [
        weighted_oracle(WeightSpec((1.0, 2.0, 4.0))),
        graev_oracle(small_metric(3, [2] * 6)),
        closure_norm(BaseCostTable(3, (0.0, 1.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0))),
    ]
    for oracle in oracles:
        for table in (restrict_oracle(oracle, 2).table(), oracle.table()):
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0.5


def test_acceptance_1_instances_pass_the_scan_without_their_specs():
    # Acceptance 1 passes its builders' oracles by proof; the scan still
    # covers every one of its 300 tables through a spec-less copy.
    for family_index, family in enumerate(("weighted", "graev", "closure")):
        for i in range(100):
            _, oracle = random_norm(rng_from(811, family_index, i), 8, family)
            report = check_norm_axioms(NormOracle(8, table=oracle.table()))
            assert (report.passed, report.pairs_checked) == (True, 4**8), (family, i)


def test_a_metric_an_ulp_above_its_basepoint_route_passes_by_proof(monkeypatch):
    # d(i,j) is an ulp above fl(d(i,0) + d(j,0)) for some pair, so the table
    # holds the basepoint route's sum there, not d(i,j).  A metric read back
    # from the table differs from the spec's; the proof reads the spec's.
    spec = random_metric_spec(rng_from(12, 1), 20)
    oracle = restrict_oracle(graev_oracle(spec), EXHAUSTIVE_RANK_BOUND)
    table = oracle.table()
    pairs = [(i, j) for i in range(1, 15) for j in range(i + 1, 15)]
    assert any(table[(1 << i - 1) | (1 << j - 1)] < spec.dist[i][j] for i, j in pairs)
    rows = count_window_ends(monkeypatch)
    assert check_norm_axioms(oracle).passed
    assert not rows
    assert check_norm_axioms(NormOracle(EXHAUSTIVE_RANK_BOUND, table=table)).passed
    assert rows


def test_metric_spec_admits_distance_sums_past_the_float_range():
    # 1e308 + 1e308 overflows to inf, a bound no distance exceeds; a real
    # failure among huge distances is still reported.
    MetricSpec([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]])
    with pytest.raises(ValueError, match=r"fails at \(1,0,2\)"):
        MetricSpec([[0.0, 1e307, 1e307], [1e307, 0.0, 1.7e308], [1e307, 1.7e308, 0.0]])


def reference_triangle_failure(a, tol):
    """One exceeds pass per row i over every (j, k)."""
    from boolnorm.norms import exceeds

    m = len(a)
    for i in range(m):
        with np.errstate(over="ignore"):
            bound = a[i][:, None] + a  # [j, k]: d(i,j) + d(j,k)
        bad = exceeds(a[i], bound, tol) & (bound < np.inf)
        if bad.any():
            j, k = divmod(int(np.argmax(bad)), m)
            return i, j, k
    return None


def reference_metric_message(dist):
    """The message MetricSpec raises for a square matrix of floats, or None,
    from entry-by-entry loops in row-major order."""
    d, m = dist, len(dist)
    for i in range(m):
        if d[i][i] != 0.0:
            return f"dist({i},{i}) must be 0"
        for j in range(m):
            x = d[i][j]
            if not math.isfinite(x) or x < 0.0:
                return f"dist({i},{j}) must be a finite nonnegative real"
            if i != j and x == 0.0:
                return f"dist({i},{j}) must be positive off the diagonal"
            if x != d[j][i]:
                return f"dist({i},{j}) != dist({j},{i})"
    failure = reference_triangle_failure(np.array(d), RELATIVE_TOLERANCE)
    if failure is not None:
        i, j, k = failure
        return f"triangle inequality fails at ({i},{j},{k}): {d[i][k]} > {d[i][j]} + {d[j][k]}"
    return None


def draw_metric_matrix(data):
    """A 2-8 point matrix: symmetric with a zero diagonal, then a few entries
    overwritten (one side only, or on the diagonal) or moved by an ulp.
    Values come from a tight metric range, small quarters that often break
    the triangle inequality, huge values whose sums overflow, and entries
    that fail validation (NaN, inf, -1, 0)."""
    m = data.draw(st.integers(min_value=2, max_value=8))
    value = data.draw(
        st.sampled_from(
            [
                st.integers(min_value=4, max_value=8).map(lambda k: k / 4),
                st.integers(min_value=1, max_value=8).map(lambda k: k / 4),
                st.sampled_from([1e308, 1.7e308, 1.0]),
            ]
        )
    )
    special = st.sampled_from([math.nan, math.inf, -1.0, 0.0, -0.0, 1.0, 1e308, 1.7e308])
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = data.draw(value)
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    for (i, j), how in data.draw(
        st.lists(st.tuples(cell, st.sampled_from(["special", "up", "down"])), max_size=3)
    ):
        if how == "special":
            d[i, j] = data.draw(special)
        else:
            d[i, j] = np.nextafter(d[i, j], math.inf if how == "up" else -math.inf)
    return d.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_metric_validation_matches_the_entry_by_entry_reference(data):
    """Same exception and message as the reference, and the same first
    triangle at three tolerances, with blocks of rows that split a 2-8
    point matrix anywhere (a chunk of 1, 40 or 100 triples) or not at all."""
    from boolnorm import norms

    dist = draw_metric_matrix(data)
    want = reference_metric_message(dist)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_CHUNK", data.draw(st.sampled_from([1, 40, 100, norms._CHUNK])))
        if want is None:
            assert MetricSpec(dist).dist == tuple(map(tuple, dist))
        else:
            with pytest.raises(ValueError) as info:
                MetricSpec(dist)
            assert type(info.value) is ValueError and str(info.value) == want
        a = np.array(dist)
        for tol in (0.0, 1e-9, 2.0**-50):
            assert norms._triangle_failure(a, tol) == reference_triangle_failure(a, tol), tol


def test_triangle_check_of_a_large_metric_holds_no_more_than_one_row():
    """At 100 points a block is a single row, so the blocked scan's
    tracemalloc peak stays at the per-row reference's: the same 80 KB
    buffers, give or take the few bytes of the longer shape records of
    3-D arrays."""
    from boolnorm.norms import _CHUNK, _triangle_failure

    rng = np.random.default_rng(24)
    m = 100
    assert _CHUNK // (m * m) == 0
    d = 1.0 + rng.random((m, m))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    peaks = []
    for scan in (reference_triangle_failure, _triangle_failure):
        tracemalloc.start()
        try:
            assert scan(d, RELATIVE_TOLERANCE) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 1024, peaks


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


def graev_table_reference(dist, m):
    """The graev table built with a strided view of the remainders at each
    level and bit 1 through a (-1, 2, 2) view: the layout _graev_table had
    before its copy and stride-4 split, kept to test them against."""
    t = np.zeros(1 << m)
    with np.errstate(over="ignore"):
        for i in range(m, 0, -1):
            step = 1 << i
            rest = t[::step]
            best = dist[i][0] + rest
            for p in range(m - i):
                pairs = rest.reshape(-1, 2, 1 << p)[:, 0, :]
                with_j = best.reshape(-1, 2, 1 << p)[:, 1, :]
                np.minimum(with_j, dist[i][i + 1 + p] + pairs, out=with_j)
            t[step >> 1 :: step] = best
    return t


def huge_metric(rank, edges):
    """small_metric of edge costs near the top of the float range: path
    sums past it are inf, as MetricSpec admits."""
    with np.errstate(over="ignore"):
        return small_metric(rank, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "ties", "huge"]),
    st.integers(min_value=1, max_value=14),
    st.integers(0, 10**6),
)
@example("random", 1, 0)  # ranks 1 and 2 never reach the bit-1 split, 3 does
@example("ties", 2, 0)
@example("huge", 3, 0)
def test_graev_table_matches_the_strided_reference_bit_for_bit(kind, m, seed):
    from boolnorm.norms import _graev_table

    rng = rng_from(seed)
    n_edges = (m + 1) * m // 2
    if kind == "random":
        spec = random_metric_spec(rng, m)
    elif kind == "ties":
        spec = small_metric(m, rng.integers(1, 4, n_edges).tolist())
    else:
        spec = huge_metric(m, rng.choice([1e307, 1.7e308], n_edges).tolist())
    table = _graev_table(spec.dist, m)
    assert table.tobytes() == graev_table_reference(spec.dist, m).tobytes()


def test_graev_sums_past_the_float_range_stay_inf_quietly():
    from boolnorm.norms import _graev_table

    # every pairing of three or more letters sums two 1.7e308 distances
    spec = huge_metric(4, [1.7e308] * 10)
    table = _graev_table(spec.dist, 4)
    assert np.array_equal(np.isinf(table), [bin(g).count("1") >= 3 for g in range(16)])
    assert table.tobytes() == graev_table_reference(spec.dist, 4).tobytes()


# SHA-256 of graev_oracle(random_metric_spec(rng_from(0, 20, 1, i), 20))
# table bytes, the three graev specs the rank-20 reduce benchmark draws at
# seed 0, recorded before the build copied each level's remainders and split
# bit 1 into stride-4 passes.
GRAEV_TABLE_SHA256 = {
    0: "d4c14e7e953f7d7eed7813908657ed49703036887dbd2f7d3e02e6b9714aef6e",
    1: "35445a571bff22b15a09a55d816c60d49bb3ae298f3a2c5fa5a8bd7b20a1a7a6",
    2: "4ba74a47589224a13c30b291a946689ef0f1f32364a65d14d311fd4f96909d3a",
}


@pytest.mark.parametrize("i", sorted(GRAEV_TABLE_SHA256))
def test_rank_20_graev_tables_are_pinned(i):
    table = graev_oracle(random_metric_spec(rng_from(0, 20, 1, i), 20)).table()
    assert hashlib.sha256(table.tobytes()).hexdigest() == GRAEV_TABLE_SHA256[i]


def test_graev_build_peak_stays_within_three_tables():
    # the copy of each level's remainders adds one half-size array at most
    from boolnorm.norms import _graev_table

    spec = random_metric_spec(rng_from(0, 16), 16)
    tracemalloc.start()
    try:
        table = _graev_table(spec.dist, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


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


def test_few_high_elements_are_evaluated_one_by_one(monkeypatch):
    import boolnorm.norms as norms

    spec = WeightSpec(tuple(1.0 + i / 50 for i in range(50)))
    metric = MetricSpec(tuple(tuple(float(i != j) for j in range(41)) for i in range(41)))
    calls, builds = [], []
    scalar, build = norms.weighted_norm, norms._weighted_table
    monkeypatch.setattr(norms, "weighted_norm", lambda s, g: calls.append(g) or scalar(s, g))
    monkeypatch.setattr(norms, "_weighted_table", lambda w, m: builds.append(m) or build(w, m))

    high = [1 << 49, from_support([3, 47]), from_support([1, 30, 50])]
    tracemalloc.start()
    try:
        weighted = weighted_oracle(spec)
        for g in high:
            assert weighted(g) == scalar(spec, g)
        assert weighted.values(np.array(high)).tolist() == [scalar(spec, g) for g in high]
        graev = graev_oracle(metric)
        assert graev(from_support([2, 40])) == graev_norm(metric, from_support([2, 40])) == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert calls == high + high and builds == []
    # a query that fills much of its prefix builds the prefix once
    dense = np.arange(1 << 13, 1 << 14)
    assert weighted.values(dense).tolist() == [scalar(spec, g) for g in dense.tolist()]
    assert weighted(5) == scalar(spec, 5)
    assert builds == [14] and calls == high + high


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


def test_physical_memory_is_read_once_per_process(monkeypatch):
    import os

    spec = random_metric_spec(rng_from(3), 3)
    g = from_support([1, 2, 3])
    value = graev_norm(spec, g)
    calls, sysconf = [], os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: calls.append(name) or sysconf(name))
    assert all(graev_norm(spec, g) == value for _ in range(1000))
    assert calls == []


def test_dense_table_refuses_more_than_physical_memory():
    huge = weighted_oracle(WeightSpec((1.0,) * 50))
    with pytest.raises(RankTooLargeError):
        huge.table()
    assert huge(from_support([3])) == 1.0


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["weighted", "random", "ties", "huge", "drawn"]))
def test_a_certified_spec_passes_the_axiom_scan(data, kind):
    # The gate certifies a spec above its gated rank without the table;
    # every spec it certifies must pass the spec-less scan at the gate's
    # tolerance.  A weighted spec is certified exactly when its table is
    # finite.
    from boolnorm.norms import _spec_certified

    if kind == "weighted":
        weights = data.draw(st.lists(positive_weights, min_size=1, max_size=10))
        oracle = weighted_oracle(WeightSpec(weights))
    elif kind == "drawn":
        try:
            spec = MetricSpec(draw_metric_matrix(data))
        except ValueError:
            return
        oracle = graev_oracle(spec)
    else:
        rank = data.draw(st.integers(min_value=1, max_value=8))
        rng = rng_from(data.draw(st.integers(0, 10**6)))
        edges = (rank + 1) * rank // 2
        if kind == "random":
            spec = random_metric_spec(rng, rank)
        elif kind == "ties":
            spec = small_metric(rank, rng.integers(1, 4, edges).tolist())
        else:
            spec = huge_metric(rank, rng.choice([1e307, 1e308, 1.7e308], edges).tolist())
        oracle = graev_oracle(spec)
    table = oracle.table()
    certified = _spec_certified(oracle.spec)
    if certified:
        assert check_norm_axioms(NormOracle(oracle.rank, table=table)).passed
    if kind == "weighted":
        assert certified == bool(np.isfinite(table).all())
    # a restriction keeps its spec, and the certificate speaks for the spec
    assert _spec_certified(restrict_oracle(oracle, 1).spec) == certified
    assert not _spec_certified(NormOracle(oracle.rank, table=table).spec)


def test_the_certificate_refuses_a_metric_with_admitted_slack(slack_dist):
    from boolnorm.norms import _spec_certified

    assert not _spec_certified(MetricSpec(slack_dist))
    assert _spec_certified(BaseCostTable(2, (0.0, 1.0, 3.0, 2.0)))
