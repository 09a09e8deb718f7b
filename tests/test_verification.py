import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    NormOracle,
    StratumRangeError,
    check_closedness,
    check_discreteness,
    check_geometric_bound,
    check_monotone_tail,
    check_null_tail,
    merge_reports,
    min_separation,
    reduce_basis,
    separation_epsilon,
    worst_geometric_ratio,
)
from boolnorm.instances import random_norm, rng_from


def conforming_instances(rank, count, seed):
    for i in range(count):
        rng = rng_from(seed, i)
        family = ("weighted", "graev", "closure")[i % 3]
        _, oracle = random_norm(rng, rank, family)
        yield oracle, reduce_basis(oracle, rank)


def test_monotone_tail_positive(norm_a, norm_a_basis):
    report = check_monotone_tail(norm_a_basis, norm_a)
    assert report.passed
    assert report.checked == 3  # 2**2 - 1 coordinate sets


def test_monotone_tail_negative_control(bad_oracle, bad_basis):
    report = check_monotone_tail(bad_basis, bad_oracle)
    assert not report.passed
    assert [v.to_json() for v in report.violations] == [
        {"witness": {"set": [1, 2]}, "lhs": 5.0, "rhs": 2.0}
    ]


def test_geometric_bound_positive(norm_a, norm_a_basis):
    report = check_geometric_bound(norm_a_basis, norm_a)
    assert report.passed
    assert report.checked == 2 * 2 ** (2 - 1)  # sum of word lengths


def test_geometric_bound_negative_control(bad_oracle, bad_basis):
    report = check_geometric_bound(bad_basis, bad_oracle)
    assert not report.passed
    first = report.violations[0].to_json()
    assert first == {"witness": {"word": [1, 2], "k": 0}, "lhs": 5.0, "rhs": 2.0}


def test_separation_epsilon_examples(norm_a, norm_a_basis):
    assert separation_epsilon((1, 2), norm_a_basis, norm_a) == pytest.approx(1 / 16)
    assert separation_epsilon((2,), norm_a_basis, norm_a) == pytest.approx(2.0 / 4)
    with pytest.raises(ValueError):
        separation_epsilon((), norm_a_basis, norm_a)


def test_separation_epsilon_scales_with_norm(norm_a, norm_a_basis):
    scaled = NormOracle(2, table=3.0 * norm_a.table())
    for coord_set in ((1,), (2,), (1, 2)):
        assert separation_epsilon(coord_set, norm_a_basis, scaled) == pytest.approx(
            3.0 * separation_epsilon(coord_set, norm_a_basis, norm_a)
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_separation_epsilon_monotone_under_enlargement(data):
    """Adding a letter never increases the radius while the cheapest letter
    norm stays the same (the 4**n divisor only grows)."""
    oracle, basis = next(conforming_instances(6, 1, 940))
    subset = data.draw(st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    extra = data.draw(st.sampled_from([j for j in range(1, 7) if j not in subset]))
    bigger = subset | {extra}
    cheapest = lambda s: min(oracle(basis.rows[i - 1]) for i in s)  # noqa: E731
    if cheapest(subset) == cheapest(bigger):
        assert separation_epsilon(sorted(bigger), basis, oracle) <= separation_epsilon(
            sorted(subset), basis, oracle
        )


def test_discreteness_norm_a(norm_a, norm_a_basis):
    report = check_discreteness(norm_a_basis, norm_a, 1)
    assert report.passed
    assert report.checked == 2
    singleton = check_discreteness(norm_a_basis, norm_a, 2)
    assert singleton.passed and singleton.checked == 0


def test_discreteness_pair_counts():
    oracle, basis = next(conforming_instances(6, 1, 901))
    for n in range(7):
        s = math.comb(6, n)
        assert check_discreteness(basis, oracle, n).checked == s * (s - 1)


def test_closedness_norm_a(norm_a, norm_a_basis):
    report = check_closedness(norm_a_basis, norm_a, 2)
    assert report.passed
    assert report.checked == 1 * 3  # one length-2 word, three shorter words
    assert check_closedness(norm_a_basis, norm_a, 0).checked == 0


def test_null_tail_examples(norm_a, norm_a_basis, bad_oracle, bad_basis):
    assert check_null_tail(norm_a_basis, norm_a, (1, 2)).passed
    assert check_null_tail(norm_a_basis, norm_a, (2,)).passed  # vacuous
    report = check_null_tail(bad_basis, bad_oracle, (1, 2))
    assert not report.passed
    assert report.violations[0].to_json() == {"witness": {"i": 1, "j": 2}, "lhs": 5.0, "rhs": 2.0}


def test_null_tail_validates_indices(norm_a, norm_a_basis):
    with pytest.raises(ValueError):
        check_null_tail(norm_a_basis, norm_a, (2, 1))
    with pytest.raises(ValueError):
        check_null_tail(norm_a_basis, norm_a, (1, 3))


def test_stratum_range_guard(norm_a, norm_a_basis):
    with pytest.raises(StratumRangeError):
        check_discreteness(norm_a_basis, norm_a, 3)
    with pytest.raises(StratumRangeError):
        check_closedness(norm_a_basis, norm_a, 3)


def test_full_conformance_small_ranks():
    """Reduced bases satisfy every checker for every norm family."""
    for rank in (2, 4, 6):
        for oracle, basis in conforming_instances(rank, 6, 910 + rank):
            assert check_monotone_tail(basis, oracle).passed
            assert check_geometric_bound(basis, oracle).passed
            for n in range(rank + 1):
                assert check_discreteness(basis, oracle, n).passed
                assert check_closedness(basis, oracle, n).passed
            assert check_null_tail(basis, oracle, range(1, rank + 1)).passed


def test_worst_ratio_and_min_separation(norm_a, norm_a_basis):
    assert worst_geometric_ratio(norm_a_basis, norm_a) <= 1.0
    # cheapest row norm is 1, rank 2: 1 / 4**2
    assert min_separation(norm_a_basis, norm_a) == pytest.approx(1 / 16)


def test_report_json_shape(bad_oracle, bad_basis):
    report = check_monotone_tail(bad_basis, bad_oracle)
    data = json.loads(json.dumps(report.to_json()))
    assert data["lemma"] == "L0iii"
    assert data["pass"] is False
    assert data["checked"] == 3
    assert data["violations"][0]["lhs"] == 5.0


def test_merge_reports(norm_a, norm_a_basis):
    merged = merge_reports(
        "L2", [check_discreteness(norm_a_basis, norm_a, n) for n in range(3)]
    )
    assert merged.lemma == "L2"
    assert merged.passed
    assert merged.checked == 0 + 2 + 0


def scalar_discreteness(basis, oracle, n, tol=1e-9):
    """Reference loop for the vectorized stratum checker."""
    import itertools

    from boolnorm import element_from_coordinates

    r = len(basis.rows)
    checked = 0
    viols = []
    for s in itertools.combinations(range(1, r + 1), n):
        w = element_from_coordinates(basis, s)
        eps = separation_epsilon(s, basis, oracle)
        for s2 in itertools.combinations(range(1, r + 1), n):
            if s2 == s:
                continue
            checked += 1
            d = oracle(w ^ element_from_coordinates(basis, s2))
            if d < eps - tol * max(d, eps):
                viols.append((s, s2, d, eps))
    return checked, sorted(viols)


def scalar_closedness(basis, oracle, n, tol=1e-9):
    """Reference loop for the vectorized shorter-words checker."""
    import itertools

    from boolnorm import element_from_coordinates

    r = len(basis.rows)
    checked = 0
    viols = []
    for s in itertools.combinations(range(1, r + 1), n):
        w = element_from_coordinates(basis, s)
        eps = separation_epsilon(s, basis, oracle)
        for m in range(n):
            for s2 in itertools.combinations(range(1, r + 1), m):
                checked += 1
                d = oracle(w ^ element_from_coordinates(basis, s2))
                if d < eps - tol * max(d, eps):
                    viols.append((s, s2, d, eps))
    return checked, sorted(viols)


def test_vectorized_checkers_match_scalar_reference_on_invalid_tables():
    """Raw (non-subadditive) tables and scrambled bases produce violations;
    the vectorized checkers must find exactly the ones the plain loops do."""
    from boolnorm import TriangularBasis, table_norm
    from boolnorm.instances import random_base_table

    found_violations = 0
    for seed in range(12):
        rng = rng_from(950, seed)
        rank = int(rng.integers(3, 7))
        oracle = table_norm(random_base_table(rng, rank))
        rows = []
        for j in range(1, rank + 1):
            rows.append(int(rng.integers(0, 1 << (j - 1))) | 1 << (j - 1))
        basis = TriangularBasis(tuple(rows))
        for n in range(1, rank + 1):
            for checker, reference, tag in (
                (check_discreteness, scalar_discreteness, "L2"),
                (check_closedness, scalar_closedness, "L3"),
            ):
                rep = checker(basis, oracle, n)
                ref_checked, ref_viols = reference(basis, oracle, n)
                got = sorted(
                    (tuple(v.witness["w"]), tuple(v.witness["w_prime"]), v.lhs, v.rhs)
                    for v in rep.violations
                )
                assert rep.checked == ref_checked
                assert got == ref_viols, f"{tag} seed {seed} n {n}"
                found_violations += len(ref_viols)
    assert found_violations > 0  # the negative path was really exercised


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_every_checker_fails_on_a_non_finite_table(bad):
    """A value no bound can be evaluated against is a violation: the NaN or
    inf at {2} is read by every lemma, so none may pass."""
    from boolnorm import LEMMA_CHECKS, TriangularBasis

    oracle = NormOracle(2, table=[0.0, 1.0, bad, 2.0])
    basis = TriangularBasis((0b01, 0b10))
    for name, check in LEMMA_CHECKS.items():
        report = check(basis, oracle)
        assert not report.passed, name
        assert report.violations, name
    assert worst_geometric_ratio(basis, oracle) == float("inf")


def scalar_tail_and_doubling(basis, oracle, tol=1e-9):
    """Plain loops over every word for L0iii and L1, with the scalar form of
    the tolerance predicate, plus the worst doubling ratio."""
    r = len(basis.rows)

    def exceeds(lhs, rhs):
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            return True
        return lhs > rhs + tol * max(abs(lhs), abs(rhs))

    from boolnorm import element_from_coordinates, support

    row = [oracle(basis.rows[j]) for j in range(r)]
    tail, doubling, worst = [], [], 0.0
    for c in range(1, 1 << r):
        letters = support(c)
        w = oracle(element_from_coordinates(basis, letters))
        if exceeds(row[letters[-1] - 1], w):
            tail.append(({"set": list(letters)}, row[letters[-1] - 1], w))
        for k, pos in enumerate(reversed(letters)):
            if exceeds(row[pos - 1], 2.0**k * w):
                doubling.append(({"word": list(letters), "k": k}, row[pos - 1], 2.0**k * w))
            if len(letters) >= 2:
                if not (math.isfinite(w) and math.isfinite(row[pos - 1])) or w <= 0.0:
                    worst = math.inf
                elif worst < math.inf:
                    worst = max(worst, row[pos - 1] / (2.0**k * w))
    return tail, doubling, worst


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vectorized_tail_and_doubling_match_scalar_loops_with_non_finite_values(data):
    from boolnorm import TriangularBasis

    rank = data.draw(st.integers(min_value=1, max_value=5))
    value = st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 1.0 + 1e-10, 7.25, 0.0]),
        st.sampled_from([float("nan"), float("inf")]),
    )
    table = [0.0] + data.draw(st.lists(value, min_size=(1 << rank) - 1, max_size=(1 << rank) - 1))
    rows = tuple(
        data.draw(st.integers(min_value=0, max_value=(1 << j) - 1)) | 1 << j for j in range(rank)
    )
    basis, oracle = TriangularBasis(rows), NormOracle(rank, table=table)
    tail, doubling, worst = scalar_tail_and_doubling(basis, oracle)

    def listed(report):
        return [(v.witness, v.lhs, v.rhs) for v in report.violations]

    def same(got, want):
        # NaN != NaN, so compare the witnesses and the values' reprs
        return [(w, repr(l), repr(r)) for w, l, r in got] == [
            (w, repr(l), repr(r)) for w, l, r in want
        ]

    l0 = check_monotone_tail(basis, oracle)
    l1 = check_geometric_bound(basis, oracle)
    assert same(listed(l0), tail) and l0.passed == (not tail)
    assert same(listed(l1), doubling) and l1.passed == (not doubling)
    assert l0.checked == (1 << rank) - 1 and l1.checked == rank << (rank - 1)
    assert worst_geometric_ratio(basis, oracle) == worst
