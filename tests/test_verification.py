import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    NormOracle,
    StratumRangeError,
    TriangularBasis,
    check_closedness,
    check_discreteness,
    check_geometric_bound,
    check_monotone_tail,
    check_null_tail,
    min_separation,
    reduce_basis,
    worst_geometric_ratio,
)
from boolnorm import verification
from boolnorm.instances import random_norm, rng_from


def element_from_coordinates(basis, coords):
    """XOR of the rows at the given 1-based positions: the element that a
    coordinate set selects.  The scalar reference for the span tables."""
    g = 0
    for pos in coords:
        g ^= basis.rows[pos - 1]
    return g


def separation_epsilon(coord_set, basis, oracle):
    """Separation radius of a nonempty set of distinct coordinates: its
    cheapest letter norm over 4**n, n the set size.  The scalar reference
    for the radii that L2 and L3 read."""
    letters = tuple(coord_set)
    # np.min propagates NaN wherever it sits; Python's min would not.
    cheapest = float(np.min([oracle(basis.rows[i - 1]) for i in letters]))
    return cheapest / float(4 ** len(letters))


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
    report = check_null_tail(norm_a_basis, norm_a)
    assert report.passed and report.checked == 1
    single = check_null_tail(TriangularBasis((0b01,)), norm_a)
    assert single.passed and single.checked == 0  # vacuous
    report = check_null_tail(bad_basis, bad_oracle)
    assert not report.passed
    assert report.violations[0].to_json() == {"witness": {"i": 1, "j": 2}, "lhs": 5.0, "rhs": 2.0}


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
            assert check_null_tail(basis, oracle).passed


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


def scalar_discreteness(basis, oracle, n, tol=1e-9):
    """Reference loop for the vectorized stratum checker."""
    import itertools

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
    from boolnorm import LEMMA_CHECKS, TriangularBasis, run_checks

    oracle = NormOracle(2, table=[0.0, 1.0, bad, 2.0])
    basis = TriangularBasis((0b01, 0b10))
    for name in LEMMA_CHECKS:
        report = run_checks(basis, oracle, [name])[0][name]
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

    from boolnorm import support

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


def reference_worst_ratio(basis, oracle):
    """worst_geometric_ratio in its per-letter form, kept as the reference
    for the doubled one: for each letter j, row_norm[j] / (2**k * vals[c])
    over every word c of length >= 2 holding j, k being j's depth in c."""
    from boolnorm import span_elements

    r = len(basis.rows)
    vals = oracle.values(span_elements(basis.rows))
    if r < 2:
        return 0.0
    pop = np.array([c.bit_count() for c in range(vals.size)])
    if not np.isfinite(vals[1:]).all() or (vals[pop >= 2] <= 0.0).any():
        return float("inf")
    row_norm = vals[1 << np.arange(r)]
    masks = np.arange(vals.size)
    worst = 0.0
    for j in range(r):
        c = masks.reshape(-1, 2, 1 << j)[:, 1, :].ravel()
        rhs = np.ldexp(vals[c], pop[c >> (j + 1)])
        # rhs[0] belongs to the single letter j; the rest are longer words.
        worst = max(worst, float((row_norm[j] / rhs[1:]).max()))
    return worst


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_worst_ratio_matches_the_per_letter_reference(data):
    from boolnorm import TriangularBasis

    if data.draw(st.booleans()):
        # a campaign instance: a drawn norm and its reduced basis
        rank = data.draw(st.integers(min_value=1, max_value=8))
        family = data.draw(st.sampled_from(("weighted", "graev", "closure")))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        _, oracle = random_norm(rng_from(seed, rank), rank, family)
        basis = reduce_basis(oracle, rank)
    else:
        # a raw table: ties, zeros, negative row norms, NaN and inf
        rank = data.draw(st.integers(min_value=1, max_value=6))
        nan, inf = float("nan"), float("inf")
        value = st.sampled_from(
            [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1.0 + 1e-10, -1.0, -2.5, nan, inf, -inf]
        )
        size = (1 << rank) - 1
        table = [0.0] + data.draw(st.lists(value, min_size=size, max_size=size))
        rows = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << j) - 1)) | 1 << j
            for j in range(rank)
        )
        if data.draw(st.booleans()):
            # every row norm <= 0 and every other value >= 0: the 0.0 floor
            table = [abs(v) for v in table]
            for row in rows:
                table[row] = -table[row]
        basis, oracle = TriangularBasis(rows), NormOracle(rank, table=table)
    got = worst_geometric_ratio(basis, oracle)
    assert type(got) is float
    assert repr(got) == repr(reference_worst_ratio(basis, oracle))


@pytest.mark.parametrize(
    "table", [[0.0, 1.0, float("nan"), 2.0], [0.0, float("nan"), 1.0, 2.0]]
)
def test_separation_minimum_propagates_nan_wherever_it_sits(table):
    from boolnorm import TriangularBasis

    basis, oracle = TriangularBasis((0b01, 0b10)), NormOracle(2, table=table)
    assert math.isnan(min_separation(basis, oracle))
    # the scalar reference that scalar_strata reads propagates it as well
    assert math.isnan(separation_epsilon((1, 2), basis, oracle))
    assert math.isnan(separation_epsilon((2, 1), basis, oracle))


def test_separation_minimum_is_a_python_float(norm_a, norm_a_basis):
    # The campaign CSV writes repr() of it, so it must not be a numpy scalar.
    value = min_separation(norm_a_basis, norm_a)
    assert type(value) is float and repr(value) == "0.0625"


def scalar_strata(basis, oracle, n, tol=1e-9):
    """Plain loops over coordinate masks for L2 and L3 at stratum n, with the
    scalar form of the tolerance predicate and separation_epsilon as the
    radius (NaN when any letter norm is).  Returns (checked, violations)
    per lemma."""
    from boolnorm import support

    def exceeds(lhs, rhs):
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            return True
        return lhs > rhs + tol * max(abs(lhs), abs(rhs))

    def norm(c):
        return oracle(element_from_coordinates(basis, support(c)))

    masks = range(1 << len(basis.rows))
    out = {}
    for lemma in ("L2", "L3"):
        checked, viols = 0, []
        for w in masks:
            letters = support(w)
            if len(letters) != n:
                continue
            eps = separation_epsilon(letters, basis, oracle) if letters else math.inf
            for p in masks:
                size = len(support(p))
                if (size == n and p != w) if lemma == "L2" else size < n:
                    checked += 1
                    d = norm(w ^ p)
                    if exceeds(eps, d):
                        viols.append(({"w": list(letters), "w_prime": list(support(p))}, d, eps))
        out[lemma] = checked, viols
    return out


def draw_table_instance(data, value, max_rank=5):
    """A random triangular basis and a table norm whose nonzero entries are
    drawn from `value`."""
    from boolnorm import TriangularBasis

    rank = data.draw(st.integers(min_value=1, max_value=max_rank))
    table = [0.0] + data.draw(st.lists(value, min_size=(1 << rank) - 1, max_size=(1 << rank) - 1))
    rows = tuple(
        data.draw(st.integers(min_value=0, max_value=(1 << j) - 1)) | 1 << j for j in range(rank)
    )
    return TriangularBasis(rows), NormOracle(rank, table=table)


def assert_strata_match_scalar_loops(basis, oracle, tol=1e-9):
    def reprs(viols):
        # NaN != NaN, so compare the witnesses and the values' reprs
        return [(w, repr(lhs), repr(rhs)) for w, lhs, rhs in viols]

    for n in range(len(basis.rows) + 1):
        want = scalar_strata(basis, oracle, n, tol)
        for lemma, checker in (("L2", check_discreteness), ("L3", check_closedness)):
            report = checker(basis, oracle, n, tol=tol)
            checked, viols = want[lemma]
            got = [(v.witness, v.lhs, v.rhs) for v in report.violations]
            assert reprs(got) == reprs(viols), (lemma, n)
            assert report.checked == checked and report.passed == (not viols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vectorized_strata_match_scalar_loops_with_non_finite_values(data):
    value = st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 1.0 + 1e-10, 7.25, 0.0, 1 / 64]),
        st.sampled_from([float("nan"), float("inf")]),
    )
    assert_strata_match_scalar_loops(*draw_table_instance(data, value))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_radius_bound_matches_scalar_loops_on_finite_tables(data):
    """Finite tables take the radius bound: words with eps <= min(vals[1:])
    are cleared unscanned.  Multiples of 1/64 and powers of 1/4 put radii
    (a row norm over 4**n) exactly on that minimum; zeros and negative
    entries move it; a negative tol must scan every word."""
    value = st.one_of(
        st.integers(min_value=-4, max_value=192).map(lambda k: k / 64),
        st.integers(min_value=0, max_value=4).map(lambda k: 4.0**-k),
        st.sampled_from([1.0 + 1e-10, 7.25, 3 * 4.0**-3]),
    )
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.25, -1e-9, -0.5]))
    assert_strata_match_scalar_loops(*draw_table_instance(data, value), tol)


def test_radius_bound_tie_and_negative_tol():
    from boolnorm import TriangularBasis

    # Identity basis, rows of norm 1 and 1/4, sum of norm 1/16 = min(vals[1:]).
    # At n = 1 the radii are 1/4 and 1/16: the second sits exactly on the
    # minimum, so with tol = 0 it is cleared and its tie d = 1/16 is no
    # violation, while any negative tol turns that tie into one.
    basis = TriangularBasis((0b01, 0b10))
    oracle = NormOracle(2, table=[0.0, 1.0, 0.25, 1 / 16])
    first = ({"w": [1], "w_prime": [2]}, 1 / 16, 0.25)
    tie = ({"w": [2], "w_prime": [1]}, 1 / 16, 1 / 16)
    for tol, want in ((0.0, [first]), (-1e-9, [first, tie])):
        report = check_discreteness(basis, oracle, 1, tol=tol)
        assert [(v.witness, v.lhs, v.rhs) for v in report.violations] == want
        assert report.checked == 2
        assert_strata_match_scalar_loops(basis, oracle, tol)


def test_radius_bound_skips_the_pair_scan_of_cleared_words(monkeypatch):
    oracle, basis = next(conforming_instances(8, 1, 907))
    exceeds, calls = verification.exceeds, []

    def counting_exceeds(lhs, rhs, tol):
        calls.append(lhs)
        return exceeds(lhs, rhs, tol)

    monkeypatch.setattr(verification, "exceeds", counting_exceeds)
    for lemma in ("L2", "L3"):
        calls.clear()
        report = verification.run_checks(basis, oracle, [lemma])[0][lemma]
        assert report.passed and report.checked > 0
        # one exceeds call per scanned chunk: the few words the radius bound
        # leaves fit one chunk a stratum
        assert len(calls) <= len(basis.rows) + 1, lemma


def test_checkers_refuse_bases_above_the_exhaustive_bound():
    from boolnorm import (
        EXHAUSTIVE_RANK_BOUND,
        RankTooLargeError,
        TriangularBasis,
        WeightSpec,
        weighted_oracle,
    )

    n = EXHAUSTIVE_RANK_BOUND + 1
    oracle = weighted_oracle(WeightSpec((1.0,) * n))
    at_bound = TriangularBasis(tuple(1 << j for j in range(n - 1)))
    assert check_monotone_tail(at_bound, oracle).passed
    over = TriangularBasis(tuple(1 << j for j in range(n)))
    for check in (
        check_monotone_tail,
        check_geometric_bound,
        worst_geometric_ratio,
        lambda basis, oracle: check_discreteness(basis, oracle, 1),
        lambda basis, oracle: check_closedness(basis, oracle, 1),
    ):
        with pytest.raises(RankTooLargeError, match=r"checker needs 2\*\*15 coordinate sets"):
            check(over, oracle)



def per_stratum_json(checker, basis, oracle, tol):
    """The report of every stratum combined from one call per stratum:
    violations in stratum order, checked summed."""
    reports = [checker(basis, oracle, n, tol=tol) for n in range(len(basis.rows) + 1)]
    violations = [v.to_json() for rep in reports for v in rep.violations]
    return {
        "lemma": reports[0].lemma,
        "pass": not violations,
        "checked": sum(rep.checked for rep in reports),
        "violations": violations,
    }


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_stratum_in_one_call_equals_the_per_stratum_reports(data):
    value = data.draw(
        st.sampled_from(
            [
                # finite, tie-heavy (radii land on the values), non-finite
                st.integers(min_value=-4, max_value=192).map(lambda k: k / 64),
                st.integers(min_value=0, max_value=4).map(lambda k: 4.0**-k),
                st.sampled_from([0.5, 1.0, 2.0, float("nan"), float("inf")]),
            ]
        )
    )
    basis, oracle = draw_table_instance(data, value)
    tol = data.draw(st.sampled_from([0.0, 1e-9, -1e-9]))
    for checker in (check_discreteness, check_closedness):
        # NaN != NaN, so compare the JSON text
        got = json.dumps(checker(basis, oracle, tol=tol).to_json())
        assert got == json.dumps(per_stratum_json(checker, basis, oracle, tol))


@pytest.mark.parametrize("chunk", [1, 7, 40])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strata_split_into_chunks_match_scalar_loops(data, chunk):
    """With a chunk of 1, 7 or 40 pairs, a stratum's scanned words (up to 10
    at rank 5, against up to 31 partners) split into several chunks, often
    with a partial last one, and each report must still be the scalar
    loops' and the per-stratum calls'."""
    value = st.one_of(
        st.integers(min_value=-4, max_value=192).map(lambda k: k / 64),
        st.integers(min_value=0, max_value=4).map(lambda k: 4.0**-k),
        st.sampled_from([0.5, 1.0, 2.0, float("nan"), float("inf")]),
    )
    basis, oracle = draw_table_instance(data, value)
    tol = data.draw(st.sampled_from([0.0, 1e-9, -1e-9]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_CHUNK", chunk)
        assert_strata_match_scalar_loops(basis, oracle, tol)
        for checker in (check_discreteness, check_closedness):
            got = json.dumps(checker(basis, oracle, tol=tol).to_json())
            assert got == json.dumps(per_stratum_json(checker, basis, oracle, tol))


def test_tolerance_zero_on_an_infinite_table_warns_of_nothing():
    """0 * inf and -inf + inf in the slack are masked by the non-finite
    test, so they must not surface as numpy RuntimeWarnings."""
    from boolnorm import TriangularBasis
    from boolnorm.norms import exceeds

    inf = float("inf")
    basis = TriangularBasis((0b01, 0b11))
    oracle = NormOracle(2, table=[0.0, 1.0, inf, inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exceeds(np.array([1.0, inf, 1.0, -inf]), np.array([-inf, 1.0, inf, 1.0]), tol=0.0)
        assert got.tolist() == [True] * 4
        assert exceeds(1.0, -inf) and exceeds(inf, 1.0, tol=0.0)
        # a slack that carries the bound past the float range
        top = np.finfo(float).max
        assert not exceeds(top, top) and exceeds(top, -top, tol=-2.0)
        assert not exceeds(np.array([top, 1.0]), np.array([top, top]), tol=2.0).any()
        report = check_discreteness(basis, oracle, tol=0.0)
    assert not report.passed and report.checked > 0


def test_registry_builds_one_coordinate_view_per_stratum_check(monkeypatch, tmp_path):
    from boolnorm import cli, spec_to_json
    from boolnorm.campaign import CHECK_NAMES, CampaignConfig, run_trial

    oracle, basis = next(conforming_instances(10, 1, 908))
    view, built = verification._coordinate_view, []

    def counting_view(basis, oracle):
        built.append(len(basis.rows))
        return view(basis, oracle)

    monkeypatch.setattr(verification, "_coordinate_view", counting_view)
    for lemma in ("L2", "L3"):
        built.clear()
        report = verification.run_checks(basis, oracle, [lemma])[0][lemma]
        assert report.checked > 0
        assert built == [10], lemma
    # verify runs all five lemmas, and a campaign trial every check and the
    # doubling ratio, over one view of its basis
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    drawn, _ = random_norm(rng_from(908, 1), 6, "closure")
    spec.write_text(json.dumps(spec_to_json(drawn)))
    built.clear()
    assert cli.main(["verify", "--norm", str(spec), "--rank", "6", "--out", str(out)]) == 0
    assert built == [6]
    assert set(json.loads(out.read_text())["checks"]) == set(verification.LEMMA_CHECKS)
    built.clear()
    row = run_trial(CampaignConfig(rank=6, trials=1, family="graev", checks=CHECK_NAMES), 0)
    assert built == [6] and row["pass"] == "true"


def test_stratum_checkers_pass_a_rank_zero_basis(norm_a):
    from boolnorm import TriangularBasis

    empty = TriangularBasis(())
    for checker in (check_discreteness, check_closedness):
        for tol in (0.0, -1e-9):
            for report in (checker(empty, norm_a, tol=tol), checker(empty, norm_a, 0, tol=tol)):
                assert report.passed and report.checked == 0 and not report.violations


@pytest.mark.parametrize("checker", [check_discreteness, check_closedness])
@pytest.mark.parametrize(
    "n, error, message",
    [
        (-1, ValueError, "stratum length must be >= 0"),
        (1.5, TypeError, "index must be an integer"),
        (True, TypeError, "index must be an integer"),
        (2.0, TypeError, "index must be an integer"),
        ("1", TypeError, "index must be an integer"),
    ],
)
def test_stratum_checkers_refuse_lengths_they_cannot_evaluate(
    norm_a, norm_a_basis, checker, n, error, message
):
    with pytest.raises(error, match=message):
        checker(norm_a_basis, norm_a, n)
    report = checker(norm_a_basis, norm_a, np.int64(1))
    assert report.to_json() == checker(norm_a_basis, norm_a, 1).to_json()


# Raw table entries: zeros of both signs, negatives, NaN, +-inf, values
# near the float range's top, subnormals and powers of two.
RAW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 1.0 + 1e-10, -1.0, -2.5]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e-310]),
    st.integers(min_value=1, max_value=8).map(lambda m: m * 5e-324),
    st.integers(min_value=0, max_value=7).map(lambda e: math.ldexp(np.finfo(float).tiny, e)),
    st.integers(min_value=-6, max_value=6).map(lambda e: 2.0**e),
)


def draw_reduced_or_raw_instance(data):
    """Either the reduced basis of a seeded norm of one of the three
    families, at rank <= 8, or a triangular basis over a raw table of
    RAW_VALUES, at rank <= 6."""
    if data.draw(st.booleans()):
        rank = data.draw(st.integers(min_value=1, max_value=8))
        family = data.draw(st.sampled_from(("weighted", "graev", "closure")))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        _, oracle = random_norm(rng_from(seed, rank), rank, family)
        return reduce_basis(oracle, rank), oracle
    return draw_table_instance(data, RAW_VALUES, max_rank=6)


def reference_geometric_bound(basis, oracle, tol=1e-9):
    """check_geometric_bound as a full scan: for each letter j, every word c
    holding it, in one numpy pass per letter, violations sorted by (word,
    depth).  One change from that scan as it first stood: a bound
    2**k * vals[c] that overflows from a finite vals[c] is decided in exact
    rational arithmetic instead of as an inf."""
    from fractions import Fraction

    from boolnorm import LemmaReport, Violation, span_elements, support
    from boolnorm.norms import exceeds

    r = len(basis.rows)
    vals = oracle.values(span_elements(basis.rows))
    row_norm = vals[1 << np.arange(r)]
    pop = np.array([c.bit_count() for c in range(vals.size)])
    masks = np.arange(vals.size)
    found = []
    for j in range(r):
        c = masks.reshape(-1, 2, 1 << j)[:, 1, :].ravel()
        k = pop[c >> (j + 1)]
        with np.errstate(over="ignore"):
            rhs = np.ldexp(vals[c], k)
        bad = exceeds(row_norm[j], rhs, tol)
        for i in np.flatnonzero(np.isinf(rhs) & np.isfinite(vals[c])).tolist():
            if np.isfinite(row_norm[j]):
                lhs = Fraction(float(row_norm[j]))
                bound = Fraction(float(vals[c[i]])) * 2 ** int(k[i])
                bad[i] = lhs > bound + Fraction(tol) * max(abs(lhs), abs(bound))
        i = np.flatnonzero(bad)
        found += zip(c[i].tolist(), k[i].tolist(), [j] * i.size, rhs[i].tolist())
    found.sort()  # by word, then depth
    violations = tuple(
        Violation({"word": list(support(c)), "k": k}, float(row_norm[j]), rhs)
        for c, k, j, rhs in found
    )
    return LemmaReport("L1", not violations, r * (vals.size // 2), violations)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_doubling_bound_matches_the_full_scan_reference(data):
    """Finite tables at tol >= 0 take the scaled-word cut; NaN, inf,
    subnormal row norms and tol < 0 take the full scan.  Both must report
    what the full scan does, with 1e308 bounds that overflow decided
    exactly."""
    from boolnorm import TriangularBasis

    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.25, -1e-9, -0.5, -2.0]))
    basis, oracle = draw_reduced_or_raw_instance(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = check_geometric_bound(basis, oracle, tol=tol)
        if tol == verification.RELATIVE_TOLERANCE:
            reports, _ = verification.run_checks(basis, oracle, ["L1"])
            assert json.dumps(reports["L1"].to_json()) == json.dumps(got.to_json())
    want = reference_geometric_bound(basis, oracle, tol)
    # NaN != NaN, so compare the JSON text
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_doubling_bound_passes_where_the_bound_overflows():
    """2**k * 1e308 overflows, but the doubling bound holds: no violation
    and no RuntimeWarning, on the cut and on both full-scan paths."""
    from boolnorm import TriangularBasis, check_norm_axioms

    big, nan = 1e308, float("nan")
    pair = (TriangularBasis((0b01, 0b10)), NormOracle(2, table=[0.0, big, big, big]))
    assert check_norm_axioms(pair[1]).passed
    rows3 = TriangularBasis((0b001, 0b010, 0b100))
    subnormal_row = NormOracle(3, table=[0.0, big, big, big, 5e-324, big, big, big])
    nan_row = NormOracle(3, table=[0.0, big, big, big, nan, big, big, big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis, oracle in (pair, (rows3, subnormal_row)):
            report = check_geometric_bound(basis, oracle)
            assert report.passed and report.checked == len(basis.rows) << (len(basis.rows) - 1)
            assert worst_geometric_ratio(basis, oracle) == 1.0
        # only the NaN row norm of letter 3 fails; the overflowing bounds pass
        report = check_geometric_bound(rows3, nan_row)
    assert [v.witness for v in report.violations] == [
        {"word": word, "k": 0} for word in ([3], [1, 3], [2, 3], [1, 2, 3])
    ]


def test_worst_ratio_past_the_float_range_is_inf():
    """Letter norm 1e308 over word norm 0.5 leaves the float range: the
    ratio is inf, and numpy reports no overflow."""
    from boolnorm import TriangularBasis

    oracle = NormOracle(2, table=[0.0, 1.0, 1e308, 0.5])
    assert worst_geometric_ratio(TriangularBasis((0b01, 0b10)), oracle) == float("inf")


def test_doubling_bound_scans_every_word_when_halving_rounds():
    """Half of the subnormal row norm 5 * 2**-1074 rounds to 2 * 2**-1074,
    the norm of {1, 2}, yet 5 * 2**-1074 > 2 * (2 * 2**-1074): a cut read
    from the halved norms would miss this violation."""
    from boolnorm import TriangularBasis

    unit = 5e-324
    oracle = NormOracle(2, table=[0.0, 5 * unit, 2 * unit, 2 * unit])
    report = check_geometric_bound(TriangularBasis((0b01, 0b10)), oracle)
    assert [(v.witness, v.lhs, v.rhs) for v in report.violations] == [
        ({"word": [1, 2], "k": 1}, 5 * unit, 4 * unit)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_run_checks_over_one_view_equals_the_public_checkers(data):
    """Every lemma read from one coordinate view reports what its public
    checker does, and the ratio is worst_geometric_ratio, on reduced bases
    and on raw tables that no norm would pass."""
    from boolnorm import LEMMA_CHECKS, run_checks

    public = {
        "L0iii": check_monotone_tail,
        "L1": check_geometric_bound,
        "L2": check_discreteness,
        "L3": check_closedness,
        "L4": check_null_tail,
    }
    basis, oracle = draw_reduced_or_raw_instance(data)
    reports, ratio = run_checks(basis, oracle, LEMMA_CHECKS, ratio=True)
    assert tuple(reports) == LEMMA_CHECKS
    for name in LEMMA_CHECKS:
        # NaN != NaN, so compare the JSON text
        assert json.dumps(reports[name].to_json()) == json.dumps(public[name](basis, oracle).to_json())
    assert repr(ratio) == repr(worst_geometric_ratio(basis, oracle))


def test_every_checker_refuses_a_nan_tolerance(bad_oracle, bad_basis):
    """No lhs exceeds a bound with NaN slack, so a NaN tol would pass the
    L0iii, L1 and L4 violations of this negative control.  A negative tol
    stays a valid, stricter slack."""
    from boolnorm.norms import exceeds

    checkers = (
        check_monotone_tail,
        check_geometric_bound,
        check_discreteness,
        check_closedness,
        check_null_tail,
    )
    for checker in checkers:
        with pytest.raises(ValueError, match="tol must not be NaN"):
            checker(bad_basis, bad_oracle, tol=float("nan"))
        checker(bad_basis, bad_oracle, tol=-1e-9)
    with pytest.raises(ValueError, match="tol must not be NaN"):
        exceeds(1.0, 2.0, float("nan"))
