import itertools
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    GeneralBasis,
    NotInSpanError,
    StratumRangeError,
    TriangularBasis,
    element_from_coordinates,
    enumerate_stratum,
    express_in_basis,
    from_support,
    gf2_rank,
    reduce_word,
    reduced_length,
    support,
)

elements = st.integers(min_value=0, max_value=(1 << 6) - 1)


def brute_force_coordinates(g, rows):
    """Oracle: scan all row subsets for the one XOR-ing to g."""
    hits = []
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(range(1, len(rows) + 1), r):
            total = 0
            for pos in combo:
                total ^= rows[pos - 1]
            if total == g:
                hits.append(combo)
    return hits


# Group addition is XOR of the masks: the symmetric difference of the supports.


def test_add_examples():
    assert from_support([1, 3]) ^ from_support([3, 5]) == from_support([1, 5])
    g = from_support([2, 7])
    assert g ^ g == 0
    assert 0 ^ g == g


@given(elements, elements)
def test_add_commutes(g, h):
    expected = tuple(sorted(set(support(g)) ^ set(support(h))))
    assert support(g ^ h) == support(h ^ g) == expected


@given(elements, elements, elements)
def test_add_associates(g, h, k):
    word = support(g) + support(h) + support(k)
    assert reduce_word(word) == (g ^ h) ^ k == g ^ (h ^ k)


@given(elements)
def test_add_self_inverse_and_identity(g):
    assert reduce_word(support(g) * 2) == 0
    assert reduce_word(support(g)) == g


def test_support_round_trip():
    assert support(from_support([9, 2, 7])) == (2, 7, 9)
    assert support(0) == ()
    with pytest.raises(ValueError):
        support(-2)
    with pytest.raises(ValueError):
        from_support([0])
    with pytest.raises(ValueError):
        from_support([3, 3])


@pytest.mark.parametrize("bad", [2.9, 1.0, True, False, "1", np.True_])
def test_indices_must_be_integers(bad):
    basis = TriangularBasis((0b01, 0b11))
    with pytest.raises(TypeError, match="index must be an integer"):
        from_support([bad])
    with pytest.raises(TypeError, match="index must be an integer"):
        reduce_word([1, bad])
    with pytest.raises(TypeError, match="index must be an integer"):
        element_from_coordinates(basis, [bad])


def test_numpy_integer_indices_are_accepted():
    basis = TriangularBasis((0b01, 0b11))
    assert from_support(np.array([3, 1])) == 0b101
    assert reduce_word([np.int64(2), np.uint8(2), np.int32(1)]) == 0b1
    assert element_from_coordinates(basis, [np.int16(2)]) == 0b11


def test_reduce_word_examples():
    assert reduce_word([1, 2, 1, 3]) == from_support([2, 3])
    assert reduce_word([]) == 0
    assert reduce_word([5, 5, 5]) == from_support([5])


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=6))
def test_reduce_word_matches_folded_add(letters):
    total = 0
    for i in letters:
        total ^= from_support([i])
    assert reduce_word(letters) == total


# Generator i sits on bit i-1, so the largest index of g is g.bit_length().


def max_index(g):
    return max(support(g), default=0)


def test_max_index_examples():
    assert max_index(0) == 0 == (0).bit_length()
    g = from_support([2, 7, 9])
    assert max_index(g) == 9 == g.bit_length()
    assert max_index(from_support([4])) == 4 == from_support([4]).bit_length()


@given(elements, elements)
def test_max_index_of_sum(g, h):
    assert max_index(g ^ h) == (g ^ h).bit_length()
    assert max_index(g ^ h) <= max(max_index(g), max_index(h))
    if max_index(g) != max_index(h):
        assert max_index(g ^ h) == max(max_index(g), max_index(h))


def test_express_in_basis_derived_example():
    basis = TriangularBasis((0b01, 0b11))  # rows {1}, {1,2}
    hits = brute_force_coordinates(from_support([2]), basis.rows)
    assert hits == [(1, 2)]
    assert express_in_basis(from_support([2]), basis) == (1, 2)


def test_express_in_basis_zero_and_errors():
    basis = TriangularBasis((0b01, 0b11))
    assert express_in_basis(0, basis) == ()
    with pytest.raises(NotInSpanError):
        express_in_basis(from_support([1, 3]), basis)


def test_express_in_general_basis():
    basis = GeneralBasis((0b011, 0b110))  # rows {1,2}, {2,3}
    assert express_in_basis(from_support([1, 3]), basis) == (1, 2)
    with pytest.raises(NotInSpanError):
        express_in_basis(from_support([1]), basis)


@settings(max_examples=50)
@given(st.data())
def test_express_round_trips_on_random_triangular_bases(data):
    rank = data.draw(st.integers(min_value=1, max_value=8))
    rows = []
    for j in range(1, rank + 1):
        below = data.draw(st.integers(min_value=0, max_value=(1 << (j - 1)) - 1))
        rows.append(below | 1 << (j - 1))
    basis = TriangularBasis(tuple(rows))
    g = data.draw(st.integers(min_value=0, max_value=(1 << rank) - 1))
    coords = express_in_basis(g, basis)
    assert element_from_coordinates(basis, coords) == g


def within_seconds(seconds, fn, *args):
    """fn(*args), raising TimeoutError instead of hanging past the deadline."""

    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("basis", [TriangularBasis((1, 3)), GeneralBasis((1, 3))])
def test_negative_element_is_refused_not_walked_forever(basis):
    # -3 XOR 3 is -2 and -2 XOR 1 is -1: the walk would cycle between them
    for call in (express_in_basis, reduced_length):
        with pytest.raises(ValueError, match="element mask must be nonnegative, got -3"):
            within_seconds(5, call, -3, basis)
    with pytest.raises(ValueError, match="element mask must be nonnegative"):
        within_seconds(5, gf2_rank, [3, -3])


def test_reduced_length():
    basis = TriangularBasis((0b01, 0b11))
    assert reduced_length(0, basis) == 0
    assert reduced_length(from_support([2]), basis) == 2
    assert reduced_length(basis.rows[1], basis) == 1


def test_enumerate_stratum_examples():
    assert list(enumerate_stratum(2, 1)) == [(1,), (2,)]
    assert list(enumerate_stratum(3, 0)) == [()]
    assert list(enumerate_stratum(3, 2, mode="at-most")) == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 2),
        (1, 3),
        (2, 3),
    ]


def test_enumerate_stratum_counts_and_partition():
    rank = 6
    seen = set()
    import math

    for k in range(rank + 1):
        stratum = list(enumerate_stratum(rank, k))
        assert len(stratum) == math.comb(rank, k)
        assert len(set(stratum)) == len(stratum)
        assert not seen & set(stratum)
        seen |= set(stratum)
    assert len(seen) == 1 << rank


def test_enumerate_stratum_errors():
    with pytest.raises(StratumRangeError):
        list(enumerate_stratum(3, 4))
    with pytest.raises(ValueError):
        list(enumerate_stratum(3, 1, mode="bogus"))


def test_triangular_basis_validation():
    with pytest.raises(ValueError):
        TriangularBasis((0b10,))  # row 1 missing index 1
    with pytest.raises(ValueError):
        TriangularBasis((0b01, 0b101))  # row 2 reaches index 3


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b01, 0b11, 0b10]) == 2
    assert gf2_rank([0b001, 0b011, 0b101, 0b111]) == 3


@settings(max_examples=40)
@given(st.data())
def test_express_round_trips_on_scrambled_general_bases(data):
    rank = data.draw(st.integers(min_value=1, max_value=6))
    rows = []
    for j in range(1, rank + 1):
        below = data.draw(st.integers(min_value=0, max_value=(1 << (j - 1)) - 1))
        rows.append(below | 1 << (j - 1))
    # mix rows with random invertible row operations, then shuffle
    for _ in range(rank):
        i = data.draw(st.integers(min_value=0, max_value=rank - 1))
        j = data.draw(st.integers(min_value=0, max_value=rank - 1))
        if i != j:
            rows[i] ^= rows[j]
    order = data.draw(st.permutations(range(rank)))
    basis = GeneralBasis(tuple(rows[i] for i in order))
    assert gf2_rank(basis.rows) == rank
    for g in range(1 << rank):
        coords = express_in_basis(g, basis)
        assert element_from_coordinates(basis, coords) == g
