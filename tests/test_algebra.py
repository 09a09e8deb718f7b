import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import GeneralBasis, TriangularBasis, from_support, gf2_rank, support

elements = st.integers(min_value=0, max_value=(1 << 6) - 1)


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
    # Letters of odd multiplicity in the concatenated word survive.
    word = support(g) + support(h) + support(k)
    odd = sorted({i for i in word if word.count(i) % 2})
    assert from_support(odd) == (g ^ h) ^ k == g ^ (h ^ k)


@given(elements)
def test_add_self_inverse_and_identity(g):
    assert g ^ g == 0
    assert from_support(support(g)) == g == g ^ 0


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
    with pytest.raises(TypeError, match="index must be an integer"):
        from_support([bad])
    with pytest.raises(TypeError, match="index must be an integer"):
        from_support([1, bad], rank=4)


def test_numpy_integer_indices_are_accepted():
    assert from_support(np.array([3, 1])) == 0b101
    assert from_support([np.int64(2), np.uint8(3), np.int32(1)], rank=3) == 0b111


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
    with pytest.raises(ValueError, match="element mask must be nonnegative, got -3"):
        within_seconds(5, gf2_rank, basis.rows + (-3,))
    with pytest.raises(ValueError, match="element mask must be nonnegative"):
        within_seconds(5, gf2_rank, [3, -3])


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
def test_gf2_rank_of_scrambled_general_bases(data):
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
    # a sum of rows adds nothing to the span
    assert gf2_rank(basis.rows + (rows[0] ^ rows[-1],)) == rank
