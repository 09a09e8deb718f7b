import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    ApproachSequence,
    GeneralBasis,
    InvalidIndexError,
    SequenceTooShortError,
    UnusableSequenceError,
    WeightSpec,
    block_partition,
    build_second_basis,
    check_witnesses,
    coordinate_norm,
    f_iterates,
    from_support,
    normalize_sequence,
    reduce_basis,
    separation_profile,
    support,
    verify_independence,
    weighted_oracle,
    witness_nonvanishing,
)
from boolnorm.instances import random_norm, random_sequence, rng_from


@pytest.fixture
def flat_basis4():
    """Identity reduced basis at rank 4 under a unit-weight norm."""
    oracle = weighted_oracle(WeightSpec((1.0, 1.0, 1.0, 1.0)))
    return reduce_basis(oracle, 4), oracle


def seq4():
    return ApproachSequence(
        (from_support([2]), from_support([1, 2, 3]), from_support([1, 3, 4]))
    )


def test_approach_sequence_invariants():
    seq = seq4()
    assert seq.f_values == (2, 3, 4)
    with pytest.raises(ValueError):
        ApproachSequence(())
    with pytest.raises(ValueError):
        ApproachSequence((from_support([1, 2]),))  # even length
    with pytest.raises(ValueError):
        ApproachSequence((from_support([1]),))  # f(1) = 1
    with pytest.raises(ValueError):
        ApproachSequence((from_support([2]), from_support([1, 2])))  # f not increasing
    with pytest.raises(ValueError):
        ApproachSequence((from_support([1, 2, 3]), from_support([1, 3, 4])))  # a1 not a letter


def test_non_integer_terms_and_labels_are_refused(flat_basis4):
    basis, oracle = flat_basis4
    with pytest.raises(TypeError):
        ApproachSequence((2.7, 4.2))
    with pytest.raises(TypeError):
        normalize_sequence([2.9, 12.5], basis, oracle)
    with pytest.raises(TypeError):
        block_partition([1.7, True], basis, seq4())
    # numpy integers are integers
    terms = np.array(seq4().terms)
    seq = ApproachSequence(tuple(terms))
    assert seq == seq4() and all(type(t) is int for t in seq.terms)
    assert normalize_sequence(list(terms), basis, oracle) == seq4()
    assert block_partition(np.arange(4), basis, seq) == block_partition(range(4), basis, seq)


def test_normalize_keeps_valid_sequences(flat_basis4):
    basis, oracle = flat_basis4
    raw = [from_support([2]), from_support([1, 2, 3]), from_support([1, 3, 4])]
    assert normalize_sequence(raw, basis, oracle).terms == tuple(raw)


def test_normalize_parity_fix_preserves_top_letter(flat_basis4):
    basis, oracle = flat_basis4
    raw = [from_support([2]), from_support([1, 3])]
    seq = normalize_sequence(raw, basis, oracle)
    assert seq.terms == (from_support([2]), from_support([1, 2, 3]))


def test_normalize_parity_fallback_above_top():
    # term {1,2} has no free letter below its top, so the cheapest one above
    # is added and the top letter moves up
    oracle = weighted_oracle(WeightSpec((1.0, 1.0, 1.0, 1.0)))
    basis = reduce_basis(oracle, 4)
    raw = [from_support([2]), from_support([1, 2])]
    seq = normalize_sequence(raw, basis, oracle)
    assert seq.terms == (from_support([2]), from_support([1, 2, 3]))


def test_normalize_first_term_replaced(flat_basis4):
    basis, oracle = flat_basis4
    raw = [from_support([1, 2, 3]), from_support([1, 3, 4])]
    seq = normalize_sequence(raw, basis, oracle)
    assert seq.terms[0] == from_support([3])


def test_normalize_filters_non_increasing_tops(flat_basis4):
    basis, oracle = flat_basis4
    raw = [
        from_support([2]),
        from_support([3]),
        from_support([3]),  # duplicate top, dropped
        from_support([1, 2, 3]),  # top not above 3, dropped
        from_support([4]),
    ]
    seq = normalize_sequence(raw, basis, oracle)
    assert seq.terms == (from_support([2]), from_support([3]), from_support([4]))


def test_normalize_unusable(flat_basis4):
    basis, oracle = flat_basis4
    with pytest.raises(UnusableSequenceError):
        normalize_sequence([from_support([1])], basis, oracle)
    with pytest.raises(UnusableSequenceError):
        normalize_sequence([], basis, oracle)
    with pytest.raises(UnusableSequenceError):
        normalize_sequence([0, from_support([2])], basis, oracle)


def test_normalize_is_idempotent(flat_basis4):
    basis, oracle = flat_basis4
    for i in range(20):
        seq = random_sequence(rng_from(41, i), basis, oracle)
        again = normalize_sequence(list(seq.terms), basis, oracle)
        assert again.terms == seq.terms


def test_f_iterates_examples(flat_basis4):
    seq = seq4()
    assert f_iterates(seq, 4) == [1, 2, 3, 4]
    assert f_iterates(seq, 3) == [1, 2, 3]
    single = ApproachSequence((from_support([2]),))
    assert f_iterates(single, 4) == [1, 2]


def test_build_second_basis_example(flat_basis4):
    basis, _ = flat_basis4
    built = build_second_basis(basis, seq4())
    assert [support(r) for r in built.rows] == [(1,), (1, 2), (1, 3), (1, 4)]


def test_build_second_basis_minimal(flat_basis4):
    basis, _ = flat_basis4
    built = build_second_basis(basis, ApproachSequence((from_support([2]),)))
    assert [support(r) for r in built.rows] == [(1,), (1, 2)]


def test_build_row_zero_is_first_letter(flat_basis4):
    basis, oracle = flat_basis4
    for i in range(10):
        seq = random_sequence(rng_from(42, i), basis, oracle)
        built = build_second_basis(basis, seq)
        assert built.rows[0] == from_support([1])


def test_build_too_short():
    oracle = weighted_oracle(WeightSpec((1.0,)))
    basis = reduce_basis(oracle, 1)
    seq = ApproachSequence((from_support([2]),))  # top index above rank 1
    with pytest.raises(SequenceTooShortError):
        build_second_basis(basis, seq)


def test_verify_independence_examples():
    good = GeneralBasis(tuple(from_support(s) for s in ([1], [1, 2], [1, 3], [1, 4])))
    res = verify_independence(good)
    assert (res.independent, res.rank) == (True, 4)
    res = verify_independence(GeneralBasis((0b01, 0b10, 0b11)))
    assert (res.independent, res.rank) == (False, 2)
    empty = verify_independence(GeneralBasis(()))
    assert (empty.independent, empty.rank) == (True, 0)


def test_witness_examples(flat_basis4):
    basis, _ = flat_basis4
    seq = seq4()
    assert witness_nonvanishing([0], basis, seq) == 1
    assert witness_nonvanishing([1, 2], basis, seq) == 3
    assert witness_nonvanishing([2, 3], basis, seq) == 4
    with pytest.raises(InvalidIndexError):
        witness_nonvanishing([], basis, seq)
    with pytest.raises(InvalidIndexError):
        witness_nonvanishing([4], basis, seq)


def test_block_partition_covers_each_label_once(flat_basis4):
    basis, _ = flat_basis4
    seq = seq4()
    combo = [0, 1, 2, 3]
    blocks = block_partition(combo, basis, seq)
    labels = sorted(l for labels in blocks.values() for l in labels)
    assert labels == combo
    assert set(blocks) == {-1, 0, 1, 2}


def test_max_of_driving_terms(flat_basis4):
    basis, oracle = flat_basis4
    for i in range(10):
        seq = random_sequence(rng_from(43, i), basis, oracle)
        iters = f_iterates(seq, basis.rank)
        for k in range(len(iters) - 1):
            assert seq.terms[iters[k] - 1].bit_length() == iters[k + 1]


def test_witness_sound_on_exhaustive_combos():
    """The block-argument witness always appears in the elimination-level
    XOR, for every combination over random builds."""
    for i in range(15):
        rng = rng_from(44, i)
        rank = 4 + i % 5
        family = ("weighted", "graev", "closure")[i % 3]
        _, oracle = random_norm(rng, rank, family)
        basis = reduce_basis(oracle, rank)
        seq = random_sequence(rng, basis, oracle)
        built = build_second_basis(basis, seq)
        res = verify_independence(built)
        assert res.independent and res.rank == len(built.rows)
        nrows = len(built.rows)
        for mask in range(1, 1 << nrows):
            labels = [j for j in range(nrows) if mask >> j & 1]
            wit = witness_nonvanishing(labels, basis, seq)
            total = 0
            for lab in labels:
                total ^= built.rows[lab]
            assert total >> (wit - 1) & 1, f"seed {i}, combo {labels}"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_sequences_build_independent_bases(data):
    rank = data.draw(st.integers(min_value=4, max_value=9))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    rng = rng_from(45, rank, seed)
    _, oracle = random_norm(rng, rank, "closure")
    basis = reduce_basis(oracle, rank)
    seq = random_sequence(rng, basis, oracle)
    built = build_second_basis(basis, seq)
    res = verify_independence(built)
    iters = f_iterates(seq, rank)
    assert res.independent
    assert res.rank == len(built.rows) == iters[-1]


def test_separation_profile_counts(flat_basis4):
    basis, oracle = flat_basis4
    seq = seq4()
    built = build_second_basis(basis, seq)
    profile = separation_profile(built, coordinate_norm(basis, oracle), seq)
    assert profile["pair_count"] == 6  # C(4,2)
    assert profile["min_pairwise_distance"] > 0
    assert len(profile["term_separations"]) == 3
    assert all(entry["min_distance"] > 0 for entry in profile["term_separations"])


def test_separation_profile_flags_duplicate_rows(flat_basis4):
    basis, oracle = flat_basis4
    dup = GeneralBasis((0b01, 0b01))
    profile = separation_profile(dup, coordinate_norm(basis, oracle), seq4())
    assert profile["min_pairwise_distance"] == 0.0


def test_check_witnesses_counts_every_mask_and_catches_a_corrupt_row(flat_basis4):
    basis, _ = flat_basis4
    seq = seq4()
    built = build_second_basis(basis, seq)
    assert check_witnesses(built, basis, seq, range(1, 16)) == (15, 0)
    assert check_witnesses(built, basis, seq, [3, 3, 5]) == (3, 0)
    # row 3 loses its own letter 4: the odd top block {3} is witnessed by
    # letter 4, which no longer occurs
    corrupt = GeneralBasis(built.rows[:3] + (from_support([1]),))
    checked, failures = check_witnesses(corrupt, basis, seq, range(1, 16))
    assert checked == 15 and failures > 0


@pytest.mark.parametrize("mask", [0, -1, 0b10000, 0b10001])
def test_check_witnesses_refuses_a_mask_outside_the_rows(flat_basis4, mask):
    # 0b10001 would select row 0 and a fifth row that does not exist
    basis, _ = flat_basis4
    seq = seq4()
    built = build_second_basis(basis, seq)
    assert len(built.rows) == 4
    with pytest.raises(InvalidIndexError):
        check_witnesses(built, basis, seq, [1, mask])
