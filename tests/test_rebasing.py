from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    ApproachSequence,
    BoolnormError,
    GeneralBasis,
    InvalidIndexError,
    SequenceTooShortError,
    TriangularBasis,
    UnusableSequenceError,
    WeightSpec,
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
from boolnorm.algebra import _index
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
    assert [t.bit_length() for t in seq.terms] == [2, 3, 4]
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
        witness_nonvanishing([1.7, True], basis, seq4())
    # numpy integers are integers
    terms = np.array(seq4().terms)
    seq = ApproachSequence(tuple(terms))
    assert seq == seq4() and all(type(t) is int for t in seq.terms)
    assert normalize_sequence(list(terms), basis, oracle) == seq4()
    assert witness_nonvanishing(np.arange(4), basis, seq) == witness_nonvanishing(
        range(4), basis, seq
    )


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


def scalar_witness_failures(built, basis, seq, masks):
    """check_witnesses as a per-mask loop: witness_nonvanishing against the
    XOR of the selected rows."""
    failures = 0
    for mask in masks:
        labels = [i for i in range(len(built.rows)) if mask >> i & 1]
        total = 0
        for label in labels:
            total ^= built.rows[label]
        failures += not total >> (witness_nonvanishing(labels, basis, seq) - 1) & 1
    return failures


@st.composite
def sequences(draw):
    """A rank 3..14, its identity basis and an approach sequence with random
    top indices and odd-size terms."""
    rank = draw(st.integers(min_value=3, max_value=14))
    tops = draw(st.lists(st.integers(2, rank), min_size=2, max_size=rank - 1, unique=True))
    tops.sort()
    terms = [1 << (tops[0] - 1)]
    for f in tops[1:]:
        low = draw(st.integers(min_value=0, max_value=(1 << (f - 1)) - 1))
        if low.bit_count() % 2:
            low ^= 1 << draw(st.integers(0, f - 2))  # make the size odd
        terms.append(1 << (f - 1) | low)
    basis = reduce_basis(weighted_oracle(WeightSpec((1.0,) * rank)), rank)
    return basis, ApproachSequence(tuple(terms))


@settings(max_examples=150, deadline=None)
@given(sequences(), st.data())
def test_array_witnesses_match_the_per_mask_block_argument(instance, data):
    from boolnorm import rebasing

    basis, seq = instance
    iters = f_iterates(seq, basis.rank)
    if len(iters) < 2:
        return
    built = build_second_basis(basis, seq)
    nrows = len(built.rows)
    assert nrows == iters[-1]
    # Block -1, then per block its top label alone (odd count) and with the
    # label below it (even count when both are in the block), then random
    # masks with repeats.
    fixed = [1]
    for lo, hi in zip(iters, iters[1:]):
        fixed.append(1 << (hi - 1))
        fixed.append(3 << (hi - 2) if hi - 2 >= lo else 1 << (hi - 1) | 1)
    drawn = data.draw(st.lists(st.integers(1, (1 << nrows) - 1), max_size=80))
    masks = fixed + drawn + drawn[: len(drawn) // 3]
    tags = np.zeros(len(masks), dtype=np.int64)  # a block of one trial
    got = rebasing._witness_letters(np.array(masks, dtype=np.int64), tags, [iters])
    want = [
        witness_nonvanishing([i for i in range(nrows) if m >> i & 1], basis, seq) for m in masks
    ]
    assert got.tolist() == want
    if data.draw(st.booleans()):
        # a corrupt row makes some witnesses absent from their sums
        rows = list(built.rows)
        rows[data.draw(st.integers(0, nrows - 1))] = data.draw(
            st.integers(0, (1 << basis.rank) - 1)
        )
        built = GeneralBasis(tuple(rows))
    failures = scalar_witness_failures(built, basis, seq, masks)
    assert check_witnesses(built, basis, seq, masks) == (len(masks), failures)
    assert check_witnesses(built, basis, seq, iter(masks)) == (len(masks), failures)


@settings(max_examples=100, deadline=None)
@given(st.lists(sequences(), min_size=1, max_size=8), st.data())
def test_a_block_witness_pass_counts_what_each_trial_counts_alone(instances, data):
    """One witness pass over a block of trials of mixed ranks and iterate
    counts, with repeated masks and at times one corrupt row per trial (some
    wider than int64), gives each trial the failures of the per-mask loop
    and of check_witnesses."""
    from boolnorm import rebasing

    items, want = [], []
    for basis, seq in instances:
        built = build_second_basis(basis, seq)
        nrows = len(built.rows)
        drawn = data.draw(st.lists(st.integers(1, (1 << nrows) - 1), min_size=1, max_size=40))
        masks = drawn + drawn[: len(drawn) // 2]
        if data.draw(st.booleans()):
            rows = list(built.rows)
            rows[data.draw(st.integers(0, nrows - 1))] = data.draw(
                st.one_of(st.integers(0, (1 << basis.rank) - 1), st.integers(0, 1 << 70))
            )
            built = GeneralBasis(tuple(rows))
        failures = scalar_witness_failures(built, basis, seq, masks)
        assert check_witnesses(built, basis, seq, masks) == (len(masks), failures)
        items.append((built.rows, f_iterates(seq, basis.rank), np.array(masks, dtype=np.int64)))
        want.append(failures)
    assert rebasing._witness_failures(items) == want


@pytest.mark.parametrize("bad", [2.5, True, "3", 3.0])
def test_check_witnesses_refuses_non_integer_masks(flat_basis4, bad):
    basis, _ = flat_basis4
    seq = seq4()
    built = build_second_basis(basis, seq)
    with pytest.raises(TypeError, match="index must be an integer"):
        check_witnesses(built, basis, seq, [1, bad, 99])
    assert check_witnesses(built, basis, seq, [np.int64(3), 5]) == (2, 0)


def test_check_witnesses_refuses_in_mask_order(flat_basis4):
    basis, _ = flat_basis4
    seq = seq4()
    built = build_second_basis(basis, seq)
    assert check_witnesses(built, basis, seq, []) == (0, 0)
    assert check_witnesses(built, basis, seq, iter(())) == (0, 0)
    with pytest.raises(InvalidIndexError, match=r"^combination mask 16 out of range 1\.\.15$"):
        check_witnesses(built, basis, seq, [3, 16, 2**70, 0])
    with pytest.raises(InvalidIndexError, match=r"^combination mask 0 out of range 1\.\.15$"):
        check_witnesses(built, basis, seq, [3, 0, 16])
    # With a fifth row, labels 4 and 5 lie past the last block: the first
    # mask selecting one raises witness_nonvanishing's error for it, and a
    # mask out of range after it is not reached.
    longer = GeneralBasis(built.rows + (0b1, 0b11))
    for mask in (0b110001, 0b100011):
        with pytest.raises(InvalidIndexError) as want:
            witness_nonvanishing([i for i in range(6) if mask >> i & 1], basis, seq)
        with pytest.raises(InvalidIndexError) as got:
            check_witnesses(longer, basis, seq, [7, mask, 1 << 6, 0b010000])
        assert str(got.value) == str(want.value)
    assert str(got.value) == "row label 5 out of range 0..3"
    with pytest.raises(InvalidIndexError, match="combination mask 64 out of range"):
        check_witnesses(longer, basis, seq, [7, 64, 0b110001])
    assert check_witnesses(longer, basis, seq, range(1, 16)) == (15, 0)


def test_check_witnesses_refuses_a_sequence_no_block_fits(flat_basis4):
    basis, _ = flat_basis4
    short = TriangularBasis((0b1,))
    seq = seq4()
    built = build_second_basis(basis, seq)
    assert check_witnesses(built, short, seq, []) == (0, 0)
    with pytest.raises(InvalidIndexError, match="combination mask 0 out of range"):
        check_witnesses(built, short, seq, [0, 1])
    with pytest.raises(SequenceTooShortError):
        witness_nonvanishing([0], short, seq)
    with pytest.raises(SequenceTooShortError):
        check_witnesses(built, short, seq, [1, 0])


def test_check_witnesses_refuses_masks_wider_than_int64():
    from boolnorm import RankTooLargeError

    basis = TriangularBasis(tuple(1 << j for j in range(63)))
    seq = ApproachSequence((0b10, 1 << 62 | 0b11))
    assert f_iterates(seq, 63) == [1, 2, 63]
    built = build_second_basis(basis, seq)
    with pytest.raises(RankTooLargeError, match="at most 62 bits, not 63"):
        check_witnesses(built, basis, seq, [1])


def reference_witness(combo, basis, seq):
    """witness_nonvanishing in two steps: partition the sorted labels by
    block (key -1 holds label 0), then the case analysis on the top block."""
    iters = f_iterates(seq, basis.rank)
    if len(iters) < 2:
        raise SequenceTooShortError("no block fits: the first top index already exceeds rank")
    nrows = iters[-1]
    blocks = {}
    for label in sorted(set(_index(i) for i in combo)):
        if not 0 <= label < nrows:
            raise InvalidIndexError(f"row label {label} out of range 0..{nrows - 1}")
        key = -1 if label == 0 else bisect_right(iters, label) - 1
        blocks.setdefault(key, []).append(label)
    if not blocks:
        raise InvalidIndexError("combination must be nonempty")
    m = max(blocks)
    if m == -1:
        return 1
    if len(blocks[m]) % 2 == 0:
        return max(label for labels in blocks.values() for label in labels)
    return iters[m + 1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, BoolnormError) as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(sequences(), st.data())
def test_witness_nonvanishing_matches_the_block_partition_reference(instance, data):
    basis, seq = instance
    # a shorter basis moves the last block, or leaves no block at all
    rank = data.draw(st.just(basis.rank) | st.integers(1, basis.rank))
    basis = TriangularBasis(basis.rows[:rank])
    nrows = f_iterates(seq, rank)[-1]
    kind = data.draw(st.sampled_from(["rows", "labels", "any"]))
    if kind == "rows":  # labels of existing rows only: the letter is returned
        combo = data.draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=2 * nrows))
    else:
        label = st.integers(-3, nrows + 2)
        odd = st.sampled_from([1.5, True, "2", None, 2.0, np.int64(1)])
        combo = data.draw(st.lists(label if kind == "labels" else label | odd, max_size=8))
    want = outcome(reference_witness, combo, basis, seq)
    assert outcome(witness_nonvanishing, combo, basis, seq) == want
    assert outcome(witness_nonvanishing, iter(combo), basis, seq) == want
