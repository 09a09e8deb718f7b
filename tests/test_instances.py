import pytest

from boolnorm import check_norm_axioms
from boolnorm.instances import (
    NORM_FAMILIES,
    random_base_table,
    random_metric_spec,
    random_norm,
    random_raw_sequence,
    random_weight_spec,
    rng_from,
)


def test_generators_are_seed_deterministic():
    a = random_base_table(rng_from(5, 1), 5)
    b = random_base_table(rng_from(5, 1), 5)
    assert a == b
    assert random_weight_spec(rng_from(5, 2), 5) == random_weight_spec(rng_from(5, 2), 5)
    assert random_metric_spec(rng_from(5, 3), 5) == random_metric_spec(rng_from(5, 3), 5)
    assert random_raw_sequence(rng_from(5, 4), 8) == random_raw_sequence(rng_from(5, 4), 8)


def test_generators_vary_with_seed():
    assert random_base_table(rng_from(6, 0), 5) != random_base_table(rng_from(6, 1), 5)


def test_random_metric_is_valid_metric():
    # MetricSpec itself validates symmetry, positivity, and triangles
    for i in range(10):
        spec = random_metric_spec(rng_from(7, i), 7)
        assert spec.rank == 7


def test_random_norms_satisfy_axioms():
    for i, family in enumerate(("weighted", "graev", "closure")):
        _, oracle = random_norm(rng_from(8, i), 6, family)
        assert oracle.kind == family
        assert check_norm_axioms(oracle).passed


def test_random_norm_rejects_unknown_family():
    rng = rng_from(9, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown norm family 'bogus'"):
        random_norm(rng, 4, "bogus")
    assert rng.bit_generator.state == state  # refused before anything is drawn
    assert NORM_FAMILIES == ("weighted", "graev", "closure")


def test_raw_sequences_have_increasing_tops():
    for i in range(20):
        terms = random_raw_sequence(rng_from(10, i), 9)
        tops = [t.bit_length() for t in terms]
        assert len(terms) >= 2
        assert tops == sorted(set(tops))
        assert tops[0] >= 2
    with pytest.raises(ValueError):
        random_raw_sequence(rng_from(10, 0), 2)


def test_random_base_table_refuses_a_table_memory_cannot_hold():
    from boolnorm import RankTooLargeError

    # 2**40 float64 costs are 8 TiB: refused before numpy is asked for them
    with pytest.raises(RankTooLargeError, match="a rank-40 cost table needs"):
        random_base_table(rng_from(0, 0), 40)
