import inspect

import boolnorm

# Every public name the package exports, submodules aside (importing one,
# as the CLI does, binds it on the package).  A change to the library surface
# shows here as a diff: update this list on purpose, never to make it pass.
PUBLIC_NAMES = [
    "ApproachSequence",
    "AxiomReport",
    "AxiomViolation",
    "BaseCostTable",
    "BoolnormError",
    "DEFAULT_SEARCH_BOUND",
    "EXHAUSTIVE_RANK_BOUND",
    "Element",
    "GeneralBasis",
    "IndependenceResult",
    "IndexOutOfRankError",
    "InvalidIndexError",
    "LEMMA_CHECKS",
    "LemmaReport",
    "MetricSpec",
    "NanNormError",
    "NormOracle",
    "RELATIVE_TOLERANCE",
    "RankTooLargeError",
    "RowRecord",
    "SearchBoundExceededError",
    "SequenceTooShortError",
    "StratumRangeError",
    "TriangularBasis",
    "UnusableSequenceError",
    "Violation",
    "WeightSpec",
    "build_second_basis",
    "check_closedness",
    "check_discreteness",
    "check_geometric_bound",
    "check_monotone_tail",
    "check_norm_axioms",
    "check_null_tail",
    "check_witnesses",
    "closure_norm",
    "coordinate_norm",
    "f_iterates",
    "from_support",
    "gf2_rank",
    "graev_norm",
    "graev_oracle",
    "min_separation",
    "normalize_sequence",
    "oracle_for",
    "parse_norm_spec",
    "reduce_basis",
    "reduce_basis_report",
    "restrict_oracle",
    "run_checks",
    "separation_profile",
    "span_elements",
    "spec_to_json",
    "support",
    "table_norm",
    "verify_independence",
    "weighted_norm",
    "weighted_oracle",
    "witness_nonvanishing",
    "worst_geometric_ratio",
]

# Parameters of the exported callables, summed: inspect.signature of each
# name above, a class counted by its constructor (self excluded); a name
# with no signature (a constant, the Element alias of int, an error class)
# counts 0.  A new knob shows here as a diff: update it on purpose only.
PUBLIC_PARAMETERS = 103


def parameter_count(value) -> int:
    try:
        return len(inspect.signature(value).parameters)
    except (TypeError, ValueError):
        return 0


def test_public_names_are_pinned():
    names = [
        name
        for name, value in vars(boolnorm).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(names) == PUBLIC_NAMES


def test_public_parameters_are_pinned():
    counts = [parameter_count(getattr(boolnorm, name)) for name in PUBLIC_NAMES]
    assert sum(counts) == PUBLIC_PARAMETERS


def test_norm_oracle_takes_a_table_or_a_spec():
    # Swapping or adding a constructor knob shows here as a named diff.
    params = tuple(inspect.signature(boolnorm.NormOracle).parameters)
    assert params == ("rank", "table", "spec")
