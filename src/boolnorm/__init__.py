"""Finite-rank Boolean groups with norms: greedy basis reduction,
separation checkers, and approach-sequence rebasing."""

from .algebra import (
    Element,
    GeneralBasis,
    TriangularBasis,
    element_from_coordinates,
    express_in_basis,
    from_support,
    gf2_rank,
    reduce_word,
    span_elements,
    support,
)
from .errors import (
    BoolnormError,
    IndexOutOfRankError,
    InvalidIndexError,
    NanNormError,
    NotInSpanError,
    RankTooLargeError,
    SearchBoundExceededError,
    SequenceTooShortError,
    StratumRangeError,
    UnusableSequenceError,
)
from .norms import (
    EXHAUSTIVE_RANK_BOUND,
    RELATIVE_TOLERANCE,
    AxiomReport,
    AxiomViolation,
    BaseCostTable,
    MetricSpec,
    NormOracle,
    WeightSpec,
    check_norm_axioms,
    closure_norm,
    coordinate_norm,
    graev_norm,
    graev_oracle,
    oracle_for,
    parse_norm_spec,
    restrict_oracle,
    spec_to_json,
    table_norm,
    weighted_norm,
    weighted_oracle,
)
from .reduction import (
    DEFAULT_SEARCH_BOUND,
    RowRecord,
    reduce_basis,
    reduce_basis_report,
    search_bound,
)
from .rebasing import (
    ApproachSequence,
    IndependenceResult,
    build_second_basis,
    check_witnesses,
    f_iterates,
    normalize_sequence,
    separation_profile,
    verify_independence,
    witness_nonvanishing,
)
from .verification import (
    LEMMA_CHECKS,
    LemmaReport,
    Violation,
    check_closedness,
    check_discreteness,
    check_geometric_bound,
    check_monotone_tail,
    check_null_tail,
    min_separation,
    run_checks,
    separation_epsilon,
    worst_geometric_ratio,
)

__version__ = "0.1.0"
