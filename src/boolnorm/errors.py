"""Domain errors with stable machine-readable codes for CLI reporting."""

from __future__ import annotations


class BoolnormError(Exception):
    """Base class for domain errors; `code` is a stable identifier."""

    code = "error"


class StratumRangeError(BoolnormError):
    code = "k-exceeds-rank"


class IndexOutOfRankError(BoolnormError):
    code = "index-out-of-rank"


class RankTooLargeError(BoolnormError):
    code = "rank-too-large"


class NanNormError(BoolnormError):
    code = "nan-norm"


class SearchBoundExceededError(BoolnormError):
    code = "search-bound-exceeded"


class UnusableSequenceError(BoolnormError):
    code = "unusable-sequence"


class SequenceTooShortError(BoolnormError):
    code = "sequence-too-short"


class InvalidIndexError(BoolnormError):
    code = "invalid-index"
