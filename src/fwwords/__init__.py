"""Maximal-alphabet words for a prescribed set of periods.

Two independent engines build the same canonical word: a closure search over
the residues mod min(P) (`fw_oracle`) and a Euclid-style reduction
(`fw_fast`), with single-letter queries (`letter_at`) and extremal
non-trivial lengths (`extremal_length`) on top. `fwwords.cli` exposes the
command-line surface.
"""

from .bench import BenchRow, run_bench
from .errors import (
    EmptyGeneratorError,
    EmptyPeriodSetError,
    InvalidPeriodError,
    OutOfRangeError,
    TooLargeForExhaustiveError,
)
from .oracle import (
    EXHAUSTIVE_BOUND,
    EquivalencePartition,
    build_partition,
    class_count,
    fw_oracle,
    max_alphabet_exhaustive,
)
from .periods import PeriodSet
from .reduction import (
    ReductionChain,
    Termination,
    batched_reduce,
    extremal_length,
    extremal_length_unbatched,
    fw_fast,
    generating_prefix,
    letter_at,
    letter_at_unbatched,
    reduce_periods,
    reduction_chain,
)
from .selftest import SelftestReport, grid_period_sets, run_selftest
from .words import (
    Word,
    alphabet,
    canonicalize,
    extend_periodically,
    has_period,
    is_palindrome,
    is_trivial,
    pref,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "EXHAUSTIVE_BOUND",
    "EmptyGeneratorError",
    "EmptyPeriodSetError",
    "EquivalencePartition",
    "InvalidPeriodError",
    "OutOfRangeError",
    "PeriodSet",
    "ReductionChain",
    "SelftestReport",
    "Termination",
    "TooLargeForExhaustiveError",
    "Word",
    "alphabet",
    "batched_reduce",
    "build_partition",
    "canonicalize",
    "class_count",
    "extend_periodically",
    "extremal_length",
    "extremal_length_unbatched",
    "fw_fast",
    "fw_oracle",
    "generating_prefix",
    "grid_period_sets",
    "has_period",
    "is_palindrome",
    "is_trivial",
    "letter_at",
    "letter_at_unbatched",
    "max_alphabet_exhaustive",
    "pref",
    "reduce_periods",
    "reduction_chain",
    "run_bench",
    "run_selftest",
]
