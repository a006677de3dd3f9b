"""Maximal-alphabet words for a prescribed set of periods.

Two independent engines build the same canonical word: a closure search over
the residues mod min(P) (`fw_oracle`) and a Euclid-style reduction
(`fw_fast`), with single-letter queries (`letter_at`) and extremal
non-trivial lengths (`extremal_length`) on top. `fwwords.cli` exposes the
command-line surface. The reference code the tests check against (literal
twins of the jumped routines, the exhaustive maximality search) stays in its
defining module and is not exported here.
"""

from .bench import BenchRow, run_bench
from .errors import (
    EmptyGeneratorError,
    EmptyPeriodSetError,
    InvalidPeriodError,
    OutOfRangeError,
)
from .oracle import build_partition, fw_oracle
from .periods import PeriodSet
from .reduction import (
    Termination,
    extremal_length,
    fw_fast,
    generating_prefix,
    letter_at,
)
from .selftest import SelftestReport, grid_period_sets, run_selftest
from .words import (
    Word,
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
    "EmptyGeneratorError",
    "EmptyPeriodSetError",
    "InvalidPeriodError",
    "OutOfRangeError",
    "PeriodSet",
    "SelftestReport",
    "Termination",
    "Word",
    "build_partition",
    "canonicalize",
    "extend_periodically",
    "extremal_length",
    "fw_fast",
    "fw_oracle",
    "generating_prefix",
    "grid_period_sets",
    "has_period",
    "is_palindrome",
    "is_trivial",
    "letter_at",
    "pref",
    "run_bench",
    "run_selftest",
]
