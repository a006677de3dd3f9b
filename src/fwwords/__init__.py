"""Maximal-alphabet words for a prescribed set of periods.

Two independent engines build the same canonical word, each as a generator of
at most min(min P, n) letters extended periodically: the labels of a closure
search over the residues mod min(P) (`fw_oracle`) and the shortest generator
of a Euclid-style reduction (`generating_prefix`, for `fw_fast`), with letter
queries (`letter_at`) and extremal non-trivial lengths (`extremal_length`) on
top. `fwwords.cli` exposes the command-line surface. The literal twins of
the jumped routines, which the tests check against, stay in
`fwwords.reduction` and are not exported here.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name with the module that defines it. A name is imported on
# first use, so `import fwwords` loads no submodule and a command loads only
# what it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "bench": ("BenchRow", "run_bench"),
        "errors": ("EmptyGeneratorError", "EmptyPeriodSetError", "InvalidPeriodError", "OutOfRangeError"),
        "oracle": ("fw_oracle",),
        "periods": ("PeriodSet",),
        "reduction": ("Termination", "extremal_length", "fw_fast", "generating_prefix", "letter_at"),
        "selftest": ("SelftestReport", "grid_period_sets", "run_selftest"),
        "words": ("Word", "canonicalize", "extend_periodically", "has_period", "is_palindrome", "is_trivial", "pref"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    # Looked up on every access and never stored here, so whoever patches a
    # name in its defining module, and later restores it, is seen at once.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
