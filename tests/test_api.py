import subprocess
import sys

import pytest

import fwwords
from fwwords import reduction


def test_public_names():
    assert fwwords.__all__ == [
        "BenchRow",
        "EmptyGeneratorError",
        "EmptyPeriodSetError",
        "InvalidPeriodError",
        "OutOfRangeError",
        "PeriodSet",
        "SelftestReport",
        "Termination",
        "Word",
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
    for name in fwwords.__all__:
        getattr(fwwords, name)
    namespace = {}
    exec("from fwwords import *", namespace)
    assert set(fwwords.__all__) <= namespace.keys()
    assert set(fwwords.__all__) <= set(dir(fwwords))
    with pytest.raises(AttributeError):
        fwwords.no_such_name


def test_import_loads_no_submodule():
    script = "import sys, fwwords; print(sorted(m for m in sys.modules if m.startswith('fwwords')))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "['fwwords']\n")


def test_names_follow_their_defining_module(monkeypatch):
    # Nothing is cached in the package, so a patch and its undoing both show through.
    original = reduction.letter_at
    monkeypatch.setattr(reduction, "letter_at", len)
    assert fwwords.letter_at is len
    monkeypatch.undo()
    assert fwwords.letter_at is original
