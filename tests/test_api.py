import fwwords


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
    for name in fwwords.__all__:
        getattr(fwwords, name)
