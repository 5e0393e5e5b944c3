"""Benchmark suite package.

A real package (not just a directory) so pytest imports these modules
as ``benchmarks.test_*`` — letting a benchmark and a unit test share a
basename (e.g. ``test_amortize.py`` lives both here and under
``tests/api/``) without an import-file mismatch.
"""
