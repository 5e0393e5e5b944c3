"""Benchmark-suite conftest.

Session-scoped scene and calibration fixtures live in the repo-root
``conftest.py``, shared with ``tests/`` (so benches can parametrize over
the ``engine`` fixture without duplicating them).  Every bench prints
the table/figure it regenerates (run with ``-s`` to see them) and
asserts the published *shape* — orderings, dips, crossovers — never
absolute numbers: absolute rates belong to the host, shapes to the
paper.
"""

from __future__ import annotations

#: Reading time for fixed-time speedups, chosen late enough that every
#: platform's startup has amortised.
SPEEDUP_READ_TIME = 250.0

