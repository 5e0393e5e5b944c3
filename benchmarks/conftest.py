"""Benchmark-suite conftest.

Session-scoped scene and calibration fixtures live in the repo-root
``conftest.py``, shared with ``tests/`` (so benches can parametrize over
the ``engine`` fixture without duplicating them).  Every bench prints
the table/figure it regenerates (run with ``-s`` to see them) and
asserts the published *shape* — orderings, dips, crossovers — never
absolute numbers: absolute rates belong to the host, shapes to the
paper.

Perf trajectory: transport benches additionally take the
:func:`write_bench_json` fixture and record their measured numbers as
``BENCH_<name>.json`` — machine-readable snapshots a later session (or
a regression dashboard) can diff instead of re-deriving rates from
prose.  A plain ``pytest`` run writes them to the ignored
``benchmarks/out/``; only ``pytest --record-bench`` rewrites the
committed ``benchmarks/BENCH_<name>.json``, so a test run never
dirties the tree.  Absolute numbers there are container-specific
context, not assertions.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Callable

import pytest

#: Reading time for fixed-time speedups, chosen late enough that every
#: platform's startup has amortised.
SPEEDUP_READ_TIME = 250.0


@pytest.fixture(scope="session")
def write_bench_json(request) -> Callable[[str, dict], Path]:
    """``write_bench_json(name, payload)`` records ``BENCH_<name>.json``.

    A ``host`` stanza is added so a diff across commits can tell a code
    change from a container change.  Keys are sorted for stable diffs.
    """
    here = Path(__file__).resolve().parent
    out_dir = here if request.config.getoption("--record-bench") else here / "out"

    def write(name: str, payload: dict) -> Path:
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        record = dict(payload)
        record["host"] = {
            "platform": platform.platform(),
            "python": platform.python_version(),
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    return write
