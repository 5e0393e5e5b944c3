"""Rule-by-rule lockdown against the fixture corpus.

Every rule id has one minimal *bad* fixture (fires, with pinned
rule-id + line numbers) and one *good* fixture (the sanctioned idiom,
silent).  The coverage test makes the corpus grow with the registry:
a new rule cannot land without its pair.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_source
from repro.analysis.rules import all_rule_ids

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture stem -> exact (rule, line) findings its bad file must yield.
EXPECTED = {
    "det_random": [("det-random", 2), ("det-random", 8), ("det-random", 12)],
    "det_wallclock": [("det-wallclock", 7), ("det-wallclock", 11)],
    "det_unordered_iter": [("det-unordered-iter", 4)],
    "det_id_order": [("det-id-order", 3)],
    "shm_lifecycle": [("shm-lifecycle", 5)],
    "shm_raw_attach": [("shm-raw-attach", 5)],
    "async_blocking": [
        ("async-blocking", 5),
        ("async-blocking", 6),
        ("async-blocking", 10),  # `with gate:` on the loop thread
        ("async-blocking", 15),  # `....kernel_gate.acquire()`
        ("async-blocking", 19),  # `with cache.flight(key):`
    ],
    "async_future_result": [("async-future-result", 2)],
    "api_all_undefined": [("api-all-undefined", 1)],
    "api_shim_nowarn": [("api-shim-nowarn", 1)],
    "hyg_broad_except": [("hyg-broad-except", 4)],
}


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), path=name)


class TestRegistryCoverage:
    def test_every_rule_has_a_fixture_pair(self):
        for rule_id in all_rule_ids():
            stem = rule_id.replace("-", "_")
            assert (FIXTURES / f"{stem}_bad.py").is_file(), (
                f"rule {rule_id} has no bad fixture — add "
                f"tests/analysis/fixtures/{stem}_bad.py"
            )
            assert (FIXTURES / f"{stem}_good.py").is_file(), (
                f"rule {rule_id} has no good fixture"
            )

    def test_expectations_cover_every_rule(self):
        assert set(EXPECTED) == {
            rule_id.replace("-", "_") for rule_id in all_rule_ids()
        }

    def test_rule_ids_are_unique(self):
        ids = all_rule_ids()
        assert len(ids) == len(set(ids))


class TestBadFixturesFire:
    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_fires_exactly(self, stem):
        findings = lint_fixture(f"{stem}_bad.py")
        assert [(f.rule, f.line) for f in findings] == EXPECTED[stem]

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_fires_only_its_own_rule(self, stem):
        findings = lint_fixture(f"{stem}_bad.py")
        assert {f.rule for f in findings} == {stem.replace("_", "-")}


class TestGoodFixturesSilent:
    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_silent(self, stem):
        assert lint_fixture(f"{stem}_good.py") == []


class TestScoping:
    """det-* rules run only on canonical modules."""

    def test_canonical_marker_required(self):
        source = (FIXTURES / "det_random_bad.py").read_text(encoding="utf-8")
        unmarked = source.replace("# repro: canonical-module\n", "")
        assert lint_source(unmarked, path="not_canonical.py") == []

    def test_canonical_flag_overrides(self):
        source = (FIXTURES / "det_random_bad.py").read_text(encoding="utf-8")
        unmarked = source.replace("# repro: canonical-module\n", "")
        findings = lint_source(unmarked, path="forced.py", canonical=True)
        assert {f.rule for f in findings} == {"det-random"}

    def test_non_canonical_rules_run_everywhere(self):
        findings = lint_source(
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    except Exception:\n"
            "        return None\n",
            path="anywhere.py",
        )
        assert [f.rule for f in findings] == ["hyg-broad-except"]


class TestRuleEdgeCases:
    def test_sorted_set_is_the_fix(self):
        src = "# repro: canonical-module\nxs = sorted({1, 2, 3})\n"
        assert lint_source(src, path="x.py") == []

    def test_list_of_set_fires(self):
        src = "# repro: canonical-module\nxs = list({1, 2, 3})\n"
        assert [f.rule for f in lint_source(src, path="x.py")] == [
            "det-unordered-iter"
        ]

    def test_star_import_silences_all_check(self):
        src = "from os.path import *\n__all__ = ['ghost']\n"
        assert lint_source(src, path="x.py") == []

    def test_all_augassign_entries_resolve(self):
        src = "__all__ = ['a']\na = 1\n__all__ += ['missing']\n"
        findings = lint_source(src, path="x.py")
        assert [(f.rule, f.line) for f in findings] == [("api-all-undefined", 3)]

    def test_sharedmemory_create_inside_return_is_paired(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def make(n):\n"
            "    return shared_memory.SharedMemory(create=True, size=n)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_sharedmemory_create_discarded_fires(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def make(n):\n"
            "    shared_memory.SharedMemory(create=True, size=n)\n"
        )
        assert [f.rule for f in lint_source(src, path="x.py")] == [
            "shm-lifecycle"
        ]

    def test_attach_inside_attach_segment_is_exempt(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def attach_segment(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_with_statement_pairs_allocation(self):
        src = (
            "from repro.parallel.shmplane import allocate_segment\n"
            "import contextlib\n"
            "def use(n):\n"
            "    with contextlib.closing(allocate_segment(n)) as shm:\n"
            "        return bytes(shm.buf[:1])\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_blocking_in_sync_def_is_fine(self):
        src = "import time\ndef pause():\n    time.sleep(1)\n"
        assert lint_source(src, path="x.py") == []

    def test_nested_async_def_is_still_checked(self):
        src = (
            "import time\n"
            "def outer():\n"
            "    async def inner():\n"
            "        time.sleep(1)\n"
            "    return inner\n"
        )
        assert [(f.rule, f.line) for f in lint_source(src, path="x.py")] == [
            ("async-blocking", 4)
        ]

    def test_wallclock_via_from_import(self):
        src = (
            "# repro: canonical-module\n"
            "from time import time\n"
            "def stamp():\n"
            "    return time()\n"
        )
        assert [f.rule for f in lint_source(src, path="x.py")] == [
            "det-wallclock"
        ]

    def test_handler_that_reraises_is_not_silent(self):
        src = (
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    except Exception:\n"
            "        raise RuntimeError('wrapped')\n"
        )
        assert lint_source(src, path="x.py") == []
