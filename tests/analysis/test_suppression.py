"""Pragma and baseline escape hatches, round-tripped.

A finding must be silencable two ways — inline (``# repro:
allow[rule-id]`` on the line or in the comment block above) and by a
committed baseline — and *only* those ways: a pragma naming a
different rule, or a baseline entry already consumed, must not
suppress anything.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.baseline import load_baseline, split_baselined, write_baseline
from repro.analysis.config import LintConfig

FIXTURES = Path(__file__).parent / "fixtures"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def with_line_pragmas(source: str, lines: list[int], rule: str) -> str:
    out = source.splitlines()
    for lineno in lines:
        out[lineno - 1] += f"  # repro: allow[{rule}]"
    return "\n".join(out) + "\n"


class TestPragmas:
    def test_same_line_pragma_suppresses_every_bad_fixture(self):
        for bad in sorted(FIXTURES.glob("*_bad.py")):
            source = bad.read_text(encoding="utf-8")
            findings = lint_source(source, path=bad.name)
            assert findings, bad.name
            patched = source
            for finding in findings:
                patched = with_line_pragmas(
                    patched, [finding.line], finding.rule
                )
            assert lint_source(patched, path=bad.name) == [], bad.name

    def test_comment_block_pragma_suppresses(self):
        src = (
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    # A justification that runs long enough to need\n"
            "    # repro: allow[hyg-broad-except] — and a second line\n"
            "    # after the pragma, still one contiguous block.\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert lint_source(src, path="x.py") == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = (
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    except Exception:  # repro: allow[det-random]\n"
            "        return None\n"
        )
        assert [f.rule for f in lint_source(src, path="x.py")] == [
            "hyg-broad-except"
        ]

    def test_pragma_separated_by_code_does_not_reach(self):
        src = (
            "# repro: allow[hyg-broad-except]\n"
            "import os\n"
            "def f(w):\n"
            "    try:\n"
            "        return w()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert [f.rule for f in lint_source(src, path="x.py")] == [
            "hyg-broad-except"
        ]

    def test_multiple_rules_in_one_pragma(self):
        src = (
            "# repro: canonical-module\n"
            "import random, time  # repro: allow[det-random]\n"
            "x = random.random()  # repro: allow[det-random, det-wallclock]\n"
            "y = time.time()  # repro: allow[det-random, det-wallclock]\n"
        )
        assert lint_source(src, path="x.py") == []


class TestBaseline:
    def fresh_config(self, root: Path) -> LintConfig:
        return LintConfig(root=root)

    def seed_tree(self, tmp_path: Path) -> Path:
        bad = tmp_path / "victim.py"
        bad.write_text(read_fixture("hyg_broad_except_bad.py"), encoding="utf-8")
        return bad

    def test_round_trip(self, tmp_path):
        bad = self.seed_tree(tmp_path)
        config = self.fresh_config(tmp_path)
        first = lint_paths([bad], config=config, use_baseline=False)
        assert len(first.findings) == 1

        bl = tmp_path / "lint-baseline.json"
        write_baseline(bl, first.findings)
        second = lint_paths([bad], config=config, baseline_path=bl)
        assert second.findings == []
        assert [f.rule for f in second.grandfathered] == ["hyg-broad-except"]
        assert second.exit_code == 0

    def test_baseline_survives_line_shift(self, tmp_path):
        bad = self.seed_tree(tmp_path)
        config = self.fresh_config(tmp_path)
        bl = tmp_path / "lint-baseline.json"
        write_baseline(
            bl, lint_paths([bad], config=config, use_baseline=False).findings
        )
        bad.write_text(
            "import os\n\n" + bad.read_text(encoding="utf-8"), encoding="utf-8"
        )
        shifted = lint_paths([bad], config=config, baseline_path=bl)
        assert shifted.findings == []
        assert len(shifted.grandfathered) == 1

    def test_duplicated_violation_is_not_absorbed(self, tmp_path):
        bad = self.seed_tree(tmp_path)
        config = self.fresh_config(tmp_path)
        bl = tmp_path / "lint-baseline.json"
        write_baseline(
            bl, lint_paths([bad], config=config, use_baseline=False).findings
        )
        clone = read_fixture("hyg_broad_except_bad.py").replace(
            "def swallow", "def swallow_again"
        )
        bad.write_text(
            bad.read_text(encoding="utf-8") + "\n\n" + clone, encoding="utf-8"
        )
        doubled = lint_paths([bad], config=config, baseline_path=bl)
        assert len(doubled.findings) == 1
        assert len(doubled.grandfathered) == 1

    def test_stale_entries_are_counted(self, tmp_path):
        bad = self.seed_tree(tmp_path)
        config = self.fresh_config(tmp_path)
        bl = tmp_path / "lint-baseline.json"
        write_baseline(
            bl, lint_paths([bad], config=config, use_baseline=False).findings
        )
        bad.write_text(read_fixture("hyg_broad_except_good.py"), encoding="utf-8")
        fixed = lint_paths([bad], config=config, baseline_path=bl)
        assert fixed.findings == []
        assert fixed.stale_baseline == 1

    def test_no_baseline_flag_resurfaces_findings(self, tmp_path):
        bad = self.seed_tree(tmp_path)
        config = self.fresh_config(tmp_path)
        bl = tmp_path / "lint-baseline.json"
        write_baseline(
            bl, lint_paths([bad], config=config, use_baseline=False).findings
        )
        raw = lint_paths([bad], config=config, use_baseline=False)
        assert len(raw.findings) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_split_is_multiset(self):
        src = read_fixture("hyg_broad_except_bad.py")
        findings = lint_source(src, path="v.py")
        doubled = findings + findings
        baseline = load_baseline(Path("/nonexistent"))
        for f in findings:
            baseline[f.fingerprint()] += 1
        live, grand, stale = split_baselined(doubled, baseline)
        assert len(grand) == 1
        assert len(live) == 1
        assert stale == 0

    def test_committed_repo_baseline_is_empty(self):
        repo_baseline = Path(__file__).parents[2] / "lint-baseline.json"
        doc = json.loads(repo_baseline.read_text(encoding="utf-8"))
        assert doc == {"findings": []}
