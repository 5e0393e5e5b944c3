"""The repo's own code passes its own lint — and a seeded violation fails.

This is the lint gate: the first class runs ``repro lint src tests
benchmarks`` and holds the committed baseline empty; the second proves
the gate has teeth by planting one violation in a scratch tree and
watching exit code 1 come back.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.config import DEFAULT_CANONICAL, load_config
from repro.analysis.engine import lint_paths, run

REPO_ROOT = Path(__file__).parents[2]


class TestRepoLintsClean:
    def test_src_tests_benchmarks_exit_zero(self):
        out = io.StringIO()
        rc = run(
            [str(REPO_ROOT / p) for p in ("src", "tests", "benchmarks")],
            out=out,
        )
        assert rc == 0, out.getvalue()
        assert "0 finding(s)" in out.getvalue()

    def test_clean_without_baseline_too(self):
        # The committed baseline is empty, so --no-baseline must agree:
        # nothing in the tree leans on grandfathering.
        doc = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert doc == {"findings": []}
        out = io.StringIO()
        rc = run(
            [str(REPO_ROOT / p) for p in ("src", "tests", "benchmarks")],
            out=out,
            no_baseline=True,
        )
        assert rc == 0, out.getvalue()

    def test_canonical_modules_are_scanned(self):
        # Guard against the gate silently skipping the determinism
        # contract: the canonical config must match real files.
        result = lint_paths([REPO_ROOT / "src" / "repro" / "core"])
        assert result.checked_files > 0

    def test_canonical_scope_names_real_paths(self):
        # A moved module must not drop out of the det-* scope unnoticed:
        # pyproject.toml agrees with the default, and every entry exists.
        config = load_config([REPO_ROOT / "src"])
        assert config.canonical == DEFAULT_CANONICAL
        assert [p for p in config.canonical if not (REPO_ROOT / p).exists()] == []


class TestSeededViolationFails:
    def seed(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src"
        pkg.mkdir()
        victim = pkg / "victim.py"
        victim.write_text(
            "def swallow(work):\n"
            "    try:\n"
            "        return work()\n"
            "    except Exception:\n"
            "        return {}\n",
            encoding="utf-8",
        )
        return victim

    def test_exit_one_and_finding_line(self, tmp_path):
        victim = self.seed(tmp_path)
        out = io.StringIO()
        rc = run([str(victim)], out=out)
        assert rc == 1
        text = out.getvalue()
        assert "hyg-broad-except" in text
        assert ":4: " in text

    def test_json_format_reports_it(self, tmp_path):
        victim = self.seed(tmp_path)
        out = io.StringIO()
        rc = run([str(victim)], out=out, fmt="json")
        assert rc == 1
        doc = json.loads(out.getvalue())
        assert [f["rule"] for f in doc["findings"]] == ["hyg-broad-except"]
        assert doc["findings"][0]["line"] == 4

    def test_parse_error_is_exit_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n", encoding="utf-8")
        out = io.StringIO()
        errors: list[str] = []
        rc = run([str(broken)], out=out, error=errors.append)
        assert rc == 2
        assert len(errors) == 1
        assert "parse-error" in errors[0]

    def test_unknown_rule_is_exit_two(self, tmp_path):
        victim = self.seed(tmp_path)
        out = io.StringIO()
        errors: list[str] = []
        rc = run(
            [str(victim)], out=out, rules=["no-such-rule"], error=errors.append
        )
        assert rc == 2
        assert "unknown rule id" in errors[0]

    def test_rule_filter_narrows(self, tmp_path):
        victim = self.seed(tmp_path)
        out = io.StringIO()
        rc = run([str(victim)], out=out, rules=["det-random"])
        assert rc == 0

    def test_write_baseline_then_gate_passes(self, tmp_path):
        victim = self.seed(tmp_path)
        bl = tmp_path / "bl.json"
        out = io.StringIO()
        assert run([str(victim)], out=out, write_baseline_to=str(bl)) == 0
        out = io.StringIO()
        rc = run([str(victim)], out=out, baseline=str(bl))
        assert rc == 0
        assert "1 baselined" in out.getvalue()
