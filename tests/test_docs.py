"""Docs quality gate: the commands in README.md and docs/*.md must work.

Documentation rots when nothing executes it.  These tests extract every
fenced ``bash`` block from the user-facing docs and (a) argparse-check
each ``python -m repro`` command against the real CLI parser, (b)
*execute* the README quickstart pipeline end-to-end — every
simulate variant the README shows, then view — and (c) execute
**every** ``examples/*.py`` script under a tiny photon budget, so an
API change that breaks an example fails tier-1 instead of the next
reader.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.cli import build_parser, main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

#: Photon budget substituted into documented simulate commands when the
#: quickstart is executed (the docs advertise 20k; the suite needs seconds).
TINY_PHOTONS = "200"


def bash_commands(path: Path) -> list[str]:
    """Logical commands from every ```bash block (continuations joined)."""
    text = path.read_text(encoding="utf-8")
    commands: list[str] = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        logical = block.replace("\\\n", " ")
        for line in logical.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                commands.append(line)
    return commands


def repro_argv(command: str) -> list[str] | None:
    """The argv for a documented ``python -m repro`` call, else None."""
    m = re.match(r"(?:PYTHONPATH=\S+\s+)?python -m repro\s+(.*)", command)
    if m is None:
        return None
    argv = m.group(1).split()
    if argv and argv[-1] == "&":  # the documented background `serve`
        argv.pop()
    return argv


def all_doc_commands() -> list[tuple[str, str]]:
    out = []
    for path in DOC_FILES:
        assert path.exists(), f"documented file missing: {path}"
        for command in bash_commands(path):
            out.append((path.name, command))
    assert out, "no bash blocks found in the docs — extraction broke?"
    return out


class TestArchitectureDoc:
    """``docs/ARCHITECTURE.md`` stays a map of what is, at a fixed size."""

    PATH = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    #: Most lines the document may have; a change that adds a paragraph
    #: tightens another.
    LINE_BUDGET = 939

    def test_line_budget(self):
        lines = self.PATH.read_text(encoding="utf-8").count("\n")
        assert lines <= self.LINE_BUDGET, (
            f"ARCHITECTURE.md has {lines} lines, over its budget of "
            f"{self.LINE_BUDGET}: tighten it instead")

    def test_module_map_names_existing_modules(self):
        text = self.PATH.read_text(encoding="utf-8")
        table = re.search(r"^## Module map\n(.*?)^## ", text, re.S | re.M)
        assert table, "no '## Module map' section"
        names = set(re.findall(r"`(repro(?:\.\w+)+)`", table.group(1)))
        assert names, "no `repro.` module named in the map"
        src = REPO_ROOT / "src"
        missing = sorted(
            name for name in names
            if not (src.joinpath(*name.split(".")).with_suffix(".py").is_file()
                    or src.joinpath(*name.split("."), "__init__.py").is_file()))
        assert missing == [], f"the module map names missing modules: {missing}"


def md_references(path: Path) -> set[str]:
    """Every ``*.md`` file name in *path*'s comments and strings
    (docstrings included)."""
    found = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in (tokenize.COMMENT, tokenize.STRING):
                found.update(re.findall(r"[\w./-]*\w\.md\b", token.string))
    return found


class TestCiWorkflow:
    """``ci.yml`` only runs the suite and the editable install.

    A check that lives only in CI never runs where the suite does, so
    every check is a tier-1 test and a workflow step is one command.
    """

    PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    #: Most lines the workflow may have.
    LINE_BUDGET = 44
    #: What a step may run: the suite, an install, git, the entry point.
    COMMANDS = ("python -m pytest ", "python -m pip ", "pip ", "git ", "repro ")

    def test_line_budget(self):
        lines = self.PATH.read_text(encoding="utf-8").count("\n")
        assert lines <= self.LINE_BUDGET, (
            f"ci.yml has {lines} lines, over its budget of "
            f"{self.LINE_BUDGET}: move the check into a tier-1 test")

    def test_every_step_is_one_command(self):
        import yaml

        doc = yaml.safe_load(self.PATH.read_text(encoding="utf-8"))
        assert set(doc["jobs"]) == {"tests", "package"}
        runs = [
            step["run"] for job in doc["jobs"].values()
            for step in job["steps"] if "run" in step
        ]
        assert "python -m pytest -x -q" in " ".join(runs)
        for run in runs:
            command = run.strip()
            assert command.startswith(self.COMMANDS), command
            assert "\n" not in command and "<<" not in command, command
            assert not re.search(r"python3? -(\s|$)|;|&&|\|", command), command


class TestMdReferencesResolve:
    """A docstring or comment that sends the reader to a ``.md`` file
    names one that exists, at the repo root, in ``docs/`` or in
    ``bench/``."""

    ROOTS = (REPO_ROOT, REPO_ROOT / "docs", REPO_ROOT / "bench")

    @pytest.mark.parametrize("tree", ["src", "benchmarks"])
    def test_every_named_md_file_exists(self, tree):
        dangling = sorted(
            f"{path.relative_to(REPO_ROOT)}: {name}"
            for path in sorted((REPO_ROOT / tree).rglob("*.py"))
            for name in md_references(path)
            if not any((root / name).is_file() for root in self.ROOTS)
        )
        assert dangling == []


class TestCommandsParse:
    """Every documented command is either a known tool or parses."""

    @pytest.mark.parametrize(
        "doc, command", all_doc_commands(), ids=lambda v: str(v)[:60]
    )
    def test_command_is_valid(self, doc, command):
        argv = repro_argv(command)
        if argv is not None:
            # argparse exits with SystemExit(2) on any unknown flag,
            # missing required argument, or bad choice.
            build_parser().parse_args(argv)
            return
        # Non-repro commands the docs are allowed to show; each must
        # reference something that exists.
        if command.startswith("pip install"):
            assert (REPO_ROOT / "pyproject.toml").exists()
        elif "python -m pytest" in command:
            assert (REPO_ROOT / "conftest.py").exists()
        elif command.startswith("curl "):
            # Documented service clients must target the serve
            # quickstart's port and routes the service actually has.
            assert re.search(
                r"localhost:8000/(scenes/\S+/simulate|stats|healthz)",
                command,
            ), f"{doc}: curl target not a documented service route"
        elif command.startswith("kill "):
            pass  # stops the documented background `serve`
        elif m := re.match(r"(?:PYTHONPATH=\S+\s+)?python (examples/\S+)", command):
            assert (REPO_ROOT / m.group(1)).exists(), f"{doc}: {m.group(1)} missing"
        else:
            pytest.fail(f"{doc}: unrecognised documented command: {command!r}")


class TestReadmeQuickstartExecutes:
    """The README pipeline runs end to end at a tiny photon budget."""

    def test_quickstart_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ran = 0
        for command in bash_commands(REPO_ROOT / "README.md"):
            argv = repro_argv(command)
            if argv is None:
                continue
            if argv[0] == "serve":
                continue  # blocks until signalled; executed below
            if argv[0] == "lint":
                # The documented paths are repo-relative; this test runs
                # from tmp_path, so anchor them (root discovery walks up
                # from the first path and finds the repo pyproject).
                argv = [argv[0]] + [
                    a if a.startswith("-") else str(REPO_ROOT / a)
                    for a in argv[1:]
                ]
            if "--photons" in argv:
                argv[argv.index("--photons") + 1] = TINY_PHOTONS
            if "--workers" in argv:
                # Test hosts are often single-core; two workers keeps the
                # procpool path honest without oversubscribing.
                argv[argv.index("--workers") + 1] = "2"
            if "--width" in argv:
                argv[argv.index("--width") + 1] = "48"
                argv[argv.index("--height") + 1] = "36"
            rc = cli_main(argv, out=io.StringIO())
            assert rc == 0, f"documented command failed: {command!r}"
            ran += 1
        assert ran >= 5, "README quickstart lost commands — update this test"
        # The pipeline's artefacts really exist.
        assert (tmp_path / "cornell.answer.json").exists()
        assert (tmp_path / "lab.answer.json").exists()
        assert (tmp_path / "cornell.ppm").exists()


class TestReadmeServeExecutes:
    """The README serve block boots, serves its documented routes, dies."""

    def test_serve_block(self, tmp_path):
        import json
        import signal
        import urllib.request

        serve_argv = None
        curl_paths = []
        for command in bash_commands(REPO_ROOT / "README.md"):
            argv = repro_argv(command)
            if argv is not None and argv[0] == "serve":
                serve_argv = argv
            elif command.startswith("curl "):
                m = re.search(r"localhost:8000(/[^'\s]*)", command)
                assert m, f"curl without a service path: {command!r}"
                curl_paths.append(m.group(1))
        assert serve_argv, "README lost its serve quickstart"
        assert curl_paths, "README lost its curl examples"

        # Ephemeral port instead of the documented 8000; the readiness
        # line reports the bound port.
        serve_argv[serve_argv.index("--port") + 1] = "0"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *serve_argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        try:
            port = None
            for line in proc.stdout:
                m = re.search(r"listening on http://[\d.]+:(\d+)", line)
                if m:
                    port = int(m.group(1))
                    break
            assert port, "serve never printed its readiness line"
            for path in curl_paths:
                url = f"http://127.0.0.1:{port}{path}"
                if "/simulate" in path:
                    request = urllib.request.Request(
                        url,
                        data=b'{"photons": 200}',
                        headers={"Content-Type": "application/json"},
                    )
                else:
                    request = urllib.request.Request(url)
                with urllib.request.urlopen(request, timeout=120) as resp:
                    assert resp.status == 200, path
                    body = resp.read()
                # Every documented route answers JSON (streams: NDJSON
                # whose final line is the canonical answer).
                json.loads(body.decode().strip().splitlines()[-1])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


#: Tiny-budget argv for every example script.  A new example must be
#: registered here (the coverage test below fails otherwise), which is
#: how "all examples execute in tier-1" stays true as the directory grows.
EXAMPLE_BUDGETS = {
    "quickstart.py": ["--photons", "200", "--width", "24", "--height", "18"],
    "architectural_daylight.py": ["--photons", "300"],
    "cluster_study.py": ["--photons", "200", "--ranks", "2"],
    "polarization_study.py": ["--photons", "200"],
    "virtual_walkthrough.py": ["--photons", "200", "--frames", "2",
                               "--size", "24"],
}


class TestExamplesExecute:
    """Every example script runs end-to-end at a tiny budget."""

    def test_every_example_has_a_budget(self):
        on_disk = {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
        assert on_disk == set(EXAMPLE_BUDGETS), (
            "examples/ and EXAMPLE_BUDGETS drifted — register the new "
            "script with a tiny-budget argv"
        )

    @staticmethod
    def run_example(script, argv, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / script), *argv],
            cwd=cwd,  # artefacts (ppm/json) land in the tmp dir
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (
            f"{script} failed:\n--- stdout ---\n{proc.stdout[-2000:]}"
            f"\n--- stderr ---\n{proc.stderr[-2000:]}"
        )
        return proc.stdout

    @pytest.mark.parametrize("script", sorted(EXAMPLE_BUDGETS))
    def test_example_runs(self, script, tmp_path):
        self.run_example(script, EXAMPLE_BUDGETS[script], tmp_path)

    def test_quickstart_tour_at_a_larger_budget(self, tmp_path):
        self.run_example(
            "quickstart.py",
            ["--photons", "2000", "--width", "64", "--height", "48",
             "--out-dir", str(tmp_path)],
            tmp_path,
        )

    def test_quickstart_compares_the_oracle_with_a_session(self, tmp_path):
        stdout = self.run_example(
            "quickstart.py", ["--compare-engines", "--photons", "200"], tmp_path
        )
        assert "answers bit-identical: True" in stdout


class TestDocsPythonBlocksLint:
    """Fenced ```python blocks in the docs pass the repo's own linter.

    The blocks show API usage; if one of them trips a lint rule, the
    docs are teaching the pattern the linter exists to forbid.
    """

    @staticmethod
    def python_blocks(path: Path) -> list[tuple[int, str]]:
        text = path.read_text(encoding="utf-8")
        blocks = []
        for m in re.finditer(r"```python\n(.*?)```", text, re.S):
            line = text[: m.start()].count("\n") + 2
            blocks.append((line, m.group(1)))
        return blocks

    @pytest.mark.parametrize("doc", [p.name for p in DOC_FILES])
    def test_blocks_lint_clean(self, doc):
        from repro.analysis.engine import lint_source

        path = next(p for p in DOC_FILES if p.name == doc)
        for line, block in self.python_blocks(path):
            findings = lint_source(block, path=f"{doc}:{line}")
            assert findings == [], [f.render() for f in findings]

    def test_readme_has_python_blocks(self):
        # The extraction regex is only trusted if it finds something.
        assert self.python_blocks(REPO_ROOT / "README.md")
