"""Lint configuration: ``[tool.repro.lint]`` in pyproject.toml.

The config root is discovered by walking up from the first scanned
path, so ``repro lint /abs/path/to/repo/src`` works from any working
directory.  Everything has a sensible default; the table may override:

    [tool.repro.lint]
    include   = ["src", "tests", "benchmarks"]   # default scan roots
    exclude   = ["tests/analysis/fixtures"]      # skipped during walks
    canonical = ["src/repro/core", ...]          # determinism scope
    disable   = ["det-id-order"]                 # rule toggles
    baseline  = "lint-baseline.json"             # grandfathered findings

Patterns match the posix path relative to the root: an exact path, a
directory prefix, or an ``fnmatch`` glob all work.  A pattern with no
``/`` also matches a bare file or directory name anywhere in the tree
(so ``--exclude fixtures`` works without spelling the full path).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

try:
    import tomllib
except ImportError:  # pragma: no cover — 3.10 fallback, defaults only
    tomllib = None

__all__ = ["LintConfig", "load_config", "find_root", "DEFAULT_CANONICAL"]

#: The modules the determinism contract covers (ARCHITECTURE.md): the
#: physics core, geometry, the RNG itself, every parallel transport, the
#: paper's scalar oracle, pointer octree, density-estimation baseline and
#: parallel drivers, and the procedural generator.  Paths are root-relative.
DEFAULT_CANONICAL = (
    "src/repro/core",
    "src/repro/geometry",
    "src/repro/rng",
    "src/repro/parallel",
    "src/repro/paper/scalar.py",
    "src/repro/paper/octree.py",
    "src/repro/paper/densityestimation.py",
    "src/repro/paper/shared.py",
    "src/repro/paper/distributed.py",
    "src/repro/paper/geomdist.py",
    "src/repro/paper/mpi.py",
    "src/repro/paper/loadbalance.py",
    "src/repro/scenes/generator.py",
)

DEFAULT_EXCLUDE = (
    "__pycache__",
    ".git",
    "build",
    "dist",
)


def _matches(relpath: str, pattern: str) -> bool:
    pattern = pattern.rstrip("/")
    return (
        relpath == pattern
        or relpath.startswith(pattern + "/")
        or fnmatch.fnmatch(relpath, pattern)
    )


@dataclass
class LintConfig:
    root: Path
    include: tuple[str, ...] = ("src", "tests", "benchmarks")
    exclude: tuple[str, ...] = ()
    canonical: tuple[str, ...] = DEFAULT_CANONICAL
    disable: tuple[str, ...] = ()
    baseline: Optional[str] = "lint-baseline.json"

    def relpath(self, path: Path) -> str:
        """Posix path relative to the root (or absolute when outside)."""
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def is_excluded(self, path: Path) -> bool:
        """Whether any component or prefix of *path* matches an exclude."""
        rel = self.relpath(path)
        parts = rel.split("/")
        if any(part in DEFAULT_EXCLUDE for part in parts):
            return True
        for pat in self.exclude:
            if _matches(rel, pat):
                return True
            if "/" not in pat and any(
                fnmatch.fnmatch(part, pat) for part in parts
            ):
                return True
        return False

    def is_canonical(self, path: Path) -> bool:
        """Whether *path* falls under the determinism contract's scope."""
        rel = self.relpath(path)
        return any(_matches(rel, pat) for pat in self.canonical)

    def baseline_path(self) -> Optional[Path]:
        """Absolute path of the configured baseline file, or None."""
        if not self.baseline:
            return None
        return self.root / self.baseline


def find_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of *start* holding a pyproject.toml."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def load_config(paths: Sequence[Path], root: Optional[Path] = None) -> LintConfig:
    """The effective config for a lint run over *paths*."""
    if root is None:
        for path in paths:
            root = find_root(path)
            if root is not None:
                break
    if root is None:
        root = Path.cwd()
    table: dict = {}
    pyproject = root / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with pyproject.open("rb") as fh:
            table = (
                tomllib.load(fh).get("tool", {}).get("repro", {}).get("lint", {})
            )
    config = LintConfig(root=root)
    if "include" in table:
        config.include = tuple(table["include"])
    if "exclude" in table:
        config.exclude = tuple(table["exclude"])
    if "canonical" in table:
        config.canonical = tuple(table["canonical"])
    if "disable" in table:
        config.disable = tuple(table["disable"])
    if "baseline" in table:
        config.baseline = table["baseline"] or None
    return config
