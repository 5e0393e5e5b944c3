"""Classical matrix radiosity: (I - rho F) b = e  (equation 2.5).

All reflectivities are below one and the form-factor rows sum to at most
one, so the system matrix is strictly diagonally dominant (the
Gerschgorin argument of chapter 2) and both Jacobi and Gauss-Seidel
iterations converge; "for a known answer precision and condition number,
the number of iterations is constant, thus reducing the complexity of
the problem from O(N^3) to O(N^2)".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...geometry.scene import Scene
from .formfactor import form_factor_matrix

__all__ = [
    "RadiositySolution",
    "RadiositySolveInfo",
    "assemble_system",
    "jacobi",
    "gauss_seidel",
    "solve_radiosity",
]


@dataclass
class RadiositySolveInfo:
    """Convergence record of one iterative solve."""

    iterations: int
    residual: float
    converged: bool


@dataclass
class RadiositySolution:
    """Per-patch, per-band radiosity values plus solver diagnostics."""

    radiosity: np.ndarray  # (N, 3)
    info: list[RadiositySolveInfo]
    form_factors: np.ndarray  # (N, N)


def assemble_system(scene: Scene, form_factors: np.ndarray, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (I - rho F) and the emission vector for one colour band.

    Raises:
        ValueError: if the matrix is not strictly diagonally dominant —
            that indicates reflectivities >= 1 or badly estimated form
            factors, and the iterative solvers would be unreliable.
    """
    n = len(scene.patches)
    if form_factors.shape != (n, n):
        raise ValueError(f"form factor matrix must be {n}x{n}")
    rho = np.array(
        [p.material.diffuse.band(band) + p.material.specular for p in scene.patches]
    )
    a = np.eye(n) - rho[:, None] * form_factors
    e = np.array([p.material.emission.band(band) for p in scene.patches])
    off_diag = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    if np.any(np.abs(np.diag(a)) <= off_diag - 1e-9):
        raise ValueError("system is not diagonally dominant; check inputs")
    return a, e


def jacobi(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-10, max_iter: int = 500
) -> tuple[np.ndarray, RadiositySolveInfo]:
    """Jacobi iteration for a diagonally dominant system."""
    d = np.diag(a)
    r = a - np.diagflat(d)
    x = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        x_new = (b - r @ x) / d
        residual = float(np.max(np.abs(x_new - x)))
        x = x_new
        if residual < tol:
            return x, RadiositySolveInfo(it, residual, True)
    return x, RadiositySolveInfo(max_iter, residual, False)


def gauss_seidel(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-10, max_iter: int = 500
) -> tuple[np.ndarray, RadiositySolveInfo]:
    """Gauss-Seidel iteration (typically ~2x fewer sweeps than Jacobi)."""
    n = len(b)
    x = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        residual = 0.0
        for i in range(n):
            old = x[i]
            x[i] = (b[i] - a[i, :i] @ x[:i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
            residual = max(residual, abs(x[i] - old))
        if residual < tol:
            return x, RadiositySolveInfo(it, residual, True)
    return x, RadiositySolveInfo(max_iter, residual, False)


def solve_radiosity(
    scene: Scene,
    *,
    samples: int = 16,
    method: str = "gauss-seidel",
    tol: float = 1e-10,
    form_factors: np.ndarray | None = None,
) -> RadiositySolution:
    """Full matrix-radiosity solve of a scene, all three bands.

    This is the chapter-2 baseline: view-independent but diffuse-only —
    the mirror in the Cornell box comes out as a grey (its specular
    energy is treated as directionless), which is exactly the failure
    Photon's angular bins fix.

    Args:
        method: 'jacobi' or 'gauss-seidel'.
        form_factors: Reuse a precomputed matrix (tests share one).
    """
    if method not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown method {method!r}")
    ff = form_factors if form_factors is not None else form_factor_matrix(scene, samples)
    n = len(scene.patches)
    out = np.zeros((n, 3))
    infos: list[RadiositySolveInfo] = []
    solver = jacobi if method == "jacobi" else gauss_seidel
    for band in range(3):
        a, e = assemble_system(scene, ff, band)
        x, info = solver(a, e, tol=tol)
        out[:, band] = x
        infos.append(info)
    return RadiositySolution(radiosity=out, info=infos, form_factors=ff)
