"""Hierarchical radiosity (Hanrahan, Salzman & Aupperle 1991).

The "hierarchical" baseline the dissertation's title alludes to: patches
subdivide adaptively and distant interactions are summarised by a single
link, in the manner of Appel's N-body algorithm.  Chapter 2's critique —
refinement is driven by *form-factor* error rather than answer error, so
dark corners get pointlessly many patches, and the tightly coupled link
structure resists parallelisation — is observable directly on this
implementation (the chapter-2 bench counts links and elements in
unlit regions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...geometry.polygon import Patch
from ...geometry.scene import Scene
from .formfactor import patch_form_factor, point_form_factor
from ...rng import Lcg48

__all__ = ["HierarchicalConfig", "Element", "HierarchicalSolution", "solve_hierarchical"]


@dataclass(frozen=True)
class HierarchicalConfig:
    """Refinement parameters.

    Attributes:
        f_eps: Form-factor threshold; interactions with an estimate above
            it subdivide (the oracle Hanrahan uses).
        a_min: Minimum element area — stops subdivision.
        max_iterations: Gather/push-pull sweeps.
        tol: Radiosity convergence tolerance.
        visibility_samples: Shadow-ray samples per link.
    """

    f_eps: float = 0.05
    a_min: float = 0.05
    max_iterations: int = 50
    tol: float = 1e-6
    visibility_samples: int = 4

    def __post_init__(self) -> None:
        if self.f_eps <= 0 or self.a_min <= 0:
            raise ValueError("f_eps and a_min must be positive")


class Element:
    """A node of the element quadtree over one input patch."""

    __slots__ = (
        "patch",
        "children",
        "links",
        "radiosity",
        "gathered",
        "emission",
        "reflectivity",
        "parent",
    )

    def __init__(self, patch: Patch, parent: Optional["Element"] = None) -> None:
        self.patch = patch
        self.children: list["Element"] = []
        self.links: list[tuple["Element", float]] = []  # (source, F)
        mat = patch.material
        self.reflectivity = (
            mat.diffuse.r + mat.diffuse.g + mat.diffuse.b
        ) / 3.0 + mat.specular
        self.emission = (mat.emission.r + mat.emission.g + mat.emission.b) / 3.0
        self.radiosity = self.emission
        self.gathered = 0.0
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subdivide(self) -> None:
        """Split into two half-elements along the longer parameter edge."""
        axis = "s" if self.patch.eu.length() >= self.patch.ev.length() else "t"
        for half in self.patch.split_midpoint(axis):
            self.children.append(Element(half, parent=self))

    def leaves(self) -> list["Element"]:
        """All leaf elements of this subtree."""
        if self.is_leaf:
            return [self]
        out: list[Element] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


@dataclass
class HierarchicalSolution:
    """Result of a hierarchical solve."""

    roots: list[Element]
    links: int
    elements: int
    iterations: int
    converged: bool

    def element_count_for_patch(self, patch_id: int) -> int:
        """Leaf elements the refinement created on one input patch."""
        return len(self.roots[patch_id].leaves())

    def patch_radiosity(self, patch_id: int) -> float:
        """Area-weighted mean leaf radiosity of one input patch."""
        leaves = self.roots[patch_id].leaves()
        area = sum(e.patch.area for e in leaves)
        return sum(e.radiosity * e.patch.area for e in leaves) / area


def _estimate_ff(a: Element, b: Element) -> float:
    """Cheap centre-point form-factor estimate used by the oracle."""
    return (
        point_form_factor(
            a.patch.centroid(), a.patch.normal, b.patch.centroid(), b.patch.normal
        )
        * b.patch.area
    )


def _refine(
    a: Element, b: Element, scene: Scene, config: HierarchicalConfig, rng: Lcg48, links: list
) -> None:
    """Hanrahan's refine: link if the estimate is small, else subdivide.

    Note the chapter-2 critique baked into this procedure: the decision
    uses only the *form factor* estimate, never the radiosity magnitude,
    so two dark patches facing each other refine just as eagerly as two
    bright ones.
    """
    est = _estimate_ff(a, b)
    if est <= 0.0:
        return
    if est < config.f_eps or (
        a.patch.area <= config.a_min and b.patch.area <= config.a_min
    ):
        f = patch_form_factor(
            a.patch, b.patch, scene, samples=config.visibility_samples, rng=rng
        )
        if f > 0.0:
            a.links.append((b, f))
            links.append((a, b, f))
        return
    # Subdivide the larger of the pair (classic oracle).
    if a.patch.area >= b.patch.area:
        if a.is_leaf:
            a.subdivide()
        for child in a.children:
            _refine(child, b, scene, config, rng, links)
    else:
        if b.is_leaf:
            b.subdivide()
        for child in b.children:
            _refine(a, child, scene, config, rng, links)


def _gather(element: Element) -> None:
    element.gathered = element.reflectivity * sum(
        f * src.radiosity for src, f in element.links
    )
    for child in element.children:
        _gather(child)


def _push_pull(element: Element, down: float) -> float:
    """Distribute gathered energy down the tree and average it back up."""
    total_down = down + element.gathered
    if element.is_leaf:
        element.radiosity = element.emission + total_down
        return element.radiosity
    area = 0.0
    acc = 0.0
    for child in element.children:
        b = _push_pull(child, total_down)
        acc += b * child.patch.area
        area += child.patch.area
    element.radiosity = acc / area
    return element.radiosity


def solve_hierarchical(
    scene: Scene, config: HierarchicalConfig | None = None, seed: int = 11
) -> HierarchicalSolution:
    """Run hierarchical radiosity on *scene* (band-averaged, diffuse).

    Returns the element forest with per-leaf radiosity.  Deliberately
    serial: chapter 2's point is that the tightly coupled link structure
    gives "poor prospects for parallelism", which the chapter-2 bench
    quantifies by the fraction of links crossing any balanced partition
    of the elements.
    """
    config = config or HierarchicalConfig()
    rng = Lcg48(seed)
    roots = [Element(patch) for patch in scene.patches]
    links: list = []
    n = len(roots)
    for i in range(n):
        for j in range(n):
            if i != j:
                _refine(roots[i], roots[j], scene, config, rng, links)

    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        before = [root.radiosity for root in roots]
        for root in roots:
            _gather(root)
        for root in roots:
            _push_pull(root, 0.0)
        delta = max(
            abs(root.radiosity - b) for root, b in zip(roots, before)
        )
        if delta < config.tol:
            converged = True
            break

    elements = sum(len(root.leaves()) for root in roots)
    return HierarchicalSolution(
        roots=roots,
        links=len(links),
        elements=elements,
        iterations=iterations,
        converged=converged,
    )
