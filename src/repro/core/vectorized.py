"""Vectorized batch photon engine: structure-of-arrays tracing.

The scalar reference (:func:`repro.core.simulator.trace_photon`) walks one
photon at a time through emission -> intersect -> reflect, consuming one
``drand48`` stream.  This module traces *batches* of photons in NumPy
structure-of-arrays form — batched emission, batched ray/patch
intersection, batched roulette/lobe sampling — while remaining
**bit-exact** with the scalar path photon-for-photon.

The engine picks its intersection accelerator from the patch count;
nothing above :class:`VectorEngine` names one.  The two serving paths:

* ``"linear"`` — dense all-patches testing, walked in cache-sized
  lane x patch tiles (:data:`DENSE_TILE`); fastest for small scenes
  where candidate selection cannot pay for itself.
* ``"flat"`` — the :class:`repro.geometry.flatoctree.FlatOctree`
  level-synchronous pair walk: an eight-wide BVH built once from the
  patch columns into contiguous arrays, each patch in one padded leaf
  box, then one slab-test call per tree level over every
  live ``(lane, node)`` pair and one :meth:`VectorEngine._test_pairs`
  call over that level's ``(lane, patch)`` pairs, with per-lane
  closest-hit pruning between levels.  NumPy dispatches per bounce are
  O(tree depth), independent of how many nodes and leaves the rays
  visit.
* ``"auto"`` (the default) — ``"flat"`` at or above
  :data:`PRUNE_PATCH_THRESHOLD` patches, ``"linear"`` below.

Both produce identical answers (the determinism contract below); they
differ only in speed.

Bit-exactness is what lets the parity suite compare bin forests
tally-for-tally instead of statistically.  Three disciplines make it
possible:

* **Per-photon counter-based RNG substreams.**  Photon *i* owns the
  substream starting ``(i + 1) * 2**20`` steps into the base sequence
  (:func:`photon_substream` — the same convention
  :mod:`repro.parallel.geomdist` uses for its wire photons).  Lanes never
  share a stream, so lane-synchronous masked execution consumes each
  photon's draws in exactly the scalar order.  The LCG itself vectorises
  on ``uint64`` (the product wraps mod 2**64, a multiple of the 2**48
  modulus, so masking gives the exact drand48 recurrence).

* **Expression-order fidelity.**  Every arithmetic expression replicates
  the scalar source's association order (IEEE adds are not associative),
  e.g. ``(n.x*d.x + n.y*d.y) + n.z*d.z`` for dot products.

* **Scalar transcendentals where NumPy's differ.**  This NumPy build's
  SIMD ``arctan2`` and ``power`` differ from libm by 1 ulp on ~7% of
  inputs; those two functions are evaluated with :mod:`math` over the
  (few) event lanes.  ``sin``/``cos``/``sqrt`` are bit-identical and stay
  vectorized.

Determinism contract
--------------------
Closest-hit ties (two patches at the *same* float distance) are resolved
toward the **highest patch index**, matching the linear reference scan
and the canonicalized octree; because the rule is a pure function of
``(distance, patch_id)``, the answer is independent of candidate visit
order, duplicate leaf membership, and the ``accel`` mode.  The octree
reference can disagree only on cross-cell exact-distance ties, which the
parity suite never observes on the test scenes.  Downstream, canonical
``(photon, bounce)`` event ordering (:class:`EventBatch`) makes tallying
independent of batch boundaries and worker sharding — the other half of
the contract :mod:`repro.parallel.procpool` relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..geometry.flatoctree import FlatOctree
from ..geometry.ray import EPSILON
from ..geometry.scene import Scene
from ..geometry.vec import Vec3, orthonormal_basis
from ..rng import Lcg48
from ..rng.lcg import INCREMENT, MODULUS, MULTIPLIER, _affine_power
from .binning import TWO_PI
from .bintree import BinForest, SplitPolicy, add_band_counts
from .photon import NUM_BANDS

if TYPE_CHECKING:  # pragma: no cover — import-cycle guard
    from .fluorescence import FluorescenceSpec
    from .simulator import TraceStats

__all__ = [
    "SUBSTREAM_SPACING_BITS",
    "photon_substream",
    "substream_states",
    "SceneArrays",
    "EVENT_FIELDS",
    "EventBatch",
    "EmissionBatch",
    "VectorEngine",
    "apply_events",
    "tally_block",
    "ACCEL_MODES",
    "PRUNE_PATCH_THRESHOLD",
    "DENSE_TILE",
]

#: Each photon's private substream starts ``(index + 1) << 20`` draws into
#: the base sequence; no physical path consumes anywhere near 2**20 draws
#: (the bounce cap alone limits it to a few thousand).
SUBSTREAM_SPACING_BITS = 20

#: Intersection acceleration modes accepted by :class:`VectorEngine`
#: (``"auto"`` resolves at construction, see the module docstring).
ACCEL_MODES = ("auto", "flat", "linear")

#: Dense all-patches intersection wins below this patch count; above it
#: hierarchical candidate selection pays for its per-level overhead
#: (``accel="auto"`` switches from ``"linear"`` to ``"flat"`` here).
#: Measured crossover of the pair walk over the binned-SAH BVH against
#: the tiled dense scan, flat/linear photons/sec (medians of 7
#: alternating 10k-photon traces, ranges over two runs, 2-vCPU Xeon):
#: 0.73-0.81 at 14 patches (den-1@2), 0.74-0.92 at 20, 0.99-1.06 at 26,
#: 1.00-1.03 at 30 (cornell-box), 1.10-1.14 at 32, 1.33-1.35 at 38,
#: 1.36-1.42 at 44, 1.43 at 50 (office-1), 1.90 at 74, 1.62 at 97
#: (harpsichord-room), 2.75 at 134, 3.97 at 218 (office-5).  The walk
#: breaks even at 26-30 patches; at 32, cornell-box (at break-even)
#: stays on the dense scan.
PRUNE_PATCH_THRESHOLD = 32

#: ``(lanes, patch columns)`` of one tile of the dense scan
#: (:meth:`VectorEngine._test_patches`): ~16k elements, 128 KB per float64
#: temporary, so the ~55 array passes of the plane/barycentric test run on
#: cache-resident operands and peak memory is independent of the
#: caller's batch size.  A constant, not a knob.  Measured on the
#: ``cornell_serial`` bench workload (10k-photon requests, 4,096-lane
#: batches, 30 patches), photons/sec by lane count: 125k at 128, a
#: plateau of 130-137k from 192 to 512, against 105k for the whole batch
#: as one ``[4096, 30]`` operand (983 KB temporaries, 11k minor page
#: faults a request); 16 columns instead of 32 make a scan 1.5x slower.
#: 512 is the top of the plateau because every pass is also a GIL
#: hand-off when a second thread traces: two threads on 1,000-photon
#: requests make 630 voluntary context switches a request pair at 256
#: lanes against 400-490 at 512 or untiled, and ``service_mixed`` loses
#: 4-5 % requests/sec at 256 or 384 lanes and nothing at 512.
DENSE_TILE = (512, 32)

_MASK = MODULUS - 1
_INV_MODULUS = 1.0 / MODULUS
_U64 = np.uint64
_A64 = _U64(MULTIPLIER)
_C64 = _U64(INCREMENT)
_MASK64 = _U64(_MASK)

#: Mirrors ``repro.core.reflection._GLOSS_RETRIES``.
_GLOSS_RETRIES = 8


def photon_substream(seed: int, index: int) -> Lcg48:
    """The private scalar RNG stream of photon *index*.

    Identical to the wire-photon streams of
    :mod:`repro.parallel.geomdist`: a jump of ``(index + 1) << 20`` steps
    from the base sequence.
    """
    return Lcg48(seed).fork_jump((index + 1) << SUBSTREAM_SPACING_BITS)


def substream_states(seed: int, start: int, count: int) -> np.ndarray:
    """Starting LCG states of photons ``start .. start+count`` as uint64.

    ``out[i]`` equals ``photon_substream(seed, start + i).state``.  The
    first state is one scalar jump; the rest follow by doubling — the
    first ``k`` states jumped ``k`` photons ahead are the next ``k`` — on
    ``uint64``, exact for the reason given in the module docstring.
    """
    # NumPy integers would run the recurrence in wrapping fixed width.
    seed, start, count = int(seed), int(start), int(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty(count, dtype=np.uint64)
    if count == 0:
        return out
    a_s, c_s = _affine_power(MULTIPLIER, INCREMENT, (start + 1) << SUBSTREAM_SPACING_BITS)
    out[0] = (a_s * (seed & _MASK) + c_s) & _MASK
    k = 1
    while k < count:
        a_k, c_k = _affine_power(MULTIPLIER, INCREMENT, k << SUBSTREAM_SPACING_BITS)
        out[k:2 * k] = (_U64(a_k) * out[:min(k, count - k)] + _U64(c_k)) & _MASK64
        k *= 2
    return out


def _atan2_theta(ly: np.ndarray, lx: np.ndarray) -> np.ndarray:
    """``atan2`` folded to [0, 2 pi), via libm for bit-parity with scalar."""
    atan2 = math.atan2
    vals = [atan2(b, a) for a, b in zip(lx.tolist(), ly.tolist())]
    theta = np.array(vals, dtype=np.float64) if vals else np.empty(0)
    return np.where(theta < 0.0, theta + 2.0 * math.pi, theta)


def _pow_scalar(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Element-wise ``base ** exponent`` via libm (NumPy's differs by 1 ulp)."""
    vals = [a ** b for a, b in zip(base.tolist(), exponent.tolist())]
    return np.array(vals, dtype=np.float64) if vals else np.empty(0)


def _sincos_scalar(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise libm sin/cos.

    NumPy's SIMD float64 sin/cos happen to match libm on this build, but
    that is not an IEEE guarantee; the bit-parity contract must not
    depend on it.  Only the (rare) glossy lanes pay the scalar cost.
    """
    sin, cos = math.sin, math.cos
    vals = phi.tolist()
    s = np.array([sin(v) for v in vals], dtype=np.float64) if vals else np.empty(0)
    c = np.array([cos(v) for v in vals], dtype=np.float64) if vals else np.empty(0)
    return s, c


class SceneArrays:
    """Structure-of-arrays mirror of a :class:`Scene` for batched kernels.

    Pure precomputation: every derived quantity (plane constants, Gram
    inverses, tangent bases) is produced by the same scalar code the
    reference tracer uses, so gathered values are bit-identical.
    """

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        patches = scene.patches
        n = len(patches)

        def vec_cols(getter):
            a = np.empty((3, n))
            for i, p in enumerate(patches):
                v = getter(p)
                a[0, i] = v.x
                a[1, i] = v.y
                a[2, i] = v.z
            return a[0].copy(), a[1].copy(), a[2].copy()

        self.p0x, self.p0y, self.p0z = vec_cols(lambda p: p.p0)
        self.eux, self.euy, self.euz = vec_cols(lambda p: p.eu)
        self.evx, self.evy, self.evz = vec_cols(lambda p: p.ev)
        self.nx, self.ny, self.nz = vec_cols(lambda p: p.normal)
        self.d_plane = np.array([p._d for p in patches])
        self.det_inv = np.array([p._det_inv for p in patches])
        self.inv_uu = np.array([p._inv_uu for p in patches])
        self.inv_vv = np.array([p._inv_vv for p in patches])
        self.inv_uv = np.array([p._inv_uv for p in patches])

        # Tangent bases about the front (geometric) and back (flipped)
        # normals, via the exact scalar routine.
        front = [orthonormal_basis(p.normal) for p in patches]
        back = [orthonormal_basis(-p.normal) for p in patches]
        self.ft1x, self.ft1y, self.ft1z = vec_cols(lambda p: front[p.patch_id][0])
        self.ft2x, self.ft2y, self.ft2z = vec_cols(lambda p: front[p.patch_id][1])
        self.bt1x, self.bt1y, self.bt1z = vec_cols(lambda p: back[p.patch_id][0])
        self.bt2x, self.bt2y, self.bt2z = vec_cols(lambda p: back[p.patch_id][1])

        self.diffuse = np.array(
            [[p.material.diffuse.r, p.material.diffuse.g, p.material.diffuse.b]
             for p in patches]
        )
        self.specular = np.array([p.material.specular for p in patches])
        self.gloss = np.array(
            [p.material.gloss if p.material.gloss is not None else np.nan
             for p in patches]
        )
        self.has_gloss = ~np.isnan(self.gloss)
        # The scalar lobe computes 1.0 / (exponent + 1.0) per call; both
        # operations are exact IEEE so precomputing matches.
        with np.errstate(invalid="ignore"):
            self.inv_gloss_exp = 1.0 / (self.gloss + 1.0)

        lums = scene.luminaires
        self.lum_patch = np.array([l.patch.patch_id for l in lums], dtype=np.int64)
        self.lum_cum = np.array([l.cumulative for l in lums])
        self.total_power = scene.total_power
        er = [l.patch.material.emission.r for l in lums]
        eg = [l.patch.material.emission.g for l in lums]
        eb = [l.patch.material.emission.b for l in lums]
        self.lum_er = np.array(er)
        self.lum_erg = np.array([r + g for r, g in zip(er, eg)])
        self.lum_total = np.array([(r + g) + b for r, g, b in zip(er, eg, eb)])
        self.lum_scale = np.array(
            [1.0 if l.beam_half_angle is None else math.sin(l.beam_half_angle)
             for l in lums]
        )

        # The eight-wide BVH for the flat batched walk, built from the
        # patch columns above (once; pool workers attach it through the
        # shared-memory plane).
        self.flat = FlatOctree.build(
            (self.p0x, self.p0y, self.p0z),
            (self.eux, self.euy, self.euz),
            (self.evx, self.evy, self.evz),
        )

    @property
    def patch_count(self) -> int:
        return self.p0x.size

    # -- shared-memory plane export / attach ----------------------------------
    #
    # Everything batched kernels read is a NumPy array, so the whole
    # structure serialises to a flat name -> array mapping.  The dotted
    # ``flat.*`` names namespace the one composite member, the flat
    # walk's tree.

    def export_fields(self) -> dict:
        """Flat name -> array mapping of every buffer the kernels read.

        The export surface of :mod:`repro.parallel.shmplane`: copying
        these arrays into a shared segment and calling
        :meth:`from_fields` on views of it reconstructs a bit-identical
        structure without touching the :class:`Scene` (or rebuilding
        the tree) on the attaching side.
        """
        fields = {
            name: value
            for name, value in vars(self).items()
            if isinstance(value, np.ndarray)
        }
        for name, arr in self.flat.arrays().items():
            fields[f"flat.{name}"] = arr
        return fields

    @classmethod
    def from_fields(cls, fields: dict, total_power: float) -> "SceneArrays":
        """Rebuild from :meth:`export_fields` output (or views onto it).

        Zero-copy by construction: every attribute aliases the buffers in
        *fields*, so attaching a shared-memory plane costs no array
        copies and no tree build.  ``scene`` is ``None`` on the
        result — batched tracing never dereferences it.
        """
        self = object.__new__(cls)
        self.scene = None
        self.total_power = total_power
        flat_arrays = {}
        for name, value in fields.items():
            if name.startswith("flat."):
                flat_arrays[name[len("flat."):]] = value
            else:
                setattr(self, name, value)
        self.flat = FlatOctree.from_arrays(flat_arrays)
        return self


#: The canonical wire layout of an :class:`EventBatch`: column name and
#: dtype, in field order.  Every transport that moves events between
#: processes — the pickle fallback and the shared-memory result plane
#: (:mod:`repro.parallel.resultplane`) — writes and reads exactly these
#: columns in exactly this order, so the two transports cannot drift.
#: All eight columns are 8-byte little-endian scalars by construction.
EVENT_FIELDS: tuple[tuple[str, str], ...] = (
    ("gidx", "<i8"),
    ("seq", "<i8"),
    ("patch", "<i8"),
    ("s", "<f8"),
    ("t", "<f8"),
    ("theta", "<f8"),
    ("r2", "<f8"),
    ("band", "<i8"),
)


@dataclass
class EventBatch:
    """Tally events in canonical (photon, bounce) order.

    ``seq`` is 0 for the emission tally and ``bounces + 1`` for each
    reflection tally, so a lexicographic (``gidx``, ``seq``) sort replays
    events exactly as the scalar per-photon loop tallies them.
    """

    gidx: np.ndarray
    seq: np.ndarray
    patch: np.ndarray
    s: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    r2: np.ndarray
    band: np.ndarray

    @classmethod
    def empty(cls) -> "EventBatch":
        f = np.empty(0)
        i = np.empty(0, dtype=np.int64)
        return cls(i, i.copy(), i.copy(), f, f.copy(), f.copy(), f.copy(), i.copy())

    @classmethod
    def concat(cls, batches: list["EventBatch"]) -> "EventBatch":
        if not batches:
            return cls.empty()
        return cls(*(
            np.concatenate([getattr(b, name) for b in batches])
            for name in ("gidx", "seq", "patch", "s", "t", "theta", "r2", "band")
        ))

    # -- raw-buffer codecs -----------------------------------------------
    #
    # The export surface of the shared-memory result plane
    # (:mod:`repro.parallel.resultplane`), mirroring
    # :meth:`SceneArrays.export_fields`/:meth:`SceneArrays.from_fields`
    # on the inbound scene plane: a worker copies these columns into its
    # preallocated result block, and the parent rebuilds a zero-copy
    # batch from views of the same bytes.

    def export_fields(self) -> dict:
        """Column name -> contiguous array in the :data:`EVENT_FIELDS` dtypes.

        Emission rows carry int64/float64 columns already; the cast is a
        no-op there and a normalization everywhere else, so both wire
        transports always carry identical bytes.
        """
        return {
            name: np.ascontiguousarray(getattr(self, name), dtype=np.dtype(dt))
            for name, dt in EVENT_FIELDS
        }

    @classmethod
    def from_fields(cls, fields: dict) -> "EventBatch":
        """Rebuild from :meth:`export_fields` output (or views onto it).

        Zero-copy by construction: every column aliases the buffer in
        *fields*, which is what lets the parent read a worker's result
        block without deserializing anything.
        """
        return cls(*(fields[name] for name, _ in EVENT_FIELDS))

    def sorted_canonical(self) -> "EventBatch":
        """Rows ordered by (photon index, bounce sequence)."""
        order = np.lexsort((self.seq, self.gidx))
        return self.take(order)

    def take(self, idx: np.ndarray) -> "EventBatch":
        """Row subset/reorder by integer index array."""
        return EventBatch(*(
            getattr(self, name)[idx]
            for name in ("gidx", "seq", "patch", "s", "t", "theta", "r2", "band")
        ))

    def __len__(self) -> int:
        return self.gidx.size

    def emission_band_counts(self) -> list[int]:
        """Per-band emitted-photon counts (rows with seq == 0)."""
        bands = self.band[self.seq == 0]
        return np.bincount(bands, minlength=NUM_BANDS).tolist()


@dataclass
class EmissionBatch:
    """Batched :class:`~repro.core.generation.EmissionRecord` mirror.

    ``states`` holds each photon's LCG state *after* its emission draws,
    so callers (the geometry-distributed driver) can continue the photon's
    private stream scalar-side bit-for-bit.
    """

    index: np.ndarray
    states: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    band: np.ndarray
    patch: np.ndarray
    s: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    r2: np.ndarray


#: The bounds :class:`~repro.core.binning.BinCoords` enforces, per
#: coordinate column: (message name, upper bound, upper bound inclusive).
_COORD_BOUNDS = (
    ("s", 1.0, True),
    ("t", 1.0, True),
    ("theta", TWO_PI + 1e-12, False),
    ("r_squared", 1.0, True),
)


def _check_events(coords: np.ndarray, band: np.ndarray) -> None:
    """Range-check a whole block; raise for its first offending row.

    The same bounds, field order and messages as
    :class:`~repro.core.binning.BinCoords` and
    :meth:`~repro.core.binning.BinNode.tally`, which the row-by-row
    replay would have hit on that row.  NaN fails every comparison and
    is rejected with the rest.
    """
    ok = np.empty(coords.shape, dtype=bool)
    for col, (_, hi, closed) in enumerate(_COORD_BOUNDS):
        v = coords[col]
        ok[col] = (v >= 0.0) & ((v <= hi) if closed else (v < hi))
    band_ok = (band >= 0) & (band < NUM_BANDS)
    good = ok.all(axis=0) & band_ok
    if good.all():
        return
    row = int(good.argmin())
    for col, (name, _, _) in enumerate(_COORD_BOUNDS):
        if not ok[col, row]:
            raise ValueError(f"{name} out of range: {float(coords[col, row])}")
    raise ValueError(f"band out of range: {int(band[row])}")


def apply_events(forest: BinForest, events: EventBatch) -> None:
    """Replay *events* (already canonically ordered) into *forest*.

    Produces exactly the forest a row-by-row :meth:`BinForest.tally`
    replay would — node for node, tree-dict order and forest-wide
    counters included — without visiting events one at a time: the block
    is range-checked as a whole, stable-sorted by patch, and each tree
    takes its rows in one :meth:`BinTree.tally_rows` call.  Trees are
    independent, so only the order *within* a tree matters and the
    stable sort keeps it; trees are still created in first-tally order.

    Raises:
        ValueError: for the first row with a coordinate or band out of
            range, before any node is touched — a bad block leaves
            *forest* exactly as it was.
    """
    n = len(events)
    if n == 0:
        return
    coords = np.array(
        [events.s, events.t, events.theta, events.r2], dtype=np.float64
    )
    band = np.asarray(events.band)
    _check_events(coords, band)

    patch = np.asarray(events.patch)
    order = np.argsort(patch, kind="stable")
    patch = patch[order]
    coords = coords[:, order]
    band = band[order]
    starts = np.flatnonzero(np.concatenate(([True], patch[1:] != patch[:-1])))
    keys = patch[starts].tolist()
    bounds = starts.tolist() + [n]
    # A stable sort puts each tree's earliest block row first in its
    # group, so ordering groups by that row is first-tally order.
    for g in np.argsort(order[starts]).tolist():
        a, b = bounds[g], bounds[g + 1]
        forest.tree(keys[g]).tally_rows(coords[:, a:b], band[a:b])

    forest.total_tallies += n
    add_band_counts(forest.band_tallies, band)


def tally_block(forest: BinForest, block: EventBatch, photons: int) -> None:
    """Sort one traced block canonically, replay it, book the emissions.

    The single place the per-batch forest bookkeeping lives — shared by
    :meth:`VectorEngine.run`, the simulator's batched driver, the
    session's streaming and top-up paths, and tests — so emission
    accounting cannot drift between them.  The replay is
    :func:`apply_events`: chunking a photon range into blocks of any
    size gives the same forest, because each block is replayed exactly
    as its rows one at a time would be.
    """
    block = block.sorted_canonical()
    apply_events(forest, block)
    counts = block.emission_band_counts()
    forest.photons_emitted += photons
    for b in range(NUM_BANDS):
        forest.band_emitted[b] += counts[b]


class VectorEngine:
    """Batched photon tracer, bit-exact with the scalar substream oracle.

    Args:
        scene: Scene to trace against.  May be ``None`` when *arrays* is
            given (the shared-memory plane path, where the attaching
            process has no scene object at all).
        arrays: Pre-built :class:`SceneArrays` — typically views into an
            attached shared-memory plane
            (:func:`repro.parallel.shmplane.attach`).  When given, the
            engine skips its own (tree-building) :class:`SceneArrays`
            construction and traces against the provided buffers;
            results are bit-identical because the arrays are.
        fluorescence: Optional Stokes-shift spec (same semantics as the
            scalar :func:`repro.core.fluorescence.fluorescent_reflect`).
        batch_size: Photons per structure-of-arrays batch.
        accel: One of :data:`ACCEL_MODES`.  Leave it at the default:
            ``"auto"`` picks ``"flat"`` at or above
            :data:`PRUNE_PATCH_THRESHOLD` patches and ``"linear"`` below,
            and no config, option or flag above the engine can say
            otherwise.  Naming a mode here is the seam the parity
            oracles use to hold the flat walk against the dense-scan
            reference on the same scene.

    Attributes:
        accel: The resolved acceleration mode (never ``"auto"``).
        patch_tests: Cumulative lane-x-patch plane tests performed (the
            vector analogue of ``OctreeStats.intersection_tests``).
        box_tests: Cumulative lane-x-node slab tests (the flat walk
            counts eight per visited child block).
    """

    def __init__(
        self,
        scene: Optional[Scene] = None,
        *,
        arrays: Optional[SceneArrays] = None,
        fluorescence: Optional["FluorescenceSpec"] = None,
        batch_size: int = 4096,
        accel: str = "auto",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if accel not in ACCEL_MODES:
            raise ValueError(f"unknown accel {accel!r}; pick from {ACCEL_MODES}")
        if scene is None and arrays is None:
            raise ValueError("pass a scene or pre-built SceneArrays")
        self.scene = scene if scene is not None else arrays.scene
        self.arrays = arrays if arrays is not None else SceneArrays(scene)
        self.fluorescence = fluorescence
        self.batch_size = batch_size
        if accel == "auto":
            accel = (
                "flat"
                if self.arrays.patch_count >= PRUNE_PATCH_THRESHOLD
                else "linear"
            )
        self.accel = accel
        self.patch_tests = 0
        self.box_tests = 0

        if fluorescence is not None:
            # Replicate the scalar accumulation exactly: row totals via
            # sum(), thresholds via the running `acc += row[dst]` loop.
            self._fluor_total = np.array(
                [sum(fluorescence.conversion[b]) for b in range(NUM_BANDS)]
            )
            thresholds = np.empty((NUM_BANDS, NUM_BANDS))
            for b in range(NUM_BANDS):
                acc = 0.0
                for dst in range(NUM_BANDS):
                    acc += fluorescence.conversion[b][dst]
                    thresholds[b, dst] = acc
            self._fluor_thresholds = thresholds

    # -- RNG ------------------------------------------------------------------

    def _uniform(self, states: np.ndarray, idx) -> np.ndarray:
        """Advance lanes *idx* one step; return their uniforms in [0, 1)."""
        s = (_A64 * states[idx] + _C64) & _MASK64
        states[idx] = s
        return s.astype(np.float64) * _INV_MODULUS

    def _sample_disc(
        self, states: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Figure 4.3 disc rejection for lanes *idx*: (x, y, x^2 + y^2)."""
        m = idx.size
        x = np.empty(m)
        y = np.empty(m)
        tmp = np.empty(m)
        pending = np.arange(m)
        while pending.size:
            lanes = idx[pending]
            u1 = self._uniform(states, lanes)
            u2 = self._uniform(states, lanes)
            cx = u1 * 2.0 - 1.0
            cy = u2 * 2.0 - 1.0
            ct = cx * cx + cy * cy
            ok = ct <= 1.0
            sel = pending[ok]
            x[sel] = cx[ok]
            y[sel] = cy[ok]
            tmp[sel] = ct[ok]
            pending = pending[~ok]
        return x, y, tmp

    # -- emission -------------------------------------------------------------

    def _emit_states(self, states: np.ndarray) -> dict:
        """Batched Figure 4.2 emission; advances *states* in place."""
        A = self.arrays
        n = states.size
        all_idx = np.arange(n)

        u = self._uniform(states, all_idx)
        target = u * A.total_power
        li = np.searchsorted(A.lum_cum, target, side="right")
        li = np.minimum(li, A.lum_cum.size - 1)
        pidx = A.lum_patch[li]

        s = self._uniform(states, all_idx)
        t = self._uniform(states, all_idx)
        px = (A.p0x[pidx] + s * A.eux[pidx]) + t * A.evx[pidx]
        py = (A.p0y[pidx] + s * A.euy[pidx]) + t * A.evy[pidx]
        pz = (A.p0z[pidx] + s * A.euz[pidx]) + t * A.evz[pidx]

        pick = self._uniform(states, all_idx) * A.lum_total[li]
        band = np.where(
            pick < A.lum_er[li], 0, np.where(pick < A.lum_erg[li], 1, 2)
        ).astype(np.int64)

        lx, ly, _ = self._sample_disc(states, all_idx)
        scale = A.lum_scale[li]
        lx = lx * scale
        ly = ly * scale
        tmp = lx * lx + ly * ly
        lz = np.sqrt(1.0 - tmp)

        dx = (lx * A.ft1x[pidx] + ly * A.ft2x[pidx]) + lz * A.nx[pidx]
        dy = (lx * A.ft1y[pidx] + ly * A.ft2y[pidx]) + lz * A.ny[pidx]
        dz = (lx * A.ft1z[pidx] + ly * A.ft2z[pidx]) + lz * A.nz[pidx]

        theta = _atan2_theta(ly, lx)
        r2 = np.minimum(tmp, 1.0 - 1e-15)
        return {
            "patch": pidx, "s": s, "t": t, "theta": theta, "r2": r2,
            "band": band, "px": px, "py": py, "pz": pz,
            "dx": dx, "dy": dy, "dz": dz,
        }

    def emit_range(self, seed: int, start: int, count: int) -> EmissionBatch:
        """Emit photons ``start .. start+count`` (no tracing).

        Returns the packed emission records plus each photon's
        post-emission RNG state — the batched form of the emission
        enumeration loop in :mod:`repro.parallel.geomdist`.
        """
        states = substream_states(seed, start, count)
        em = self._emit_states(states)
        return EmissionBatch(
            index=np.arange(start, start + count, dtype=np.int64),
            states=states,
            px=em["px"], py=em["py"], pz=em["pz"],
            dx=em["dx"], dy=em["dy"], dz=em["dz"],
            band=em["band"], patch=em["patch"],
            s=em["s"], t=em["t"], theta=em["theta"], r2=em["r2"],
        )

    # -- intersection ---------------------------------------------------------

    def _surface_params(self, cols, lpx, lpy, lpz, ldx, ldy, ldz, t):
        """Where rays reach distance *t*, and that point's ``(s, t)`` on *cols*.

        ``Ray.at`` then :meth:`repro.geometry.polygon.Patch.parameters_of`,
        expression for expression; the parameters are raw (unclamped).
        Returns ``(hx, hy, hz, sc, tc)`` in the operands' broadcast shape.
        """
        A = self.arrays
        hx = lpx + t * ldx
        hy = lpy + t * ldy
        hz = lpz + t * ldz
        wx = hx - A.p0x[cols]
        wy = hy - A.p0y[cols]
        wz = hz - A.p0z[cols]
        wu = (wx * A.eux[cols] + wy * A.euy[cols]) + wz * A.euz[cols]
        wv = (wx * A.evx[cols] + wy * A.evy[cols]) + wz * A.evz[cols]
        sc = (wu * A.inv_vv[cols] - wv * A.inv_uv[cols]) * A.det_inv[cols]
        tc = (wv * A.inv_uu[cols] - wu * A.inv_uv[cols]) * A.det_inv[cols]
        return hx, hy, hz, sc, tc

    def _plane_hits(self, cols, lpx, lpy, lpz, ldx, ldy, ldz):
        """Ray/plane + barycentric test of rays against patches *cols*.

        The single home of the bit-exact intersection test
        (:meth:`repro.geometry.polygon.Patch.intersect` expression for
        expression).  Broadcast-shape agnostic: the dense scan passes a
        ``[C, 1]`` column of patch ids against 1-D lane operands, the
        pair kernel gathered 1-D operands of one length.  Returns
        ``(t, ok)`` in the broadcast shape; ``t`` is meaningful only
        where ``ok``.
        """
        A = self.arrays
        nx, ny, nz = A.nx[cols], A.ny[cols], A.nz[cols]
        denom = (nx * ldx + ny * ldy) + nz * ldz
        ndoto = (nx * lpx + ny * lpy) + nz * lpz
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (A.d_plane[cols] - ndoto) / denom
            ok = ((denom <= -1e-14) | (denom >= 1e-14)) & (t > EPSILON)
            # Rejected lanes may carry inf/NaN t here; their parameters
            # are masked out below, so only the warnings need suppressing.
            _, _, _, sc, tc = self._surface_params(
                cols, lpx, lpy, lpz, ldx, ldy, ldz, t
            )
        tol = 1e-9
        ok &= (sc >= -tol) & (sc <= 1.0 + tol) & (tc >= -tol) & (tc <= 1.0 + tol)
        self.patch_tests += t.size
        return t, ok

    def hit_attributes(self, px, py, pz, dx, dy, dz, pi, t_hit):
        """What :class:`repro.geometry.polygon.Hit` records, for many hits.

        Args:
            px .. dz: Ray origins and unit directions, one lane per hit.
            pi / t_hit: Each lane's hit patch and distance, as
                :meth:`closest_hit` returned them (hit lanes only).

        Returns:
            ``(hx, hy, hz, s, t, backface)``: the hit point, its
            bilinear patch parameters clamped to [0, 1], and whether the
            ray arrived against the stored geometric normal — the
            ``Patch.intersect`` arithmetic, so the bounce loop and the
            viewing stage tally and look up exactly where the scalar
            tracer would.
        """
        A = self.arrays
        hx, hy, hz, hs, ht = self._surface_params(
            pi, px, py, pz, dx, dy, dz, t_hit
        )
        hs = np.minimum(np.maximum(hs, 0.0), 1.0)
        ht = np.minimum(np.maximum(ht, 0.0), 1.0)
        denom = (A.nx[pi] * dx + A.ny[pi] * dy) + A.nz[pi] * dz
        return hx, hy, hz, hs, ht, denom > 0.0

    def _test_patches(
        self, px, py, pz, dx, dy, dz, cols: np.ndarray,
        best_t: np.ndarray, best_i: np.ndarray,
    ) -> None:
        """Dense test of every lane against patch columns *cols*.

        Walks the lanes x *cols* rectangle in tiles of :data:`DENSE_TILE`,
        each laid out ``[patches, lanes]``, and folds every tile into the
        running closest hit under the canonical tie rule (smallest t;
        equal t resolved to the largest patch index).  The arithmetic is
        elementwise and the rule a pure function of the candidate set,
        so where the tile edges fall cannot change a bit of the result.
        All tile state is local to the call.
        """
        tile_lanes, tile_cols = DENSE_TILE
        chunks = [
            cols[c0:c0 + tile_cols, None] for c0 in range(0, cols.size, tile_cols)
        ]
        for l0 in range(0, px.size, tile_lanes):
            tgt = slice(l0, l0 + tile_lanes)
            ray = px[tgt], py[tgt], pz[tgt], dx[tgt], dy[tgt], dz[tgt]
            bt = best_t[tgt]
            bi = best_i[tgt]
            for chunk in chunks:
                t, ok = self._plane_hits(chunk, *ray)
                tm = np.where(ok, t, np.inf)
                cmin = tm.min(axis=0)
                # Largest patch id among equal minima.
                cand_i = np.where(tm == cmin, chunk, -1).max(axis=0)
                update = (cmin < np.inf) & (
                    (cmin < bt) | ((cmin == bt) & (cand_i > bi))
                )
                bt[update] = cmin[update]
                bi[update] = cand_i[update]
            best_t[tgt] = bt
            best_i[tgt] = bi

    def _test_pairs(
        self, px, py, pz, dx, dy, dz, lanes: np.ndarray, cols: np.ndarray,
        best_t: np.ndarray, best_i: np.ndarray,
    ) -> None:
        """Test ray ``lanes[k]`` against patch ``cols[k]`` for every pair.

        The flat walk's kernel: the same arithmetic as the dense scan on
        gathered operands, then a per-lane reduction under the same tie
        rule.  A lane may appear any number of times, and with the same
        patch more than once.
        """
        t, ok = self._plane_hits(
            cols, px[lanes], py[lanes], pz[lanes],
            dx[lanes], dy[lanes], dz[lanes],
        )
        lanes, cols, t = lanes[ok], cols[ok], t[ok]
        if not lanes.size:
            return
        # Sorted by (lane, t, -patch), each lane's first row is its
        # candidate: smallest t, largest patch id among equal t.
        order = np.lexsort((-cols, t, lanes))
        by_lane = lanes[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = by_lane[1:] != by_lane[:-1]
        winners = order[first]
        lanes, cols, t = lanes[winners], cols[winners], t[winners]
        bt = best_t[lanes]
        update = (t < bt) | ((t == bt) & (cols > best_i[lanes]))
        best_t[lanes[update]] = t[update]
        best_i[lanes[update]] = cols[update]

    def closest_hit(
        self, px, py, pz, dx, dy, dz
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closest hit per lane: (patch index or -1, distance).

        The batched :meth:`repro.geometry.scene.Scene.intersect`: one
        lane per ray, origins and unit directions as six equal-length
        float64 arrays.  Photon bounces and the viewing stage's eye rays
        both resolve here.  Dispatches on ``self.accel``; every mode
        computes the identical reduction (closest ``t``, exact ties to
        the largest patch id).  ``"linear"`` is one tiled
        :meth:`_test_patches` pass over every patch, whose working set
        besides the two arrays returned does not grow with the lane
        count.
        """
        n = px.size
        best_t = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        A = self.arrays
        if self.accel == "linear":
            cols = np.arange(A.patch_count, dtype=np.int64)
            self._test_patches(px, py, pz, dx, dy, dz, cols, best_t, best_i)
            return best_i, best_t

        # Level-synchronous pair walk of the array-encoded tree:
        # (lane, node) pairs drop out as subtrees miss or fall strictly
        # behind the lane's current best hit, and each level's
        # (lane, patch) pairs are tested in one kernel call.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_x = 1.0 / dx
            inv_y = 1.0 / dy
            inv_z = 1.0 / dz

        def test_pairs(lanes: np.ndarray, cols: np.ndarray) -> None:
            self._test_pairs(px, py, pz, dx, dy, dz, lanes, cols,
                             best_t, best_i)

        self.box_tests += A.flat.traverse(
            px, py, pz, inv_x, inv_y, inv_z, best_t, test_pairs
        )
        return best_i, best_t

    # -- reflection -----------------------------------------------------------

    def _orthonormal_basis_rows(self, ax, ay, az):
        """Vectorized :func:`repro.geometry.vec.orthonormal_basis`."""
        use_y = np.abs(ax) > 0.9
        hx = np.where(use_y, 0.0, 1.0)
        hy = np.where(use_y, 1.0, 0.0)
        # cross(helper, axis) with hz == 0
        cx = hy * az - 0.0 * ay
        cy = 0.0 * ax - hx * az
        cz = hx * ay - hy * ax
        norm = np.sqrt((cx * cx + cy * cy) + cz * cz)
        inv = 1.0 / norm
        t1x, t1y, t1z = cx * inv, cy * inv, cz * inv
        # cross(axis, t1)
        t2x = ay * t1z - az * t1y
        t2y = az * t1x - ax * t1z
        t2z = ax * t1y - ay * t1x
        return t1x, t1y, t1z, t2x, t2y, t2z

    def local_frame(self, dx, dy, dz, pidx):
        """Vectorized :func:`repro.core.reflection.local_frame_coords`.

        ``(theta, r^2)`` of world directions leaving patches *pidx*, in
        each patch's canonical tangent frame.
        """
        A = self.arrays
        lx = (dx * A.ft1x[pidx] + dy * A.ft1y[pidx]) + dz * A.ft1z[pidx]
        ly = (dx * A.ft2x[pidx] + dy * A.ft2y[pidx]) + dz * A.ft2z[pidx]
        theta = _atan2_theta(ly, lx)
        r2 = lx * lx + ly * ly
        r2 = np.where(r2 >= 1.0, 1.0 - 1e-15, r2)
        return theta, r2

    # -- tracing --------------------------------------------------------------

    def trace_range(
        self, seed: int, start: int, count: int
    ) -> tuple[EventBatch, "TraceStats"]:
        """Trace photons ``start .. start+count``; canonical events + stats."""
        from .simulator import TraceStats

        stats = TraceStats()
        blocks: list[EventBatch] = []
        done = 0
        while done < count:
            todo = min(self.batch_size, count - done)
            block = self._trace_batch(seed, start + done, todo, stats)
            blocks.append(block)
            done += todo
        return EventBatch.concat(blocks), stats

    def _trace_batch(
        self, seed: int, start: int, count: int, stats: "TraceStats"
    ) -> EventBatch:
        A = self.arrays
        stats.photons += count
        states = substream_states(seed, start, count)
        gidx = np.arange(start, start + count, dtype=np.int64)
        em = self._emit_states(states)

        ev = [EventBatch(
            gidx.copy(), np.zeros(count, dtype=np.int64), em["patch"].astype(np.int64),
            em["s"], em["t"], em["theta"], em["r2"], em["band"].copy(),
        )]

        px, py, pz = em["px"], em["py"], em["pz"]
        dx, dy, dz = em["dx"], em["dy"], em["dz"]
        band = em["band"]
        bounces = np.zeros(count, dtype=np.int64)
        from .simulator import MAX_BOUNCES

        while gidx.size:
            capped = bounces >= MAX_BOUNCES
            if capped.any():
                stats.bounce_limit_hits += int(capped.sum())
                keep = ~capped
                (gidx, states, px, py, pz, dx, dy, dz, band, bounces) = (
                    a[keep] for a in (gidx, states, px, py, pz, dx, dy, dz, band, bounces)
                )
                if not gidx.size:
                    break

            pi, t_hit = self.closest_hit(px, py, pz, dx, dy, dz)
            hit = pi >= 0
            stats.escapes += int((~hit).sum())
            if not hit.any():
                break
            (gidx, states, px, py, pz, dx, dy, dz, band, bounces, pi, t_hit) = (
                a[hit] for a in (gidx, states, px, py, pz, dx, dy, dz, band, bounces, pi, t_hit)
            )
            n = gidx.size

            hx, hy, hz, hs, ht, backface = self.hit_attributes(
                px, py, pz, dx, dy, dz, pi, t_hit
            )
            snx = np.where(backface, -A.nx[pi], A.nx[pi])
            sny = np.where(backface, -A.ny[pi], A.ny[pi])
            snz = np.where(backface, -A.nz[pi], A.nz[pi])

            # Roulette.
            u = self._uniform(states, np.arange(n))
            pd = A.diffuse[pi, band]
            ps = A.specular[pi]
            is_diff = u < pd
            is_spec = (~is_diff) & (u < pd + ps)

            out_dx = np.empty(n)
            out_dy = np.empty(n)
            out_dz = np.empty(n)
            reflected = np.zeros(n, dtype=bool)
            new_band = band.copy()

            # Diffuse lobe: disc sample about the shading normal.
            didx = np.nonzero(is_diff)[0]
            if didx.size:
                self._diffuse_emit(states, didx, pi, backface, snx, sny, snz,
                                   out_dx, out_dy, out_dz)
                reflected[didx] = True

            # Specular: ideal mirror or Phong gloss about the mirror axis.
            sidx = np.nonzero(is_spec)[0]
            if sidx.size:
                k = 2.0 * ((dx[sidx] * snx[sidx] + dy[sidx] * sny[sidx])
                           + dz[sidx] * snz[sidx])
                mx = dx[sidx] - k * snx[sidx]
                my = dy[sidx] - k * sny[sidx]
                mz = dz[sidx] - k * snz[sidx]
                glossy = A.has_gloss[pi[sidx]]
                mirror_rows = sidx[~glossy]
                out_dx[mirror_rows] = mx[~glossy]
                out_dy[mirror_rows] = my[~glossy]
                out_dz[mirror_rows] = mz[~glossy]
                reflected[mirror_rows] = True
                grows = sidx[glossy]
                if grows.size:
                    self._gloss_lobe(states, grows, pi, mx[glossy], my[glossy],
                                     mz[glossy], snx, sny, snz,
                                     out_dx, out_dy, out_dz, reflected)

            # Fluorescence second chance for every absorbed lane.
            absorbed = ~reflected
            if self.fluorescence is not None and absorbed.any():
                self._fluorescent_rescue(states, np.nonzero(absorbed)[0], band,
                                         new_band, pi, backface, snx, sny, snz,
                                         out_dx, out_dy, out_dz, reflected)

            n_ref = int(reflected.sum())
            stats.reflections += n_ref
            stats.absorptions += n - n_ref
            if not n_ref:
                break

            ridx = np.nonzero(reflected)[0]
            theta, r2 = self.local_frame(out_dx[ridx], out_dy[ridx],
                                         out_dz[ridx], pi[ridx])
            ev.append(EventBatch(
                gidx[ridx], bounces[ridx] + 1, pi[ridx],
                hs[ridx], ht[ridx], theta, r2, new_band[ridx],
            ))

            gidx = gidx[ridx]
            states = states[ridx]
            px, py, pz = hx[ridx], hy[ridx], hz[ridx]
            dx, dy, dz = out_dx[ridx], out_dy[ridx], out_dz[ridx]
            band = new_band[ridx]
            bounces = bounces[ridx] + 1

        return EventBatch.concat(ev)

    def _diffuse_emit(self, states, rows, pi, backface, snx, sny, snz,
                      out_dx, out_dy, out_dz) -> None:
        """Cosine-weighted re-emission about the shading normal."""
        A = self.arrays
        lx, ly, tmp = self._sample_disc(states, rows)
        lz = np.sqrt(1.0 - tmp)
        p = pi[rows]
        bf = backface[rows]
        t1x = np.where(bf, A.bt1x[p], A.ft1x[p])
        t1y = np.where(bf, A.bt1y[p], A.ft1y[p])
        t1z = np.where(bf, A.bt1z[p], A.ft1z[p])
        t2x = np.where(bf, A.bt2x[p], A.ft2x[p])
        t2y = np.where(bf, A.bt2y[p], A.ft2y[p])
        t2z = np.where(bf, A.bt2z[p], A.ft2z[p])
        out_dx[rows] = (lx * t1x + ly * t2x) + lz * snx[rows]
        out_dy[rows] = (lx * t1y + ly * t2y) + lz * sny[rows]
        out_dz[rows] = (lx * t1z + ly * t2z) + lz * snz[rows]

    def _gloss_lobe(self, states, rows, pi, ax, ay, az, snx, sny, snz,
                    out_dx, out_dy, out_dz, reflected) -> None:
        """Phong lobe about the mirror axis with the scalar retry cap."""
        A = self.arrays
        t1x, t1y, t1z, t2x, t2y, t2z = self._orthonormal_basis_rows(ax, ay, az)
        inv_e = A.inv_gloss_exp[pi[rows]]
        active = np.arange(rows.size)
        for _ in range(_GLOSS_RETRIES):
            if not active.size:
                break
            lanes = rows[active]
            u1 = self._uniform(states, lanes)
            u2 = self._uniform(states, lanes)
            cos_a = _pow_scalar(u1, inv_e[active])
            sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
            phi = 2.0 * math.pi * u2
            sphi, cphi = _sincos_scalar(phi)
            aa = active
            cx = (sin_a * cphi * t1x[aa] + sin_a * sphi * t2x[aa]) + cos_a * ax[aa]
            cy = (sin_a * cphi * t1y[aa] + sin_a * sphi * t2y[aa]) + cos_a * ay[aa]
            cz = (sin_a * cphi * t1z[aa] + sin_a * sphi * t2z[aa]) + cos_a * az[aa]
            good = ((cx * snx[lanes] + cy * sny[lanes]) + cz * snz[lanes]) > 1e-12
            ok_rows = lanes[good]
            out_dx[ok_rows] = cx[good]
            out_dy[ok_rows] = cy[good]
            out_dz[ok_rows] = cz[good]
            reflected[ok_rows] = True
            active = active[~good]
        # Lanes still active after the retries stay absorbed, exactly as
        # the scalar lobe returns None.

    def _fluorescent_rescue(self, states, rows, band, new_band, pi, backface,
                            snx, sny, snz, out_dx, out_dy, out_dz,
                            reflected) -> None:
        """The Stokes-shift second chance of ``fluorescent_reflect``."""
        totals = self._fluor_total[band[rows]]
        eligible = rows[totals > 0.0]
        if not eligible.size:
            return
        u = self._uniform(states, eligible)
        th = self._fluor_thresholds[band[eligible]]
        target = np.full(eligible.size, -1, dtype=np.int64)
        for dst in range(NUM_BANDS - 1, -1, -1):
            target = np.where(u < th[:, dst], dst, target)
        converted = target >= 0
        crows = eligible[converted]
        if not crows.size:
            return
        new_band[crows] = target[converted]
        self._diffuse_emit(states, crows, pi, backface, snx, sny, snz,
                           out_dx, out_dy, out_dz)
        reflected[crows] = True

    # -- driver ---------------------------------------------------------------

    def run(self, config) -> "SimulationResult":
        """Run a full photon budget; returns the same result type as the
        scalar :class:`~repro.core.simulator.PhotonSimulator`.
        """
        from .simulator import SimulationResult, TraceStats

        forest = BinForest(config.policy)
        stats = TraceStats()
        done = 0
        while done < config.n_photons:
            todo = min(self.batch_size, config.n_photons - done)
            block = self._trace_batch(config.seed, done, todo, stats)
            tally_block(forest, block, todo)
            done += todo
        # An attached-plane engine has no scene object; the handle does
        # not carry the name, only the arrays.
        name = self.scene.name if self.scene is not None else "<attached-plane>"
        return SimulationResult(forest, stats, config, name)
