"""Vectorized batch photon engine: structure-of-arrays tracing.

The scalar reference (:func:`repro.paper.scalar.trace_photon`) walks one
photon at a time through emission -> intersect -> reflect, consuming one
``drand48`` stream.  This module traces a photon range as one *wave* of
lanes in NumPy structure-of-arrays form (:class:`Lanes`) — batched
emission, batched ray/patch intersection, batched roulette/lobe
sampling — while remaining **bit-exact** with the scalar path
photon-for-photon.  The wave has two passes: :meth:`VectorEngine.emit`
turns the range's next photons into lanes and :meth:`VectorEngine.step`
moves every lane one bounce on.  At most :data:`PHOTONS_IN_FLIGHT`
lanes are in flight; before each step, lanes that were absorbed,
escaped or reached the bounce cap are replaced by fresh photons, so a
range pays one narrowing tail of bounces, not one per wave width.

The engine picks its intersection accelerator from the patch count;
nothing above :class:`VectorEngine` names one.  The two serving paths:

* ``"linear"`` — the screened dense scan over every patch, walked in
  cache-sized lane x patch tiles (:data:`DENSE_TILE`): per tile, two
  single-threaded matrix products against per-patch tables give every
  pair an approximate hit distance and patch parameters, a conservative
  screen with margins from a rounding-error bound rules most pairs out,
  and only the rest run the exact test
  (:meth:`VectorEngine._screen_patches`).  Fastest for small scenes,
  where candidate selection cannot pay for itself.
* ``"flat"`` — the :class:`repro.geometry.flatoctree.FlatOctree`
  level-synchronous pair walk: an eight-wide BVH built once from the
  patch columns into contiguous arrays, each patch in one padded leaf
  box, then one slab-test call per tree level over every
  live ``(lane, node)`` pair, descending on slab tests alone, and one
  :meth:`VectorEngine._test_pairs` call per wave over the
  ``(lane, patch)`` pairs of every leaf the wave reached.  NumPy
  dispatches per bounce are O(tree depth), independent of how many
  nodes and leaves the rays visit.
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
  :mod:`repro.paper.geomdist` uses for its wire photons), so a request
  holds at most :data:`MAX_PHOTONS` (2**28) distinct ones.  Lanes never
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
import operator
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from ..geometry.flatoctree import FlatOctree
from ..geometry.ray import EPSILON
from ..geometry.scene import Scene
from ..geometry.vec import Vec3, orthonormal_basis
from ..rng import Lcg48
from ..rng.lcg import INCREMENT, MODULUS, MULTIPLIER, _affine_power
from .binning import TWO_PI
from .bintree import BinForest, SplitPolicy, TraceStats
from .photon import NUM_BANDS

if TYPE_CHECKING:  # pragma: no cover — import-cycle guard
    from .fluorescence import FluorescenceSpec
    from .simulator import SimulationResult

__all__ = [
    "SUBSTREAM_SPACING_BITS",
    "MAX_PHOTONS",
    "photon_substream",
    "substream_states",
    "SceneArrays",
    "EVENT_FIELDS",
    "EventBatch",
    "EmissionBatch",
    "Lanes",
    "VectorEngine",
    "apply_events",
    "block_stats",
    "tally_block",
    "next_report",
    "grow_to_end",
    "ACCEL_MODES",
    "PRUNE_PATCH_THRESHOLD",
    "DENSE_TILE",
    "PHOTONS_IN_FLIGHT",
]

#: Each photon's private substream starts ``(index + 1) << 20`` draws into
#: the base sequence; no physical path consumes anywhere near 2**20 draws
#: (the bounce cap alone limits it to a few thousand).
SUBSTREAM_SPACING_BITS = 20

#: The most photons one request can trace without repeating a sample:
#: photon *i*'s substream starts ``(i + 1) << SUBSTREAM_SPACING_BITS``
#: draws into a sequence of period :data:`~repro.rng.MODULUS`, so photons
#: *i* and ``i + MAX_PHOTONS`` draw the same numbers.  2**28.
MAX_PHOTONS = MODULUS >> SUBSTREAM_SPACING_BITS

#: Intersection acceleration modes accepted by :class:`VectorEngine`
#: (``"auto"`` resolves at construction, see the module docstring).
ACCEL_MODES = ("auto", "flat", "linear")

#: The screened dense scan wins below this patch count; above it
#: hierarchical candidate selection pays for its per-level overhead
#: (``accel="auto"`` switches from ``"linear"`` to ``"flat"`` here).
#: Measured crossover of the slab-only pair walk over the binned-SAH BVH
#: against the screened tiled dense scan, flat/linear photons/sec
#: (medians of 7 alternating 10k-photon traces, 2-vCPU Xeon; ranges
#: over up to three runs from 30 to 134 patches): 0.52 at 14 patches
#: (den-1@2), 0.67 at 20, 0.70 at 26, 0.70-0.72 at 30 (cornell-box),
#: 0.71-0.78 at 32, 0.76-0.99 at 38, 0.93-0.97 at 44, 0.77-0.82 at 50,
#: 0.77-0.87 at 62, 1.03-1.37 at 68 (den-2@5), 0.98-0.99 at 74
#: (den-3@9), 1.04-1.05 at 86 (den-3@5), 1.64-1.88 at 97
#: (harpsichord-room), 1.22-1.27 at 134 (office-3), 1.35 at 218,
#: 1.73 at 344 (office-8@0xBEEF).  The walk breaks even between 62 and
#: 86 patches and takes over at 80.
PRUNE_PATCH_THRESHOLD = 80

#: ``(lanes, patch columns)`` of one tile of the dense scan
#: (:meth:`VectorEngine._screen_patches`): the screen's two matrix
#: products and ~16 passes run on ~16k pairs, cache-resident, and peak
#: memory is independent of the caller's batch size.  A constant, not a
#: knob.  Re-measured for the screen (10k-photon cornell traces, 6
#: alternating rounds, two runs each, 2-vCPU Xeon): medians 65-68 /
#: 57-58 / 53-55 / 52-54 / 60-62 ms at 128 / 256 / 512 / 1,024 /
#: 2,048 lanes, and 36.6-39.6 / 36.3-37.6 / 38.0-38.8 / 43.6-55.3 ms at
#: 512 / 768 / 1,024 / 1,536 on a quieter host; no shape ahead in every
#: round, so 512 stays.  16 columns instead of 32 (two chunks for
#: cornell) take 61-63 ms at 512 lanes and 43-46 ms at 1,024 in those
#: two sweeps.  Lanes must stay at or below 2,048:
#: past that OpenBLAS runs a ``[90, 4] @ [4, lanes]`` product on a
#: second thread (3.2 ms of wall time at 4,096 lanes against 0.11 ms on
#: one thread at 2,048), and a scan must hold one core
#: (``test_scan_stays_on_one_thread``).
DENSE_TILE = (512, 32)

#: The most photons in flight: a wave's width (:meth:`VectorEngine._wave`),
#: :meth:`VectorEngine.run`'s tally block, a session's early-stop step
#: (the photons traced between convergence checks), the default chunk of
#: :meth:`repro.api.RenderSession.simulate_stream`, and, divided by the
#: image width, the render band.  A constant, not a knob: a session
#: checks a convergence target at the same photon counts on every
#: configuration, so a target request has one answer.  Answers without
#: a target do not depend on it.
PHOTONS_IN_FLIGHT = 4096

#: The per-patch constants the intersection test reads
#: (:meth:`VectorEngine._hit_consts`), in gather order.
_HIT_CONSTS = (
    "nx", "ny", "nz", "d_plane",
    "p0x", "p0y", "p0z", "eux", "euy", "euz", "evx", "evy", "evz",
    "inv_uu", "inv_vv", "inv_uv", "det_inv",
)

#: Float planes the intersection test computes in: eight for
#: :meth:`VectorEngine._surface_params`, then one holding ``t``.
_HIT_PLANES = 9

#: How far outside [0, 1] a hit's patch parameters may round
#: (``Patch.intersect``'s ``tol``).
_PARAM_TOL = 1e-9

#: Pairs whose ``|n.d|`` is below this share of the call's largest
#: ``|d|_1`` always pass the dense scan's screen: its error bound divides
#: by ``|n.d|`` (:meth:`VectorEngine._screen_patches`).
_SCREEN_FLOOR = 1e-3

#: The screen's margins in units of ``S`` roundoffs: four times the sum
#: of the error terms its docstring derives.
_SCREEN_KAPPA = 64.0

_UNIT_ROUNDOFF = 2.0 ** -53

#: The screen's parameter bound before its margin: ``|s - 1/2|`` of an
#: accepted hit is at most this.
_HALF_SPAN = 0.5 + _PARAM_TOL

#: The dense scan's exact stage takes a tile's surviving pairs in blocks
#: of this many a tile lane, so its workspace is fixed by the tile.
_EXACT_BLOCK = 2

#: Float rows of one exact-stage block: the gathered patch constants,
#: six ray rows, then the planes :meth:`VectorEngine._plane_hits` uses.
_EXACT_ROWS = len(_HIT_CONSTS) + 6 + _HIT_PLANES

_MASK = MODULUS - 1
_INV_MODULUS = 1.0 / MODULUS
_U64 = np.uint64
_A64 = _U64(MULTIPLIER)
_C64 = _U64(INCREMENT)
_MASK64 = _U64(_MASK)

#: Mirrors ``repro.paper.physics._GLOSS_RETRIES``.
_GLOSS_RETRIES = 8

#: No photon indices: a wave pass in which no lane escaped.
_NO_PHOTONS = np.empty(0, dtype=np.int64)


def photon_substream(seed: int, index: int) -> Lcg48:
    """The private scalar RNG stream of photon *index*.

    Identical to the wire-photon streams of
    :mod:`repro.paper.geomdist`: a jump of ``(index + 1) << 20`` steps
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


def checked_range(start: int, count: int) -> tuple[int, int]:
    """The photon range ``start .. start+count`` as ints, or ``ValueError``
    when either end is negative (the message names which)."""
    start, count = operator.index(start), operator.index(count)
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return start, count


def next_report(done: int, step: int, end: int) -> int:
    """The first report point past photon count *done* in a range ending
    at *end*: the next multiple of *step*, or *end* if that comes first.

    The one report-point rule: both tracers' ``grow`` and the session's
    choice between ``run`` and ``grow`` apply it.
    """
    return min((done // step + 1) * step, end)


def grow_to_end(
    tracer, config, forest: Optional[BinForest], start: int, scene_name: str
) -> "SimulationResult":
    """A tracer's ``run``: drain its ``grow`` over photons ``start ..
    config.n_photons`` with only the range's end reporting.

    *forest* holds photons ``0 .. start`` (``None``: a fresh one);
    ``result.stats`` counts only this call's photons: what the forest
    booked over the call.
    """
    from .simulator import SimulationResult

    if forest is None:
        forest = BinForest(config.policy)
    before = replace(forest.trace_stats)
    # No multiple of the budget lies inside the range: one report.
    step = max(config.n_photons, 1)
    for _ in tracer.grow(config, forest, start, step):
        pass
    return SimulationResult(
        forest, forest.trace_stats.since(before), config, scene_name
    )


def _atan2_theta(ly: np.ndarray, lx: np.ndarray) -> np.ndarray:
    """``atan2`` folded to [0, 2 pi), via libm for bit-parity with scalar."""
    theta = np.fromiter(
        map(math.atan2, ly.tolist(), lx.tolist()), np.float64, ly.size
    )
    return np.where(theta < 0.0, theta + 2.0 * math.pi, theta)


def _pow_scalar(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Element-wise ``base ** exponent`` via libm (NumPy's differs by 1 ulp)."""
    return np.fromiter(
        map(operator.pow, base.tolist(), exponent.tolist()), np.float64, base.size
    )


def _sincos_scalar(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise libm sin/cos.

    NumPy's SIMD float64 sin/cos happen to match libm on this build, but
    that is not an IEEE guarantee; the bit-parity contract must not
    depend on it.  Only the (rare) glossy lanes pay the scalar cost.
    """
    vals = phi.tolist()
    return (
        np.fromiter(map(math.sin, vals), np.float64, phi.size),
        np.fromiter(map(math.cos, vals), np.float64, phi.size),
    )


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
        no-op there and a normalization everywhere else, so a result
        block holds the same bytes whichever pass made its rows.
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

    def take(self, idx) -> "EventBatch":
        """Row subset/reorder by integer index array; a ``slice`` takes
        zero-copy views."""
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
    """Batched :class:`~repro.paper.physics.EmissionRecord` mirror.

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


#: The per-lane columns of a :class:`Lanes`, in field order.
_LANE_FIELDS = (
    "gidx", "states", "px", "py", "pz", "dx", "dy", "dz", "band", "bounces",
)


@dataclass
class Lanes:
    """The photons of a wave in flight, one lane each, as columns.

    ``gidx`` is each lane's photon index, ``states`` its substream's
    LCG state, ``p*``/``d*`` its ray, ``band`` its wavelength band and
    ``bounces`` the reflections it has made.  :meth:`VectorEngine.emit`
    makes lanes and :meth:`VectorEngine.step` advances them.
    """

    gidx: np.ndarray
    states: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    band: np.ndarray
    bounces: np.ndarray

    @classmethod
    def empty(cls) -> "Lanes":
        i, f = np.empty(0, dtype=np.int64), np.empty(0)
        return cls(i, np.empty(0, dtype=np.uint64), f, f, f, f, f, f, i, i)

    @property
    def size(self) -> int:
        return self.gidx.size

    def columns(self) -> tuple:
        """Every per-lane array, in field order."""
        return tuple(getattr(self, name) for name in _LANE_FIELDS)

    def take(self, idx: np.ndarray) -> "Lanes":
        """The lanes at *idx* (an index or mask array), in that order."""
        return Lanes(*(a[idx] for a in self.columns()))

    def extend(self, other: "Lanes") -> "Lanes":
        """These lanes followed by *other*'s."""
        if not self.size:
            return other
        return Lanes(*map(np.concatenate, zip(self.columns(), other.columns())))


#: The bounds :class:`~repro.core.binning.BinCoords` enforces, per
#: coordinate column: (message name, upper bound, upper bound inclusive).
_COORD_BOUNDS = (
    ("s", 1.0, True),
    ("t", 1.0, True),
    ("theta", TWO_PI + 1e-12, False),
    ("r_squared", 1.0, True),
)


def _in_range(coords: np.ndarray, band: np.ndarray) -> bool:
    """Whether every row of a block is in range, read off its extremes.

    NaN makes its column's min and max NaN, which fails every test.
    """
    low, high = coords.min(axis=1).tolist(), coords.max(axis=1).tolist()
    return (
        min(low) >= 0.0
        and all(
            h <= hi if closed else h < hi
            for h, (_, hi, closed) in zip(high, _COORD_BOUNDS)
        )
        and 0 <= band.min()
        and band.max() < NUM_BANDS
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


def _tree_groups(events: EventBatch) -> tuple:
    """``(keys, starts, coords, band)`` for :meth:`BinForest.tally_groups`.

    The block is laid out one group per tree: groups in first-tally
    order, each group's rows in (photon, bounce) order.  It is
    range-checked before it is returned.
    """
    n = len(events)
    gidx, seq = np.asarray(events.gidx), np.asarray(events.seq)
    patch = np.asarray(events.patch)
    order = np.lexsort((seq, gidx, patch))
    patch = patch[order]
    starts = np.flatnonzero(np.concatenate(([True], patch[1:] != patch[:-1])))
    sizes = np.diff(np.append(starts, n))
    # Each group's first row is its tree's earliest event; ordering the
    # groups by those rows (ties by block position, as a stable sort
    # would) is first-tally order, the order trees must be created in.
    heads = order[starts]
    created = np.lexsort((heads, seq[heads], gidx[heads]))
    # Lay the groups out in that order: whole groups move, rows within
    # a group keep their (photon, bounce) order.
    sizes = sizes[created]
    begin = np.cumsum(sizes) - sizes
    order = order[np.arange(n) + np.repeat(starts[created] - begin, sizes)]
    columns = (events.s, events.t, events.theta, events.r2)
    coords = np.empty((len(columns), n))
    for row, column in zip(coords, columns):
        row[:] = np.asarray(column)[order]
    band = np.asarray(events.band)
    if not _in_range(coords, band):
        # The error names the first offending row in block order.
        _check_events(np.array(columns, dtype=np.float64), band)
    return (
        patch[starts[created]].tolist(), np.append(begin, n), coords,
        band[order],
    )


def apply_events(forest: BinForest, events: EventBatch) -> None:
    """Replay *events* into *forest* in canonical (photon, bounce) order.

    Produces exactly the forest a row-by-row :meth:`BinForest.tally`
    replay of the canonically ordered block would — node for node,
    tree-dict order and forest-wide counters included — in one pass over
    the whole block: it is range-checked as a whole, sorted once by
    (patch, photon, bounce), and every tree takes its rows in the same
    :meth:`BinForest.tally_groups` call.  Trees are independent, so only
    the order *within* a tree matters and the sort gives it; trees are
    still created in first-tally order.

    Raises:
        ValueError: for the first row with a coordinate or band out of
            range, before any node is touched — a bad block leaves
            *forest* exactly as it was.
    """
    if len(events):
        forest.tally_groups(*_tree_groups(events))


def block_stats(block: EventBatch, photons: int, escapes: int) -> TraceStats:
    """The trace counts of *photons* whole photons whose events are
    *block* and of which *escapes* left the scene.

    Each photon makes one emission row and one row per reflection, and
    a photon reaches the bounce cap exactly when it makes a row with
    ``seq == MAX_BOUNCES``; a photon that neither escaped nor reached
    the cap was absorbed.
    """
    from .simulator import MAX_BOUNCES

    capped = int(np.count_nonzero(np.asarray(block.seq) == MAX_BOUNCES))
    return TraceStats(
        photons=photons,
        reflections=len(block) - photons,
        absorptions=photons - escapes - capped,
        escapes=escapes,
        bounce_limit_hits=capped,
    )


def tally_block(
    forest: BinForest, block: EventBatch, photons: int, escapes: int
) -> None:
    """Replay one traced block of *photons* whole photons, *escapes* of
    which escaped; book its emissions and its trace counts.

    The single place the per-block forest bookkeeping lives — shared by
    :meth:`VectorEngine.grow` (one block per completed prefix), the
    pool's per-block tally and tests — so neither emission accounting
    nor trace counting can drift between them: a forest's
    :attr:`~repro.core.bintree.BinForest.trace_stats` count exactly the
    photons tallied into it (:func:`block_stats`).  The replay is
    :func:`apply_events`, which puts the block in canonical order
    itself: chunking a photon range into blocks of any size gives the
    same forest, because each block is replayed exactly as its rows one
    at a time would be.
    """
    apply_events(forest, block)
    counts = block.emission_band_counts()
    forest.photons_emitted += photons
    for b in range(NUM_BANDS):
        forest.band_emitted[b] += counts[b]
    forest.trace_stats.merge(block_stats(block, photons, escapes))


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
            scalar :func:`repro.paper.physics.fluorescent_reflect`).
        batch_size: The most photons in flight, :data:`PHOTONS_IN_FLIGHT`
            by default: a range is traced as one wave of at most this
            many lanes (:meth:`_wave`), and :meth:`run` tallies its
            completed prefix in blocks of this many photons.  Leave it
            at the default; naming a width is the seam the parity tests
            use to hold every width to the same answer.
        accel: One of :data:`ACCEL_MODES`.  Leave it at the default:
            ``"auto"`` picks ``"flat"`` at or above
            :data:`PRUNE_PATCH_THRESHOLD` patches and ``"linear"`` below,
            and no config, option or flag above the engine can say
            otherwise.  Naming a mode here is the seam the parity
            oracles use to hold the flat walk against the screened dense
            scan on the same scene.

    Attributes:
        accel: The resolved acceleration mode (never ``"auto"``).
        patch_tests: Cumulative exact lane-x-patch intersection tests
            (the vector analogue of ``OctreeStats.intersection_tests``):
            the pairs the flat walk's boxes or the dense scan's screen
            let through.
        box_tests: Cumulative lane-x-node slab tests (the flat walk
            counts eight per visited child block).
    """

    def __init__(
        self,
        scene: Optional[Scene] = None,
        *,
        arrays: Optional[SceneArrays] = None,
        fluorescence: Optional["FluorescenceSpec"] = None,
        batch_size: Optional[int] = None,
        accel: str = "auto",
    ) -> None:
        if batch_size is None:
            batch_size = PHOTONS_IN_FLIGHT
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
        self._screen = self._screen_tables() if accel == "linear" else None
        self._all_cols = np.arange(self.arrays.patch_count, dtype=np.int64)
        #: ``(chunk width, chunks)`` of every patch, cut on first use.
        self._all_chunks = (0, [])
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
        enumeration loop in :mod:`repro.paper.geomdist`.
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

    def _hit_consts(self, cols) -> tuple:
        """The patch constants of the intersection test, gathered at *cols*.

        In :data:`_HIT_CONSTS` order, shaped like *cols*: the pair
        kernel and :meth:`hit_attributes` gather one per lane.  (The
        dense scan gathers the same columns from its stacked table.)
        """
        A = self.arrays
        return tuple(getattr(A, name)[cols] for name in _HIT_CONSTS)

    @staticmethod
    def _surface_params(k, lpx, lpy, lpz, ldx, ldy, ldz, t, out):
        """Where rays reach distance *t*, and that point's ``(s, t)``.

        ``Ray.at`` then :meth:`repro.geometry.polygon.Patch.parameters_of`,
        expression for expression, against the patch constants *k*
        (:meth:`_hit_consts`); the parameters are raw (unclamped).  Every
        pass writes into *out*, eight planes of the operands' broadcast
        shape; ``(hx, hy, hz, sc, tc)`` are returned as views of its
        first five.
        """
        (_, _, _, _, p0x, p0y, p0z, eux, euy, euz, evx, evy, evz,
         inv_uu, inv_vv, inv_uv, det_inv) = k
        hx, hy, hz, wx, wy, wz, wu, wv = out
        mul, add, sub = np.multiply, np.add, np.subtract
        # h = p + t d
        mul(t, ldx, out=hx)
        add(lpx, hx, out=hx)
        mul(t, ldy, out=hy)
        add(lpy, hy, out=hy)
        mul(t, ldz, out=hz)
        add(lpz, hz, out=hz)
        # w = h - p0
        sub(hx, p0x, out=wx)
        sub(hy, p0y, out=wy)
        sub(hz, p0z, out=wz)
        # wu = (wx eux + wy euy) + wz euz
        mul(wx, eux, out=wu)
        mul(wy, euy, out=wv)
        add(wu, wv, out=wu)
        mul(wz, euz, out=wv)
        add(wu, wv, out=wu)
        # wv = (wx evx + wy evy) + wz evz; w's planes are free afterwards
        mul(wx, evx, out=wv)
        mul(wy, evy, out=wx)
        add(wv, wx, out=wv)
        mul(wz, evz, out=wx)
        add(wv, wx, out=wv)
        sc, tc, tmp = wx, wy, wz
        # sc = (wu inv_vv - wv inv_uv) det_inv
        mul(wu, inv_vv, out=sc)
        mul(wv, inv_uv, out=tmp)
        sub(sc, tmp, out=sc)
        mul(sc, det_inv, out=sc)
        # tc = (wv inv_uu - wu inv_uv) det_inv
        mul(wv, inv_uu, out=tc)
        mul(wu, inv_uv, out=tmp)
        sub(tc, tmp, out=tc)
        mul(tc, det_inv, out=tc)
        return hx, hy, hz, sc, tc

    def _plane_hits(self, k, lpx, lpy, lpz, ldx, ldy, ldz, f, b):
        """Ray/plane + barycentric test of rays against patch constants *k*.

        The single home of the bit-exact intersection test
        (:meth:`repro.geometry.polygon.Patch.intersect` expression for
        expression).  Broadcast-shape agnostic; both callers pass
        gathered 1-D operands of one length, one entry per pair.  Every
        pass writes into the caller's workspace: *f* holds
        :data:`_HIT_PLANES` float planes and *b* two bool planes of the
        broadcast shape.  Returns
        ``(t, ok)`` as views of ``f[-1]`` and ``b[0]``; ``t`` is
        meaningful only where ``ok``.
        """
        nx, ny, nz, d_plane = k[:4]
        denom, tmp, t = f[0], f[1], f[-1]
        ok, okb = b
        mul, add = np.multiply, np.add
        # denom = (nx dx + ny dy) + nz dz
        mul(nx, ldx, out=denom)
        mul(ny, ldy, out=tmp)
        add(denom, tmp, out=denom)
        mul(nz, ldz, out=tmp)
        add(denom, tmp, out=denom)
        # ndoto = (nx px + ny py) + nz pz, then t = (d - ndoto) / denom
        mul(nx, lpx, out=t)
        mul(ny, lpy, out=tmp)
        add(t, tmp, out=t)
        mul(nz, lpz, out=tmp)
        add(t, tmp, out=t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.subtract(d_plane, t, out=t)
            np.divide(t, denom, out=t)
            # Not parallel: |denom| >= 1e-14 is exactly the complement
            # of the scalar test's open band -1e-14 < denom < 1e-14.
            np.absolute(denom, out=tmp)
            np.greater_equal(tmp, 1e-14, out=ok)
            np.greater(t, EPSILON, out=okb)
            ok &= okb
            # Rejected lanes may carry inf/NaN t here; their parameters
            # are masked out below, so only the warnings need suppressing.
            _, _, _, sc, tc = self._surface_params(
                k, lpx, lpy, lpz, ldx, ldy, ldz, t, f[:-1]
            )
        for v in (sc, tc):
            np.greater_equal(v, -_PARAM_TOL, out=okb)
            ok &= okb
            np.less_equal(v, 1.0 + _PARAM_TOL, out=okb)
            ok &= okb
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
        k = self._hit_consts(pi)
        hx, hy, hz, hs, ht = self._surface_params(
            k, px, py, pz, dx, dy, dz, t_hit,
            np.empty((_HIT_PLANES - 1, pi.size)),
        )
        hs = np.minimum(np.maximum(hs, 0.0), 1.0)
        ht = np.minimum(np.maximum(ht, 0.0), 1.0)
        nx, ny, nz = k[:3]
        denom = (nx * dx + ny * dy) + nz * dz
        return hx, hy, hz, hs, ht, denom > 0.0

    def _screen_tables(self) -> tuple:
        """The dense scan's per-patch tables, derived once from the arrays.

        ``(consts, origin rows, direction rows, pad_s, pad_v, reach)``.
        *consts* stacks the :data:`_HIT_CONSTS` columns for the exact
        stage's one-call gather.  The rows are ``[3, C, 4]`` and
        ``[3, C, 3]``: against a homogeneous origin ``(o, 1)`` and a
        direction ``d`` they give ``d_plane - n.o`` and ``n.d``,
        ``U.(o - p0) - 1/2`` and ``U.d``, ``V.(o - p0) - 1/2`` and
        ``V.d``, where ``U = (inv_vv eu - inv_uv ev) det_inv`` and
        ``V = (inv_uu ev - inv_uv eu) det_inv`` fold the two steps of
        :meth:`_surface_params` into one.  *pad_s* and *pad_v* are the
        parameter margins per unit of ``S`` and *reach* the patch's part
        of ``S`` (:meth:`_screen_patches`).
        """
        A = self.arrays
        p0 = np.stack([A.p0x, A.p0y, A.p0z], axis=1)
        eu = np.stack([A.eux, A.euy, A.euz], axis=1)
        ev = np.stack([A.evx, A.evy, A.evz], axis=1)
        n = np.stack([A.nx, A.ny, A.nz], axis=1)
        # A patch far out may overflow its rows; the screen keeps the
        # NaN pairs that follows.
        with np.errstate(over="ignore", invalid="ignore"):
            det_inv = A.det_inv[:, None]
            u = (A.inv_vv[:, None] * eu - A.inv_uv[:, None] * ev) * det_inv
            v = (A.inv_uu[:, None] * ev - A.inv_uv[:, None] * eu) * det_inv
            origin_rows = np.empty((3, A.patch_count, 4))
            origin_rows[0, :, :3] = -n
            origin_rows[0, :, 3] = A.d_plane
            for k, g in ((1, u), (2, v)):
                origin_rows[k, :, :3] = g
                origin_rows[k, :, 3] = -(g * p0).sum(axis=1) - 0.5
            # gs, gv >= every |U_i|, |V_i| (and every rounding of them).
            top_u, top_v = np.abs(eu).max(axis=1), np.abs(ev).max(axis=1)
            uv, det_inv = np.abs(A.inv_uv), np.abs(A.det_inv)
            gs = det_inv * (A.inv_vv * top_u + uv * top_v)
            gv = det_inv * (A.inv_uu * top_v + uv * top_u)
            pad = _SCREEN_KAPPA * _UNIT_ROUNDOFF * (1.0 + 1.0 / _SCREEN_FLOOR)
            corner = np.abs(p0).sum(axis=1) + 2.0 * (
                np.abs(eu).sum(axis=1) + np.abs(ev).sum(axis=1)
            )
            reach = corner + np.abs(p0).sum(axis=1) + np.abs(A.d_plane)
        return (
            np.stack([getattr(A, name) for name in _HIT_CONSTS]),
            origin_rows, np.stack([n, u, v]), pad * gs, pad * gv, reach,
        )

    def _screen_chunks(self, cols: np.ndarray) -> list:
        """The screen tables of patch columns *cols*, a chunk at a time.

        One entry per :data:`DENSE_TILE` column chunk: its patch ids,
        its origin rows ``[3C, 4]`` and direction rows ``[3C, 3]``, and
        its ``pad_s``, ``pad_v`` and ``reach`` as ``[C, 1]`` columns
        (:meth:`_screen_tables`).  Nothing here depends on the rays.
        """
        _, origin_rows, dir_rows, pad_s, pad_v, reach = self._screen
        tile_cols = DENSE_TILE[1]
        chunks = []
        for c0 in range(0, cols.size, tile_cols):
            ids = cols[c0:c0 + tile_cols]
            chunks.append((
                ids,
                origin_rows[:, ids].reshape(-1, 4),
                dir_rows[:, ids].reshape(-1, 3),
                pad_s[ids, None], pad_v[ids, None], reach[ids, None],
            ))
        return chunks

    def _every_chunk(self) -> list:
        """:meth:`_screen_chunks` of every patch, cut once per chunk width."""
        width, chunks = self._all_chunks
        if width != DENSE_TILE[1]:
            width = DENSE_TILE[1]
            chunks = self._screen_chunks(self._all_cols)
            self._all_chunks = (width, chunks)
        return chunks

    @staticmethod
    def _scan_workspace(lanes: int, cols: int) -> tuple:
        """Scratch for one :meth:`_screen_patches` call over lanes x cols.

        Screen blocks, flat so that each tile computes in a reshaped
        prefix: the two matrix products' ``[3 x patches, lanes]``
        outputs, one lane tile's homogeneous origins ``[4, lanes]`` and
        directions ``[3, lanes]``, two bool planes ``[patches, lanes]``.
        Then the exact stage's, one block of pairs each: the 17 gathered
        patch constants, six ray rows, :data:`_HIT_PLANES` float and two
        bool planes, and three index rows.  Sized for
        ``min(DENSE_TILE, actual)``; a block holds :data:`_EXACT_BLOCK`
        pairs a tile lane.
        """
        tile_lanes, tile_cols = DENSE_TILE
        c, m = min(tile_cols, cols), min(tile_lanes, lanes)
        q = min(c * m, _EXACT_BLOCK * tile_lanes)
        return (
            np.empty(3 * c * m), np.empty(3 * c * m),
            np.empty(4 * m), np.empty(3 * m),
            np.empty(2 * c * m, dtype=bool),
            np.empty(_EXACT_ROWS * q), np.empty(2 * q, dtype=bool),
            np.empty(3 * q, dtype=np.int64),
        )

    def _screen_patches(
        self, px, py, pz, dx, dy, dz, cols: Optional[np.ndarray],
        best_t: np.ndarray, best_i: np.ndarray,
    ) -> None:
        """Closest hits of every lane among patch columns *cols*.

        ``cols=None`` scans every patch, from column chunks the engine
        cut once (:meth:`_every_chunk`); the margins are the call's own.

        Walks the lanes x *cols* rectangle in tiles of :data:`DENSE_TILE`,
        laid out ``[patches, lanes]``.  Per tile, two matrix products of
        the screen tables (:meth:`_screen_tables`) with the tile's
        homogeneous origins and with its directions give every pair's
        approximate ``t`` and patch parameters ``s``, ``v``, and sixteen
        elementwise passes screen them.  Only the pairs the screen
        cannot rule out go through the exact :meth:`_plane_hits` and
        :meth:`_fold_hits`, so the answer is the exact scan's over every
        pair, and ``patch_tests`` counts the pairs tested exactly.

        The screen never drops a pair the exact test accepts.  Let
        ``u = 2**-53``, ``R >= |o|_1`` and ``D >= |d|_1`` over the call's
        lanes, and ``gs``/``gv`` bound the components of ``U``/``V``.  An
        accepted hit lies within 1e-9 of its patch, so ``|h|_1 <= B =
        |p0|_1 + 2 (|eu|_1 + |ev|_1)`` (the 2 absorbs rounding) and
        ``|t| |d|_1 <= B + R``: every magnitude either computation meets
        (``|o|_1``, ``|p0|_1``, ``|d_plane|``, ``|t d|_1``, ``|h - p0|_1``)
        is at most ``S = 2 R + B + |p0|_1 + |d_plane|``.  A dot product
        in any summation order, fused or not, is off by at most ``5 u``
        times the sum of its terms' magnitudes.  So the screen's ``t``
        and the exact one differ by at most ``16 u S / |n.d|``, and the
        parameters by that times ``|U.d| <= gs |d|_1``, plus ``25 u gs S``
        of rounding in the two parameter chains.  The bound holds down
        to ``|n.d| = F D`` (:data:`_SCREEN_FLOOR`), where ``|d|_1 / |n.d|
        <= 1 / F``; below it every pair is kept.  Above it a pair is
        dropped only if ``|s - 1/2| > 1/2 + 1e-9 + k u gs S (1 + 1/F)``,
        the same with ``gv`` for ``v``, or ``t <= EPSILON - k u S /
        (F D)``, where ``k`` (:data:`_SCREEN_KAPPA`) is four times the
        sum of the error terms.  Each test is written as a rejection, so
        a pair whose screen arithmetic is NaN (an overflow, say) is kept
        too.  ``FIT_PAD`` makes the same argument for the flat walk.

        Each matrix product has at most ``DENSE_TILE[0]`` columns, below
        the size where OpenBLAS wakes a second thread: a scan stays on
        the one core that ``KERNEL_GATE`` accounts for.
        """
        n = px.size
        if not n:
            return
        tile_lanes = DENSE_TILE[0]
        consts = self._screen[0]
        if cols is None:
            cols = self._all_cols
            chunks = self._every_chunk()
        else:
            chunks = self._screen_chunks(cols)
        mul, add, absolute = np.multiply, np.add, np.absolute
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out_o, out_d, org, dirs, b, xf, xb, ix = self._scan_workspace(
                n, cols.size
            )

            def load(l0: int, m: int) -> tuple:
                """Lanes ``l0 .. l0+m``: homogeneous origins, directions."""
                tgt = slice(l0, l0 + m)
                o = org[:4 * m].reshape(4, m)
                d = dirs[:3 * m].reshape(3, m)
                o[0], o[1], o[2], o[3] = px[tgt], py[tgt], pz[tgt], 1.0
                d[0], d[1], d[2] = dx[tgt], dy[tgt], dz[tgt]
                return o, d

            # |o|_1 and |d|_1 bounds for every lane (NaN if any lane is):
            # |max| + |min| per axis, summed in axis order.  A call that
            # fits one lane tile reduces the loaded tile, all three axes
            # in one call.
            if n <= tile_lanes:
                o, d = load(0, n)
                extremes = [
                    zip(np.maximum.reduce(r, axis=1).tolist(),
                        np.minimum.reduce(r, axis=1).tolist())
                    for r in (o[:3], d)
                ]
            else:
                extremes = [
                    [(np.maximum.reduce(a), np.minimum.reduce(a)) for a in axes]
                    for axes in ((px, py, pz), (dx, dy, dz))
                ]
            big_o, big_d = (
                np.float64(sum(abs(v) for pair in axes for v in pair))
                for axes in extremes
            )
            floor = _SCREEN_FLOOR * big_d
            reach_o = 2.0 * big_o
            t_scale = _SCREEN_KAPPA * _UNIT_ROUNDOFF / floor
            margins = []
            for ids, o_rows, d_rows, pad_s, pad_v, reach in chunks:
                span = reach_o + reach
                margins.append((
                    ids, o_rows, d_rows,
                    _HALF_SPAN + pad_s * span, _HALF_SPAN + pad_v * span,
                    EPSILON - t_scale * span,
                ))
            block, nk = ix.size // 3, len(_HIT_CONSTS)
            for l0 in range(0, n, tile_lanes):
                m = min(tile_lanes, n - l0)
                tgt = slice(l0, l0 + m)
                if n > tile_lanes:
                    o, d = load(l0, m)
                for ids, o_rows, d_rows, hs, hv, tl in margins:
                    c = ids.size
                    fo = out_o[:3 * c * m].reshape(3 * c, m)
                    fd = out_d[:3 * c * m].reshape(3 * c, m)
                    np.matmul(o_rows, o, out=fo)
                    np.matmul(d_rows, d, out=fd)
                    t, s, v = fo[:c], fo[c:2 * c], fo[2 * c:]
                    den, sd, vd = fd[:c], fd[c:2 * c], fd[2 * c:]
                    out = b[:c * m].reshape(c, m)
                    tmp = b[c * m:2 * c * m].reshape(c, m)
                    np.divide(t, den, out=t)
                    # |s - 1/2| and |v - 1/2|: the tables fold in the 1/2.
                    mul(t, sd, out=sd)
                    add(s, sd, out=s)
                    absolute(s, out=s)
                    np.greater(s, hs, out=out)
                    mul(t, vd, out=vd)
                    add(v, vd, out=v)
                    absolute(v, out=v)
                    np.greater(v, hv, out=tmp)
                    out |= tmp
                    np.less_equal(t, tl, out=tmp)
                    out |= tmp
                    absolute(den, out=den)
                    np.greater_equal(den, floor, out=tmp)
                    out &= tmp
                    # out marks the pairs ruled out; NaN rules nothing out.
                    np.logical_not(out, out=out)
                    keep = np.flatnonzero(b[:c * m])
                    for k0 in range(0, keep.size, block):
                        k = min(block, keep.size - k0)
                        col, lane, pid = ix[:3 * k].reshape(3, k)
                        rows = xf[:_EXACT_ROWS * k].reshape(_EXACT_ROWS, k)
                        kc, ray, f = rows[:nk], rows[nk:nk + 6], rows[nk + 6:]
                        np.divmod(keep[k0:k0 + k], m, out=(col, lane))
                        np.take(ids, col, out=pid, mode="clip")
                        np.take(consts, pid, axis=1, out=kc, mode="clip")
                        np.take(o[:3], lane, axis=1, out=ray[:3], mode="clip")
                        np.take(d, lane, axis=1, out=ray[3:], mode="clip")
                        t, ok = self._plane_hits(
                            tuple(kc), *ray, f, xb[:2 * k].reshape(2, k)
                        )
                        self._fold_hits(lane, pid, t, ok, best_t[tgt], best_i[tgt])

    def _test_pairs(
        self, px, py, pz, dx, dy, dz, lanes: np.ndarray, cols: np.ndarray,
        best_t: np.ndarray, best_i: np.ndarray,
    ) -> None:
        """Test ray ``lanes[k]`` against patch ``cols[k]`` for every pair.

        The flat walk's kernel: the exact arithmetic on gathered
        operands, computed in one workspace block per call, then folded
        by :meth:`_fold_hits`.  A lane may appear any number of times,
        and with the same patch more than once.
        """
        m = lanes.size
        t, ok = self._plane_hits(
            self._hit_consts(cols), px[lanes], py[lanes], pz[lanes],
            dx[lanes], dy[lanes], dz[lanes],
            np.empty((_HIT_PLANES, m)), np.empty((2, m), dtype=bool),
        )
        self._fold_hits(lanes, cols, t, ok, best_t, best_i)

    @staticmethod
    def _fold_hits(lanes, cols, t, ok, best_t, best_i) -> None:
        """Fold pair hits (where *ok*) into the running closest hit in place.

        The canonical rule, a pure function of the candidate set:
        smallest ``t``, exact ties to the largest patch id.  *lanes*
        index *best_t* / *best_i*, which may be views of a lane tile.
        """
        lanes, cols, t = lanes[ok], cols[ok], t[ok]
        if not lanes.size:
            return
        cmin = np.full(best_t.size, np.inf)
        np.minimum.at(cmin, lanes, t)
        # Largest patch id among each lane's hits at its minimum.  A lane
        # with none keeps -1, which never beats a running best: no hit
        # lies at t = inf, where its (s, t) would be inf or NaN.
        at_min = t == cmin[lanes]
        cand = np.full(best_i.size, -1, dtype=best_i.dtype)
        np.maximum.at(cand, lanes[at_min], cols[at_min])
        better = cmin < best_t
        tie = cmin == best_t
        tie &= cand > best_i
        better |= tie
        np.copyto(best_t, cmin, where=better)
        np.copyto(best_i, cand, where=better)

    def closest_hit(
        self, px, py, pz, dx, dy, dz
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closest hit per lane: (patch index or -1, distance).

        The batched :func:`repro.paper.octree.intersect`: one
        lane per ray, origins and unit directions as six equal-length
        float64 arrays.  Photon bounces and the viewing stage's eye rays
        both resolve here.  Dispatches on ``self.accel``; every mode
        computes the identical reduction (closest ``t``, exact ties to
        the largest patch id).  ``"linear"`` is one tiled
        :meth:`_screen_patches` pass over every patch, whose working set
        besides the two arrays returned does not grow with the lane
        count.
        """
        n = px.size
        best_t = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        A = self.arrays
        if self.accel == "linear":
            self._screen_patches(px, py, pz, dx, dy, dz, None, best_t, best_i)
            return best_i, best_t

        # Level-synchronous pair walk of the array-encoded tree:
        # (lane, node) pairs drop out as their boxes miss the ray, and
        # each wave's (lane, patch) pairs are tested in one kernel call.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_x = 1.0 / dx
            inv_y = 1.0 / dy
            inv_z = 1.0 / dz

        def test_pairs(lanes: np.ndarray, cols: np.ndarray) -> None:
            self._test_pairs(px, py, pz, dx, dy, dz, lanes, cols,
                             best_t, best_i)

        self.box_tests += A.flat.traverse(
            px, py, pz, inv_x, inv_y, inv_z, test_pairs
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
        """Vectorized :func:`repro.core.radiance.local_frame_coords`.

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

    # -- tracing: the wave ---------------------------------------------------

    def emit(self, seed: int, start: int, count: int) -> tuple[Lanes, EventBatch]:
        """The wave's first pass: photons ``start .. start+count`` as lanes.

        Returns the lanes, positioned on their luminaires and pointed
        along their emission directions, and each photon's emission
        tally event (``seq`` 0).
        """
        states = substream_states(seed, start, count)
        gidx = np.arange(start, start + count, dtype=np.int64)
        em = self._emit_states(states)
        band = em["band"]
        lanes = Lanes(
            gidx, states, em["px"], em["py"], em["pz"],
            em["dx"], em["dy"], em["dz"], band, np.zeros(count, dtype=np.int64),
        )
        return lanes, EventBatch(
            gidx, np.zeros(count, dtype=np.int64), em["patch"].astype(np.int64),
            em["s"], em["t"], em["theta"], em["r2"], band,
        )

    def step(self, lanes: Lanes) -> tuple[Lanes, EventBatch, np.ndarray]:
        """The wave's second pass: move every lane one bounce on.

        Lanes at the bounce cap retire first; the rest find their closest
        hit, and those that hit roll the roulette.  Returns the lanes
        still in flight, in their input order, one reflection tally
        event for each, and the photon indices of the lanes that escaped
        the scene, ascending.  Nothing is counted here: a block's counts
        are read off its events and escapes when it is tallied
        (:func:`block_stats`).
        """
        from .simulator import MAX_BOUNCES

        A = self.arrays
        capped = lanes.bounces >= MAX_BOUNCES
        if capped.any():
            lanes = lanes.take(~capped)
        gidx, states, px, py, pz, dx, dy, dz, band, bounces = lanes.columns()
        if not gidx.size:
            return lanes, EventBatch.empty(), _NO_PHOTONS

        pi, t_hit = self.closest_hit(px, py, pz, dx, dy, dz)
        hit = pi >= 0
        escaped = _NO_PHOTONS
        if not hit.all():
            escaped = gidx[~hit]
            (gidx, states, px, py, pz, dx, dy, dz, band, bounces, pi, t_hit) = (
                a[hit] for a in (gidx, states, px, py, pz, dx, dy, dz, band, bounces, pi, t_hit)
            )
        n = gidx.size
        if not n:
            return Lanes.empty(), EventBatch.empty(), escaped

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

        ridx = np.nonzero(reflected)[0]
        pi, bounces = pi[ridx], bounces[ridx] + 1
        dx, dy, dz = out_dx[ridx], out_dy[ridx], out_dz[ridx]
        gidx, band = gidx[ridx], new_band[ridx]
        theta, r2 = self.local_frame(dx, dy, dz, pi)
        return (
            Lanes(gidx, states[ridx], hx[ridx], hy[ridx], hz[ridx],
                  dx, dy, dz, band, bounces),
            EventBatch(gidx, bounces, pi, hs[ridx], ht[ridx], theta, r2, band),
            escaped,
        )

    def _wave(
        self, seed: int, start: int, count: int
    ) -> Iterator[tuple[EventBatch, np.ndarray, int]]:
        """Trace photons ``start .. start+count`` as one refilled wave.

        At most ``batch_size`` lanes are in flight.  Before every
        :meth:`step`, the lanes that retired are replaced by
        :meth:`emit`-ting the range's next photons, so only the range's
        last photons trace a narrowing tail.  Lanes stay in photon order:
        a step keeps its survivors' order and fresh photons join at the
        end.  Yields each pass's events and escaped photon indices with
        the photon index below which every photon has finished (the
        lowest one in flight), so every event and escape of the photons
        below it has been yielded.  Each lane draws from its own
        substream, so no event depends on which photons share a step.
        """
        end = start + count
        fresh = start
        lanes = Lanes.empty()
        while fresh < end or lanes.size:
            room = self.batch_size - lanes.size
            if room and fresh < end:
                joined, events = self.emit(seed, fresh, min(room, end - fresh))
                fresh += joined.size
                lanes = lanes.extend(joined)
                yield events, _NO_PHOTONS, int(lanes.gidx[0])
            lanes, events, escaped = self.step(lanes)
            yield events, escaped, int(lanes.gidx[0]) if lanes.size else fresh

    def trace_events(
        self, seed: int, start: int, count: int
    ) -> tuple[EventBatch, np.ndarray]:
        """Trace photons ``start .. start+count``: their events and the
        indices of those that escaped the scene, ascending.

        The events of one refilled wave (:meth:`_wave`), concatenated in
        the order they were traced; replays sort them canonically.  A
        pool worker's shard job: it ships both, where :meth:`grow`
        tallies them into a forest as the wave goes.
        """
        start, count = checked_range(start, count)
        blocks, escaped = [], [_NO_PHOTONS]
        for events, gone, _ in self._wave(seed, start, count):
            blocks.append(events)
            escaped.append(gone)
        return EventBatch.concat(blocks), np.sort(np.concatenate(escaped))

    def trace_range(
        self, seed: int, start: int, count: int
    ) -> tuple[EventBatch, TraceStats]:
        """Trace photons ``start .. start+count``; their events and
        counts (:meth:`trace_events`, :func:`block_stats`)."""
        events, escaped = self.trace_events(seed, start, count)
        return events, block_stats(events, count, escaped.size)

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

    def grow(
        self, config, forest: BinForest, start: int, step: int
    ) -> Iterator[int]:
        """Add photons ``start .. config.n_photons`` to *forest*, which
        holds photons ``0 .. start``, as one wave, reporting at each
        multiple of *step* inside the range and at its end.

        The range is one wave (:meth:`_wave`).  Its events and escapes
        are tallied by completed prefix: once every photon below some
        index has finished, they go through :func:`tally_block`, in
        blocks of at most ``batch_size`` photons cut from the last report
        point on and at every report point; only those of photons above
        the prefix wait.  Yields each report point once the forest holds
        exactly photons ``0 .. point``, their trace counts included: the
        per-photon replay's forest, since each block is a contiguous
        photon range.  Each point is worked out as it is reached, so a
        small *step* over a large range costs no memory up front.
        """
        start, count = checked_range(start, config.n_photons - start)
        end = start + count
        wave = self._wave(config.seed, start, count)
        held: list[EventBatch] = []
        fled: list[np.ndarray] = []  # escaped photons not yet tallied
        tallied = done = start
        while True:
            stop = next_report(tallied, step, end)
            while tallied < stop:
                cut = min(tallied + self.batch_size, stop)
                while done < cut:
                    events, escaped, done = next(wave)
                    held.append(events)
                    fled.append(escaped)
                rest = held[0] if len(held) == 1 else EventBatch.concat(held)
                # Only the block and the rest live through the tally.
                held.clear()
                inside = rest.gidx < cut
                block, rest = rest.take(inside), rest.take(~inside)
                held.append(rest)
                escaped = np.concatenate(fled)
                gone = escaped < cut
                fled = [escaped[~gone]]
                tally_block(
                    forest, block, cut - tallied, int(np.count_nonzero(gone))
                )
                tallied = cut
            yield stop
            if stop == end:
                return

    def run(
        self, config, forest: Optional[BinForest] = None, start: int = 0
    ) -> "SimulationResult":
        """Add photons ``start .. config.n_photons`` to *forest*, which
        holds photons ``0 .. start`` (a fresh forest by default: the
        scalar oracle's :func:`~repro.paper.scalar.run_scalar` result).
        ``result.stats`` counts only this call's photons.

        The drain of :meth:`grow` reporting at the range's end only
        (:func:`grow_to_end`): one wave, tallied in blocks of
        ``batch_size`` photons from *start* as its completed prefix
        reaches them, and the rest at the end.
        """
        # An attached-plane engine has no scene object; the handle does
        # not carry the name, only the arrays.
        name = self.scene.name if self.scene is not None else "<attached-plane>"
        return grow_to_end(self, config, forest, start, name)
