"""Curvature measures, tube volumes, and the anisotropic Steiner formula.

The m-th curvature measure of a closed set weighs windows of bundle points
(a, u) by the (n-m)-th symmetric function of the generalized principal
curvatures, together with the support factor phi(u), the bundle Jacobian,
and the normalization 1/(n-m+1).  The totals are exactly the coefficients
of the tube-volume expansion: below the reach, the volume of the outer
phi-tube of radius rho is the polynomial

    sum_m  total_curvature(m) * rho^(n-m+1),

and beyond the reach the same bundle data still reproduces tube volumes
once every normal ray is truncated at its own reach (`steiner_predict`).
Tube volumes are also measured directly from the distance field by voxel
counting (`voxel_tube_volume`), which keeps an independent oracle in the
loop, and one-sided derivatives of the volume function expose the jump
contributed by boundary points whose reach equals rho exactly.

Convex polytopes take the fan route (`fan_bundle`): faces carry zero
curvature, normal fans carry infinite curvature, and face measures are
exact, so quadrature error enters only through the fiber nodes.

A check given no bundle takes the shape's default one, memoized on the
shape in ``Shape.bundles`` by (norm key, n, seed): `fan_bundle` for a
convex polytope, `bundle_sample` otherwise, so the tube, measure and
verify checks of one set share it.  Bundles are immutable and their H_r
arrays (``BundleSample.mean_curvature``, memoized per r) read-only.  A
bundle traces its ray reaches the first time they are read (only
`steiner_predict` and `volume_derivatives` read them); they and the reach
estimates are memoized in `projection`.  The stratum dimensions a bundle
must cover are read once per shape (`Shape.stratum_kinds`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .curvature import BundleSample, bundle_sample
from .norms import Norm, fibonacci_sphere, row_dot
from .projection import _convex_pieces, distance_field
from .shapes import ConvexPolytope, EmptyInteriorError, Shape

__all__ = [
    "Window",
    "CurvatureReport",
    "TubeRecord",
    "StrataCoverageGap",
    "BudgetExceeded",
    "fan_bundle",
    "bundle_integral",
    "curvature_measure",
    "phi_perimeter",
    "voxel_tube_volume",
    "steiner_predict",
    "steiner_coefficients",
    "tube_record",
    "tube_polynomial_fit",
    "volume_derivatives",
]


class StrataCoverageGap(RuntimeError):
    """A boundary stratum of the shape has no samples in the given bundle."""


class BudgetExceeded(RuntimeError):
    """Voxel grid larger than the configured cap."""


# ======================================================================
# windows over the normal bundle
# ======================================================================


def _vector(v, d, what) -> np.ndarray:
    """v as a float vector of length d; ValueError naming ``what`` otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"{what} must have length {d}, got shape {v.shape}")
    return v


@dataclass
class Window:
    """Axis-box x normal-cap x stratum selector on bundle samples.

    Any field left at its default matches everything, so ``Window()`` is the
    whole bundle.  The normal cap keeps samples whose Euclidean unit normal
    u satisfies u . axis >= min_cos (axis gets normalized here).  ``mask``
    raises ValueError for a ``lo``, ``hi`` or ``normal_axis`` whose length
    is not the bundle's dimension, or an axis that is zero or not finite.
    """

    name: str = "all"
    lo: Optional[Sequence[float]] = None
    hi: Optional[Sequence[float]] = None
    normal_axis: Optional[Sequence[float]] = None
    normal_min_cos: float = -1.0
    strata: Optional[Sequence[int]] = None

    def mask(self, sample: BundleSample) -> np.ndarray:
        d = sample.points.shape[1]
        keep = np.ones(len(sample), dtype=bool)
        if self.lo is not None:
            keep &= (sample.points >= _vector(self.lo, d, "window lo")).all(axis=1)
        if self.hi is not None:
            keep &= (sample.points <= _vector(self.hi, d, "window hi")).all(axis=1)
        if self.normal_axis is not None:
            axis = _vector(self.normal_axis, d, "window normal_axis")
            size = np.linalg.norm(axis)
            if not (np.isfinite(size) and size > 0):
                raise ValueError(f"window normal_axis must be finite and nonzero, got {axis}")
            keep &= sample.normals @ (axis / size) >= self.normal_min_cos
        if self.strata is not None:
            keep &= np.isin(sample.stratum, np.asarray(self.strata, dtype=int))
        return keep


# ======================================================================
# bundle plumbing
# ======================================================================


def fan_bundle(
    shape: ConvexPolytope,
    norm: Norm,
    n: int = 512,
    seed: int = 0,
    fiber_nodes: int = 32,
) -> BundleSample:
    """Exact bundle sample for a convex polytope.

    Faces are flat, so every curvature is known without finite differences:
    zero along the face, infinite across its normal fan.  Face measures in
    the stratum weights are exact and the bundle Jacobian is identically 1,
    which leaves fiber quadrature as the only error source.  This is
    ``bundle_sample`` on a polytope, with twice its fiber nodes; vertex
    patches keep its 1,024 nodes a fan triangle.  A cube's octant is one
    triangle, 64 sub-triangles of the degree-8 rule, which leave the cube's
    Theta_0, the dual ball's volume (4 pi/3) sqrt(det Q) under a quadratic
    norm, 4e-9 off at condition number 12 and 2e-11 at condition number 4.
    """
    if not isinstance(shape, ConvexPolytope):
        raise ValueError("the fan route is exact for convex polytopes only")
    return bundle_sample(shape, norm, n=n, seed=seed, fiber_nodes=fiber_nodes)


def _auto_bundle(shape, norm, bundle, n, seed):
    """``bundle`` if given, or else the shape's memoized default bundle.

    The default is ``fan_bundle`` for a convex polytope and ``bundle_sample``
    otherwise, built once per (norm key, n, seed) and kept in
    ``Shape.bundles``, so it dies with the shape it describes.
    """
    if bundle is not None:
        return bundle
    key = (norm.key, n, seed)
    b = shape.bundles.get(key)
    if b is None:
        build = fan_bundle if isinstance(shape, ConvexPolytope) else bundle_sample
        # threads racing here build the same bundle; all get the first
        b = shape.bundles.setdefault(key, build(shape, norm, n=n, seed=seed))
    return b


def bundle_integral(bundle: BundleSample, r: int, window: Optional[Window] = None) -> float:
    """Weighted bundle integral of the r-th symmetric curvature function.

    Computes sum of weight * jacobian * phi(u) * H_r over the (optionally
    windowed) samples — the raw integral the curvature measures, the tube
    formula, and the rigidity checks are all built from.
    """
    c = bundle.density * bundle.mean_curvature(r)
    if window is not None:
        c = c[window.mask(bundle)]
    return float(c.sum())


# ======================================================================
# curvature measures
# ======================================================================


@dataclass
class CurvatureReport:
    """One curvature measure of a shape, totalled and localized."""

    m: int
    theta_total: float
    theta_on: dict = field(default_factory=dict)
    quadrature_se: float = 0.0
    stratum_breakdown: dict = field(default_factory=dict)
    abs_total: float = 0.0


def _strata_present(strat: np.ndarray) -> list:
    """The stratum dimensions in a bundle, ascending (np.unique would import numpy.ma)."""
    return np.flatnonzero(np.bincount(strat)).tolist()


def _split_half_se(parts) -> float:
    # difference of interleaved half-sums per stratum: the scale on which
    # halving the quadrature resolution moves the total
    return float(np.sqrt(sum(float(cs[0::2].sum() - cs[1::2].sum()) ** 2 for cs in parts)))


def _coverage_strata(shape: Shape) -> frozenset:
    """The stratum dimensions of the shape's boundary (``Shape.stratum_kinds``)."""
    return frozenset(m for m, _ in shape.stratum_kinds)


def curvature_measure(
    shape: Shape,
    norm: Norm,
    m: int,
    window: Union[Window, Sequence[Window], None] = None,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
) -> CurvatureReport:
    """m-th curvature measure: total, per-window values, stratum breakdown.

    The defining integrand on the bundle is phi(u) * J * H_{n-m} with the
    prefactor 1/(n-m+1).  When no bundle is passed one is built on the fly —
    through the exact fan route for convex polytopes, from support Hessians
    otherwise.  Windows localize the measure; each window gets its own
    signed value under its name, and two windows sharing a name raise
    ValueError.  The absolute variant (|integrand| summed) is kept
    alongside to monitor integrability of the signed quadrature.
    """
    nn = shape.dim - 1
    if not 0 <= m <= nn:
        raise ValueError(f"curvature measure index m={m} outside 0..{nn}")
    b = _auto_bundle(shape, norm, bundle, n, seed)

    present = _strata_present(b.stratum)
    missing = _coverage_strata(shape).difference(present)
    if missing:
        raise StrataCoverageGap(f"bundle misses strata of dimension {sorted(missing)}")

    r = nn - m
    pref = 1.0 / (r + 1)
    c = b.density * b.mean_curvature(r)
    parts = {s: c[b.stratum == s] for s in present}

    if window is None:
        windows = []
    elif isinstance(window, Window):
        windows = [window]
    else:
        windows = list(window)
    if len({w.name for w in windows}) < len(windows):
        raise ValueError(f"windows must have distinct names, got {[w.name for w in windows]}")

    return CurvatureReport(
        m=m,
        theta_total=pref * float(c.sum()),
        theta_on={w.name: pref * float(c[w.mask(b)].sum()) for w in windows},
        quadrature_se=pref * _split_half_se(parts.values()),
        stratum_breakdown={s: pref * float(cs.sum()) for s, cs in parts.items()},
        abs_total=pref * float(np.abs(c).sum()),
    )


def phi_perimeter(shape: Shape, norm: Norm, n: int = 4096, seed: int = 0) -> float:
    """Anisotropic perimeter: the boundary integral of phi(outer normal).

    Quadrature runs over the top boundary stratum, whose points carry a
    single outward normal whenever the set has interior on one side; sets
    with empty interior (two-sided normals) are rejected.
    """
    vol = shape.volume()
    if vol is not None and vol <= 0.0:
        raise EmptyInteriorError(f"{shape.name} has empty interior")
    total = 0.0
    seen_top = False
    for s in shape.boundary_strata(n=n, seed=seed):
        if s.index != shape.dim - 1:
            continue
        seen_top = True
        if s.kind == "pair":
            raise EmptyInteriorError(f"{shape.name} has empty interior")
        total += float(s.weights @ norm.value(s.fibers))
    if not seen_top:
        raise EmptyInteriorError(f"{shape.name} has no top boundary stratum")
    return total


# ======================================================================
# tube volumes: direct voxel measurement
# ======================================================================


def _unit_ball_radius(norm: Norm) -> float:
    """Largest Euclidean extent of the unit ball of the dual norm.

    A tube of radius rho reaches at most rho times this far from the set, so
    it fixes how much padding a voxel grid needs.  Sampled over directions
    with a safety margin; exact dual-norm balls are smooth, so 720 (d=2) or
    2048 (d=3) directions under-resolve the maximum by far less than 5%.
    """
    if norm.kind == "euclidean":
        return 1.0
    if norm.dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        u = np.c_[np.cos(t), np.sin(t)]
    else:
        u = fibonacci_sphere(2048)
    return 1.05 * float((1.0 / norm.conjugate(u)).max())


_BRACKET_CENTERS = 64  # centers of the blocks whose middles are projected with feet
_TILE_SIZE = 16  # edge in voxels of the blocks the descent starts from
_BATCH_BLOCKS = 1 << 14  # blocks, and bracketed centers, the voxel descent holds at once
_INDEX_BINS = 4096  # most bins of a level index wider than a third of the least level gap


class _LevelIndex:
    """``np.searchsorted(levels, x)`` by table lookup, for sorted finite levels.

    Bins [q w, (q + 1) w) count from levels[0] - w, and w is a third of the
    least positive gap between levels (or 1/_INDEX_BINS of their span, if
    that is wider), so a bin's neighborhood [(q - 1) w, (q + 2) w) holds one
    level but for duplicates.  A table holds, per bin q, the count of levels
    below (q - 1) w and the levels inside that neighborhood, padded with inf;
    x takes the count of its bin q = floor((x - levels[0] + w) / w) plus one
    comparison per neighborhood level.  Rounding misplaces q by far less
    than one bin, so the levels below the neighborhood lie below x and those
    above it at or above x.  Bins are clipped to the table, whose end bins
    lie a bin beyond the levels, so x at or beyond either end is exact as
    well.  x must not be NaN.

    The work arrays are kept from call to call, grown to the largest x: the
    voxel count's arrays are 128 KiB, and fresh ones that large are mapped
    anew, page by page.  So one index serves one thread.
    """

    def __init__(self, levels: np.ndarray):
        span = float(levels[-1] - levels[0])
        gaps = np.diff(levels)
        gaps = gaps[gaps > 0.0]
        w = max(float(gaps.min()) / 3.0, span / _INDEX_BINS) if len(gaps) else 1.0
        self.origin, self.inv = levels[0] - w, 1.0 / w
        self.n = n = int(span * self.inv) + 5
        # below[q]: the levels below (q - 1) w, where bin q's neighborhood starts
        below = np.searchsorted(levels, self.origin + (np.arange(n + 3) - 1.0) * w)
        self.base, stop = below[:n], below[3:]
        # table[j, q]: the j-th level of bin q's neighborhood, or inf past its last
        at = self.base + np.arange((stop - self.base).max())[:, None]
        self.table = np.where(at < stop, levels[np.minimum(at, len(levels) - 1)], np.inf)
        self._t, self._q, self._less = np.empty(0), np.empty(0, np.intp), np.empty(0, bool)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.size > len(self._t):
            self._t, self._q = np.empty(x.size), np.empty(x.size, np.intp)
            self._less = np.empty(x.size, bool)
        t, q, less = (a[: x.size].reshape(x.shape) for a in (self._t, self._q, self._less))
        np.subtract(x, self.origin, out=t)
        t *= self.inv
        np.clip(t, 0.0, self.n - 1, out=t)
        np.copyto(q, t, casting="unsafe")
        k = self.base.take(q)
        for row in self.table:
            # t is free once q holds the bins; q is in range, and mode="clip"
            # takes into t without a buffer
            k += np.less(row.take(q, out=t, mode="clip"), x, out=less)
        return k


def _box_radius(norm: Norm, half: np.ndarray) -> np.ndarray:
    """Largest phi_* over each box [-half, half]: the max over its corners."""
    d = half.shape[1]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    out = np.zeros(len(half))
    nz = half.any(axis=1)
    corners = (half[nz, None, :] * signs).reshape(-1, d)
    out[nz] = norm.conjugate(corners).reshape(-1, len(signs)).max(axis=1)
    return out


def _foot_brackets(norm: Norm, v: np.ndarray, steps: np.ndarray):
    """Bounds g.(v + s) <= delta(p + v + s) <= phi_*(v + s), each (len(v), len(steps)).

    v = m - p runs over block middles m less their feet p, s over the
    steps, and g = grad phi_*(v).  Under a quadratic norm, phi_*(y) = |L y|:
    with a = |L v|, c = L v . L s and b = |L s|, g.(v + s) = a + c / a and
    phi_*(v + s)^2 = a^2 + b^2 + 2 c, whose rounding where the sum cancels
    stays below the 1e-14 (a + b)^2 <= 2e-14 (a^2 + b^2) added to it.
    """
    L = norm.dual_transform
    if L is None:
        g = norm.conjugate_grad(v)
        lower = row_dot(g, v)[:, None] + g @ steps.T
        upper = norm.conjugate((v[:, None, :] + steps).reshape(-1, v.shape[1]))
        return lower, upper.reshape(len(v), -1)
    Lv, Ls = v @ L.T, steps @ L.T
    a2 = row_dot(Lv, Lv)[:, None]
    a = np.sqrt(a2)
    # 2 c, and 2 c / 2 a = c / a: scaling by 2 is exact
    upper = Lv @ (2.0 * Ls).T
    lower = upper / (a + a)
    lower += a
    upper += (1.0 + 2e-14) * a2
    upper += (1.0 + 2e-14) * row_dot(Ls, Ls)
    return lower, np.sqrt(upper, out=upper)


def voxel_tube_volume(
    shape: Shape,
    norm: Norm,
    rho_grid,
    h: Optional[float] = None,
    *,
    voxel_cap: int = 60_000_000,
    on_budget: str = "mc",
    mc_budget: int = 10_000_000,
    seed: int = 0,
    window: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tube volumes (outside the set, within phi-distance rho) by counting.

    Lays a voxel grid of pitch ``h`` over the padded bounding box and counts
    centers with 0 < delta <= rho; the companion error estimate charges a
    full voxel to every center within half a voxel diagonal of either
    interface, so it scales like h times the interface area.  Grids above
    ``voxel_cap`` cells either fall back to stratified Monte-Carlo with
    ``mc_budget`` points (``on_budget="mc"``, the default) or raise
    (``on_budget="raise"``).  An axis box ``window=(lo, hi)`` localizes the
    count to the tube's intersection with the box.

    The count descends a quadtree/octree of voxel blocks instead of
    evaluating delta at every center, starting from the grid's tiling by
    16 x 16 (x 16) blocks, the tree's blocks at that level.  Only the tiles
    that meet the set's bounding box, grown along each axis e_i by
    phi(e_i) (max rho + r_half) plus a voxel, enter: phi(e_i) is the extent
    of the dual ball {phi_* <= 1} along e_i, so every center with
    0 < delta <= max rho + r_half lies in that box (a complement's tube lies
    in its base).  A band known to hold delta that holds none of the
    counting levels 0, r_half, rho, rho - r_half, rho + r_half (padded by
    1e-9 relative plus a tiny absolute term, for rounding) settles what it
    covers:

    * delta is 1-Lipschitz for phi_*, so with R the largest phi_* over the
      corner offsets of a block's box of centers, every center lies in
      delta(m) +- R, m the block's middle; such a band settles the block.
    * On a convex set, each unclipped block of _BRACKET_CENTERS centers
      (8 x 8, or 4 x 4 x 4: an 8-voxel edge in 3-d is slower) with delta(m) > h
      (so m - p is far above rounding, and never 0) is projected with its
      foot p (``exact_projection``: a closed form, or a support point of
      the support search, on the boundary to rounding).  With
      g = grad phi_*(m - p), the set lies in {y : g . (y - p) <= 0} and
      phi(g) = 1, so each center x has g . (x - p) <= delta(x) <= phi_*(x - p),
      a band that settles x (``_foot_brackets``; each block's bands are
      padded by 1e-9 times its largest upper bound, which the convex
      phi_*(x - p) takes at a corner center).  The centers the
      brackets leave open are evaluated together, in one ``distance_field``
      call per batch, or per _BATCH_BLOCKS of them.

    Bands and evaluated distances find their place among the levels by the
    table lookup of ``_LevelIndex``, which equals ``np.searchsorted``.

    On a convex set, or on a ``DisjointUnion`` of convex components, a block
    whose corner centers all lie in the set or in one component, by a
    membership margin of 1e-9 (diameter + max rho) far above rounding, is
    interior: by convexity every center of the block lies that deep too, so
    delta is 0 at each.  Every other block splits, down to single voxels
    evaluated at the dense grid's own coordinates, so counts and error
    estimates equal those of evaluating every center with ``distance_field``.

    The descent is depth first, on a stack of batches of at most
    ``_BATCH_BLOCKS`` blocks, children on top; foot brackets, and the
    Monte-Carlo fallback's samples, go in chunks of ``_BATCH_BLOCKS``
    centers.  So memory is bounded by the constant whatever the grid, and
    the counts, exact float64 sums of integers, do not depend on the order.

    Raises ``ValueError`` for an empty radius list, a radius rho that is not
    positive and finite, a pitch h that is not, or a window corner whose
    length is not the dimension.

    Returns (volumes, error estimates) aligned with ``rho_grid``.
    """
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if not len(rho):
        raise ValueError("tube radii rho must not be empty")
    if not (np.isfinite(rho) & (rho > 0)).all():
        raise ValueError(f"tube radii rho must be positive and finite, got {rho_grid!r}")
    d = shape.dim
    if h is None:
        h = shape.diameter / (512.0 if d == 2 else 128.0)
    elif not (np.isfinite(h) and h > 0):
        raise ValueError(f"voxel pitch h must be positive and finite, got {h!r}")
    lo, hi = shape.bounding_box()
    pad = float(rho.max()) * _unit_ball_radius(norm) + 3.0 * h
    lo, hi = lo - pad, hi + pad
    if window is not None:
        w_lo, w_hi = (_vector(w, d, "window corner") for w in window)
        lo, hi = np.maximum(lo, w_lo), np.minimum(hi, w_hi)
        if (hi <= lo).any():
            return np.zeros(len(rho)), np.zeros(len(rho))
    counts_axis = np.ceil((hi - lo) / h).astype(int)
    total = int(np.prod(counts_axis))
    if total > voxel_cap:
        if on_budget == "raise":
            raise BudgetExceeded(
                f"{total} voxels exceed the cap of {voxel_cap}; "
                "pass a coarser h or on_budget='mc'"
            )
        return _mc_tube_volume(shape, norm, rho, lo, hi, mc_budget, seed)

    r_half = 0.5 * h * np.sqrt(d)
    targets = np.concatenate(([r_half], rho, rho - r_half, rho + r_half))
    # 0 is a level, so a band that holds no level lies above 0 or at or below it
    levels = np.sort(np.append(targets, 0.0))
    above = np.append(levels, np.inf)
    index = _LevelIndex(levels)
    # hist[k]: voxels with delta > 0 and k levels below delta
    hist = np.zeros(len(above))

    def exact(delta):
        """Credit rows of evaluated delta."""
        hist[:] += np.bincount(index(delta[delta > 0.0]), minlength=len(hist))

    def settle(low, high, weight=None):
        """Credit the rows whose band [low, high] holds no level; return the others' mask."""
        k = index(low)
        open_ = above.take(k) <= high
        # open rows go to a spare last bin: no masked copies of k or of the weights
        k[open_] = len(hist)
        hist[:] += np.bincount(k.ravel(), weight, len(hist) + 1)[:-1]
        return open_

    tiny = 1e-9 * (h + float(rho.max()))
    # corner centers this far inside a convex piece are inside by far more
    # than rounding, and so is every center of their block
    margin = 1e-9 * (shape.diameter + float(rho.max()))
    pieces = _convex_pieces(shape) or []
    kids = np.array(list(itertools.product((0, 1), repeat=d))).T
    # bracketed blocks hold _BRACKET_CENTERS centers: 8 x 8, or 4 x 4 x 4
    edge = round(_BRACKET_CENTERS ** (1.0 / d))
    # a bracketed block's centers: index offsets, and offsets from its middle
    offsets = np.array(list(itertools.product(range(edge), repeat=d))).T
    steps = (offsets.T - 0.5 * (edge - 1)) * h
    # the upper bound phi_*(v + s) is convex in s, so largest at a corner step
    corner_steps = np.flatnonzero((offsets % (edge - 1) == 0).all(axis=0))
    r_unit = _box_radius(norm, np.ones((1, d)))[0]
    chunk = max(_BATCH_BLOCKS // _BRACKET_CENTERS, 1)
    # a center with 0 < delta <= levels[-1] lies within levels[-1] phi(e_i),
    # the dual ball's extent, of the set's box along axis i (a complement's
    # tube lies in its base); tiles outside would only feed hist's top bin
    b_lo, b_hi = shape.bounding_box()
    grow = levels[-1] * norm.value(np.eye(d)) + h
    # voxels whose cells meet the grown box, then the tiles that hold them
    i_lo = np.floor((b_lo - grow - lo) / h).astype(int)
    i_hi = np.floor((b_hi + grow - lo) / h).astype(int)
    t_lo = np.maximum(i_lo // _TILE_SIZE, 0)
    t_hi = np.minimum(i_hi // _TILE_SIZE + 1, -(-counts_axis // _TILE_SIZE))
    tiles = np.maximum(t_hi - t_lo, 0)
    n_tiles = int(np.prod(tiles))
    # depth-first descent from those tiles of the grid's tiling by 16-voxel
    # blocks, on a stack of (size, org) batches of at most _BATCH_BLOCKS
    # blocks; org and ext are (d, blocks), so row tests reduce over axis 0
    for t0 in range(0, n_tiles, _BATCH_BLOCKS):
        t = np.unravel_index(np.arange(t0, min(t0 + _BATCH_BLOCKS, n_tiles)), tiles)
        stack = [(_TILE_SIZE, _TILE_SIZE * (np.array(t) + t_lo[:, None]))]
        while stack:
            size, org = stack.pop()
            if org.shape[1] > _BATCH_BLOCKS:
                stack.append((size, org[:, _BATCH_BLOCKS:]))
                org = org[:, :_BATCH_BLOCKS]
            ext = np.minimum(size, counts_axis[:, None] - org)
            mid = (lo[:, None] + (org + 0.5 * ext) * h).T
            res = None
            if size == edge and shape.is_convex:
                res = shape.exact_projection(norm, mid)
            delta = distance_field(shape, norm, mid) if res is None else res[1]
            if size == 1:
                exact(delta)
                continue
            R = np.full(len(delta), 0.5 * (size - 1) * h * r_unit)
            clipped = (ext < size).any(axis=0)
            R[clipped] = _box_radius(norm, 0.5 * (ext[:, clipped].T - 1) * h)
            R = R * (1.0 + 1e-9) + tiny
            split = settle(delta - R, delta + R, ext.prod(axis=0))
            cand = np.flatnonzero(split & (delta == 0.0))
            if pieces and len(cand):
                corners = org[:, cand, None] + kids[:, None, :] * (ext[:, cand, None] - 1)
                pts = (lo[:, None, None] + (corners + 0.5) * h).reshape(d, -1).T
                interior = np.zeros(len(cand), dtype=bool)
                for piece in pieces:
                    interior |= piece.contains(pts, tol=-margin).reshape(len(cand), -1).all(axis=1)
                split[cand[interior]] = False
            if res is not None:
                v = mid - res[0]
                br = np.flatnonzero(split & ~clipped & (delta > h))
                split[br] = False
                # each chunk's brackets hold _BATCH_BLOCKS centers, each block
                # padded once; the centers they leave open are evaluated in
                # one call per _BATCH_BLOCKS of them, and one for the rest
                held, n_held = [], 0
                for c in range(0, len(br), chunk):
                    b = br[c : c + chunk]
                    lower, upper = _foot_brackets(norm, v[b], steps)
                    eps = 1e-9 * upper[:, corner_steps].max(axis=1, keepdims=True) + tiny
                    lower -= eps
                    upper += eps
                    blk, j = np.divmod(np.flatnonzero(settle(lower, upper)), len(steps))
                    held.append(lo + (org[:, b[blk]] + offsets[:, j] + 0.5).T * h)
                    n_held += len(blk)
                    if n_held and (n_held >= _BATCH_BLOCKS or c + chunk >= len(br)):
                        exact(distance_field(shape, norm, np.concatenate(held)))
                        held, n_held = [], 0
            if split.any():
                org = (org[:, split, None] + size // 2 * kids[:, None, :]).reshape(d, -1)
                if clipped[split].any():
                    org = org[:, (org < counts_axis[:, None]).all(axis=0)]
                stack.append((size // 2, org))
    count = np.cumsum(hist).astype(np.int64)[np.searchsorted(levels, targets)]
    n = len(rho)
    inner, cnt = count[0], count[1 : n + 1]
    cross = count[2 * n + 1 :] - count[n + 1 : 2 * n + 1]
    cell = h**d
    return cnt * cell, (cross + 2 * inner) * cell


def _mc_tube_volume(shape, norm, rho, lo, hi, budget, seed):
    # one jittered sample per cell of a near-isotropic stratified grid, drawn
    # in row-major chunks of _BATCH_BLOCKS cells
    d = len(lo)
    ext = hi - lo
    cell_lin = (np.prod(ext) / budget) ** (1.0 / d)
    m_axis = np.maximum(np.round(ext / cell_lin).astype(int), 1)
    n_cells = int(np.prod(m_axis))
    cell_size = ext / m_axis
    box_vol = float(np.prod(ext))
    rng = np.random.default_rng(seed)
    cnt = np.zeros(len(rho), dtype=np.int64)
    for i0 in range(0, n_cells, _BATCH_BLOCKS):
        idx = np.unravel_index(np.arange(i0, min(i0 + _BATCH_BLOCKS, n_cells)), m_axis)
        idx = np.stack(idx, axis=-1)
        pts = lo + (idx + rng.uniform(size=idx.shape)) * cell_size
        delta = distance_field(shape, norm, pts)
        pos = np.sort(delta[delta > 0.0])
        cnt += np.searchsorted(pos, rho, side="right")
    p_hat = cnt / n_cells
    vol = p_hat * box_vol
    err = box_vol * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n_cells)
    return vol, err


# ======================================================================
# tube volumes: bundle prediction
# ======================================================================


def steiner_coefficients(bundle: BundleSample) -> np.ndarray:
    """Coefficients of rho^(j+1), j = 0..n, in the below-reach tube polynomial."""
    base = bundle.density
    return np.array(
        [float(base @ bundle.mean_curvature(j)) / (j + 1) for j in range(bundle.n + 1)]
    )


def steiner_predict(bundle: BundleSample, rho_grid, truncate: bool = True) -> np.ndarray:
    """Tube volumes predicted from bundle data.

    With ``truncate`` each normal ray contributes min(rho, its reach) —
    valid for every rho.  Without it the pure polynomial in rho is
    evaluated, valid only below the global reach.
    """
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    base = bundle.density
    out = np.zeros(len(rho))
    for j in range(bundle.n + 1):
        hj = bundle.mean_curvature(j)
        if truncate:
            reach_cap = np.minimum(rho[:, None], bundle.reach[None, :])
            out += (reach_cap ** (j + 1)) @ (base * hj) / (j + 1)
        else:
            out += rho ** (j + 1) * float(base @ hj) / (j + 1)
    return out


def tube_polynomial_fit(rho_grid, volumes, degree: int) -> np.ndarray:
    """Least-squares fit of volumes by sum_{k=1..degree} c_k rho^k.

    The constant term is pinned to zero (a tube of radius 0 has no volume);
    returns the coefficients c_1..c_degree.  Below the reach these recover
    the Steiner coefficients, which makes the fit an independent route from
    measured volumes back to the curvature totals.
    """
    rho = np.asarray(rho_grid, dtype=float)
    A = rho[:, None] ** np.arange(1, degree + 1)[None, :]
    coef, *_ = np.linalg.lstsq(A, np.asarray(volumes, dtype=float), rcond=None)
    return coef


@dataclass
class TubeRecord:
    """Measured and predicted tube volumes over a radius grid."""

    rho_grid: np.ndarray
    voxel_volume: np.ndarray
    steiner_prediction: np.ndarray
    residuals: np.ndarray
    voxel_error: np.ndarray
    h: float


def tube_record(
    shape: Shape,
    norm: Norm,
    rho_grid,
    h: Optional[float] = None,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    truncate: bool = True,
) -> TubeRecord:
    """Side-by-side voxel measurement and bundle prediction of tube volumes.

    Raises ``BudgetExceeded`` when the voxel grid at pitch h is over the
    cap: a Monte-Carlo estimate would not be a count at pitch h.
    """
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    d = shape.dim
    if h is None:
        h = shape.diameter / (512.0 if d == 2 else 128.0)
    vol, err = voxel_tube_volume(shape, norm, rho, h, on_budget="raise", seed=seed)
    b = _auto_bundle(shape, norm, bundle, n, seed)
    pred = steiner_predict(b, rho, truncate=truncate)
    return TubeRecord(
        rho_grid=rho,
        voxel_volume=vol,
        steiner_prediction=pred,
        residuals=pred - vol,
        voxel_error=err,
        h=float(h),
    )


# ======================================================================
# one-sided volume derivatives
# ======================================================================


def volume_derivatives(
    shape: Shape,
    norm: Norm,
    rho: float,
    window: Optional[Window] = None,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    reach_tol: float = 1e-6,
) -> tuple[float, float, float]:
    """One-sided derivatives of the tube volume at rho, and their jump.

    The right derivative sums rho^j-weighted curvature integrals over rays
    that survive strictly beyond rho, the left derivative over rays with
    reach at least rho; their difference is the (nonnegative, for the
    catalog) mass of the surface sheet whose reach equals rho exactly —
    nonzero for only countably many radii.  ``reach_tol`` widens the
    equality band by the predicate tolerance tol_pred (1 + s) of
    ``reach_along``, whose reach is that predicate's exact first failure.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    b = _auto_bundle(shape, norm, bundle, n, seed)
    keep = np.ones(len(b), dtype=bool) if window is None else window.mask(b)
    base = b.density
    tol = reach_tol * (1.0 + rho)
    sel_plus = keep & (b.reach > rho + tol)
    sel_minus = keep & (b.reach > rho - tol)
    v_plus = v_minus = 0.0
    for j in range(b.n + 1):
        cj = base * b.mean_curvature(j)
        v_plus += rho**j * float(cj[sel_plus].sum())
        v_minus += rho**j * float(cj[sel_minus].sum())
    return v_plus, v_minus, v_minus - v_plus
