"""Nearest-point projection in the dual norm, reach, and distance fields.

For a closed set A and a norm phi, the anisotropic distance of a point x is
``delta(x) = min { phi_*(x - a) : a in A }``.  Feet of the minimum, the
direction ``nu = (x - foot)/delta`` (a point of the dual unit body's
boundary), the ray reach ``sup { s : delta(a + s eta) = s }`` and the global
reach are all computed here.

Everything vectorizes over batches of query points, and every catalog shape
projects itself under every norm (``Shape.exact_projection``):

* closed forms: a ``WulffBody`` under its own norm (radial scaling) and a
  quadratic one (every ``Ball``, ``Ellipsoid`` and euclidean or ellipsoidal
  ``WulffBody``) under any euclidean or ellipsoidal norm (a secular
  equation); axis boxes under the diagonal ones (a clamp); the complement of
  a ``WulffBody`` under its own norm;
* the support search (``norms._support_search``) for a ``WulffBody`` under
  any other norm, from outside or, for its complement, from inside: by
  separation the signed distance is max over u of (u.x - h(u))/phi(u), h
  the body's support function, found on a grid of directions and polished
  by Newton on the sphere, with the support point at the maximizer as foot;
* polygons and segment unions, under every norm: the feet x - s grad phi(n)
  on their edges' lines where those land on the edge, else the nearer
  endpoint; 3d boxes under other norms: the facets' plane feet where they
  land, and each edge's nearest point by 1d Newton;
* complements of polytopes: the facet formula min_i (b_i - a_i.x)/phi(a_i),
  with foot x + delta grad phi(a_i);
* ``CapLens``, unions and the other complements composed from their pieces:
  a lens from its two disks' feet or a corner, a union from its
  components', the complement of a lens as the union of its two disks'
  complements, the complement of a union from the component a point is in.

``project`` reads second feet from ties between ``Shape.foot_candidates``: a
union's components, a segment union's segments, a complement's facets or
disks, and every local maximum of the support search that Newton polishes.
No curvature reads a distance: the tests' finite-difference oracle
(``tests/_probe.py``) takes ``nearest_points`` like any other caller.

Reach is exact on every catalog shape, and no route evaluates the distance
to the whole shape.  ``reach_along`` takes Newton on each convex piece's
slack on a union of convex pieces (``_union_reach``: a ``DisjointUnion``'s
components, a ``SegmentUnion``'s segments), and separation on the
complement of a convex K: inside K the distance to the complement is min
over u of (h_K(u) - u.x)/phi(u), so the ray reach is a least ratio over
directions (``_complement_reach`` beside each piece's ``_complement_feet``).
``global_reach`` traces no ray either: half the least gap on unions of
``WulffBody``s and on segment unions, 0 on a complement with a corner, and on
the complement of ``WulffBody``s the least radius of curvature relative to W.

Memos on the shape: ``reach_estimates`` (``global_reach``, keyed by norm key),
frozen as they are shared.  Ray reaches are computed row by row and not
memoized; a bundle keeps the reach it reads (``BundleSample.reach``).

A note on uniqueness: points with several nearest feet (the cut locus) form a
Lebesgue-null set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .norms import Norm, row_dot
from .shapes import ComplementShape, DisjointUnion, SegmentUnion, Shape, WulffBody, _gap_bounds

__all__ = [
    "ProjectionResult",
    "ReachEstimate",
    "InvalidNormalError",
    "project",
    "nearest_points",
    "set_distance",
    "distance_field",
    "grad_delta",
    "reach_along",
    "global_reach",
    "classify_boundary_point",
    "BoundaryClass",
]

TOL_FOOT_RESIDUAL = 1e-9
TOL_MULTI_REL = 1e-4  # foot separation, relative to shape diameter
TOL_EQ_REL = 1e-7  # delta equality for multiplicity, relative to 1 + delta
RAY_NEWTON_ITERS = 60  # Newton steps of _union_reach per ray and piece


class InvalidNormalError(ValueError):
    """(a, eta) does not belong to the unit normal bundle."""


@dataclass
class ProjectionResult:
    delta: float
    foot: np.ndarray
    nu: Optional[np.ndarray]  # (x - foot)/delta, None at delta == 0
    multiplicity: str  # 'unique' | 'multiple' | 'unresolved'
    feet: np.ndarray  # all detected nearest points, (k, d)
    residual: float  # |phi_*(x - foot) - delta|


@dataclass(frozen=True)
class ReachEstimate:
    """A memoized ``global_reach`` result, shared and read-only."""

    global_reach: float
    bracket: tuple[float, float]
    is_infinite: bool


# ======================================================================
# public projection API
# ======================================================================


def nearest_points(shape: Shape, norm: Norm, x) -> tuple[np.ndarray, np.ndarray]:
    """Feet and distances for a batch of query points (interior -> itself)."""
    return shape.exact_projection(norm, np.atleast_2d(np.asarray(x, dtype=float)))


def set_distance(shape: Shape, norm: Norm, x) -> np.ndarray:
    """delta only (same routing as nearest_points)."""
    return nearest_points(shape, norm, x)[1]


def grad_delta(shape: Shape, norm: Norm, x) -> np.ndarray:
    """Gradient of the distance at exterior points: grad phi_*(x - foot).

    A point whose foot is itself is not exterior, even where rounding leaves
    its distance a few ulps above 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    feet, delta = nearest_points(shape, norm, x)
    v = x - feet
    if (delta <= 0).any() or not v.any(axis=-1).all():
        raise ValueError("grad_delta is defined at exterior points only")
    return norm.conjugate_grad(v)


def project(shape: Shape, norm: Norm, x) -> ProjectionResult:
    """Full projection record for a single point, with multiplicity analysis."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("project takes a single point; use nearest_points for batches")
    if bool(np.atleast_1d(shape.contains(x[None, :], tol=0.0))[0]):
        return ProjectionResult(0.0, x.copy(), None, "unique", x[None, :].copy(), 0.0)

    # every near-optimal candidate counts for multiplicity; the foot is
    # exact_projection's unless a candidate beats it
    feet, vals = shape.foot_candidates(norm, x[None, :])
    res = shape.exact_projection(norm, x[None, :])
    feet_all, vals_all = np.concatenate([res[0], feet[0]]), np.concatenate([res[1], vals[0]])
    best = int(np.argmin(vals_all))
    if vals_all[0] <= vals_all[best] + 1e-12:
        best = 0
    foot, delta = feet_all[best], float(vals_all[best])

    sep = TOL_MULTI_REL * shape.diameter
    near, first, apart = _near_and_apart(feet_all[None], vals_all[None], np.array([delta]), sep)
    # the first near foot, then one per cluster of those apart from it
    others = feet_all[apart[0]]
    close = np.linalg.norm(others[:, None, :] - others[None, :, :], axis=-1) <= sep
    others = others[~np.tril(close, -1).any(axis=1)]
    distinct = np.concatenate([first if near.any() else foot[None, :], others])
    multiplicity = "multiple" if len(distinct) > 1 else "unique"
    residual = abs(float(norm.conjugate(x - foot)) - delta)
    if residual > TOL_FOOT_RESIDUAL * (1.0 + delta):
        multiplicity = "unresolved"
    nu = (x - foot) / delta if delta > 0 else None
    return ProjectionResult(delta, foot, nu, multiplicity, distinct, residual)


# ======================================================================
# distance fields (vectorized, voxel-grid scale)
# ======================================================================


def distance_field(shape: Shape, norm: Norm, points: np.ndarray) -> np.ndarray:
    """delta over a large batch of points, built for voxel grids, interior points at 0."""
    return shape.exact_projection(norm, np.asarray(points, dtype=float))[1]


# ======================================================================
# reach
# ======================================================================


def reach_along(
    shape: Shape,
    norm: Norm,
    a,
    eta,
    s_max: Optional[float] = None,
    tol_pred: float = 1e-8,
    validate: bool = True,
) -> np.ndarray:
    """Ray reach sup{ s : delta(a + s eta) = s } for bundle rays (a, eta).

    Vectorized over rows, each computed from that row alone.  Returns +inf
    where the predicate still holds at s_max (default 10 x bounding-box
    diameter).  With ``validate`` every row is checked to be a unit normal
    pair first (``InvalidNormalError``).  The predicate is
    ``delta(a + s eta) >= s - tol_pred (1 + s)`` and the reach its first
    failure, exactly (see the module docstring); it holds trivially up to
    tol_pred / (1 - tol_pred), so no reach is less.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    lo, hi = shape.bounding_box()
    if s_max is None:
        s_max = 10.0 * float(np.linalg.norm(hi - lo))

    if validate:
        s0 = np.full(len(a), 1e-3 * float(np.linalg.norm(hi - lo)))
        pts = a + s0[:, None] * eta
        d0 = set_distance(shape, norm, pts)
        bad = np.abs(d0 - s0) > 1e-6 * (1.0 + s0)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidNormalError(
                f"ray {i}: delta(a + s eta) = {d0[i]:.3e} != s = {s0[i]:.3e}; "
                "(a, eta) is not a unit normal pair"
            )

    if shape.is_convex:
        return np.full(len(a), np.inf)
    if isinstance(shape, ComplementShape):
        reach = shape.base._complement_reach(norm, a, eta, tol_pred)
        reach = np.maximum(reach, tol_pred / (1.0 - tol_pred))
        return np.where(reach < s_max, reach, np.inf)
    pieces = _convex_pieces(shape)
    if pieces is None:
        raise NotImplementedError(f"{shape.name} has no ray reach")
    return _union_reach(pieces, norm, a, eta, s_max, tol_pred)


def _convex_pieces(shape):
    """Convex pieces whose union is the shape (components, segments), or None."""
    if shape.is_convex:
        return [shape]
    if isinstance(shape, SegmentUnion):
        return [SegmentUnion([seg]) for seg in shape.segments]
    if isinstance(shape, DisjointUnion):
        parts = [_convex_pieces(c) for c in shape.components]
        if all(p is not None for p in parts):
            return [piece for p in parts for piece in p]
    return None


def _union_reach(pieces, norm, a, eta, s_max, tol_pred):
    """The exact ray reach of ``reach_along`` on a union of convex pieces.

    Against a piece B the predicate fails where the slack
    h_B(s) = s (1 - tol_pred) - tol_pred - delta_B(a + s eta) turns positive.
    delta_B is convex along the line, so h_B is concave, with slope
    1 - tol_pred - grad delta_B . eta (grad delta_B = grad phi_*(x - foot),
    or 0 inside B).  h_B(0) < 0, so when h_B(s_max) > 0 it has one root in
    (0, s_max), and Newton from s = 0 rises to it monotonically: each tangent
    root lies below the root.  A piece with h_B(s_max) <= 0 never fails the
    ray before s_max, as the ray's own piece on an outward ray (there
    delta_B(a + s eta) = s); a slope <= 0 while h_B < 0, or an iterate past
    s_max, also gives +inf.  An inward ray fails its own piece at once.  The
    ray's reach is the least root over the pieces, +inf where there is none.
    Every operation acts row by row, so a ray's reach does not depend on the
    batch it comes in.
    """

    def slack(piece, rows, s):
        # h and its slope on rays ``rows`` at s
        x = a[rows] + s[:, None] * eta[rows]
        feet, d = nearest_points(piece, norm, x)
        v = x - feet
        grad = np.zeros_like(x)
        out = row_dot(v, v) > 0  # a foot within rounding of x counts as inside
        if out.any():
            grad[out] = norm.conjugate_grad(v[out])
        return s * (1.0 - tol_pred) - tol_pred - d, 1.0 - tol_pred - row_dot(grad, eta[rows])

    reach = np.full(len(a), np.inf)
    for piece in pieces:
        s = np.zeros(len(a))
        root = np.full(len(a), np.inf)
        rows = np.flatnonzero(slack(piece, np.arange(len(a)), np.full(len(a), s_max))[0] > 0)
        for _ in range(RAY_NEWTON_ITERS):
            if not len(rows):
                break
            h, dh = slack(piece, rows, s[rows])
            lost = (h < 0) & ~(dh > 0)
            step = np.where(h < 0, -h / np.where(dh > 0, dh, 1.0), 0.0)
            s[rows] += step
            done = ~lost & (step <= 1e-12 * (1.0 + s[rows]))
            root[rows[done]] = s[rows[done]]
            rows = rows[~lost & ~done & (s[rows] <= s_max)]
        # a row still running after the last step sits just below its root
        root[rows] = s[rows]
        reach = np.minimum(reach, np.where(root <= s_max, root, np.inf))
    return reach


def global_reach(shape: Shape, norm: Norm) -> ReachEstimate:
    """Global reach, with a bracket on it, tracing no ray.

    Half the least pairwise phi_* gap on a union of disjoint ``WulffBody``s,
    bracketed by its certified bounds (``shapes._gap_bounds``); half the
    least segment gap on a ``SegmentUnion``; 0 on the complement of a base
    with a corner or edge; on the complement of a ``WulffBody`` its
    ``least_relative_radius``, and of a union of them the least over the
    components (a point in one has the distance and feet of its complement).
    That value is r1 at a direction, so never below the minimum, and it is
    the minimum wherever the search grid seeds r1's least basin: it is the
    bracket at both ends.  Other non-convex shapes raise
    ``NotImplementedError``.  Memoized on the shape by norm key
    (``Shape.reach_estimates``); every caller gets the one read-only estimate.
    """
    est = shape.reach_estimates.get(norm.key)
    if est is None:
        # threads racing here build the same estimate; all get the first
        est = shape.reach_estimates.setdefault(norm.key, _global_reach(shape, norm))
    return est


def _global_reach(shape, norm):
    if shape.is_convex:
        return ReachEstimate(np.inf, (np.inf, np.inf), True)
    if isinstance(shape, SegmentUnion):
        g = 0.5 * shape.gap(norm)
        return ReachEstimate(g, (g, g), False)
    base = shape.base if isinstance(shape, ComplementShape) else None
    pieces = _convex_pieces(shape if base is None else base)
    if pieces is not None and all(isinstance(c, WulffBody) for c in pieces):
        if base is not None:
            g = min(c.least_relative_radius(norm) for c in pieces)
            return ReachEstimate(g, (g, g), False)
        # a point with two feet lies between two pieces, at least half their
        # gap from both, and the midpoint of their nearest pair attains that
        pairs = [(p, q) for i, p in enumerate(pieces) for q in pieces[i + 1 :]]
        lower, upper = _gap_bounds(pairs, norm)
        g = 0.5 * float(upper.min())
        return ReachEstimate(g, (0.5 * float(lower.min()), g), False)
    if base is not None and any(k not in ("vector", "pair") for _, k in base.stratum_kinds):
        return ReachEstimate(0.0, (0.0, 0.0), False)  # a reentrant corner
    raise NotImplementedError(f"{shape.name} has no exact global reach")


def _near_and_apart(feet, vals, val, sep):
    """Near-optimal candidates (m, c), the first of them (m, d), those apart from it.

    ``feet`` (m, c, d) and ``vals`` (m, c) are candidates, ``val`` (m,) the
    best value.  A candidate is near within ``TOL_EQ_REL`` (1 + val), and a
    row has several feet when a near one lies farther than ``sep`` from the
    first.
    """
    near = vals <= (val + TOL_EQ_REL * (1.0 + val))[:, None]
    first = feet[np.arange(len(feet)), np.argmax(near, axis=1)]
    apart = near & (np.linalg.norm(feet - first[:, None, :], axis=-1) > sep)
    return near, first, apart


# ======================================================================
# boundary-point classification
# ======================================================================


@dataclass
class BoundaryClass:
    # 'alexandrov' (unique normal) | 'non-viscosity' (a fan, patch or pair of
    # normals); every catalog primitive is C^2 wherever its normal is unique
    kind: str
    fiber: tuple  # (fiber kind, row) from ``boundary_fiber_at``
    normal: Optional[np.ndarray] = None
    h_spectrum: Optional[np.ndarray] = None


def classify_boundary_point(shape: Shape, norm: Norm, a) -> BoundaryClass:
    """Exact classification for catalog primitives.

    Every catalog primitive is C^2 wherever its Euclidean normal is unique,
    so a point with a unique normal is an Alexandrov point and carries the
    spectrum of ``pointwise_shape_operator`` (the support-Hessian pencil at
    its normal); any other boundary point is a non-viscosity point.  Raises
    ValueError for a point off the boundary.
    """
    from .curvature import eig_small, pointwise_shape_operator

    a = np.asarray(a, dtype=float)
    fiber = shape.boundary_fiber_at(a)
    if fiber[0] != "vector":
        return BoundaryClass("non-viscosity", fiber)
    M, _, _ = pointwise_shape_operator(shape, norm, a)
    spectrum = np.sort(eig_small(M[None, :, :])[0][0])
    return BoundaryClass("alexandrov", fiber, np.asarray(fiber[1], dtype=float), spectrum)
