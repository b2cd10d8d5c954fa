"""Catalog of closed test sets with exact boundary structure.

Every shape knows three things about itself:

* pointwise membership (vectorized, with a boundary tolerance),
* a stratified description of its boundary: for each stratum dimension m,
  arrays of quadrature points carrying H^m weights and one *fiber* row per
  point describing the set of outward Euclidean unit normals there.  All the
  fibers of a stratum share one kind: a single ``vector`` on smooth pieces,
  an antipodal ``pair`` on 1-codimensional sheets, an ``arc`` (d=2) or
  ``edge`` fan (d=3) at corners and edges, a spherical ``patch`` at d=3
  vertices; ``fiber_nodes`` turns the rows into spherical quadrature, and
  curved ``vector`` strata carry the support Hessians their curvatures
  come from,
* its projection under every norm (``exact_projection``) and the candidate
  feet whose ties are second feet (``foot_candidates``).  Closed forms where
  they exist; else a Wulff body's support function h gives the signed
  distance max over u of (u.x - h(u))/phi(u) (``norms._support_search``), a
  polygon or segment its edges' line feet and endpoints, a box its facets'
  plane feet and its edges' nearest points, and a polytope's complement the
  facet formula.  Lenses, unions and complements compose their pieces'.

Nodes come from two rules.  The segment rule takes m equal steps along a
segment from one seeded phase, each weighing 1/m of its length: polygon
edges, box edges, segment unions, and both axes of a box facet's grid, so
face measures are exact.  The angle rule takes equal steps in the angle of
the sphere parameter from one seeded phase, each weighing the arc length
it sweeps: on a closed 2d Wulff curve that is the periodic trapezoid rule,
spectrally accurate, and on a lens arc a shifted rectangle rule (at n = 512,
the phi-perimeter under diag(4, 1) is within 4e-16 of its n = 2^20 value
on the disk, 1e-7 to 8e-7 relative on the catalog lenses over seeds 0-5).
A 3d Wulff body takes the Fibonacci sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby, product
from typing import Optional, Sequence

import numpy as np

from .norms import (
    _ORIGIN,
    EllipsoidalNorm,
    EuclideanNorm,
    NonConvergenceError,
    Norm,
    _circle,
    _newton_rows,
    _search_grid,
    _support_search,
    fibonacci_sphere,
    row_dot,
    tangent_basis,
    unit_rows,
)

__all__ = [
    "Stratum",
    "fiber_nodes",
    "fiber_tangents",
    "Shape",
    "Ball",
    "Ellipsoid",
    "WulffBody",
    "ConvexPolytope",
    "CapLens",
    "SegmentUnion",
    "DisjointUnion",
    "ComplementShape",
    "EmptyInteriorError",
    "make_catalog_shape",
]

MEMBERSHIP_TOL = 1e-9


class EmptyInteriorError(ValueError):
    """Complement view requested for a set with no interior."""


# ======================================================================
# normal fibers
# ======================================================================

# the nonnegative nodes and their weights of ``leggauss(k)`` for the counts
# that the bundles use by default, to the last bit
_GAUSS_LEGENDRE = {
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438, 0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767, 0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)),
    32: ((0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767, 0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152, 0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521, 0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
         (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378, 0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834, 0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836, 0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506)),
}


@functools.lru_cache(maxsize=None)
def _gauss_legendre(k):
    """``leggauss(k)``, computed once per k.  Shared, so read-only.

    k = 16 and 32 mirror ``_GAUSS_LEGENDRE``: leggauss' nodes are exactly
    antisymmetric and its weights exactly symmetric.
    """
    if k in _GAUSS_LEGENDRE:
        x, w = map(np.array, _GAUSS_LEGENDRE[k])
        x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    else:
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(k)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=None)
def _dunavant8():
    """Dunavant's symmetric 16-point triangle rule of degree 8 (IJNME 21,
    1985): barycentric nodes (16, 3) and weights summing to 1.  Shared, so
    read-only."""
    bary, w = [(1 / 3, 1 / 3, 1 / 3)], [0.14431560767778717]
    for a, wa in ((0.45929258829272316, 0.095091634267284625),
                  (0.17056930775176021, 0.10321737053471825),
                  (0.050547228317030975, 0.032458497623198080)):
        bary += [(a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)]
        w += [wa] * 3
    b, c = 0.26311282963463811, 0.0083947774099576053
    d = 1 - b - c
    bary += [(b, c, d), (c, d, b), (d, b, c), (c, b, d), (b, d, c), (d, c, b)]
    w += [0.027230314174434994] * 6
    bary, w = np.array(bary), np.array(w)
    bary.setflags(write=False)
    w.setflags(write=False)
    return bary, w


def _arc_angles(fibers, k):
    x, w = _gauss_legendre(max(int(k), 1))
    mid = 0.5 * (fibers[:, :1] + fibers[:, 1:])
    half = 0.5 * (fibers[:, 1:] - fibers[:, :1])
    return mid + half * x, w * half


def _edge_angles(fibers, k):
    """Orthonormal (e0, e1) spanning each fan's plane, node angles and weights."""
    e0, n1 = fibers[:, 0], fibers[:, 1]
    c = row_dot(e0, n1)
    angle = np.arccos(np.clip(c, -1.0, 1.0))[:, None]
    e1 = unit_rows(n1 - c[:, None] * e0)
    x, w = _gauss_legendre(max(int(k), 1))
    return e0[:, None], e1[:, None], 0.5 * angle * (x + 1.0), w * 0.5 * angle


def _spherical_triangle_areas(a, b, c) -> np.ndarray:
    """Exact areas of spherical triangles with unit vertices a, b, c (..., 3)."""
    num = np.abs(row_dot(a, np.cross(b, c)))
    den = 1.0 + row_dot(a, b) + row_dot(b, c) + row_dot(c, a)
    return 2.0 * np.arctan2(num, den)


def fiber_nodes(kind: str, fibers, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature (normals (F, q, d), weights (F, q)) of F fibers of one kind.

    ``fibers`` holds one row per fiber in the layout of ``kind`` (see
    ``Stratum``).  The weights integrate the spherical measure on each
    fiber (counting measure on vectors and pairs); arcs and edges take k
    Gauss nodes.  A patch is fan-triangulated and each spherical triangle
    split 4^L ways, the least L >= 0 with 16 * 4^L >= k; every sub-triangle
    takes Dunavant's 16-point rule of degree 8, and its weights total its
    exact area.
    """
    fibers = np.asarray(fibers, dtype=float)
    if kind == "vector":
        return fibers[:, None, :], np.ones((len(fibers), 1))
    if kind == "pair":
        return np.stack([fibers, -fibers], axis=1), np.ones((len(fibers), 2))
    if kind == "arc":
        t, w = _arc_angles(fibers, k)
        return _circle(t), w
    if kind == "edge":
        e0, e1, t, w = _edge_angles(fibers, k)
        return np.cos(t)[..., None] * e0 + np.sin(t)[..., None] * e1, w
    if kind != "patch":
        raise ValueError(f"unknown fiber kind {kind!r}")
    # Refine each fan triangle `level` times into (a,ab,ca), (ab,b,bc),
    # (ca,bc,c), (ab,bc,ca).  The rule maps onto a spherical sub-triangle
    # through p -> p/|p| of the flat one, whose area element is 1/|p|^3 up
    # to a constant factor, so its weights are scaled to the exact area.
    # Nodes run rule point by rule point, each over all sub-triangles, so
    # interleaved halves cover alternate sub-triangles with the whole rule.
    level = max(int(np.ceil(np.log2(max(k, 1) / 16) / 2)), 0)
    i = np.arange(1, fibers.shape[1] - 1)
    a = np.broadcast_to(fibers[:, :1], (len(fibers), len(i), 3))
    tri = np.stack([a, fibers[:, i], fibers[:, i + 1]], axis=-2)  # (F, T, 3, 3)
    for _ in range(level):
        a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
        ab, bc, ca = unit_rows(a + b), unit_rows(b + c), unit_rows(c + a)
        children = [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]
        tri = np.stack(children, axis=-2).reshape(len(fibers), -1, 3, 3)
    bary, wq = _dunavant8()
    p = np.swapaxes(bary @ tri, 1, 2)  # (F, 16, T, 3)
    r = np.sqrt(row_dot(p, p))
    w = wq[:, None] / r**3
    area = _spherical_triangle_areas(tri[..., 0, :], tri[..., 1, :], tri[..., 2, :])
    w *= area[:, None, :] / w.sum(axis=1, keepdims=True)
    return (p / r[..., None]).reshape(len(fibers), -1, 3), w.reshape(len(fibers), -1)


def fiber_tangents(kind: str, fibers, k: int) -> np.ndarray:
    """Unit tangents du/dt (F, q, d) at the ``fiber_nodes`` of arcs and edges."""
    fibers = np.asarray(fibers, dtype=float)
    if kind == "arc":
        t, _ = _arc_angles(fibers, k)
        return np.stack([-np.sin(t), np.cos(t)], axis=-1)
    if kind == "edge":
        e0, e1, t, _ = _edge_angles(fibers, k)
        return -np.sin(t)[..., None] * e0 + np.cos(t)[..., None] * e1
    raise ValueError(f"{kind!r} fibers have no tangents")


# ======================================================================
# strata, their nodes and the pieces of projections
# ======================================================================


@dataclass
class Stratum:
    """Quadrature sample of one boundary stratum.

    ``index`` is the stratum dimension m; ``weights`` approximate H^m on the
    stratum; ``fibers[i]`` describes the normal set at ``points[i]``.  All
    fibers of a stratum have one ``kind``, which fixes the layout of a row:

    - ``vector`` (N, d): the outward unit normal of a smooth point;
    - ``pair`` (N, d): one normal u of the antipodal pair {+u, -u};
    - ``arc`` (N, 2): angles theta0 <= theta1 of a d=2 fan (cos t, sin t);
    - ``edge`` (N, 2, 3): the two facet normals a d=3 edge fan turns between;
    - ``patch`` (N, G, 3): ordered unit generators of a convex spherical
      polygon.

    A curved ``vector`` stratum carries ``support_hessian`` (N, d, d): the
    Hessian D^2h(u) of its piece's support function at each normal, negated
    on a complement; flat strata and fans carry None.
    """

    index: int
    kind: str
    points: np.ndarray
    weights: np.ndarray
    fibers: np.ndarray
    support_hessian: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.points)


def _steps(m, rng):
    """Nodes (k + phase) / m, k < m, on [0, 1]: a midpoint rule shifted by
    one seeded phase in (0.2, 0.8)."""
    return (np.arange(m) + rng.uniform(0.2, 0.8)) / m


def _segment_nodes(starts, edges, lengths, counts, rng):
    """The segment rule: ``counts[i]`` nodes on start + s edge, s from ``_steps``.

    Returns points (sum counts, d) and weights, each length / m of its segment.
    """
    pts, wts = [], []
    for p, e, length, m in zip(starts, edges, lengths, counts):
        pts.append(p + _steps(m, rng)[:, None] * e)
        wts.append(np.full(m, length / m))
    return np.concatenate(pts), np.concatenate(wts)


def _angles(lo, hi, m, rng):
    """The angle rule: m equal steps t over [lo, hi) from one seeded phase, and the step."""
    step = (hi - lo) / m
    return lo + rng.uniform(0.0, 1.0) * step + step * np.arange(m), step


# ======================================================================
# shape base
# ======================================================================


class Shape:
    dim: int
    name: str = "shape"
    is_convex: bool = False

    # -------- membership ------------------------------------------------
    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """True where x lies in the closed set (boundary included)."""
        raise NotImplementedError

    # -------- metrics ---------------------------------------------------
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def volume(self) -> Optional[float]:
        """Lebesgue measure when known analytically, else None."""
        return None

    # -------- boundary structure ----------------------------------------
    def boundary_strata(self, n: int = 512, seed: int = 0) -> list[Stratum]:
        raise NotImplementedError

    @property
    def reach_estimates(self) -> dict:
        """``global_reach`` results by norm key, filled by projection."""
        return self.__dict__.setdefault("_reach_estimates", {})

    @property
    def stratum_kinds(self) -> frozenset:
        """The (dimension, fiber kind) pairs of the boundary's strata.

        They depend on the shape alone; a coarse ``boundary_strata`` reads them.
        """
        kinds = self.__dict__.get("_stratum_kinds")
        if kinds is None:
            kinds = frozenset((s.index, s.kind) for s in self.boundary_strata(n=8, seed=0))
            kinds = self.__dict__.setdefault("_stratum_kinds", kinds)
        return kinds

    @property
    def bundles(self) -> dict:
        """Bundle samples by (norm key, n, seed), filled by the curvature measures."""
        return self.__dict__.setdefault("_bundles", {})

    @property
    def bubble_verdicts(self) -> dict:
        """Bubble verdicts on default bundles, filled by ``theorems.alexandrov_classify``."""
        return self.__dict__.setdefault("_bubble_verdicts", {})

    def boundary_fiber_at(self, a, tol: float = 1e-7) -> tuple[str, np.ndarray]:
        """Exact normal fiber (kind, row) at a boundary point of a catalog primitive.

        Raises ValueError for a point off the boundary.
        """
        raise NotImplementedError

    # -------- projection ------------------------------------------------
    def exact_projection(self, norm: Norm, x) -> tuple[np.ndarray, np.ndarray]:
        """(feet, deltas) of the points x (N, d) under ``norm``.

        Interior points are their own feet, at distance 0.
        """
        raise NotImplementedError(f"{self.name} has no projection")

    def foot_candidates(self, norm: Norm, x) -> tuple[np.ndarray, np.ndarray]:
        """Candidate feet (N, c, d) of the points x and their distances (N, c).

        Two candidates that tie at the least distance and lie apart are two
        feet.  By default the one foot of ``exact_projection``; shapes made
        of pieces give one candidate per piece, or more.
        """
        feet, delta = self.exact_projection(norm, x)
        return feet[:, None], delta[:, None]

    def complement(self) -> "Shape":
        raise EmptyInteriorError(f"{self.name} has no complement view")

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


def _best(feet, delta):
    """The first least candidate of each row: feet (N, d) and distances (N,)."""
    k = np.argmin(delta, axis=1)
    rows = np.arange(len(delta))
    return feet[rows, k], delta[rows, k]


def _candidates(x, rows, feet, delta):
    """Candidate arrays (N, c, d), (N, c) from the feet of rows ``rows`` (ascending).

    Each row x holds its own feet, padded with distance inf; a row with none
    is its own foot at distance 0.
    """
    count = np.bincount(rows, minlength=len(x))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    cand = np.repeat(x[:, None, :], max(int(count.max(initial=0)), 1), axis=1)
    dist = np.full(cand.shape[:2], np.inf)
    dist[count == 0, 0] = 0.0
    cand[rows, slot], dist[rows, slot] = feet, delta
    return cand, dist


def _plane_feet(norm, x, A, b):
    """Signed distances s (N, F) of x from the planes a.y = b, rows a of A, and their feet.

    s = (a.x - b)/phi(a), positive on the side a points to, and the foot on
    the plane is x - s grad phi(a) (N, F, d): phi_* of x minus it is |s|.
    """
    s = (row_dot(x[:, None, :], A) - b) / norm.value(A)
    return s, x[:, None, :] - s[..., None] * norm.grad(A)


def _segment_feet(norm, x, starts, edges):
    """Feet (N, S, 2) and distances (N, S) of x on the segments start + t edge, t in [0, 1].

    A segment's foot is its line's foot (``_plane_feet``) where that lands
    on the segment, else the nearer endpoint, since the distance is convex
    along the line.
    """
    n = np.c_[edges[:, 1], -edges[:, 0]]
    s, line = _plane_feet(norm, x, n, row_dot(starts, n))
    t = np.einsum("nsd,sd->ns", line - starts, edges) / row_dot(edges, edges)
    ends = np.stack([starts, starts + edges])  # (2, S, 2)
    dist = norm.conjugate(x[:, None, None, :] - ends)  # (N, 2, S)
    near = np.argmin(dist, axis=1)
    lands = (t >= 0.0) & (t <= 1.0)
    feet = np.where(lands[..., None], line, ends[near, np.arange(len(starts))])
    return feet, np.where(lands, np.abs(s), np.min(dist, axis=1))


def _edge_feet(norm, x, starts, edges):
    """Feet (N, S, d) and distances (N, S) of x on the segments start + t edge, any d.

    phi_*(x - start - t edge) is convex in t.  Under a quadratic norm,
    phi_*(v) = |L v| (``dual_transform``), its minimum over t in [0, 1] is
    the clamped least-squares parameter t = (L e).(L (x - s)) / |L e|^2.
    Under any other norm ``_newton_rows`` minimizes it from the middle, with
    the second derivative a central difference of the first (40 iterations,
    15 halvings, done at a slope below 1e-12 |edge|).  No point of a segment
    may be x.
    """
    L = norm.dual_transform
    if L is not None:
        # row_dot products, so that a row's bits do not depend on its batch
        Le = row_dot(edges[:, None, :], L)  # (S, d)
        Lv = row_dot((x[:, None, :] - starts)[..., None, :], L)  # (N, S, d)
        t = np.clip(row_dot(Lv, Le) / row_dot(Le, Le), 0.0, 1.0)
        r = Lv - t[..., None] * Le
        return starts + t[..., None] * edges, np.sqrt(row_dot(r, r))
    N, S, d = len(x), len(starts), x.shape[1]
    v0 = np.repeat(x, S, axis=0) - np.tile(starts, (N, 1))
    e = np.tile(edges, (N, 1))
    size = np.sqrt(row_dot(e, e))

    def value_slope(t, rows):
        # phi_*(v) = v . grad phi_*(v), and its derivative in t
        v = v0[rows] - t * e[rows]
        g = norm.conjugate_grad(v)
        return row_dot(v, g), -row_dot(e[rows], g)

    def probe(t, rows):
        value, dv = value_slope(t, rows)
        return value, np.abs(dv) / size[rows]

    def step(t, rows):
        dd = (value_slope(t + 1e-6, rows)[1] - value_slope(t - 1e-6, rows)[1]) / 2e-6
        return -(value_slope(t, rows)[1] / np.maximum(dd, 1e-300))[:, None]

    t, value, _ = _newton_rows(np.full((N * S, 1), 0.5), probe, step,
                               lambda t: np.clip(t, 0.0, 1.0), 40, 1e-12, 15)
    feet = np.tile(starts, (N, 1)) + t * e
    return feet.reshape(N, S, d), value.reshape(N, S)


# ======================================================================
# concrete shapes
# ======================================================================


class WulffBody(Shape):
    """Scaled copy of the dual unit body of a norm: {phi_*(x - c) <= rho}.

    The boundary is parametrized over the unit sphere.  Under a quadratic
    norm (euclidean, ellipsoidal) the body is the linear image
    c + rho A S^{d-1} with A A' = Q, whose outward normal at A u is parallel
    to A^{-T} u, so strata and the volume are closed form, and so is
    the projection under every quadratic norm, its own or another.  Other
    norms use the normal parametrization c + rho grad phi(u), whose outward
    normal is u itself, and have a closed-form projection under their own
    norm only.  Every other pair takes the support search.
    """

    is_convex = True

    def __init__(self, norm: Norm, center=None, radius: float = 1.0, name: str = "wulff"):
        self.norm = norm
        self.dim = norm.dim
        self.center = (
            np.zeros(self.dim) if center is None else np.asarray(center, dtype=float)
        )
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.name = name
        self._A = self._Ainv = None
        if norm.kind in ("euclidean", "ellipsoidal"):
            # the lower Cholesky factor of Q is exact for diagonal Q, as
            # sqrt(a * a) == a, so Ball and Ellipsoid keep exact volumes
            Q = norm.Q if norm.kind == "ellipsoidal" else np.eye(self.dim)
            self._A = np.linalg.cholesky(Q)
            self._Ainv = np.linalg.inv(self._A)
        self._volume_cache: Optional[float] = None

    def _point(self, u):
        """Boundary point with sphere parameter u."""
        if self._A is None:
            return self.center + self.radius * self.norm.grad(u)
        return self.center + u @ (self.radius * self._A).T

    def _dpoint(self, u, du):
        """Derivative of ``_point`` at u along the tangent du."""
        if self._A is None:
            return self.radius * np.einsum("...de,...e->...d", self.norm.hessian(u), du)
        return du @ (self.radius * self._A).T

    def _normal(self, u):
        """Outward unit normal at ``_point(u)``: A^{-T} u normalized, or u itself."""
        return u if self._A is None else unit_rows(u @ self._Ainv)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        x = np.asarray(x, dtype=float)
        return self.norm.conjugate(x - self.center) <= self.radius + tol

    def support(self, u) -> np.ndarray:
        """Support function h(u) = c.u + rho psi(u), psi the body's own norm; u (..., d)."""
        u = np.asarray(u, dtype=float)
        return u @ self.center + self.radius * self.norm.value(u)

    def support_point(self, u) -> np.ndarray:
        """The point c + rho grad psi(u) of the body where u attains h(u)."""
        return self.center + self.radius * self.norm.grad(u)

    def support_hessian(self, u) -> np.ndarray:
        """D2h(u) = rho D2psi(u)."""
        return self.radius * self.norm.hessian(u)

    def least_relative_radius(self, norm: Norm) -> float:
        """min over unit u of r1(u), the least radius of curvature of the body
        relative to the Wulff shape W of ``norm``: the least generalized
        eigenvalue of (D2h(u), D2phi(u)) on u-perp, 1/kappa_max of
        ``curvature.support_curvatures``.  h - r phi is convex exactly for
        r <= min r1, and then the body is M + r W (Schneider, *Convex Bodies*,
        1.7 and 3.2): r W rolls freely inside it, and the focal point of the
        least radius bounds it, so min r1 is the reach of the complement.
        Taken on ``norms._search_grid``, then polished from the 8 least by a
        pattern search on the tangent plane: 40 rounds of a step (first the
        grid's spacing) both ways along each tangent basis vector, moving to
        the least trial if lower, else halving the step.
        """
        from .curvature import support_curvatures  # curvature sits above shapes

        def radii(u):
            return 1.0 / support_curvatures(norm, u, self.support_hessian(u))[0][:, -1]

        dirs = _search_grid(self.dim)
        r = radii(dirs)
        best = np.argsort(r)[:8]
        u, r = dirs[best], r[best]
        step = np.full(8, (2 * np.pi * (self.dim - 1) / len(dirs)) ** (1 / (self.dim - 1)))
        ways = np.r_[np.eye(self.dim - 1), -np.eye(self.dim - 1)]
        for _ in range(40):
            trials = unit_rows(u[:, None] + step[:, None, None] * (ways @ tangent_basis(u)))
            rt = radii(trials.reshape(-1, self.dim)).reshape(8, -1)
            k = np.argmin(rt, axis=1)
            hit = rt[np.arange(8), k] < r
            u[hit], r[hit] = trials[hit, k[hit]], rt[hit, k[hit]]
            step[~hit] *= 0.5
        return float(r.min())

    def bounding_box(self):
        # support of W in axis directions: h_W(e) = phi(e)
        ext = np.array(
            [self.norm.value(np.eye(self.dim)[i]) for i in range(self.dim)]
        )
        return self.center - self.radius * ext, self.center + self.radius * ext

    def volume(self):
        if self._A is not None:
            # rho A maps the unit ball onto W - c; A is triangular
            omega = np.pi if self.dim == 2 else 4.0 / 3.0 * np.pi
            return omega * self.radius**self.dim * float(np.prod(np.diag(self._A)))
        if self._volume_cache is None:
            # divergence theorem: vol = 1/d * int (x - c) . nu dA over bd W
            (s,) = self.boundary_strata(n=4096 if self.dim == 2 else 8192)
            flux = np.sum(s.weights * row_dot(s.points - self.center, s.fibers))
            self._volume_cache = float(flux) / self.dim
        return self._volume_cache

    def boundary_strata(self, n=512, seed=0):
        """One ``vector`` stratum: max(n, 8) nodes of the angle rule on the
        curve (d=2), each weighing |dx/dt| dt, or n Fibonacci nodes (d=3)."""
        if self.dim == 2:
            t, step = _angles(0.0, 2 * np.pi, max(int(n), 8), np.random.default_rng(seed))
            u = _circle(t)
            w = np.linalg.norm(self._dpoint(u, np.c_[-u[:, 1], u[:, 0]]), axis=-1) * step
        else:
            u = fibonacci_sphere(n)
            T = tangent_basis(u)
            dA = np.cross(self._dpoint(u, T[:, 0]), self._dpoint(u, T[:, 1]))
            w = np.linalg.norm(dA, axis=-1) * (4 * np.pi / n)
        normal = self._normal(u)
        return [
            Stratum(self.dim - 1, "vector", self._point(u), w, normal, self.support_hessian(normal))
        ]

    def boundary_fiber_at(self, a, tol=1e-7):
        v = np.asarray(a, dtype=float) - self.center
        if abs(float(self.norm.conjugate(v)) - self.radius) > tol:
            raise ValueError("point is not on the boundary")
        return "vector", self.norm.gauss_map(v)

    def exact_projection(self, norm, x):
        """Feet and distances: in closed form under the body's own norm (radial
        scaling) and, for a quadratic body, under every quadratic norm
        (``_quadratic_projection``); from the support search under any other.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if norm.key != self.norm.key:
            if self._A is not None and norm.dual_transform is not None:
                return self._quadratic_projection(norm, x)
            feet, delta = x.copy(), np.zeros(len(x))
            out = np.flatnonzero(~self.contains(x, tol=0.0))
            _, u, f, _ = _support_search(self, norm, x[out])
            feet[out], delta[out] = self.support_point(u), np.maximum(f, 0.0)
            return feet, delta
        v = x - self.center
        g = norm.conjugate(v)
        out = g > self.radius
        feet = np.where(
            out[:, None],
            self.center + self.radius * v / np.maximum(g, 1e-300)[:, None],
            x,
        )
        return feet, np.maximum(g - self.radius, 0.0)

    def _quadratic_projection(self, norm, x):
        """Feet and distances under another quadratic norm, in closed form.

        With L whitening the dual norm (phi_*(v) = |L v|) and the SVD
        rho L A = U diag(s) V', the body is the ellipsoid U diag(s) S^{d-1}
        in coordinates z = U' L (x - c), and the Euclidean foot there is
        w = s^2 z / (t + s^2), where t >= 0 solves the secular equation
        |r(t)| = 1, r = s z / (t + s^2) (Eberly, "Distance from a point to an
        ellipse, an ellipsoid, or a hyperellipsoid", 2013).  Newton runs on
        1/|r(t)| - 1, which is concave and increasing in t (Moré and Sorensen,
        "Computing a trust region step", 1983), so from a lower bound of the
        root it rises to it monotonically; with f = |r|^2 its step is
        f (sqrt(f) - 1) / sum r^2 / (t + s^2).  Every row takes each step,
        masked: a row stops moving after its first step below
        1e-15 (t + max s^2), so its bits do not depend on its batch.  The
        coordinates are kept as rows (d, n), so each sum runs over the short
        axis.  Interior points are their own feet, at distance 0.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        L = norm.dual_transform
        U, s, _ = np.linalg.svd(self.radius * (L @ self._A))
        s, s2 = s[:, None], (s * s)[:, None]
        z = _columns_times(U.T @ L, (x - self.center).T)
        zs = z / s
        out = np.flatnonzero((zs * zs).sum(axis=0) > 1.0)
        z = z[:, out]
        sz = s * z
        # the root lies in [|s z| - max s^2, |s z| - min s^2]
        t = np.maximum(np.sqrt((sz * sz).sum(axis=0)) - s2[0], 0.0)
        live = np.ones(len(out), dtype=bool)
        for _ in range(100):
            ta = t + s2
            r = sz / ta
            r2 = r * r
            f = r2.sum(axis=0)
            step = f * (np.sqrt(f) - 1.0) / (r2 / ta).sum(axis=0)
            t += np.where(live, np.maximum(step, 0.0), 0.0)
            live &= step > 1e-15 * ta[-1]
            if not live.any():
                break
        else:
            raise NonConvergenceError(f"{live.sum()} ellipsoid projections did not converge")
        del ta, r, r2, f, step  # full width: alive, they would raise the peak below
        ts = t + s2
        w = s2 * z / ts
        e = t * z / ts  # z - w without the cancellation
        feet = x.copy()
        feet[out] = self.center + _columns_times(np.linalg.solve(L, U), w).T
        delta = np.zeros(len(x))
        delta[out] = np.sqrt((e * e).sum(axis=0))
        return feet, delta

    def complement(self):
        return ComplementShape(self)

    def _complement_feet(self, norm, x):
        """``foot_candidates`` of the complement: every polished local grid
        maximum of the support search from points of the interior, and the
        maxima reached from a ring 0.05 about each row's best (``_ring``):
        near a focal point the two nearest feet part closer than the grid's
        spacing, so the grid may seed only the farther one."""
        inside = np.flatnonzero(self.norm.conjugate(x - self.center) < self.radius)
        rows, u, f, _ = _support_search(self, norm, x[inside], local=True)
        seeds = _ring(u[_row_best(rows, f)], 0.05)
        rows2, u2, f2, _ = _support_search(self, norm, x[inside], seeds=seeds)
        order = np.argsort(np.r_[rows, rows2], kind="stable")
        rows, u, f = np.r_[rows, rows2][order], np.r_[u, u2][order], np.r_[f, f2][order]
        return _candidates(x, inside[rows], self.support_point(u), np.maximum(-f, 0.0))

    def _complement_reach(self, norm, a, eta, tol):
        """Ray reach (N,) of the complement on rays (a, eta) from points a of the body.

        Inside the body the complement is min over u of (h(u) - u.x)/phi(u)
        away, so ``projection.reach_along``'s predicate holds while, for every
        u, s ((1 - tol) phi(u) + u.eta) <= h(u) + tol phi(u) - u.a, which is
        > 0 (the support function of the body plus tol W, seen from a).  The
        reach is 1/max G (+inf where G <= 0), G the ratio of the two sides,
        by the support search at x = eta, gauge shifted by -a.  Past a focal
        point two branches of feet part on opposite sides of the ray's normal
        u_a, closer than the grid's spacing (G(u_a) = -1), so the search also
        starts 0.02 from u_a, and again 0.05 from each row's best (``_ring``).
        """
        body, gauge = _SupportSum(_ORIGIN, norm, tol - 1.0), _SupportSum(self, norm, tol)
        rows, u, g, _ = _support_search(
            body, gauge, eta, local=True, shift=-a, seeds=_ring(-norm.gauss_map(eta), 0.02)
        )
        seeds = _ring(u[_row_best(rows, g)], 0.05)
        rows2, _, g2, _ = _support_search(body, gauge, eta, shift=-a, seeds=seeds)
        top = np.zeros(len(a))
        np.maximum.at(top, np.r_[rows, rows2], np.r_[g, g2])
        return np.where(top > 0, 1.0 / np.where(top > 0, top, 1.0), np.inf)


def _row_best(rows, f):
    """Index of the greatest f of each row present in ``rows``, in row order."""
    order = np.lexsort((-f, rows))
    return order[np.diff(rows[order], prepend=-1) != 0]


def _ring(u, angle):
    """Unit directions (N, k, d) ``angle`` from each row of u: both ways in 2d, six in 3d."""
    w = np.array([[1.0], [-1.0]]) if u.shape[1] == 2 else _circle(np.pi / 3 * np.arange(6))
    return np.cos(angle) * u[:, None] + np.sin(angle) * (w @ tangent_basis(u))


class _SupportSum:
    """h_A + t phi, the support function of A + t W, as a body or gauge of ``_support_search``."""

    def __init__(self, body, norm, t):
        self.body, self.norm, self.t, self.dim = body, norm, t, norm.dim

    def support(self, u):
        return self.body.support(u) + self.t * self.norm.value(u)

    def support_point(self, u):
        return self.body.support_point(u) + self.t * self.norm.grad(u)

    def support_hessian(self, u):
        return self.body.support_hessian(u) + self.t * self.norm.hessian(u)

    value, grad, hessian = support, support_point, support_hessian

def _columns_times(P, X):
    """P @ X for a small square P and columns X (d, n), a fixed sum per column.

    ``P @ X`` and ``einsum`` may round a column differently with the width
    of X; this sum rounds each column alike in any batch.
    """
    out = P[:, :1] * X[0]
    for k in range(1, len(X)):
        out = out + P[:, k : k + 1] * X[k]
    return out


class _Difference:
    """The set A - B = {a - b} of two Wulff bodies, through its support function."""

    def __init__(self, A, B):
        self.A, self.B = A, B

    def support(self, u):
        return self.A.support(u) + self.B.support(-u)

    def support_point(self, u):
        return self.A.support_point(u) - self.B.support_point(-u)

    def support_hessian(self, u):
        return self.A.support_hessian(u) + self.B.support_hessian(-u)


def _gap_bounds(pairs, norm) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds on the phi_* gap min phi_*(b - a) of Wulff body pairs (A, B).

    The gap is the distance from 0 to A - B (``_Difference``), which
    ``_support_search`` finds at x = 0: it maximizes f(u) = -h(u)/phi(u),
    h(u) = h_A(u) + h_B(-u).  With a and b the support points of A at u and
    of B at -u, -h(u) = u.(b - a) <= phi(u) phi_*(b - a), so at the u* found
    f(u*) is a lower bound and phi_*(b* - a*) an upper one, equal at the
    maximum.  Returns (lower, upper) per pair; a lower bound <= 0 means the
    bodies meet.

    Where A and B are Wulff bodies of phi itself, W = -W gives
    A - B = (c_A - c_B) + (r_A + r_B) W, so the gap is exactly
    phi_*(c_B - c_A) - r_A - r_B, signed, and no search runs.
    """
    lower, upper = np.empty(len(pairs)), np.empty(len(pairs))
    for i, (A, B) in enumerate(pairs):
        if A.norm.key == B.norm.key == norm.key:
            gap = norm.conjugate((B.center - A.center)[None])[0] - A.radius - B.radius
            lower[i] = upper[i] = gap
            continue
        body = _Difference(A, B)
        _, u, f, _ = _support_search(body, norm, np.zeros((1, norm.dim)))
        upper[i] = norm.conjugate(-body.support_point(u))[0]
        lower[i] = min(f[0], upper[i])
    return lower, upper


class Ball(WulffBody):
    """Closed Euclidean ball: the Wulff shape of the Euclidean norm."""

    def __init__(self, center, radius: float, name: str = "ball"):
        center = np.asarray(center, dtype=float)
        super().__init__(EuclideanNorm(center.size), center, radius, name)

    @property
    def diameter(self):
        return 2.0 * self.radius


class Ellipsoid(WulffBody):
    """Solid axis-aligned ellipsoid: the Wulff shape of the norm diag(a^2)."""

    def __init__(self, center, semiaxes, name: str = "ellipsoid"):
        self.semiaxes = np.asarray(semiaxes, dtype=float)
        if (self.semiaxes <= 0).any():
            raise ValueError("semiaxes must be positive")
        super().__init__(EllipsoidalNorm(np.diag(self.semiaxes**2)), center, 1.0, name)

    @property
    def diameter(self):
        return 2.0 * float(self.semiaxes.max())


def _corners(lo, hi) -> np.ndarray:
    """The 8 corners of the 3d axis box [lo, hi], the last axis varying fastest."""
    return np.array(list(product(*zip(lo, hi))))


class ConvexPolytope(Shape):
    """Convex polygon (d=2, from vertices) or axis-aligned box (d=3)."""

    is_convex = True

    def __init__(self, vertices, name: str = "polytope"):
        v = np.asarray(vertices, dtype=float)
        self.dim = v.shape[1]
        self.name = name
        if self.dim == 2:
            ctr = v.mean(axis=0)
            order = np.argsort(np.arctan2(v[:, 1] - ctr[1], v[:, 0] - ctr[0]))
            self.vertices = v[order]
            self._setup_polygon()
            lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
            corners = {(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])}
            is_box = len(v) == 4 and {tuple(p) for p in self.vertices} == corners
            self._box = (lo, hi) if is_box else None
        elif self.dim == 3:
            lo, hi = v.min(axis=0), v.max(axis=0)
            box = _corners(lo, hi)
            ok = len(v) == 8 and all(
                np.isclose(box, vi, atol=1e-12).all(axis=1).any() for vi in v
            )
            if not ok:
                raise NotImplementedError(
                    "3d polytopes are supported as axis-aligned boxes only"
                )
            self.lo, self.hi = lo, hi
            self._box = (lo, hi)
            self.vertices = box
            self._facets = (np.concatenate([-np.eye(3), np.eye(3)]), np.concatenate([-lo, hi]))
            # the 12 edges start + t edge, four along each axis, with the
            # fans between their two facets' normals (the other axes a < b,
            # low or high on each): the edge stratum's order
            axes = np.repeat(np.arange(3), 4)
            other = np.array([[1, 2], [0, 2], [0, 1]])[axes]
            high = np.tile(list(product((False, True), repeat=2)), (3, 1))
            rows = np.arange(12)[:, None]
            self._edge_starts = np.tile(lo, (12, 1))
            self._edge_starts[rows, other] = np.where(high, hi[other], lo[other])
            self._edge_vecs = np.diag(hi - lo)[axes]
            self._edge_fans = np.zeros((12, 2, 3))
            self._edge_fans[rows, [0, 1], other] = np.where(high, 1.0, -1.0)
        else:
            raise ValueError("dim must be 2 or 3")

    @classmethod
    def box(cls, lo, hi, name="box"):
        if len(lo) == 2:
            return cls([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]], name=name)
        return cls(_corners(lo, hi), name=name)

    # ---------------- 2d polygon internals ----------------
    def _setup_polygon(self):
        v = self.vertices
        nv = len(v)
        edges = v[(np.arange(nv) + 1) % nv] - v
        lengths = np.linalg.norm(edges, axis=-1)
        if (lengths < 1e-12).any():
            raise ValueError("degenerate polygon edge")
        tangents = edges / lengths[:, None]
        # outward: sorted by angle about their mean, the vertices run ccw
        normals = np.c_[tangents[:, 1], -tangents[:, 0]]
        cross = tangents[:, 0] * np.roll(tangents[:, 1], -1) - tangents[:, 1] * np.roll(
            tangents[:, 0], -1
        )
        if (cross < -1e-12).any():
            raise ValueError("vertices do not describe a convex polygon")
        self._edges, self._lengths = edges, lengths
        self._tangents, self._normals = tangents, normals
        self._facets = (normals, row_dot(normals, v))
        # corner fans: from the previous edge's normal angle to the next one's
        t1 = np.arctan2(normals[:, 1], normals[:, 0])
        t0 = np.roll(t1, 1)
        self._corner_arcs = np.stack([t0, np.where(t1 < t0, t1 + 2 * np.pi, t1)], axis=1)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        x = np.asarray(x, dtype=float)
        if self.dim == 3:
            return ((x >= self.lo - tol) & (x <= self.hi + tol)).all(axis=-1)
        v = self.vertices
        sig = np.einsum("...d,kd->...k", x, self._normals) - np.einsum(
            "kd,kd->k", v, self._normals
        )
        return (sig <= tol).all(axis=-1)

    def bounding_box(self):
        if self.dim == 3:
            return self.lo.copy(), self.hi.copy()
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    @property
    def diameter(self):
        v = self.vertices
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def volume(self):
        if self.dim == 3:
            return float(np.prod(self.hi - self.lo))
        v = self.vertices
        return 0.5 * float(
            np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        )

    # ---------------- strata ----------------
    def boundary_strata(self, n=512, seed=0):
        """Polygon edges by the segment rule, n split by length (at least 4
        an edge), and the corner fans.  A box's facets take g x g grids of
        the segment rule's steps, g = max(floor(sqrt(m)), 2) for a share m of
        n by area (at least 4), its edges max(round(n / 24), 4) nodes each,
        and its corners the octants."""
        rng = np.random.default_rng(seed)
        if self.dim == 2:
            v, L = self.vertices, self._lengths
            counts = [max(int(round(n * length / L.sum())), 4) for length in L]
            pts, wts = _segment_nodes(v, self._edges, L, counts, rng)
            fibers = np.repeat(self._normals, counts, axis=0)
            return [
                Stratum(1, "vector", pts, wts, fibers),
                Stratum(0, "arc", v.copy(), np.ones(len(v)), self._corner_arcs.copy()),
            ]
        lo, hi, ext = self.lo, self.hi, self.hi - self.lo
        areas = [np.prod(np.delete(ext, axis)) for axis in range(3) for _ in (0, 1)]
        pts, wts, fibers = [], [], []
        for f, (axis, side) in enumerate(product(range(3), (0, 1))):
            a, b = (k for k in range(3) if k != axis)
            g = max(int(np.sqrt(max(int(round(n * areas[f] / sum(areas))), 4))), 2)
            S1, S2 = np.meshgrid(_steps(g, rng), _steps(g, rng), indexing="ij")
            p = np.empty((g * g, 3))
            p[:, axis] = (lo, hi)[side][axis]
            p[:, a] = lo[a] + S1.ravel() * ext[a]
            p[:, b] = lo[b] + S2.ravel() * ext[b]
            nrm = np.zeros((g * g, 3))
            nrm[:, axis] = 2.0 * side - 1.0
            pts.append(p)
            wts.append(np.full(g * g, areas[f] / (g * g)))
            fibers.append(nrm)
        m = max(int(round(n / 24)), 4)
        e_pts, e_wts = _segment_nodes(
            self._edge_starts, self._edge_vecs, np.repeat(ext, 4), [m] * 12, rng
        )
        # vertices: the octant of outward axis normals; any order of 3
        # generators has consecutive ones adjacent
        gens = np.zeros((8, 3, 3))
        gens[:, range(3), range(3)] = np.where(np.isclose(self.vertices, lo), -1.0, 1.0)
        return [
            Stratum(2, "vector", np.concatenate(pts), np.concatenate(wts), np.concatenate(fibers)),
            Stratum(1, "edge", e_pts, e_wts, np.repeat(self._edge_fans, m, axis=0)),
            Stratum(0, "patch", self.vertices.copy(), np.ones(8), gens),
        ]

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        if self.dim == 3:
            on_lo = np.abs(a - self.lo) <= tol
            on_hi = np.abs(a - self.hi) <= tol
            on = on_lo | on_hi
            in_box = ((a >= self.lo - tol) & (a <= self.hi + tol)).all()
            if not (in_box and on.any()):
                raise ValueError("point is not on the boundary")
            gens = np.diag(np.where(on_lo, -1.0, 1.0))[on]
            if len(gens) == 1:
                return "vector", gens[0]
            return ("edge" if len(gens) == 2 else "patch"), gens
        # 2d: vertex or edge?
        for i, vtx in enumerate(self.vertices):
            if np.linalg.norm(a - vtx) <= tol:
                return "arc", self._corner_arcs[i].copy()
        for i in range(len(self.vertices)):
            rel = a - self.vertices[i]
            t = rel @ self._tangents[i]
            if -tol <= t <= self._lengths[i] + tol:
                if abs(rel @ self._normals[i]) <= tol:
                    return "vector", self._normals[i].copy()
        raise ValueError("point is not on the boundary")

    def exact_projection(self, norm, x):
        """Feet and distances: the clamp for a box under a norm whose
        ``dual_transform`` is diagonal; else, from outside, the least of the
        feet on each edge of a polygon (``_segment_feet``), or of the
        candidates of ``_box_feet``.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        L = norm.dual_transform
        if self._box is not None and L is not None and not (L - np.diag(np.diag(L))).any():
            # a diagonal L keeps the box an axis box, where the nearest
            # point is the clamp in original coordinates
            feet = np.clip(x, *self._box)
            return feet, norm.conjugate(x - feet)
        feet, delta = x.copy(), np.zeros(len(x))
        out = np.flatnonzero(~self.contains(x, tol=0.0))
        if len(out):
            if self.dim == 2:
                cand = _segment_feet(norm, x[out], self.vertices, self._edges)
            else:
                cand = self._box_feet(norm, x[out])
            feet[out], delta[out] = _best(*cand)
        return feet, delta

    def _box_feet(self, norm, x):
        """Candidate feet (N, 18, 3) and distances of points outside the box.

        A facet's candidate is its plane's foot (``_plane_feet``) where that
        lands on the facet; an edge's is its nearest point (``_edge_feet``),
        a corner where the edge's end is.
        """
        s, plane = _plane_feet(norm, x, *self._facets)
        own = np.eye(3, dtype=bool)[np.arange(6) % 3]  # a facet's normal axis
        lands = (own | ((plane >= self.lo) & (plane <= self.hi))).all(axis=-1)
        feet, delta = _edge_feet(norm, x, self._edge_starts, self._edge_vecs)
        return (
            np.concatenate([plane, feet], axis=1),
            np.concatenate([np.where(lands, np.abs(s), np.inf), delta], axis=1),
        )

    def _complement_feet(self, norm, x):
        """``foot_candidates`` of the complement, one per facet (the facet formula).

        From a point inside, facet i (a_i . y <= b_i) is (b_i - a_i.x)/phi(a_i)
        away, at its plane's foot (``_plane_feet``); the least is the distance.
        """
        s, feet = _plane_feet(norm, x, *self._facets)
        delta = np.maximum(-s, 0.0)
        out = ~self.contains(x, tol=0.0)
        feet[out], delta[out] = x[out, None], np.inf
        delta[out, 0] = 0.0
        return feet, delta

    def _complement_reach(self, norm, a, eta, tol):
        """Ray reach of the complement: ``WulffBody._complement_reach``'s
        constraints on the facet normals alone (the facet formula)."""
        A, b = self._facets
        pa = norm.value(A)
        num = b - row_dot(a[:, None, :], A) + tol * pa
        den = (1.0 - tol) * pa + row_dot(eta[:, None, :], A)
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf).min(axis=1)

    def complement(self):
        return ComplementShape(self)


class CapLens(Shape):
    """Convex lens: intersection of unit disks centered (0, -eps) and (0, eps).

    Equivalently two spherical caps of height cut eps glued along their common
    disk; the corners at (+-sqrt(1-eps^2), 0) carry normal fans of angular
    width 2*arcsin(eps).
    """

    is_convex = True
    dim = 2

    def __init__(self, eps: float, name: str = "cap-lens"):
        if not (0.0 < eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        self.eps = float(eps)
        self.name = name
        self.half_width = np.sqrt(1.0 - eps * eps)
        self.centers = np.array([[0.0, -eps], [0.0, eps]])  # upper arc, lower arc
        self._disks = [Ball(c, 1.0) for c in self.centers]
        self.beta = np.arcsin(eps)  # corner fan half-width
        # right and left corner fans, in ``corner_points`` order
        self._corner_arcs = np.array(
            [[-self.beta, self.beta], [np.pi - self.beta, np.pi + self.beta]]
        )

    def contains(self, x, tol=MEMBERSHIP_TOL):
        x = np.asarray(x, dtype=float)
        d0 = np.linalg.norm(x - self.centers[0], axis=-1)
        d1 = np.linalg.norm(x - self.centers[1], axis=-1)
        return (d0 <= 1.0 + tol) & (d1 <= 1.0 + tol)

    def bounding_box(self):
        return (
            np.array([-self.half_width, -(1.0 - self.eps)]),
            np.array([self.half_width, 1.0 - self.eps]),
        )

    @property
    def diameter(self):
        return 2.0 * self.half_width

    def volume(self):
        e = self.eps
        return 2.0 * (np.arccos(e) - e * np.sqrt(1 - e * e))

    def corner_points(self):
        return np.array([[self.half_width, 0.0], [-self.half_width, 0.0]])

    def boundary_strata(self, n=512, seed=0):
        """The upper arc, about the lower center, and the lower arc by the
        angle rule, about n / 2 nodes each (at least 8), and the corners."""
        # n split by arc length: round() may tip n / 2 either way at odd n
        arc_len = 2.0 * np.arccos(self.eps)
        m = max(int(round(n * arc_len / (2.0 * arc_len))), 8)
        rng, beta = np.random.default_rng(seed), self.beta
        arcs = ((beta, np.pi - beta), (np.pi + beta, 2 * np.pi - beta))
        (t0, step0), (t1, step1) = (_angles(lo, hi, m, rng) for lo, hi in arcs)
        u = _circle(np.r_[t0, t1])
        # |du/dt| = 1, to rounding; both arcs are arcs of unit circles, with
        # the unit disk's support Hessian
        w = np.linalg.norm(u, axis=-1) * np.repeat([step0, step1], m)
        return [
            Stratum(1, "vector", np.repeat(self.centers, m, axis=0) + u, w, u,
                    self._disks[0].support_hessian(u)),
            Stratum(0, "arc", self.corner_points(), np.ones(2), self._corner_arcs.copy()),
        ]

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        for corner, arc in zip(self.corner_points(), self._corner_arcs):
            if np.linalg.norm(a - corner) <= tol:
                return "arc", arc.copy()
        v = a - self.centers[0 if a[1] > 0 else 1]
        length = np.linalg.norm(v)
        if abs(length - 1.0) > tol:
            raise ValueError("point is not on the boundary")
        return "vector", v / length

    def exact_projection(self, norm, x):
        """Feet from the two disks'.

        A disk's foot that lies in the other disk is the lens's foot, since
        the lens lies in that disk.  Any other foot is a corner: off the
        corners the lens is locally one disk, where by convexity a foot is
        that disk's unique foot.  An interior point is its own foot on both
        disks, at distance 0.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        feet, delta = np.empty_like(x), np.empty(len(x))
        rows = np.arange(len(x))
        # the upper arc's disk first, so it wins where both feet qualify
        for disk, other in zip(self._disks, self.centers[::-1]):
            res = disk.exact_projection(norm, x[rows])
            ok = np.linalg.norm(res[0] - other, axis=-1) <= 1.0
            feet[rows[ok]], delta[rows[ok]] = res[0][ok], res[1][ok]
            rows = rows[~ok]
        corners = self.corner_points()
        dc = np.stack([norm.conjugate(x[rows] - c) for c in corners])
        near = np.argmin(dc, axis=0)
        feet[rows], delta[rows] = corners[near], dc[near, np.arange(len(rows))]
        return feet, delta

    def _complement_feet(self, norm, x):
        """``foot_candidates`` of the complement, the union of the two disks'
        complements: both disks' candidates."""
        parts = [disk._complement_feet(norm, x) for disk in self._disks]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    def _complement_reach(self, norm, a, eta, tol):
        """Ray reach of the complement: the lesser of the two disks' complements'."""
        return np.minimum(*(disk._complement_reach(norm, a, eta, tol) for disk in self._disks))

    def complement(self):
        return ComplementShape(self)


class SegmentUnion(Shape):
    """Union of closed line segments in the plane (a set with empty interior)."""

    dim = 2

    def __init__(self, segments: Sequence, name: str = "segments"):
        segs = [(np.asarray(p, dtype=float), np.asarray(q, dtype=float)) for p, q in segments]
        if not segs:
            raise ValueError("need at least one segment")
        self.segments = segs
        self.name = name
        self.is_convex = len(segs) == 1
        # endpoints and their half-circle fans opening away from the segment
        ends, arcs = [], []
        for p, q in segs:
            e = (q - p) / np.linalg.norm(q - p)
            for pt, outward in ((p, -e), (q, e)):
                t_mid = np.arctan2(outward[1], outward[0])
                ends.append(pt)
                arcs.append((t_mid - np.pi / 2, t_mid + np.pi / 2))
        self._ends, self._end_arcs = np.stack(ends), np.array(arcs)
        self._starts = np.stack([p for p, _ in segs])
        self._edges = np.stack([q - p for p, q in segs])
        self._lengths = [float(np.linalg.norm(e)) for e in self._edges]

    def contains(self, x, tol=MEMBERSHIP_TOL):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _segment_feet(EuclideanNorm(2), x, self._starts, self._edges)[1].min(axis=1) <= tol

    def bounding_box(self):
        return self._ends.min(axis=0), self._ends.max(axis=0)

    @property
    def diameter(self):
        d2 = ((self._ends[:, None, :] - self._ends[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def volume(self):
        return 0.0

    def total_length(self):
        return sum(self._lengths)

    def boundary_strata(self, n=512, seed=0):
        """Each segment by the segment rule, at least 8 nodes, and the endpoints."""
        total = self.total_length()
        counts = [max(int(round(n * length / total)), 8) for length in self._lengths]
        pts, wts = _segment_nodes(
            self._starts, self._edges, self._lengths, counts, np.random.default_rng(seed)
        )
        e = self._edges / np.array(self._lengths)[:, None]
        fibers = np.repeat(np.c_[e[:, 1], -e[:, 0]], counts, axis=0)
        return [
            Stratum(1, "pair", pts, wts, fibers),
            Stratum(0, "arc", self._ends.copy(), np.ones(len(self._ends)), self._end_arcs.copy()),
        ]

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        for pt, arc in zip(self._ends, self._end_arcs):
            if np.linalg.norm(a - pt) <= tol:
                return "arc", arc.copy()
        for p, q in self.segments:
            e = q - p
            t = (a - p) @ e / (e @ e)
            foot = p + t * e
            if 0 <= t <= 1 and np.linalg.norm(a - foot) <= tol:
                return "pair", np.array([e[1], -e[0]]) / np.linalg.norm(e)
        raise ValueError("point is not on the set")

    def exact_projection(self, norm, x):
        """The nearest of the segments' feet, the first on ties."""
        return _best(*self.foot_candidates(norm, x))

    def foot_candidates(self, norm, x):
        """One foot per segment (``_segment_feet``)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _segment_feet(norm, x, self._starts, self._edges)

    def gap(self, norm) -> float:
        """The least phi_* gap between two segments (+inf for one): in the plane,
        disjoint segments are nearest at an endpoint of one (``_segment_feet``)."""
        _, dist = _segment_feet(norm, self._ends, self._starts, self._edges)
        dist[np.arange(len(dist)), np.arange(len(dist)) // 2] = np.inf  # own segment
        return float(dist.min())


class DisjointUnion(Shape):
    """Union of components with strictly positive pairwise gaps."""

    def __init__(self, components: Sequence[Shape], margin: float = 1e-6, name: str = "union"):
        if len(components) < 2:
            raise ValueError("need at least two components")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError("mixed dimensions")
        self.components = list(components)
        self.dim = dims.pop()
        self.name = name
        self.is_convex = False
        self._validate_gaps(margin)

    def _validate_gaps(self, margin):
        comps = self.components
        if all(isinstance(c, WulffBody) for c in comps):
            # the exact Euclidean gap of each pair: its lower bound, which is
            # signed, negative where the bodies overlap
            idx = [(i, j) for i in range(len(comps)) for j in range(i + 1, len(comps))]
            lower, _ = _gap_bounds([(comps[i], comps[j]) for i, j in idx], EuclideanNorm(self.dim))
            for (i, j), gap in zip(idx, lower):
                if gap <= 0:
                    raise ValueError(f"components {i} and {j} overlap")
                if gap <= margin:
                    raise ValueError(f"components {i} and {j} are not separated (gap {gap:.2e})")
            return
        top = self.dim - 1
        clouds = [
            np.concatenate([s.points for s in c.boundary_strata(n=256) if s.index == top])
            for c in self.components
        ]
        for i in range(len(clouds)):
            for j in range(len(clouds)):
                if i == j:
                    continue
                # no boundary point of one component may fall inside another
                if self.components[j].contains(clouds[i], tol=0.0).any():
                    raise ValueError(f"components {i} and {j} overlap")
                if j < i:
                    continue
                d = np.sqrt(
                    ((clouds[i][:, None, :] - clouds[j][None, :, :]) ** 2).sum(-1)
                ).min()
                # dense-cloud gap estimate; components must be honestly apart
                if d <= margin:
                    raise ValueError(
                        f"components {i} and {j} are not separated (gap ~{d:.2e})"
                    )

    def contains(self, x, tol=MEMBERSHIP_TOL):
        out = self.components[0].contains(x, tol)
        for c in self.components[1:]:
            out = out | c.contains(x, tol)
        return out

    def bounding_box(self):
        boxes = [c.bounding_box() for c in self.components]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi

    def volume(self):
        vols = [c.volume() for c in self.components]
        return None if any(v is None for v in vols) else float(sum(vols))

    def boundary_strata(self, n=512, seed=0):
        m = max(n // len(self.components), 32)
        parts = [
            s
            for k, comp in enumerate(self.components)
            for s in comp.boundary_strata(n=m, seed=seed + k)
        ]
        # by dimension, components in order within one; consecutive parts
        # whose fiber rows have one kind and shape, and which all carry
        # support Hessians or none do, become one stratum
        parts.sort(key=lambda s: -s.index)
        out = []
        for (index, kind, _, flat), run in groupby(
            parts,
            key=lambda s: (s.index, s.kind, s.fibers.shape[1:], s.support_hessian is None),
        ):
            run = list(run)
            cols = ("points", "weights", "fibers") + (() if flat else ("support_hessian",))
            out.append(
                Stratum(index, kind, *(np.concatenate([getattr(s, c) for s in run]) for c in cols))
            )
        return out

    def boundary_fiber_at(self, a, tol=1e-7):
        for c in self.components:
            try:
                return c.boundary_fiber_at(a, tol)
            except ValueError:
                continue
        raise ValueError("point is not on the boundary of any component")

    def exact_projection(self, norm, x):
        results = [c.exact_projection(norm, x) for c in self.components]
        feet = results[0][0].copy()
        delta = results[0][1].copy()
        for f, d in results[1:]:
            upd = d < delta
            delta[upd] = d[upd]
            feet[upd] = f[upd]
        return feet, delta

    def foot_candidates(self, norm, x):
        """The components' candidates, side by side."""
        parts = [c.foot_candidates(norm, x) for c in self.components]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    def _complement_feet(self, norm, x):
        """``foot_candidates`` of the complement: those of the one component a
        point lies in, whose complement it is farthest from; every other
        component's complement holds the point, at distance 0."""
        parts = [c._complement_feet(norm, x) for c in self.components]
        pick = np.argmax([d.min(axis=1) for _, d in parts], axis=0)
        feet = np.repeat(x[:, None, :], max(d.shape[1] for _, d in parts), axis=1)
        delta = np.full(feet.shape[:2], np.inf)
        for k, (f, d) in enumerate(parts):
            rows = pick == k
            feet[rows, : d.shape[1]], delta[rows, : d.shape[1]] = f[rows], d[rows]
        return feet, delta

    def _complement_reach(self, norm, a, eta, tol):
        """Ray reach of the complement: that of the complement of the component
        a lies on, the nearest; the ray crosses that component's interior."""
        held = np.argmin([c.exact_projection(norm, a)[1] for c in self.components], axis=0)
        reach = np.empty(len(a))
        for k, c in enumerate(self.components):
            if (rows := held == k).any():
                reach[rows] = c._complement_reach(norm, a[rows], eta[rows], tol)
        return reach

    def complement(self):
        return ComplementShape(self)


class ComplementShape(Shape):
    """Closure of the complement of a body: normals flip, curvatures mirror."""

    def __init__(self, base: Shape):
        vol = base.volume()
        if vol is not None and vol <= 0:
            raise EmptyInteriorError(f"{base.name} has empty interior")
        self.base = base
        self.dim = base.dim
        self.name = f"complement-of-{base.name}"
        self.is_convex = False

    def contains(self, x, tol=MEMBERSHIP_TOL):
        # closed complement: everything except interior points of the base
        return ~self.base.contains(x, tol=-tol)

    def bounding_box(self):
        # finite window around the base; only used for sampling scales
        lo, hi = self.base.bounding_box()
        pad = 0.5 * np.linalg.norm(hi - lo)
        return lo - pad, hi + pad

    @property
    def diameter(self):
        return self.base.diameter

    def volume(self):
        return None

    def boundary_strata(self, n=512, seed=0):
        # vectors and support Hessians flip and pairs stay; corner fans of
        # the base vanish on the complement side
        out = []
        for s in self.base.boundary_strata(n=n, seed=seed):
            if s.kind == "vector":
                hess = None if s.support_hessian is None else -s.support_hessian
                out.append(Stratum(s.index, s.kind, s.points, s.weights, -s.fibers, hess))
            elif s.kind == "pair":
                out.append(s)
        return out

    def boundary_fiber_at(self, a, tol=1e-7):
        kind, u = self.base.boundary_fiber_at(a, tol)
        if kind == "vector":
            return kind, -u
        raise ValueError("complement has no normals at base corner points")

    @staticmethod
    def _radial_dirs(v):
        """v with near-zero rows replaced by e1: at the exact center every
        boundary point is nearest, so any fixed direction gives a valid foot."""
        small = np.linalg.norm(v, axis=-1) < 1e-14
        if small.any():
            v = v.copy()
            v[small] = 0.0
            v[small, 0] = 1.0
        return v

    def exact_projection(self, norm, x):
        """The mirror of a Wulff body's radial projection under its own norm,
        else the nearest of ``foot_candidates``, the first on ties."""
        b = self.base
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if not isinstance(b, WulffBody) or norm.key != b.norm.key:
            return _best(*self.foot_candidates(norm, x))
        v = x - b.center
        g = norm.conjugate(v)
        inside = g < b.radius
        w = self._radial_dirs(v)
        w = w / norm.conjugate(w)[:, None]
        feet = np.where(inside[:, None], b.center + b.radius * w, x)
        return feet, np.where(inside, b.radius - g, 0.0)

    def foot_candidates(self, norm, x):
        """The base's candidate feet of its interior points (``_complement_feet``)."""
        return self.base._complement_feet(norm, np.atleast_2d(np.asarray(x, dtype=float)))


# ======================================================================
# canonical catalog
# ======================================================================


def make_catalog_shape(key: str, norm: Optional[Norm] = None) -> Shape:
    """Construct the standard test sets by name.

    Keys: disk, unit-square, ellipse-2-1, two-disks-gap1, two-disks-mixed,
    cap-lens-0.25, cap-lens-0.5, segment-pair, wulff (needs norm),
    three-wulff (needs norm), cube, two-balls-3d, wulff-3d (needs norm).
    Raises KeyError for an unknown key and ValueError for a missing norm.
    """
    if key in ("wulff", "three-wulff", "wulff-3d") and norm is None:
        raise ValueError(f"catalog shape {key!r} needs a norm")
    if key == "disk":
        return Ball([0.0, 0.0], 1.0, name="disk")
    if key == "unit-square":
        return ConvexPolytope.box([-0.5, -0.5], [0.5, 0.5], name="unit-square")
    if key == "ellipse-2-1":
        return Ellipsoid([0.0, 0.0], [2.0, 1.0], name="ellipse-2-1")
    if key == "two-disks-gap1":
        return DisjointUnion(
            [Ball([-1.5, 0.0], 1.0, "left"), Ball([1.5, 0.0], 1.0, "right")],
            name="two-disks-gap1",
        )
    if key == "two-disks-far":
        return DisjointUnion(
            [Ball([-3.0, 0.0], 1.0, "left"), Ball([3.0, 0.0], 1.0, "right")],
            name="two-disks-far",
        )
    if key == "two-disks-mixed":
        return DisjointUnion(
            [Ball([-3.0, 0.0], 1.0, "small"), Ball([3.0, 0.0], 1.6, "big")],
            name="two-disks-mixed",
        )
    if key.startswith("cap-lens-"):
        return CapLens(float(key.rsplit("-", 1)[1]), name=key)
    if key == "segment-pair":
        return SegmentUnion(
            [((-2.0, 1.0), (2.0, 1.0)), ((-2.0, -1.0), (2.0, -1.0))],
            name="segment-pair",
        )
    if key == "wulff":
        return WulffBody(norm, radius=1.0, name=f"wulff-{norm.kind}")
    if key == "three-wulff":
        lo, hi = WulffBody(norm).bounding_box()
        step = 2.5 * float(np.max(hi - lo))
        comps = [
            WulffBody(norm, center=[i * step, 0.0], radius=1.0, name=f"w{i}")
            for i in (-1, 0, 1)
        ]
        return DisjointUnion(comps, name=f"three-wulff-{norm.kind}")
    if key == "cube":
        return ConvexPolytope.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], name="cube")
    if key == "two-balls-3d":
        return DisjointUnion(
            [Ball([-3.0, 0.0, 0.0], 1.0, "left"), Ball([3.0, 0.0, 0.0], 1.0, "right")],
            name="two-balls-3d",
        )
    if key == "wulff-3d":
        return WulffBody(norm, radius=1.0, name=f"wulff3d-{norm.kind}")
    raise KeyError(f"unknown catalog shape {key!r}")
