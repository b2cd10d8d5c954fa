"""Catalog of closed test sets with exact boundary structure.

Every shape knows three things about itself:

* pointwise membership (vectorized, with a boundary tolerance),
* a stratified description of its boundary: for each stratum dimension m,
  quadrature points carrying H^m weights plus a *fiber* describing the set of
  outward Euclidean unit normals at that point (a single vector on smooth
  pieces, an antipodal pair on 1-codimensional sheets, an arc or spherical
  patch at corners and edges),
* parametric charts of the boundary used by the generic nearest-point solver.

Strata weights are exact for polytopes (face measures split evenly across
nodes) and spectrally accurate chart quadrature on smooth pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .norms import (
    EllipsoidalNorm,
    EuclideanNorm,
    NonConvergenceError,
    Norm,
    row_dot,
    unit_rows,
)

__all__ = [
    "Fiber",
    "FiberVector",
    "FiberPair",
    "FiberArc",
    "FiberEdgeArc",
    "FiberPatch",
    "Stratum",
    "Chart",
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
    "spherical_polygon_area",
    "make_catalog_shape",
]

MEMBERSHIP_TOL = 1e-9


class EmptyInteriorError(ValueError):
    """Complement view requested for a set with no interior."""


# ======================================================================
# normal fibers
# ======================================================================


class Fiber:
    """Set of outward Euclidean unit normals at a boundary point.

    Quadrature is expanded for many fibers of one class at once with
    ``stack_nodes``; ``nodes`` is the one-fiber case of it.
    """

    dim_fiber: int = 0

    @classmethod
    def stack_nodes(cls, fibers: Sequence["Fiber"], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature (normals (F, q, d), weights (F, q)) of F fibers of this class."""
        raise NotImplementedError

    @classmethod
    def stack_tangents(cls, fibers: Sequence["Fiber"], k: int) -> np.ndarray:
        """Unit tangents du/dt (F, q, d) at the nodes of 1-dimensional fibers."""
        raise NotImplementedError

    @property
    def stack_key(self):
        """Fibers with equal keys can share one ``stack_nodes`` call."""
        return type(self)

    def nodes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature (normals, weights) for the spherical measure on the fiber."""
        u, w = self.stack_nodes([self], k)
        return u[0], w[0]

    def tangents(self, k: int) -> np.ndarray:
        """Unit tangents du/dt at the quadrature nodes (1-dimensional fibers)."""
        return self.stack_tangents([self], k)[0]

    def measure(self) -> float:
        """Total spherical H^{dim_fiber} measure (counting measure if 0-dim)."""
        u, w = self.nodes(1)
        return float(w.sum())


@dataclass(frozen=True)
class FiberVector(Fiber):
    u: np.ndarray

    dim_fiber = 0

    @classmethod
    def stack_nodes(cls, fibers, k):
        u = np.array([f.u for f in fibers], dtype=float)
        return u[:, None, :], np.ones((len(u), 1))


@dataclass(frozen=True)
class FiberPair(Fiber):
    """Antipodal pair {+u, -u}: two sheets of the normal bundle."""

    u: np.ndarray

    dim_fiber = 0

    @classmethod
    def stack_nodes(cls, fibers, k):
        u = np.array([f.u for f in fibers], dtype=float)
        return np.stack([u, -u], axis=1), np.ones((len(u), 2))


@dataclass(frozen=True)
class FiberArc(Fiber):
    """d=2 corner fan: normals (cos t, sin t) for t in [theta0, theta1]."""

    theta0: float
    theta1: float

    dim_fiber = 1

    @staticmethod
    def _angles(fibers, k):
        x, w = np.polynomial.legendre.leggauss(max(int(k), 1))
        th = np.array([(f.theta0, f.theta1) for f in fibers], dtype=float)
        mid, half = 0.5 * (th[:, :1] + th[:, 1:]), 0.5 * (th[:, 1:] - th[:, :1])
        return mid + half * x, w * half

    @classmethod
    def stack_nodes(cls, fibers, k):
        t, w = cls._angles(fibers, k)
        return np.stack([np.cos(t), np.sin(t)], axis=-1), w

    @classmethod
    def stack_tangents(cls, fibers, k):
        t, _ = cls._angles(fibers, k)
        return np.stack([-np.sin(t), np.cos(t)], axis=-1)


@dataclass(frozen=True)
class FiberEdgeArc(Fiber):
    """d=3 edge fan: normals rotating between two adjacent facet normals."""

    n0: np.ndarray
    n1: np.ndarray

    dim_fiber = 1

    @staticmethod
    def _frames(fibers):
        """Orthonormal (e0, e1) spanning each fan's plane, and its angle."""
        e0 = np.array([f.n0 for f in fibers], dtype=float)
        n1 = np.array([f.n1 for f in fibers], dtype=float)
        c = row_dot(e0, n1)
        angle = np.arccos(np.clip(c, -1.0, 1.0))
        e1 = unit_rows(n1 - c[:, None] * e0)
        return e0, e1, angle

    @classmethod
    def _angles(cls, fibers, k):
        e0, e1, angle = cls._frames(fibers)
        x, w = np.polynomial.legendre.leggauss(max(int(k), 1))
        ang = angle[:, None]
        return e0[:, None], e1[:, None], 0.5 * ang * (x + 1.0), w * 0.5 * ang

    @classmethod
    def stack_nodes(cls, fibers, k):
        e0, e1, t, w = cls._angles(fibers, k)
        return np.cos(t)[..., None] * e0 + np.sin(t)[..., None] * e1, w

    @classmethod
    def stack_tangents(cls, fibers, k):
        e0, e1, t, _ = cls._angles(fibers, k)
        return -np.sin(t)[..., None] * e0 + np.cos(t)[..., None] * e1

    def measure(self):
        return float(self._frames([self])[2][0])


def _spherical_triangle_areas(a, b, c) -> np.ndarray:
    """Exact areas of spherical triangles with unit vertices a, b, c (..., 3)."""
    num = np.abs(row_dot(a, np.cross(b, c)))
    den = 1.0 + row_dot(a, b) + row_dot(b, c) + row_dot(c, a)
    return 2.0 * np.arctan2(num, den)


def spherical_polygon_area(vertices: np.ndarray) -> float:
    """Area of a convex spherical polygon given ordered unit vertices (exact)."""
    v = np.asarray(vertices, dtype=float)
    i = np.arange(1, len(v) - 1)
    return float(_spherical_triangle_areas(v[0], v[i], v[i + 1]).sum())


@dataclass(frozen=True)
class FiberPatch(Fiber):
    """d=3 vertex fan: convex spherical polygon of normals (ordered vertices)."""

    generators: np.ndarray  # (k, 3) ordered unit vectors

    dim_fiber = 2

    @classmethod
    def stack_nodes(cls, fibers, k):
        # Fan-triangulate, then refine each spherical triangle `level` times
        # into (a,ab,ca), (ab,b,bc), (ca,bc,c), (ab,bc,ca); sub-triangle areas
        # are exact, nodes sit at normalized centroids.
        gens = np.array([f.generators for f in fibers], dtype=float)  # (F, G, 3)
        level = max(int(np.ceil(np.log2(max(k, 1)) / 2)), 1)
        i = np.arange(1, gens.shape[1] - 1)
        a = np.broadcast_to(gens[:, :1], (len(gens), len(i), 3))
        tri = np.stack([a, gens[:, i], gens[:, i + 1]], axis=-2)  # (F, T, 3, 3)
        for _ in range(level):
            a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
            ab, bc, ca = unit_rows(a + b), unit_rows(b + c), unit_rows(c + a)
            children = [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]
            tri = np.stack(children, axis=-2).reshape(len(gens), -1, 3, 3)
        a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
        return unit_rows(a + b + c), _spherical_triangle_areas(a, b, c)

    @property
    def stack_key(self):
        return type(self), len(self.generators)

    def measure(self):
        return spherical_polygon_area(self.generators)


# ======================================================================
# strata and charts
# ======================================================================


@dataclass
class Stratum:
    """Quadrature sample of one boundary stratum.

    ``index`` is the stratum dimension m; ``weights`` approximate H^m on the
    stratum; ``fibers[i]`` describes the normal set at ``points[i]``.
    """

    index: int
    points: np.ndarray
    weights: np.ndarray
    fibers: list

    def __len__(self):
        return len(self.points)


class Chart:
    """Parametric boundary piece used by the generic nearest-point solver."""

    param_dim: int = 1
    periodic: bool = False

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=float)  # (param_dim, 2)

    def point(self, t) -> np.ndarray:
        raise NotImplementedError

    def dpoint(self, t) -> np.ndarray:
        """First derivative; (N,) -> (N, d) for 1d charts, FD fallback."""
        t = np.asarray(t, dtype=float)
        h = 1e-7
        return (self.point(t + h) - self.point(t - h)) / (2 * h)

    def normal(self, t) -> np.ndarray:
        raise NotImplementedError

    def seeds(self, k: int) -> np.ndarray:
        lo, hi = self.bounds[0]
        if self.periodic:
            return np.linspace(lo, hi, k, endpoint=False)
        return np.linspace(lo, hi, k)

    def clamp(self, t):
        lo, hi = self.bounds[0]
        t = np.asarray(t, dtype=float)
        if self.periodic:
            return lo + np.mod(t - lo, hi - lo)
        return np.clip(t, lo, hi)


class _FuncChart(Chart):
    """1d chart from callables (all vectorized over t)."""

    def __init__(self, bounds, point_fn, dpoint_fn, normal_fn, periodic=False):
        super().__init__(np.atleast_2d(bounds))
        self._p, self._dp, self._n = point_fn, dpoint_fn, normal_fn
        self.periodic = periodic

    def point(self, t):
        return self._p(np.asarray(t, dtype=float))

    def dpoint(self, t):
        if self._dp is None:
            return super().dpoint(t)
        return self._dp(np.asarray(t, dtype=float))

    def normal(self, t):
        return self._n(np.asarray(t, dtype=float))


class SphereChart(Chart):
    """d=3 chart over the unit sphere via (polar, azimuth) angles.

    ``embed(u)`` maps unit vectors to boundary points; the chart composes it
    with standard spherical coordinates.
    """

    param_dim = 2

    def __init__(self, embed: Callable, normal_of: Callable):
        super().__init__(np.array([[1e-6, np.pi - 1e-6], [0.0, 2 * np.pi]]))
        self.embed = embed
        self.normal_of = normal_of

    @staticmethod
    def to_unit(t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        th, ph = t[..., 0], t[..., 1]
        s = np.sin(th)
        return np.stack([s * np.cos(ph), s * np.sin(ph), np.cos(th)], axis=-1)

    def point(self, t):
        return self.embed(self.to_unit(t))

    def normal(self, t):
        return self.normal_of(self.to_unit(t))

    def seeds(self, k):
        # Fibonacci lattice pulled back to (theta, phi)
        u = fibonacci_sphere(max(k, 8))
        th = np.arccos(np.clip(u[:, 2], -1, 1))
        ph = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * np.pi)
        return np.c_[th, ph]

    def clamp(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        th = np.clip(t[..., 0], *self.bounds[0])
        ph = np.mod(t[..., 1], 2 * np.pi)
        return np.stack([th, ph], axis=-1)


class _PlanarChart(Chart):
    """d=3 flat rectangular facet: origin + t0 e0 + t1 e1."""

    param_dim = 2

    def __init__(self, origin, e0, e1, extents, normal):
        super().__init__(np.array([[0.0, extents[0]], [0.0, extents[1]]]))
        self.origin = np.asarray(origin, dtype=float)
        self.e0 = np.asarray(e0, dtype=float)
        self.e1 = np.asarray(e1, dtype=float)
        self._normal = np.asarray(normal, dtype=float)

    def point(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        return self.origin + t[..., :1] * self.e0 + t[..., 1:2] * self.e1

    def normal(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        return np.broadcast_to(self._normal, t.shape[:-1] + (3,)).copy()

    def seeds(self, k):
        g = max(int(np.sqrt(k)), 2)
        s0 = np.linspace(0.0, self.bounds[0, 1], g)
        s1 = np.linspace(0.0, self.bounds[1, 1], g)
        A, B = np.meshgrid(s0, s1, indexing="ij")
        return np.c_[A.ravel(), B.ravel()]

    def clamp(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        a = np.clip(t[..., 0], *self.bounds[0])
        b = np.clip(t[..., 1], *self.bounds[1])
        return np.stack([a, b], axis=-1)


def fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n)
    ga = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.c_[r * np.cos(ga * k), r * np.sin(ga * k), z]


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

    def boundary_cloud(self, k: int = 2048) -> tuple[np.ndarray, np.ndarray]:
        """Dense (points, H^n weights) over the top boundary stratum."""
        strata = self.boundary_strata(n=k, seed=0)
        top = [s for s in strata if s.index == self.dim - 1]
        pts = np.concatenate([s.points for s in top])
        wts = np.concatenate([s.weights for s in top])
        return pts, wts

    def charts(self) -> list[Chart]:
        raise NotImplementedError

    @property
    def chart_solvers(self) -> dict:
        """Nearest-point solvers over ``charts()`` by norm key, filled by projection."""
        return self.__dict__.setdefault("_chart_solvers", {})

    def corner_points(self) -> np.ndarray:
        """0-dimensional boundary features (candidate feet for projections)."""
        return np.empty((0, self.dim))

    def boundary_fiber_at(self, a, tol: float = 1e-7) -> Fiber:
        """Exact normal fiber at a boundary point of a catalog primitive."""
        raise NotImplementedError

    # -------- fast paths --------------------------------------------------
    def exact_projection(self, norm: Norm, x) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(feet, deltas) under `norm` when a closed form exists, else None.

        Interior points are their own feet, at distance 0.
        """
        return None

    def exact_distance(self, norm: Norm, x) -> Optional[np.ndarray]:
        res = self.exact_projection(norm, x)
        return None if res is None else res[1]

    def complement(self) -> "Shape":
        raise EmptyInteriorError(f"{self.name} has no complement view")

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


def _smooth_strata(chart_specs, n, seed, dim):
    """Uniform-parameter midpoint sampling of smooth 1d charts (d=2).

    The (chart, length) pairs split the n samples in proportion to length.
    """
    rng = np.random.default_rng(seed)
    strata = []
    total_len = sum(length for _, length in chart_specs)
    pts_all, wts_all, fibers = [], [], []
    for chart, length in chart_specs:
        m = max(int(round(n * length / total_len)), 8)
        lo, hi = chart.bounds[0]
        step = (hi - lo) / m
        phase = rng.uniform(0.0, 1.0) * step
        t = lo + phase + step * np.arange(m)
        p = chart.point(t)
        speed = np.linalg.norm(chart.dpoint(t), axis=-1)
        u = chart.normal(t)
        pts_all.append(p)
        wts_all.append(speed * step)
        fibers.extend(FiberVector(ui) for ui in u)
    strata.append(
        Stratum(dim - 1, np.concatenate(pts_all), np.concatenate(wts_all), fibers)
    )
    return strata


# ======================================================================
# concrete shapes
# ======================================================================


class WulffBody(Shape):
    """Scaled copy of the dual unit body of a norm: {phi_*(x - c) <= rho}.

    The boundary is parametrized over the unit sphere.  Under a quadratic
    norm (euclidean, ellipsoidal) the body is the linear image
    c + rho A S^{d-1} with A A' = Q, whose outward normal at A u is parallel
    to A^{-T} u, so charts, strata and the volume are closed form, and so is
    the projection under every quadratic norm, its own or another.  Other
    norms use the normal parametrization c + rho grad phi(u), whose outward
    normal is u itself, and have a closed-form projection under their own
    norm only.
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
            nu = np.array([f.u for f in s.fibers])
            flux = np.sum(s.weights * row_dot(s.points - self.center, nu))
            self._volume_cache = float(flux) / self.dim
        return self._volume_cache

    def charts(self):
        if self.dim == 3:
            return [SphereChart(self._point, self._normal)]

        def circle(t):
            return np.stack([np.cos(t), np.sin(t)], axis=-1)

        if self._A is None:

            def pt(t):
                return self._point(circle(t))

            def dp(t):
                return self._dpoint(circle(t), np.stack([-np.sin(t), np.cos(t)], axis=-1))

        else:
            # c + rho A (cos t, sin t) for the lower triangular A, written out
            # in place: the chart solver calls these in its inner loop on up
            # to ~1e5 rows, where a 2x2 product over stacked rows and fresh
            # temporaries cost more; axis-aligned bodies (every Ball and
            # Ellipsoid) have m10 == 0
            (m00, _), (m10, m11) = self.radius * self._A
            c = self.center

            def pt(t):
                x, y = np.cos(t), np.sin(t)
                y *= m11
                if m10:
                    y += m10 * x
                x *= m00
                p = np.stack([x, y], axis=-1)
                p += c
                return p

            def dp(t):
                dx, dy = np.sin(t), np.cos(t)
                dy *= m11
                if m10:
                    dy -= m10 * dx
                dx *= -m00
                return np.stack([dx, dy], axis=-1)

        return [
            _FuncChart(
                (0.0, 2 * np.pi), pt, dp, lambda t: self._normal(circle(t)), periodic=True
            )
        ]

    def boundary_strata(self, n=512, seed=0):
        if self.dim == 2:
            # one chart takes all n samples, whatever its length
            return _smooth_strata([(self.charts()[0], 1.0)], n, seed, self.dim)
        from .norms import tangent_basis

        u = fibonacci_sphere(n)
        T = tangent_basis(u)
        dA = np.cross(self._dpoint(u, T[:, 0]), self._dpoint(u, T[:, 1]))
        w = np.linalg.norm(dA, axis=-1) * (4 * np.pi / n)
        return [Stratum(2, self._point(u), w, [FiberVector(v) for v in self._normal(u)])]

    def boundary_fiber_at(self, a, tol=1e-7):
        v = np.asarray(a, dtype=float) - self.center
        return FiberVector(self.norm.gauss_map(v))

    def exact_projection(self, norm, x):
        if norm.key != self.norm.key:
            if self._A is None or norm.dual_transform is None:
                return None
            return self._quadratic_projection(norm, x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
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
        F(t) = sum s^2 z^2 / (t + s^2)^2 = 1 (Eberly, "Distance from a point
        to an ellipse, an ellipsoid, or a hyperellipsoid", 2013).  F is convex
        and decreasing, so Newton from a lower bound of the root rises to it
        monotonically.  Interior points are their own feet, at distance 0.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        L = norm.dual_transform
        U, s, _ = np.linalg.svd(self.radius * (L @ self._A))
        s2 = s * s
        z = (x - self.center) @ (L.T @ U)
        zs = z / s
        out = np.flatnonzero(np.einsum("nd,nd->n", zs, zs) > 1.0)
        z = z[out]
        sz = s * z
        # the root lies in [|s z| - max s^2, |s z| - min s^2]
        t = np.maximum(np.sqrt(np.einsum("nd,nd->n", sz, sz)) - s2[0], 0.0)
        act = np.arange(len(out))
        for _ in range(100):
            ta = t[act][:, None] + s2
            r = sz[act] / ta
            f = np.einsum("nd,nd->n", r, r)
            step = (f - 1.0) / (2.0 * np.einsum("nd,nd->n", r, r / ta))
            t[act] += np.maximum(step, 0.0)
            act = act[step > 1e-15 * ta[:, -1]]
            if not len(act):
                break
        else:
            raise NonConvergenceError(f"{len(act)} ellipsoid projections did not converge")
        ts = t[:, None] + s2
        w = s2 * z / ts
        e = t[:, None] * z / ts  # z - w without the cancellation
        feet = x.copy()
        feet[out] = self.center + w @ np.linalg.solve(L, U).T
        delta = np.zeros(len(x))
        delta[out] = np.sqrt(np.einsum("nd,nd->n", e, e))
        return feet, delta

    def complement(self):
        return ComplementShape(self)


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


class ConvexPolytope(Shape):
    """Convex polygon (d=2, from vertices) or axis-aligned box (d=3)."""

    is_convex = True

    def __init__(self, vertices, name: str = "polytope"):
        v = np.asarray(vertices, dtype=float)
        self.dim = v.shape[1]
        self.name = name
        # exact fan bundles of this polytope by (norm key, n, seed), filled
        # by the curvature measures
        self.fan_bundles: dict = {}
        if self.dim == 2:
            ctr = v.mean(axis=0)
            order = np.argsort(np.arctan2(v[:, 1] - ctr[1], v[:, 0] - ctr[0]))
            self.vertices = v[order]
            self._setup_polygon()
        elif self.dim == 3:
            lo, hi = v.min(axis=0), v.max(axis=0)
            box = np.array(
                [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
            )
            ok = len(v) == 8 and all(
                np.isclose(box, vi, atol=1e-12).all(axis=1).any() for vi in v
            )
            if not ok:
                raise NotImplementedError(
                    "3d polytopes are supported as axis-aligned boxes only"
                )
            self.lo, self.hi = lo, hi
            self.vertices = box
        else:
            raise ValueError("dim must be 2 or 3")

    @classmethod
    def box(cls, lo, hi, name="box"):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.size == 2:
            verts = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        else:
            verts = [
                [x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])
            ]
        return cls(verts, name=name)

    # ---------------- 2d polygon internals ----------------
    def _setup_polygon(self):
        v = self.vertices
        nv = len(v)
        edges = v[(np.arange(nv) + 1) % nv] - v
        lengths = np.linalg.norm(edges, axis=-1)
        if (lengths < 1e-12).any():
            raise ValueError("degenerate polygon edge")
        tangents = edges / lengths[:, None]
        normals = np.c_[tangents[:, 1], -tangents[:, 0]]  # outward for ccw order
        # enforce ccw orientation
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        if area2 < 0:
            self.vertices = v = v[::-1]
            edges = v[(np.arange(nv) + 1) % nv] - v
            lengths = np.linalg.norm(edges, axis=-1)
            tangents = edges / lengths[:, None]
            normals = np.c_[tangents[:, 1], -tangents[:, 0]]
        cross = tangents[:, 0] * np.roll(tangents[:, 1], -1) - tangents[:, 1] * np.roll(
            tangents[:, 0], -1
        )
        if (cross < -1e-12).any():
            raise ValueError("vertices do not describe a convex polygon")
        self._edges, self._lengths = edges, lengths
        self._tangents, self._normals = tangents, normals

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

    def corner_points(self):
        return self.vertices.copy()

    # ---------------- strata ----------------
    def boundary_strata(self, n=512, seed=0):
        rng = np.random.default_rng(seed)
        if self.dim == 2:
            v, L = self.vertices, self._lengths
            nv = len(v)
            pts, wts, fibers = [], [], []
            for i in range(nv):
                m = max(int(round(n * L[i] / L.sum())), 4)
                # midpoint rule with seeded phase: exact total weight per edge
                s = (np.arange(m) + rng.uniform(0.2, 0.8)) / m
                pts.append(v[i] + s[:, None] * self._edges[i])
                wts.append(np.full(m, L[i] / m))
                fibers += [FiberVector(self._normals[i])] * m
            strata = [Stratum(1, np.concatenate(pts), np.concatenate(wts), fibers)]
            corner_fibers = []
            for i in range(nv):
                n_prev = self._normals[i - 1]
                n_next = self._normals[i]
                t0 = np.arctan2(n_prev[1], n_prev[0])
                t1 = np.arctan2(n_next[1], n_next[0])
                if t1 < t0:
                    t1 += 2 * np.pi
                corner_fibers.append(FiberArc(t0, t1))
            strata.append(Stratum(0, v.copy(), np.ones(nv), corner_fibers))
            return strata
        return self._box_strata(n, rng)

    def _box_strata(self, n, rng):
        lo, hi = self.lo, self.hi
        ext = hi - lo
        # facets (stratum 2)
        pts, wts, fibers = [], [], []
        areas = []
        for axis in range(3):
            a = np.prod(np.delete(ext, axis))
            areas += [a, a]
        total_area = sum(areas)
        fi = 0
        for axis in range(3):
            others = [k for k in range(3) if k != axis]
            for side, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
                m = max(int(round(n * areas[fi] / total_area)), 4)
                fi += 1
                g = max(int(np.sqrt(m)), 2)
                s1 = (np.arange(g) + rng.uniform(0.2, 0.8)) / g
                s2 = (np.arange(g) + rng.uniform(0.2, 0.8)) / g
                S1, S2 = np.meshgrid(s1, s2, indexing="ij")
                p = np.empty((g * g, 3))
                p[:, axis] = coord
                p[:, others[0]] = lo[others[0]] + S1.ravel() * ext[others[0]]
                p[:, others[1]] = lo[others[1]] + S2.ravel() * ext[others[1]]
                nrm = np.zeros(3)
                nrm[axis] = side
                pts.append(p)
                wts.append(np.full(g * g, np.prod(ext[others]) / (g * g)))
                fibers += [FiberVector(nrm)] * (g * g)
        strata = [Stratum(2, np.concatenate(pts), np.concatenate(wts), fibers)]
        # edges (stratum 1)
        e_pts, e_wts, e_fibers = [], [], []
        for axis in range(3):
            others = [k for k in range(3) if k != axis]
            for sa in (0, 1):
                for sb in (0, 1):
                    ca = (lo, hi)[sa][others[0]]
                    cb = (lo, hi)[sb][others[1]]
                    m = max(int(round(n / 24)), 4)
                    s = (np.arange(m) + rng.uniform(0.2, 0.8)) / m
                    p = np.empty((m, 3))
                    p[:, axis] = lo[axis] + s * ext[axis]
                    p[:, others[0]] = ca
                    p[:, others[1]] = cb
                    n0 = np.zeros(3)
                    n0[others[0]] = -1.0 if sa == 0 else 1.0
                    n1 = np.zeros(3)
                    n1[others[1]] = -1.0 if sb == 0 else 1.0
                    e_pts.append(p)
                    e_wts.append(np.full(m, ext[axis] / m))
                    e_fibers += [FiberEdgeArc(n0, n1)] * m
        strata.append(Stratum(1, np.concatenate(e_pts), np.concatenate(e_wts), e_fibers))
        # vertices (stratum 0)
        v_fibers = []
        for vtx in self.vertices:
            gens = []
            for axis in range(3):
                g = np.zeros(3)
                g[axis] = -1.0 if np.isclose(vtx[axis], lo[axis]) else 1.0
                gens.append(g)
            # order generators so consecutive ones are adjacent (any order of 3 works)
            v_fibers.append(FiberPatch(np.stack(gens)))
        strata.append(Stratum(0, self.vertices.copy(), np.ones(len(self.vertices)), v_fibers))
        return strata

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        if self.dim == 3:
            on_lo = np.isclose(a, self.lo, atol=tol)
            on_hi = np.isclose(a, self.hi, atol=tol)
            k = int(on_lo.sum() + on_hi.sum())
            gens = []
            for axis in range(3):
                if on_lo[axis]:
                    g = np.zeros(3)
                    g[axis] = -1.0
                    gens.append(g)
                elif on_hi[axis]:
                    g = np.zeros(3)
                    g[axis] = 1.0
                    gens.append(g)
            if k == 1:
                return FiberVector(gens[0])
            if k == 2:
                return FiberEdgeArc(gens[0], gens[1])
            return FiberPatch(np.stack(gens))
        # 2d: vertex or edge?
        for i, vtx in enumerate(self.vertices):
            if np.linalg.norm(a - vtx) <= tol:
                n_prev = self._normals[i - 1]
                n_next = self._normals[i]
                t0 = np.arctan2(n_prev[1], n_prev[0])
                t1 = np.arctan2(n_next[1], n_next[0])
                if t1 < t0:
                    t1 += 2 * np.pi
                return FiberArc(t0, t1)
        for i in range(len(self.vertices)):
            rel = a - self.vertices[i]
            t = rel @ self._tangents[i]
            if -tol <= t <= self._lengths[i] + tol:
                if abs(rel @ self._normals[i]) <= tol:
                    return FiberVector(self._normals[i])
        raise ValueError("point is not on the boundary")

    def charts(self):
        if self.dim == 3:
            lo, hi, ext = self.lo, self.hi, self.hi - self.lo
            out = []
            for axis in range(3):
                o1, o2 = [k for k in range(3) if k != axis]
                e0 = np.eye(3)[o1]
                e1 = np.eye(3)[o2]
                for side, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
                    origin = lo.copy()
                    origin[axis] = coord
                    nrm = np.zeros(3)
                    nrm[axis] = side
                    out.append(_PlanarChart(origin, e0, e1, (ext[o1], ext[o2]), nrm))
            return out
        out = []
        for i in range(len(self.vertices)):
            v0 = self.vertices[i]
            e = self._edges[i]
            nrm = self._normals[i]
            out.append(
                _FuncChart(
                    (0.0, 1.0),
                    lambda t, v0=v0, e=e: v0 + np.asarray(t)[..., None] * e,
                    lambda t, e=e: np.broadcast_to(e, np.shape(t) + (2,)).copy(),
                    lambda t, nrm=nrm: np.broadcast_to(nrm, np.shape(t) + (2,)).copy(),
                )
            )
        return out

    def exact_projection(self, norm, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.dim == 3:
            if norm.kind == "euclidean":
                feet = np.clip(x, self.lo, self.hi)
                return feet, np.linalg.norm(x - feet, axis=-1)
            if norm.kind == "ellipsoidal" and np.allclose(
                norm.Q, np.diag(np.diag(norm.Q))
            ):
                # diagonal dual transform preserves axis boxes, so clamping
                # in original coordinates is the exact nearest point
                feet = np.clip(x, self.lo, self.hi)
                return feet, norm.conjugate(x - feet)
            return None
        if norm.kind == "euclidean":
            return self._euclid_polygon_projection(x)
        if norm.kind == "ellipsoidal" and self._is_axis_box() and np.allclose(
            norm.Q, np.diag(np.diag(norm.Q))
        ):
            lo, hi = self.bounding_box()
            feet = np.clip(x, lo, hi)
            return feet, norm.conjugate(x - feet)
        return None

    def _is_axis_box(self):
        if self.dim != 2 or len(self.vertices) != 4:
            return False
        lo, hi = self.bounding_box()
        want = {(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])}
        got = {tuple(v) for v in self.vertices}
        return want == got

    def _euclid_polygon_projection(self, x):
        v = self.vertices
        nv = len(v)
        best_d2 = np.full(len(x), np.inf)
        best_foot = np.empty_like(x)
        for i in range(nv):
            rel = x - v[i]
            t = np.clip(rel @ self._edges[i] / self._lengths[i] ** 2, 0.0, 1.0)
            foot = v[i] + t[:, None] * self._edges[i]
            d2 = ((x - foot) ** 2).sum(-1)
            better = d2 < best_d2
            best_d2[better] = d2[better]
            best_foot[better] = foot[better]
        inside = self.contains(x, tol=0.0)
        feet = np.where(inside[:, None], x, best_foot)
        return feet, np.where(inside, 0.0, np.sqrt(best_d2))

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
        self.beta = np.arcsin(eps)  # corner fan half-width

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

    def smooth_perimeter(self):
        return 4.0 * np.arccos(self.eps)

    def corner_points(self):
        return np.array([[self.half_width, 0.0], [-self.half_width, 0.0]])

    def charts(self):
        beta = self.beta
        out = []
        for c, (t0, t1) in [
            (self.centers[0], (beta, np.pi - beta)),  # upper arc
            (self.centers[1], (np.pi + beta, 2 * np.pi - beta)),  # lower arc
        ]:
            out.append(
                _FuncChart(
                    (t0, t1),
                    lambda t, c=c: c + np.stack([np.cos(t), np.sin(t)], axis=-1),
                    lambda t: np.stack([-np.sin(t), np.cos(t)], axis=-1),
                    lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
                )
            )
        return out

    def boundary_strata(self, n=512, seed=0):
        arc_len = 2.0 * np.arccos(self.eps)
        strata = _smooth_strata(
            [(ch, arc_len) for ch in self.charts()], n, seed, self.dim
        )
        corner_fibers = [
            FiberArc(-self.beta, self.beta),  # right corner
            FiberArc(np.pi - self.beta, np.pi + self.beta),  # left corner
        ]
        strata.append(Stratum(0, self.corner_points(), np.ones(2), corner_fibers))
        return strata

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        for corner, fib in zip(
            self.corner_points(),
            [FiberArc(-self.beta, self.beta), FiberArc(np.pi - self.beta, np.pi + self.beta)],
        ):
            if np.linalg.norm(a - corner) <= tol:
                return fib
        which = 0 if a[1] > 0 else 1
        v = a - self.centers[which]
        return FiberVector(v / np.linalg.norm(v))

    def exact_projection(self, norm, x):
        if norm.kind != "euclidean":
            return None
        x = np.atleast_2d(np.asarray(x, dtype=float))
        beta = self.beta
        best_d = np.full(len(x), np.inf)
        best_foot = np.empty_like(x)
        for c, (t0, t1) in [
            (self.centers[0], (beta, np.pi - beta)),
            (self.centers[1], (np.pi + beta, 2 * np.pi - beta)),
        ]:
            v = x - c
            ang = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * np.pi)
            valid = (ang >= t0) & (ang <= t1)
            r = np.linalg.norm(v, axis=-1)
            foot = c + v / np.maximum(r, 1e-300)[:, None]
            d = np.abs(r - 1.0)
            upd = valid & (d < best_d)
            best_d[upd] = d[upd]
            best_foot[upd] = foot[upd]
        for corner in self.corner_points():
            d = np.linalg.norm(x - corner, axis=-1)
            upd = d < best_d
            best_d[upd] = d[upd]
            best_foot[upd] = corner
        inside = self.contains(x, tol=0.0)
        feet = np.where(inside[:, None], x, best_foot)
        return feet, np.where(inside, 0.0, best_d)

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

    def contains(self, x, tol=MEMBERSHIP_TOL):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        hit = np.zeros(len(x), dtype=bool)
        for p, q in self.segments:
            e = q - p
            L2 = e @ e
            t = np.clip((x - p) @ e / L2, 0.0, 1.0)
            foot = p + t[:, None] * e
            hit |= np.linalg.norm(x - foot, axis=-1) <= tol
        return hit

    def bounding_box(self):
        allp = np.concatenate([[p, q] for p, q in self.segments])
        return allp.min(axis=0), allp.max(axis=0)

    @property
    def diameter(self):
        allp = np.concatenate([[p, q] for p, q in self.segments])
        d2 = ((allp[:, None, :] - allp[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def volume(self):
        return 0.0

    def total_length(self):
        return sum(float(np.linalg.norm(q - p)) for p, q in self.segments)

    def corner_points(self):
        return np.concatenate([[p, q] for p, q in self.segments])

    def charts(self):
        out = []
        for p, q in self.segments:
            e = q - p
            nrm = np.array([e[1], -e[0]]) / np.linalg.norm(e)
            out.append(
                _FuncChart(
                    (0.0, 1.0),
                    lambda t, p=p, e=e: p + np.asarray(t)[..., None] * e,
                    lambda t, e=e: np.broadcast_to(e, np.shape(t) + (2,)).copy(),
                    lambda t, nrm=nrm: np.broadcast_to(nrm, np.shape(t) + (2,)).copy(),
                )
            )
        return out

    def boundary_strata(self, n=512, seed=0):
        rng = np.random.default_rng(seed)
        total = self.total_length()
        pts, wts, fibers = [], [], []
        for p, q in self.segments:
            L = float(np.linalg.norm(q - p))
            e = (q - p) / L
            nrm = np.array([e[1], -e[0]])
            m = max(int(round(n * L / total)), 8)
            s = (np.arange(m) + rng.uniform(0.2, 0.8)) / m
            pts.append(p + (s * L)[:, None] * e)
            wts.append(np.full(m, L / m))
            fibers += [FiberPair(nrm)] * m
        strata = [Stratum(1, np.concatenate(pts), np.concatenate(wts), fibers)]
        # endpoints: half-circle fans opening away from the segment
        e_pts, e_fibers = [], []
        for p, q in self.segments:
            e = (q - p) / np.linalg.norm(q - p)
            for pt, outward in ((p, -e), (q, e)):
                t_mid = np.arctan2(outward[1], outward[0])
                e_pts.append(pt)
                e_fibers.append(FiberArc(t_mid - np.pi / 2, t_mid + np.pi / 2))
        strata.append(
            Stratum(0, np.stack(e_pts), np.ones(len(e_pts)), e_fibers)
        )
        return strata

    def boundary_fiber_at(self, a, tol=1e-7):
        a = np.asarray(a, dtype=float)
        for p, q in self.segments:
            e = (q - p) / np.linalg.norm(q - p)
            for pt, outward in ((p, -e), (q, e)):
                if np.linalg.norm(a - pt) <= tol:
                    t_mid = np.arctan2(outward[1], outward[0])
                    return FiberArc(t_mid - np.pi / 2, t_mid + np.pi / 2)
        for p, q in self.segments:
            e = q - p
            t = (a - p) @ e / (e @ e)
            foot = p + t * e
            if 0 <= t <= 1 and np.linalg.norm(a - foot) <= tol:
                nrm = np.array([e[1], -e[0]]) / np.linalg.norm(e)
                return FiberPair(nrm)
        raise ValueError("point is not on the set")

    def exact_projection(self, norm, x):
        if norm.kind != "euclidean":
            return None
        x = np.atleast_2d(np.asarray(x, dtype=float))
        best_d = np.full(len(x), np.inf)
        best_foot = np.empty_like(x)
        for p, q in self.segments:
            e = q - p
            t = np.clip((x - p) @ e / (e @ e), 0.0, 1.0)
            foot = p + t[:, None] * e
            d = np.linalg.norm(x - foot, axis=-1)
            upd = d < best_d
            best_d[upd] = d[upd]
            best_foot[upd] = foot[upd]
        return best_foot, best_d


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
        clouds = [c.boundary_cloud(k=256)[0] for c in self.components]
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

    def corner_points(self):
        pts = [c.corner_points() for c in self.components]
        return np.concatenate(pts) if pts else np.empty((0, self.dim))

    def charts(self):
        return [ch for c in self.components for ch in c.charts()]

    def boundary_strata(self, n=512, seed=0):
        merged: dict[int, list[Stratum]] = {}
        for k, comp in enumerate(self.components):
            for s in comp.boundary_strata(n=max(n // len(self.components), 32), seed=seed + k):
                merged.setdefault(s.index, []).append(s)
        out = []
        for idx, parts in sorted(merged.items(), reverse=True):
            out.append(
                Stratum(
                    idx,
                    np.concatenate([p.points for p in parts]),
                    np.concatenate([p.weights for p in parts]),
                    [f for p in parts for f in p.fibers],
                )
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
        if any(r is None for r in results):
            return None
        x = np.atleast_2d(np.asarray(x, dtype=float))
        feet = results[0][0].copy()
        delta = results[0][1].copy()
        for f, d in results[1:]:
            upd = d < delta
            delta[upd] = d[upd]
            feet[upd] = f[upd]
        return feet, delta

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

    def charts(self):
        return self.base.charts()

    def corner_points(self):
        return self.base.corner_points()

    def boundary_strata(self, n=512, seed=0):
        out = []
        for s in self.base.boundary_strata(n=n, seed=seed):
            flipped = []
            for f in s.fibers:
                if isinstance(f, FiberVector):
                    flipped.append(FiberVector(-np.asarray(f.u)))
                elif isinstance(f, FiberPair):
                    flipped.append(FiberPair(np.asarray(f.u)))
                else:
                    # corner fans of the base vanish on the complement side
                    flipped.append(None)
            keep = [i for i, f in enumerate(flipped) if f is not None]
            if keep:
                out.append(
                    Stratum(
                        s.index,
                        s.points[keep],
                        s.weights[keep],
                        [flipped[i] for i in keep],
                    )
                )
        return out

    def boundary_fiber_at(self, a, tol=1e-7):
        f = self.base.boundary_fiber_at(a, tol)
        if isinstance(f, FiberVector):
            return FiberVector(-np.asarray(f.u))
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
        # mirror of the base's Wulff-shape projection, valid for points inside
        b = self.base
        if not isinstance(b, WulffBody) or norm.key != b.norm.key:
            return None
        x = np.atleast_2d(np.asarray(x, dtype=float))
        v = x - b.center
        g = norm.conjugate(v)
        inside = g < b.radius
        w = self._radial_dirs(v)
        w = w / norm.conjugate(w)[:, None]
        feet = np.where(inside[:, None], b.center + b.radius * w, x)
        return feet, np.where(inside, b.radius - g, 0.0)


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
