"""Nearest-point projection in the dual norm, reach, and distance fields.

For a closed set A and a norm phi, the anisotropic distance of a point x is
``delta(x) = min { phi_*(x - a) : a in A }``.  Feet of the minimum, the
direction ``nu = (x - foot)/delta`` (a point of the dual unit body's
boundary), the ray reach ``sup { s : delta(a + s eta) = s }`` and a global
reach estimate are all computed here.

Everything vectorizes over batches of query points, on one of three routes:

* closed form (``Shape.exact_projection``): a ``WulffBody`` under its own
  norm (radial scaling) and a quadratic one (every ``Ball``, ``Ellipsoid``
  and euclidean or ellipsoidal ``WulffBody``) under any euclidean or
  ellipsoidal norm (a secular equation); polygons and segments under the
  Euclidean norm; axis boxes under diagonal ellipsoidal norms; ``CapLens``
  under the Euclidean norm; the complement of a ``WulffBody`` under its own
  norm; and unions whose components all have one;
* chart solver, for every other pair in ``nearest_points`` and the reach
  code: any shape but a ``WulffBody`` of its own norm under a
  ``smoothed-lp`` norm, a ``smoothed-lp`` ``WulffBody`` under any other
  norm, ``CapLens`` and polygons under ellipsoidal norms (but axis boxes
  under diagonal ones), and the other complements.  It runs multi-start
  minimization over the shape's boundary charts, golden-section
  globalization followed by a secant polish of the stationarity condition,
  so feet are accurate to near machine precision under the analytic norms;
* kd-tree boundary cloud, for the same pairs in ``distance_field`` (see
  there).

A note on uniqueness: points with several nearest feet (the cut locus) form a
Lebesgue-null set, and the bracket reported by ``global_reach`` reflects both
the sampled ray infimum and any multi-foot witnesses found by scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .norms import EuclideanNorm, Norm
from .shapes import Shape

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


@dataclass
class ReachEstimate:
    per_sample: np.ndarray
    global_reach: float
    bracket: tuple[float, float]
    is_infinite: bool


# ======================================================================
# chart solver
# ======================================================================


def _chart_minimize_1d(chart, norm, x, t0, iters_golden=24, iters_secant=18):
    """Minimize phi_*(x - p(t)) from seeds t0; vectorized over rows of x.

    Returns (t, value).  Golden-section around each seed (bracket = one seed
    spacing) followed by a secant solve of g'(t) = -grad phi_*(x-p) . p'(t).
    """
    lo, hi = chart.bounds[0]
    span = hi - lo
    # periodic point functions evaluate fine unwrapped; wrapping mid-iteration
    # would break the secant differences, so only box charts get clamped
    keep = (lambda t: t) if chart.periodic else (lambda t: np.clip(t, lo, hi))

    def val(t):
        v = x - chart.point(keep(t))
        return norm.conjugate(v)

    # bracket around the seed: one coarse-grid cell each side
    h0 = span / 64.0
    a = t0 - h0
    b = t0 + h0
    if not chart.periodic:
        a = np.clip(a, lo, hi)
        b = np.clip(b, lo, hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = val(c), val(d)
    for _ in range(iters_golden):
        take_c = fc < fd
        b = np.where(take_c, d, b)
        a = np.where(take_c, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = val(c)
        fd = val(d)
    t = np.where(fc < fd, c, d)

    # secant polish on the stationarity condition
    def slope(t):
        tc = keep(t)
        v = x - chart.point(tc)
        nv = norm.conjugate(v)
        g = np.zeros_like(t)
        ok = nv > 1e-13
        if ok.any():
            gp = norm.conjugate_grad(v[ok])
            g[ok] = -np.einsum("md,md->m", gp, chart.dpoint(tc[ok]))
        return g

    t_prev = t + 1e-7 * max(span, 1.0)
    g_prev = slope(t_prev)
    g = slope(t)
    for _ in range(iters_secant):
        denom = g - g_prev
        safe = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        step = np.where(np.abs(denom) > 1e-300, -g * (t - t_prev) / safe, 0.0)
        step = np.clip(step, -h0, h0)
        t_prev, g_prev = t, g
        t = keep(t + step)
        g = slope(t)
    t = chart.clamp(t)
    return t, val(t)


def _chart_minimize_2d(chart, norm, x, s0, iters=40):
    """d=3 charts: damped Newton on the 2d stationarity system (FD Jacobian)."""
    s = chart.clamp(s0)

    def val(si):
        return norm.conjugate(x - chart.point(si))

    def F(si):
        v = x - chart.point(si)
        nv = norm.conjugate(v)
        out = np.zeros(si.shape)
        ok = nv > 1e-13
        if ok.any():
            g = norm.conjugate_grad(v[ok])
            h = 1e-6
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                dp = (chart.point(chart.clamp(si[ok] + e)) - chart.point(chart.clamp(si[ok] - e))) / (
                    2 * h
                )
                out[ok, k] = -np.einsum("md,md->m", g, dp)
        return out

    f = F(s)
    for _ in range(iters):
        # FD Jacobian of F
        J = np.zeros(s.shape[:1] + (2, 2))
        h = 1e-5
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, :, k] = (F(chart.clamp(s + e)) - F(chart.clamp(s - e))) / (2 * h)
        J = J + 1e-10 * np.eye(2)
        try:
            step = np.linalg.solve(J, -f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = -f
        step = np.clip(step, -0.3, 0.3)
        v0 = val(s)
        s_new = chart.clamp(s + step)
        worse = val(s_new) > v0
        tries = 0
        while worse.any() and tries < 15:
            step[worse] *= 0.5
            s_new[worse] = chart.clamp(s[worse] + step[worse])
            worse = val(s_new) > v0
            tries += 1
        s = s_new
        f = F(s)
        if (np.abs(f) < 1e-12).all():
            break
    return s, val(s)


class _ChartSolver:
    """Multi-start nearest-boundary-point search over a shape's charts."""

    def __init__(self, shape: Shape, norm: Norm, k_seed: int = 8, grid: int = 64):
        self.norm = norm
        self.k_seed = k_seed
        self.charts = shape.charts()
        if not self.charts:
            raise NotImplementedError(f"{shape.name} exposes no boundary charts")
        self.corners = shape.corner_points()
        self._seed_pts = []
        self._seed_params = []
        for ch in self.charts:
            t = ch.seeds(grid if ch.param_dim == 1 else 4 * grid)
            self._seed_params.append(t)
            self._seed_pts.append(ch.point(t))

    def feet_batch(self, x: np.ndarray, want_all: bool = False):
        """(feet, delta) per row of x; with want_all also every candidate."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m = len(x)
        cand_feet = []
        cand_vals = []
        for ci, ch in enumerate(self.charts):
            seeds = self._seed_params[ci]
            pts = self._seed_pts[ci]
            v = x[:, None, :] - pts[None, :, :]
            vals = self.norm.conjugate(v)
            k = min(self.k_seed, len(seeds))
            order = np.argpartition(vals, k - 1, axis=1)[:, :k]
            if ch.param_dim == 1:
                t0 = seeds[order]  # (m, k)
                xs = np.repeat(x, k, axis=0)
                t, fv = _chart_minimize_1d(ch, self.norm, xs, t0.reshape(-1))
                feet = ch.point(t)
            else:
                s0 = seeds[order.reshape(-1)]
                xs = np.repeat(x, k, axis=0)
                s, fv = _chart_minimize_2d(ch, self.norm, xs, s0)
                feet = ch.point(s)
            cand_feet.append(feet.reshape(m, k, -1))
            cand_vals.append(fv.reshape(m, k))
        if len(self.corners):
            vc = x[:, None, :] - self.corners[None, :, :]
            cand_feet.append(np.broadcast_to(self.corners, (m,) + self.corners.shape).copy())
            cand_vals.append(self.norm.conjugate(vc))
        feet = np.concatenate(cand_feet, axis=1)
        vals = np.concatenate(cand_vals, axis=1)
        best = np.argmin(vals, axis=1)
        idx = np.arange(m)
        if want_all:
            return feet[idx, best], vals[idx, best], feet, vals
        return feet[idx, best], vals[idx, best]


def _solver(shape, norm) -> _ChartSolver:
    # memo on the shape itself, so it dies with the shape it describes
    solver = shape.chart_solvers.get(norm.key)
    if solver is None:
        # threads racing here build the same solver; all get the first
        solver = shape.chart_solvers.setdefault(norm.key, _ChartSolver(shape, norm))
    return solver


# ======================================================================
# public projection API
# ======================================================================


def nearest_points(shape: Shape, norm: Norm, x) -> tuple[np.ndarray, np.ndarray]:
    """Feet and distances for a batch of query points (interior -> itself)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    res = shape.exact_projection(norm, x)
    if res is not None:
        return res
    feet, delta = _solver(shape, norm).feet_batch(x)
    inside = shape.contains(x, tol=0.0)
    if inside.any():
        feet = np.where(inside[:, None], x, feet)
        delta = np.where(inside, 0.0, delta)
    return feet, delta


def set_distance(shape: Shape, norm: Norm, x) -> np.ndarray:
    """delta only (same routing as nearest_points)."""
    return nearest_points(shape, norm, x)[1]


def grad_delta(shape: Shape, norm: Norm, x) -> np.ndarray:
    """Gradient of the distance at exterior points: grad phi_*(x - foot)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    feet, delta = nearest_points(shape, norm, x)
    if (delta <= 0).any():
        raise ValueError("grad_delta is defined at exterior points only")
    return norm.conjugate_grad(x - feet)


def project(shape: Shape, norm: Norm, x) -> ProjectionResult:
    """Full projection record for a single point, with multiplicity analysis."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("project takes a single point; use nearest_points for batches")
    if bool(np.atleast_1d(shape.contains(x[None, :], tol=0.0))[0]):
        return ProjectionResult(0.0, x.copy(), None, "unique", x[None, :].copy(), 0.0)

    # gather candidates from the generic solver (even when an exact path
    # exists: multiplicity needs every near-optimal foot)
    try:
        foot_g, val_g, feet_all, vals_all = _solver(shape, norm).feet_batch(
            x[None, :], want_all=True
        )
        feet_all, vals_all = feet_all[0], vals_all[0]
        delta = float(val_g[0])
        foot = foot_g[0]
    except NotImplementedError:
        feet_all = vals_all = None
        foot = delta = None

    res = shape.exact_projection(norm, x[None, :])
    if res is not None:
        f_exact, d_exact = res[0][0], float(res[1][0])
        if delta is None or d_exact <= delta + 1e-12:
            foot, delta = f_exact, d_exact
        if feet_all is None:
            feet_all = f_exact[None, :]
            vals_all = np.array([d_exact])
        else:
            feet_all = np.concatenate([feet_all, f_exact[None, :]])
            vals_all = np.concatenate([vals_all, [d_exact]])

    tol_eq = TOL_EQ_REL * (1.0 + delta)
    near = vals_all <= delta + tol_eq
    feet_near = feet_all[near]
    # dedupe by separation
    sep = TOL_MULTI_REL * shape.diameter
    distinct = []
    for f in feet_near:
        if not any(np.linalg.norm(f - g) <= sep for g in distinct):
            distinct.append(f)
    distinct = np.stack(distinct) if distinct else foot[None, :]
    multiplicity = "multiple" if len(distinct) > 1 else "unique"
    residual = abs(float(norm.conjugate(x - foot)) - delta)
    if residual > TOL_FOOT_RESIDUAL * (1.0 + delta):
        multiplicity = "unresolved"
    nu = (x - foot) / delta if delta > 0 else None
    return ProjectionResult(delta, foot, nu, multiplicity, distinct, residual)


# ======================================================================
# distance fields (vectorized, voxel-grid scale)
# ======================================================================


def distance_field(
    shape: Shape, norm: Norm, points: np.ndarray, cloud: int = 4096
) -> np.ndarray:
    """delta over a large batch of points, built for voxel grids.

    Uses the shape's closed form when it has one (see the module docstring;
    that includes every quadratic ``WulffBody`` under any euclidean or
    ellipsoidal norm), which gives interior points 0 itself.  Otherwise
    nearest-neighbor queries against a dense boundary cloud: a kd-tree in
    coordinates where the dual norm is Euclidean for euclidean and ellipsoidal
    norms, an explicit minimum over the cloud for the others, each with a
    chord-sag error ~(P/cloud)^2, and interior points are set to 0.
    """
    points = np.asarray(points, dtype=float)
    d = shape.exact_distance(norm, points)
    if d is None:
        cpts, _ = shape.boundary_cloud(k=cloud)
        L = norm.dual_transform
        if L is not None:
            tree = cKDTree(cpts @ L.T)
            d, _ = tree.query(points @ L.T, workers=-1)
        else:
            # generic norm: chunked explicit minimum over the cloud
            d = np.empty(len(points))
            step = max(1, 2_000_000 // max(len(cpts), 1))
            for i in range(0, len(points), step):
                v = points[i : i + step, None, :] - cpts[None, :, :]
                d[i : i + step] = norm.conjugate(v).min(axis=1)
        d = np.asarray(d)
        inside = shape.contains(points)
        d[inside] = 0.0
    return d


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

    Vectorized over rows.  Returns +inf where the predicate still holds at
    s_max (default 10 x bounding-box diameter).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    lo, hi = shape.bounding_box()
    if s_max is None:
        s_max = 10.0 * float(np.linalg.norm(hi - lo))

    def holds(s):
        pts = a + s[:, None] * eta
        d = set_distance(shape, norm, pts)
        return d >= s - tol_pred * (1.0 + s)

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

    top = np.full(len(a), s_max)
    at_max = holds(top)
    r = np.where(at_max, np.inf, np.nan)
    active = ~at_max
    lo_s = np.zeros(len(a))
    hi_s = np.full(len(a), s_max)
    for _ in range(60):
        if not active.any():
            break
        mid = 0.5 * (lo_s + hi_s)
        h = np.zeros(len(a), dtype=bool)
        pts = a[active] + mid[active, None] * eta[active]
        d = set_distance(shape, norm, pts)
        h[active] = d >= mid[active] - tol_pred * (1.0 + mid[active])
        lo_s[active & h] = mid[active & h]
        hi_s[active & ~h] = mid[active & ~h]
    r[~at_max] = 0.5 * (lo_s + hi_s)[~at_max]
    return r


def global_reach(
    shape: Shape,
    norm: Norm,
    n_samples: int = 1024,
    n_scan: int = 10_000,
    seed: int = 0,
    fiber_nodes: int = 8,
) -> ReachEstimate:
    """Infimum of ray reach over a sampled normal bundle + a cut-locus scan.

    The result is an upper estimate; the bracket widens it downward by a
    second-order term in the boundary sample spacing, since the true infimum
    can fall between sampled rays but the reach varies smoothly there.
    """
    if shape.is_convex:
        return ReachEstimate(np.array([np.inf]), np.inf, (np.inf, np.inf), True)

    rays_a, rays_eta = [], []
    spacing = 0.0
    for s in shape.boundary_strata(n=n_samples, seed=seed):
        if len(s.points) > 1:
            spacing = max(spacing, float(np.median(s.weights)))
        for p, f in zip(s.points, s.fibers):
            u, _ = f.nodes(fiber_nodes)
            for ui in u:
                rays_a.append(p)
                rays_eta.append(norm.grad(ui))
    rays_a = np.stack(rays_a)
    rays_eta = np.stack(rays_eta)
    per_sample = reach_along(shape, norm, rays_a, rays_eta, validate=False)
    g = float(per_sample.min())

    # Monte-Carlo scan for multi-foot points: any hit caps the reach from above
    rng = np.random.default_rng(seed + 1)
    lo, hi = shape.bounding_box()
    pad = 0.25 * np.linalg.norm(hi - lo)
    pts = rng.uniform(lo - pad, hi + pad, size=(n_scan, shape.dim))
    pts = pts[~shape.contains(pts)]
    cap = np.inf
    if len(pts):
        cap = _multi_foot_cap(shape, norm, pts)
    g2 = min(g, cap)
    slack = 2.0 * spacing**2 / max(g2, 1e-12)
    bracket = (max(g2 - slack, 0.0), g2)
    return ReachEstimate(per_sample, g2, bracket, not np.isfinite(g2))


def _multi_foot_cap(shape, norm, pts):
    """Smallest distance among scanned points with >= 2 distinct feet."""
    from .shapes import DisjointUnion

    sep = TOL_MULTI_REL * shape.diameter
    if isinstance(shape, DisjointUnion):
        per = []
        for c in shape.components:
            per.append(nearest_points(c, norm, pts))
        deltas = np.stack([p[1] for p in per])  # (k, N)
        feet = np.stack([p[0] for p in per])  # (k, N, d)
        dmin = deltas.min(axis=0)
        tol = TOL_EQ_REL * (1.0 + dmin)
        multi = np.zeros(len(pts), dtype=bool)
        for i in range(len(per)):
            for j in range(i + 1, len(per)):
                both = (np.abs(deltas[i] - dmin) <= tol) & (np.abs(deltas[j] - dmin) <= tol)
                apart = np.linalg.norm(feet[i] - feet[j], axis=-1) > sep
                multi |= both & apart
        return float(dmin[multi].min()) if multi.any() else np.inf
    try:
        foot, val, feet_all, vals_all = _solver(shape, norm).feet_batch(pts, want_all=True)
    except NotImplementedError:
        return np.inf
    tol = TOL_EQ_REL * (1.0 + val)
    near = vals_all <= val[:, None] + tol[:, None]
    cap = np.inf
    for i in range(len(pts)):
        f = feet_all[i][near[i]]
        if len(f) > 1:
            spread = np.linalg.norm(f - f[0], axis=-1).max()
            if spread > sep:
                cap = min(cap, float(val[i]))
    return cap


# ======================================================================
# boundary-point classification
# ======================================================================


@dataclass
class BoundaryClass:
    kind: str  # 'alexandrov' | 'viscosity' | 'non-viscosity'
    fiber: object
    normal: Optional[np.ndarray] = None
    h_spectrum: Optional[np.ndarray] = None


def classify_boundary_point(shape: Shape, norm: Norm, a) -> BoundaryClass:
    """Exact classification for catalog primitives.

    A point is a viscosity point when the Euclidean normal is unique; it is
    an Alexandrov point when additionally the boundary is twice differentiable
    there, in which case the anisotropic shape-operator spectrum is attached.
    """
    from .shapes import FiberVector
    from .curvature import eig_small, pointwise_shape_operator

    a = np.asarray(a, dtype=float)
    fiber = shape.boundary_fiber_at(a)
    if not isinstance(fiber, FiberVector):
        return BoundaryClass("non-viscosity", fiber)
    u = np.asarray(fiber.u, dtype=float)
    try:
        M, _, _ = pointwise_shape_operator(shape, norm, a)
        spectrum = np.sort(eig_small(M[None, :, :])[0][0])
        return BoundaryClass("alexandrov", fiber, u, spectrum)
    except (ValueError, NotImplementedError):
        return BoundaryClass("viscosity", fiber, u)
