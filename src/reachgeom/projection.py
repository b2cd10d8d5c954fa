"""Nearest-point projection in the dual norm, reach, and distance fields.

For a closed set A and a norm phi, the anisotropic distance of a point x is
``delta(x) = min { phi_*(x - a) : a in A }``.  Feet of the minimum, the
direction ``nu = (x - foot)/delta`` (a point of the dual unit body's
boundary), the ray reach ``sup { s : delta(a + s eta) = s }`` and a global
reach estimate are all computed here.

Everything vectorizes over batches of query points, on one of two routes:

* closed form (``Shape.exact_projection``): a ``WulffBody`` under its own
  norm (radial scaling) and a quadratic one (every ``Ball``, ``Ellipsoid``
  and euclidean or ellipsoidal ``WulffBody``) under any euclidean or
  ellipsoidal norm (a secular equation); polygons and segment unions under
  every euclidean or ellipsoidal norm (a Euclidean projection onto their
  image under the norm's ``dual_transform``); axis boxes, 2d and 3d, under
  the diagonal ones (a clamp); ``CapLens`` under every euclidean or
  ellipsoidal norm (its two disks' feet, or a corner); the complement of a
  ``WulffBody`` under its own norm; and unions whose components all have
  one;
* chart solver, for every other pair: any shape but a ``WulffBody`` of its
  own norm under a ``smoothed-lp`` norm, a ``smoothed-lp`` ``WulffBody``
  under any other norm, 3d boxes under non-diagonal quadratic norms, and
  the other complements.  It polishes each chart's nearest seeds by damped
  Newton on the stationarity condition (``_chart_minimize``), so feet are
  accurate to near machine precision on 1d charts and to ~1e-11 on 2d ones.

Curvature probes, points a + r eta + O(h) next to a bundle point (a, eta)
with r below the ray reach, skip the multi-start search: their feet lie in a
Lipschitz neighbourhood of a, so ``_probe_feet`` polishes once per chart from
the seed nearest a and hands to ``nearest_points`` only the rows whose foot
leaves that neighbourhood.

Reach takes one of two routes:

* a ``DisjointUnion`` of convex components: ``reach_along`` is exact, by
  Newton on each component's slack of the distance predicate
  (``_union_reach``); when the components are all ``WulffBody``s,
  ``global_reach`` is half their least pairwise phi_* gap, with certified
  bounds (``shapes._gap_bounds``);
* complements, ``SegmentUnion``s and unions with a non-convex component:
  ``reach_along`` brackets each ray to the tolerance of the predicate
  (``_bracket_reach``).  These, and unions with a convex component that is
  no ``WulffBody``, keep ``global_reach``'s Monte-Carlo multi-foot scan,
  which reads ties between a union's components or a segment union's
  segments, and the chart solver's candidates on a complement.

Memos on the shape, each keyed by ``Norm.key`` and the arguments the value
depends on: ``chart_solvers`` (norm key), ``ray_reaches`` (``reach_along``:
norm key, s_max, tol_pred and the bytes of the whole ray batch (a, eta)) and
``reach_estimates`` (``global_reach``: (norm key, n_samples, n_scan, seed,
fiber_nodes)).  Ray reaches and estimates are shared, so the reach arrays
are read-only and estimates frozen.

A note on uniqueness: points with several nearest feet (the cut locus) form a
Lebesgue-null set.  Off the gap route, the bracket reported by
``global_reach`` reflects both the sampled ray infimum and any multi-foot
witnesses found by scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .norms import Norm, _newton_rows, _solve_rows, row_dot
from .shapes import DisjointUnion, SegmentUnion, Shape, WulffBody, _gap_bounds
from .shapes import fiber_nodes as fiber_quadrature

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
SEED_GRID = 64  # seeds per 1d chart, 4x that per 2d chart
SEEDS_PER_CHART = 8  # nearest seeds polished per chart and query point
_CHART_CHUNK = 256  # rows per seed search of _ChartSolver.feet_batch
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

    per_sample: np.ndarray
    global_reach: float
    bracket: tuple[float, float]
    is_infinite: bool

    def __post_init__(self):
        self.per_sample.setflags(write=False)


# ======================================================================
# chart solver
# ======================================================================


def _chart_minimize(chart, norm, x, s0, iters=40):
    """Damped Newton on the stationarity system F(s) = 0 of a k-d chart.

    F(s) = -Dp(s)^T grad phi_*(x - p(s)) is the gradient of phi_*(x - p(s))
    in the chart parameters, Dp from ``chart.dpoint``, and its Jacobian a
    central difference of F.  ``_newton_rows`` runs on the chart's box
    (``chart.clamp`` retracts), lowering phi_*(x - p(s)): 40 iterations, 15
    halvings, done at |F|inf <= 1e-14 on 1d charts, whose closed-form Dp
    makes F exact to rounding, and at 1e-12 on 2d ones (F good to ~1e-11).
    Returns (s, value), s shaped as the chart takes it: (N,) for 1d charts.
    """
    k = chart.param_dim
    # 1-d charts take their parameters flat
    flat = (lambda s: s[:, 0]) if k == 1 else (lambda s: s)

    def value_and_F(si, rows):
        v = x[rows] - chart.point(flat(si))
        nv = np.zeros(len(si))
        out = np.zeros(si.shape)
        ok = row_dot(v, v) > 1e-26
        if ok.any():
            # one support solve: phi_* is 1-homogeneous, phi_*(v) = v . grad phi_*(v)
            g = norm.conjugate_grad(v[ok])
            nv[ok] = np.einsum("md,md->m", g, v[ok])
            dp = chart.dpoint(flat(si[ok])).reshape(len(g), k, -1)
            for j in range(k):
                out[ok, j] = -np.einsum("md,md->m", g, dp[:, j])
        return nv, out

    def probe(si, rows):
        nv, f = value_and_F(si, rows)
        return nv, np.abs(f).max(axis=1)

    def step(si, rows):
        def F(t):
            return value_and_F(t, rows)[1]

        f = F(si)
        # FD Jacobian of F
        h = 1e-5
        J = np.stack(
            [(F(chart.clamp(si + e)) - F(chart.clamp(si - e))) / (2 * h) for e in h * np.eye(k)],
            axis=-1,
        )
        J = J + 1e-10 * np.eye(k)
        delta = _solve_rows(J, -f)
        # F is the value's gradient, so where J is indefinite Newton can
        # climb; there step with |J| (eigenvalues by modulus) instead
        uphill = np.einsum("mk,mk->m", delta, f) > 0
        if uphill.any():
            lam, V = np.linalg.eigh(J[uphill])
            coef = np.einsum("mki,mk->mi", V, f[uphill]) / np.maximum(np.abs(lam), 1e-12)
            delta[uphill] = -np.einsum("mki,mi->mk", V, coef)
        # shorten, don't clip: clipping one component can turn a descent
        # direction uphill, and the line search then stalls
        delta *= np.minimum(1.0, 0.3 / np.maximum(np.abs(delta).max(axis=1), 1e-300))[:, None]
        return delta

    tol = 1e-14 if k == 1 else 1e-12
    s0 = np.reshape(s0, (len(s0), k))
    s, value, _ = _newton_rows(chart.clamp(s0), probe, step, chart.clamp, iters, tol, 15)
    return flat(s), value


class _ChartSolver:
    """Multi-start nearest-boundary-point search over a shape's charts."""

    def __init__(self, shape: Shape, norm: Norm):
        self.norm = norm
        self.charts = shape.charts()
        if not self.charts:
            raise NotImplementedError(f"{shape.name} exposes no boundary charts")
        self.corners = shape.corner_points()
        self._seed_pts = []
        self._seed_params = []
        for ch in self.charts:
            t = ch.seeds(SEED_GRID if ch.param_dim == 1 else 4 * SEED_GRID)
            self._seed_params.append(t)
            self._seed_pts.append(ch.point(t))

    def feet_batch(self, x: np.ndarray, want_all: bool = False):
        """(feet, delta) per row of x; with want_all also every candidate.

        Rows go in chunks of ``_CHART_CHUNK``: the seed search holds phi_* of
        every seed for every row, ~265 KB a row under a smoothed-lp norm.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        chunks = []
        for i in range(0, max(len(x), 1), _CHART_CHUNK):
            xi = x[i : i + _CHART_CHUNK]
            seeds = []
            for params, pts in zip(self._seed_params, self._seed_pts):
                vals = self.norm.conjugate(xi[:, None, :] - pts[None, :, :])
                k = min(SEEDS_PER_CHART, len(params))
                seeds.append(np.argpartition(vals, k - 1, axis=1)[:, :k])
            chunks.append(self.candidates(xi, seeds))
        feet, vals = (np.concatenate(part) for part in zip(*chunks))
        best = np.argmin(vals, axis=1)
        idx = np.arange(len(x))
        if want_all:
            return feet[idx, best], vals[idx, best], feet, vals
        return feet[idx, best], vals[idx, best]

    def candidates(self, x: np.ndarray, seeds: list) -> tuple[np.ndarray, np.ndarray]:
        """Polished feet (m, c, d) and values (m, c), the corners last.

        ``seeds[i]`` indexes chart i's seed grid, k seeds per row of x (m, k).
        """
        m = len(x)
        cand_feet = []
        cand_vals = []
        for ch, params, order in zip(self.charts, self._seed_params, seeds):
            k = order.shape[1]
            s0 = params[order.reshape(-1)]
            t, fv = _chart_minimize(ch, self.norm, np.repeat(x, k, axis=0), s0)
            cand_feet.append(ch.point(t).reshape(m, k, x.shape[1]))
            cand_vals.append(fv.reshape(m, k))
        if len(self.corners):
            vc = x[:, None, :] - self.corners[None, :, :]
            cand_feet.append(np.broadcast_to(self.corners, (m,) + self.corners.shape).copy())
            cand_vals.append(self.norm.conjugate(vc))
        return np.concatenate(cand_feet, axis=1), np.concatenate(cand_vals, axis=1)


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


def _probe_feet(shape, norm, x, a, r, reach, h):
    """``nearest_points`` of curvature probes: x (N, k, d) within h of a + r eta.

    a + r eta has the foot a when r is below the ray reach, and inside the
    reach the nearest-point map is Lipschitz with constant reach/(reach - r)
    in coordinates where phi_* is Euclidean (Federer 1959, Thm 4.8).  So the
    foot of each probe lies within c h reach/(reach - r) of a, c the
    norm-equivalence ratio (doubled here for safety), and one polish per
    chart from the seed nearest a finds it.  Rows whose best candidate falls
    outside that neighbourhood, or whose bound is void (r >= reach), go to
    ``nearest_points``; closed-form pairs take ``exact_projection`` as there.
    Returns feet (N, k, d) and distances (N, k); r, reach and h are (N,).
    """
    N, k, d = x.shape
    flat = x.reshape(-1, d)
    res = shape.exact_projection(norm, flat)
    if res is None:
        solver = _solver(shape, norm)
        seeds = [
            np.repeat(np.argmin((pts * pts).sum(-1) - 2.0 * a @ pts.T, axis=1), k)[:, None]
            for pts in solver._seed_pts
        ]
        cand_feet, cand_vals = solver.candidates(flat, seeds)
        best = np.argmin(cand_vals, axis=1)
        rows = np.arange(len(flat))
        feet, delta = cand_feet[rows, best], cand_vals[rows, best]
        r, reach = np.asarray(r, dtype=float), np.asarray(reach, dtype=float)
        with np.errstate(divide="ignore"):
            lip = np.where(r < reach, 1.0 / (1.0 - r / reach), np.nan)
        radius = np.repeat(2.0 * _equivalence_ratio(norm) * lip * h, k)
        moved = np.linalg.norm(feet - np.repeat(a, k, axis=0), axis=-1)
        redo = ~(moved <= radius) | shape.contains(flat, tol=0.0)
        if redo.any():
            feet[redo], delta[redo] = nearest_points(shape, norm, flat[redo])
        res = feet, delta
    return res[0].reshape(N, k, d), res[1].reshape(N, k)


def _equivalence_ratio(norm: Norm) -> float:
    """max phi / min phi over Euclidean unit vectors (the same for phi_*).

    Taken over a dense sample of directions, the surface of the cube [-1, 1]^d.
    """
    g = np.linspace(-1.0, 1.0, 65 if norm.dim == 2 else 17)
    u = np.stack(np.meshgrid(*[g] * norm.dim), axis=-1).reshape(-1, norm.dim)
    u = u[np.abs(u).max(axis=1) == 1.0]
    phi = norm.value(u) / np.linalg.norm(u, axis=1)
    return float(phi.max() / phi.min())


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

    # every near-optimal foot counts for multiplicity: the closed-form foot
    # first where there is one, then the chart candidates, corners last
    cand_feet, cand_vals, n_corners = [], [], 0
    res = shape.exact_projection(norm, x[None, :])
    if res is not None:
        cand_feet.append(res[0])
        cand_vals.append(res[1])
    try:
        solver = _solver(shape, norm)
        _, _, feet_all, vals_all = solver.feet_batch(x[None, :], want_all=True)
        cand_feet.append(feet_all[0])
        cand_vals.append(vals_all[0])
        n_corners = len(solver.corners)
    except NotImplementedError:
        pass
    feet_all, vals_all = np.concatenate(cand_feet), np.concatenate(cand_vals)
    best = int(np.argmin(vals_all))
    if res is not None and vals_all[0] <= vals_all[best] + 1e-12:
        best = 0
    foot, delta = feet_all[best], float(vals_all[best])

    sep = TOL_MULTI_REL * shape.diameter
    near, first, apart = _near_and_apart(
        feet_all[None], vals_all[None], np.array([delta]), n_corners, sep
    )
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
    """delta over a large batch of points, built for voxel grids.

    The shape's closed form where it has one (see the module docstring),
    else ``set_distance`` on the chart solver; exact either way, with
    interior points at 0.
    """
    points = np.asarray(points, dtype=float)
    res = shape.exact_projection(norm, points)
    return set_distance(shape, norm, points) if res is None else res[1]


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
    s_max (default 10 x bounding-box diameter).  With ``validate`` every row
    is checked to be a unit normal pair first (``InvalidNormalError``).

    The reach of a whole batch is memoized on the shape
    (``Shape.ray_reaches``) by (norm key, s_max, tol_pred) and the bytes of
    the float64 arrays a and eta, and returned read-only.  The key is the
    batch, not each ray, because distances differ in their last bits with the
    rows that share their batch; so a batch always gets the values bracketed
    from that same batch, whatever ran before it.

    The predicate is ``delta(a + s eta) >= s - tol_pred (1 + s)``.  On a
    union of disjoint convex pieces ``_union_reach`` finds its first failure
    exactly, by Newton on each piece.  On every other shape distances are
    only trusted to that tolerance, so a bracket [lo, hi] with lo holding
    and hi failing is narrowed until ``hi - lo <= tol_pred (1 + lo)`` and its
    midpoint returned; finer brackets would only resolve the noise of delta.
    Past the reach, delta(a + s eta) follows the foot branch that takes over
    there, smoothly, so the bracket is narrowed by a secant on the predicate's
    slack through the last two failing points outside the set (inside it
    delta is 0 on any branch), each try aimed just past the root so that it
    fails close to it, and then just below and above a root that has stopped
    moving.  A try that does not halve the bracket is followed by a bisection,
    so no ray costs more than twice the halvings.
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

    memo = shape.ray_reaches
    key = (norm.key, s_max, tol_pred, a.tobytes(), eta.tobytes())
    reach = memo.get(key)
    if reach is None:
        pieces = _convex_components(shape)
        if pieces is None:
            reach = _bracket_reach(shape, norm, a, eta, s_max, tol_pred)
        else:
            reach = _union_reach(pieces, norm, a, eta, s_max, tol_pred)
        reach.setflags(write=False)
        # threads racing here bracket the same batch; all get the first value
        reach = memo.setdefault(key, reach)
    return reach


def _convex_components(shape):
    """The components of a ``DisjointUnion`` whose components are all convex, else None."""
    if isinstance(shape, DisjointUnion) and all(c.is_convex for c in shape.components):
        return shape.components
    return None


def _union_reach(pieces, norm, a, eta, s_max, tol_pred):
    """The exact ray reach of ``reach_along`` on a union of disjoint convex pieces.

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


def _bracket_reach(shape, norm, a, eta, s_max, tol_pred):
    """The bracketing of ``reach_along`` on rays of a non-convex shape."""

    def distance(rows, s):
        return set_distance(shape, norm, a[rows] + s[:, None] * eta[rows])

    def slack(d, s):
        # >= 0 exactly where the predicate holds
        return d - s + tol_pred * (1.0 + s)

    lo_s = np.zeros(len(a))
    hi_s = np.full(len(a), s_max)
    d = distance(slice(None), hi_s)
    at_max = slack(d, hi_s) >= 0
    # the last two failing points outside the set, (s, slack), and the
    # secant root through them at the previous step
    s1, f1 = hi_s.copy(), np.where(d > 0, slack(d, hi_s), np.nan)
    s2, f2 = np.full(len(a), np.nan), np.full(len(a), np.nan)
    root_prev = np.full(len(a), np.nan)
    bisect = np.zeros(len(a), dtype=bool)
    active = ~at_max
    for _ in range(100):
        active &= hi_s - lo_s > tol_pred * (1.0 + lo_s)
        if not active.any():
            break
        idx = np.flatnonzero(active)
        lo, hi = lo_s[idx], hi_s[idx]
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = s1[idx] - f1[idx] * (s1[idx] - s2[idx]) / (f1[idx] - f2[idx])
        move = np.abs(root - root_prev[idx])
        root_prev[idx] = root
        w = 0.5 * tol_pred * (1.0 + lo)
        settled = move <= w
        s = np.where(settled, root - w, root + move)
        s = np.where(settled & ~(s > lo), root + w, s)
        s = np.where((s > lo) & (s < hi) & ~bisect[idx], s, mid)
        d = distance(idx, s)
        f = slack(d, s)
        ok = f >= 0
        lo_s[idx[ok]] = s[ok]
        hi_s[idx[~ok]] = s[~ok]
        bisect[idx] = (s != mid) & (hi_s[idx] - lo_s[idx] > 0.5 * (hi - lo))
        new = ~ok & (d > 0)
        j = idx[new]
        s2[j], f2[j] = s1[j], f1[j]
        s1[j], f1[j] = s[new], f[new]
    return np.where(at_max, np.inf, 0.5 * (lo_s + hi_s))


def _median(x: np.ndarray) -> float:
    """np.median of a finite vector, without the numpy.ma import of its NaN check."""
    x = np.sort(x)
    k = len(x) // 2
    return float(x[k] if len(x) % 2 else (x[k - 1] + x[k]) / 2)


def global_reach(
    shape: Shape,
    norm: Norm,
    n_samples: int = 1024,
    n_scan: int = 10_000,
    seed: int = 0,
    fiber_nodes: int = 8,
) -> ReachEstimate:
    """Global reach, with the ray reach of a sampled normal bundle per sample.

    On a union of disjoint ``WulffBody``s it is half the least pairwise
    phi_* gap, and the bracket holds the certified lower and upper bounds of
    that half gap.  Elsewhere it is the infimum of the sampled ray reaches
    and of the distances of multi-foot points found by a Monte-Carlo scan of
    ``n_scan`` points, an upper estimate; the bracket widens it downward by
    a second-order term in the boundary sample spacing, since the true
    infimum can fall between sampled rays but the reach varies smoothly
    there.

    Memoized on the shape (``Shape.reach_estimates``) by norm key and the
    other arguments; every caller gets the one read-only estimate.
    """
    memo = shape.reach_estimates
    key = (norm.key, n_samples, n_scan, seed, fiber_nodes)
    est = memo.get(key)
    if est is None:
        # threads racing here build the same estimate; all get the first
        est = _global_reach(shape, norm, n_samples, n_scan, seed, fiber_nodes)
        est = memo.setdefault(key, est)
    return est


def _global_reach(shape, norm, n_samples, n_scan, seed, fiber_nodes):
    if shape.is_convex:
        return ReachEstimate(np.array([np.inf]), np.inf, (np.inf, np.inf), True)

    strata = shape.boundary_strata(n=n_samples, seed=seed)
    rays_a, rays_u = [], []
    for s in strata:
        uu, _ = fiber_quadrature(s.kind, s.fibers, fiber_nodes)  # (F, q, d)
        rays_a.append(np.repeat(s.points, uu.shape[1], axis=0))
        rays_u.append(uu.reshape(-1, shape.dim))
    rays_eta = norm.grad(np.concatenate(rays_u))
    per_sample = reach_along(shape, norm, np.concatenate(rays_a), rays_eta, validate=False)

    pieces = _convex_components(shape)
    if pieces is not None and all(isinstance(c, WulffBody) for c in pieces):
        # a point with two feet lies between two pieces, at least half their
        # gap from both, and the midpoint of their nearest pair attains that
        pairs = [(p, q) for i, p in enumerate(pieces) for q in pieces[i + 1 :]]
        lower, upper = _gap_bounds(pairs, norm)
        g = 0.5 * float(upper.min())
        return ReachEstimate(per_sample, g, (0.5 * float(lower.min()), g), False)

    g = float(per_sample.min())
    spacing = 0.0
    # a union's stratum of one dimension may come in pieces of several kinds;
    # corners (dimension 0) carry weight 1 each and no spacing
    for m in {s.index for s in strata} - {0}:
        w = np.concatenate([s.weights for s in strata if s.index == m])
        if len(w) > 1:
            spacing = max(spacing, _median(w))

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
    """Smallest distance among scanned points with >= 2 distinct feet.

    A union's components and a segment union's segments each give one
    candidate foot per point, and a tie between two that lie apart is a
    second foot; other shapes read the chart solver's candidates.
    """
    sep = TOL_MULTI_REL * shape.diameter
    if isinstance(shape, DisjointUnion):
        pieces = shape.components
    elif isinstance(shape, SegmentUnion):
        pieces = [SegmentUnion([seg]) for seg in shape.segments]
    else:
        pieces = None
    if pieces is not None:
        per = [nearest_points(c, norm, pts) for c in pieces]
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
        solver = _solver(shape, norm)
    except NotImplementedError:
        return np.inf
    _, val, feet_all, vals_all = solver.feet_batch(pts, want_all=True)
    multi = _near_and_apart(feet_all, vals_all, val, len(solver.corners), sep)[2].any(axis=1)
    return float(val[multi].min()) if multi.any() else np.inf


def _near_and_apart(feet, vals, val, n_corners, sep):
    """Near-optimal candidates (m, c), the first of them (m, d), those apart from it.

    ``feet`` (m, c, d) and ``vals`` (m, c) are candidates with the shape's
    ``n_corners`` corners last, ``val`` (m,) the best value.  A candidate is
    near within ``TOL_EQ_REL`` (1 + val), and a row has several feet when a
    near one lies farther than ``sep`` from the first.  Corners never count:
    off the end of a chart the value rises only quadratically, so a corner
    can come within the tolerance of a foot a little way along the chart,
    and a genuine corner foot is reached by the chart's clamped polish too.
    """
    near = vals <= (val + TOL_EQ_REL * (1.0 + val))[:, None]
    near[:, vals.shape[1] - n_corners :] = False
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
    spectrum of ``pointwise_shape_operator`` (the bundle probe at that one
    point); any other boundary point is a non-viscosity point.  Raises
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
