"""Uniformly convex smooth norms and their polar geometry.

A norm ``phi`` here is an even, 1-homogeneous, C^2 (away from the origin)
convex function that is uniformly convex in tangential directions: for unit
``u`` and ``v`` orthogonal to ``u``, ``v . D2phi(u) v >= gamma |v|^2`` with
``gamma > 0``.  Three families are provided:

* ``EuclideanNorm`` — the standard norm, self-dual.
* ``EllipsoidalNorm`` — ``phi(x) = sqrt(x' Q x)`` for symmetric positive
  definite ``Q``; everything is closed form.
* ``SmoothedLpNorm`` — an l^p norm regularized so it stays C^2 and uniformly
  convex: ``phi(x) = (sum_i (x_i^2 + eps^2 |x|^2)^{p/2})^{1/p}``.

The polar (dual) norm ``phi_*(y) = sup { v.y : phi(v) <= 1 }`` plays gauge to
the *unit body of the dual*, written W below: W = {phi_* <= 1}.  Its boundary
is parametrized by Euclidean unit normals through the gradient map:
``grad phi(u)`` is the point of bd W whose outward Euclidean normal is
parallel to ``u``, and ``gauss_map`` inverts that parametrization.

``_support_search`` maximizes (u.x - h(u))/phi(u) over unit u for a convex
body with support function h: the signed distance of x to the body.  The
shapes pass it their bodies; on the body {0} (h_W = phi) it gives phi_*,
grad phi_* and so the Gauss map of every norm without a closed form.

All evaluation methods are vectorized: an input of shape (..., d) yields
values of shape (...), gradients of shape (..., d) and Hessians of shape
(..., d, d).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

__all__ = [
    "Norm",
    "EuclideanNorm",
    "EllipsoidalNorm",
    "SmoothedLpNorm",
    "ZeroVectorError",
    "NonConvergenceError",
    "NormParameterError",
    "tangent_basis",
    "make_norm",
    "NORM_KINDS",
]

_NORM_PARAMS = {"euclidean": (), "ellipsoidal": ("Q",), "smoothed-lp": ("p", "eps")}
NORM_KINDS = tuple(_NORM_PARAMS)

GAP_GRID = 256  # directions of the 2d support search, 8x that on the 3d Fibonacci sphere
_GRID_VALUES = 1 << 20  # grid values the support search holds at once

_GAMMA_SAMPLES = 10_000


class ZeroVectorError(ValueError):
    """Raised when a direction-dependent quantity is requested at 0."""


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to meet its tolerance."""


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcasting the leading ones.

    Each row goes through the same routine as ``np.dot`` of two 1-d vectors,
    so a batched result equals the per-row one bit for bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit length, bit for bit as ``v / np.linalg.norm(v)``."""
    return v / np.sqrt(row_dot(v, v))[..., None]


def tangent_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the line or plane orthogonal to unit vector(s) u, d = 2, 3.

    Returns an array of shape (..., d-1, d): rows are the basis vectors.
    Deterministic, and computed for the whole batch at once.  In 2d the basis
    vector is u rotated by +90 degrees.  In 3d the first row is the
    coordinate direction e_k least aligned with u (k = argmin |u_k|) with its
    u-component removed, t1 = (e_k - u u_k) / |e_k - u u_k|, and the second
    is u x t1.  Raises ValueError for any other d.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    if d == 2:
        t = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return t[..., None, :]
    if d != 3:
        raise ValueError(f"tangent_basis takes d = 2 or 3, got d = {d}")
    u2 = u.reshape(-1, d)
    rows = np.arange(len(u2))
    k = np.argmin(np.abs(u2), axis=-1)
    t1 = -u2 * u2[rows, k][:, None]
    t1[rows, k] += 1.0
    t1 = unit_rows(t1)
    out = np.stack([t1, np.cross(u2, t1)], axis=1)
    return out.reshape(u.shape[:-1] + (d - 1, d))


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"expected last axis {dim}, got shape {x.shape}")
    return x


def _solve_rows(A, b):
    """x with A x = b for each row; a row whose A is singular gets x = b."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return b.copy()
        return np.concatenate([_solve_rows(A[i : i + 1], b[i : i + 1]) for i in range(len(A))])


# relative change of a merit that counts as rounding: near a minimum the
# merit is flat to within a few ulps, and only the residual still tells
# a better point from a worse one
_FLAT = 16 * np.finfo(float).eps


def _newton_rows(x, probe, step, retract, iters, tol, halvings):
    """Damped Newton iteration on each row of x (n, k).

    ``probe(xa, rows)`` gives the merit and the residual at xa, points of
    the batch rows ``rows``; ``step(xa, rows)`` gives their Newton steps;
    ``retract`` maps a stepped point back onto the manifold (the sphere, an
    interval).  A row is done once its residual is <= tol.  Otherwise its
    step is halved until the trial point strictly lowers the merit, or
    strictly lowers the residual with the merit no higher than rounding
    (``_FLAT``) allows.  A row with no such trial after ``halvings``
    halvings has stalled and stays where it is, as does a row still running
    after ``iters`` steps; the caller judges the residuals.

    Row independence: the three functions only ever see the rows still
    running, so if they compute each row from that row alone (elementwise
    and batched linear algebra, as ``_solve_rows``), a row's answer is the
    same bit for bit whatever else shares its batch.

    Returns the final points, merits and residuals.
    """
    x = np.array(x, dtype=float)
    val, res = probe(x, np.arange(len(x)))
    rows = np.flatnonzero(~(res <= tol))
    for _ in range(iters):
        if not len(rows):
            break
        x0 = x[rows]
        delta = step(x0, rows)
        trying = np.arange(len(rows))
        stalled = np.zeros(len(rows), dtype=bool)
        for _ in range(halvings + 1):
            trial = retract(x0[trying] + delta[trying])
            # a trial retracted back onto x0 stays there at every shorter
            # step (a step out of an interval, or one below rounding)
            moved = (trial != x0[trying]).any(axis=1)
            stalled[trying[~moved]] = True
            trying, trial = trying[moved], trial[moved]
            if not len(trying):
                break
            v, r = probe(trial, rows[trying])
            v0, r0 = val[rows[trying]], res[rows[trying]]
            better = (v < v0) | ((v <= v0 + _FLAT * np.abs(v0)) & (r < r0))
            took = rows[trying[better]]
            x[took], val[took], res[took] = trial[better], v[better], r[better]
            trying = trying[~better]
            if not len(trying):
                break
            delta[trying] *= 0.5
        stalled[trying] = True
        rows = rows[~stalled & ~(res[rows] <= tol)]
    return x, val, res


def _circle(t):
    """Unit vectors (cos t, sin t), (N,) -> (N, 2)."""
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n)
    ga = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.c_[r * np.cos(ga * k), r * np.sin(ga * k), z]


@functools.lru_cache(maxsize=None)
def _search_grid(dim):
    """The support search's grid directions: ``GAP_GRID`` angles (d=2), or 8
    ``GAP_GRID`` points of the Fibonacci sphere (d=3).  Shared, so read-only.
    """
    if dim == 2:
        dirs = _circle(2.0 * np.pi / GAP_GRID * np.arange(GAP_GRID))
    else:
        dirs = fibonacci_sphere(8 * GAP_GRID)
    dirs.setflags(write=False)
    return dirs


@functools.lru_cache(maxsize=None)
def _grid_neighbours(dim):
    """Each ``_search_grid`` direction's neighbours on the grid: the two
    adjacent angles (d=2), or its 8 nearest (d=3).  Only local searches read
    them.  Shared, so read-only.
    """
    if dim == 2:
        k = np.arange(GAP_GRID)
        nbrs = np.c_[k - 1, (k + 1) % GAP_GRID]
    else:
        dirs = _search_grid(dim)
        near = [np.argsort(-(dirs[i : i + 256] @ dirs.T), axis=1)[:, 1:9]
                for i in range(0, len(dirs), 256)]
        nbrs = np.concatenate(near)
    nbrs.setflags(write=False)
    return nbrs


def _support_search(body, norm, x, local=False, shift=None, seeds=None):
    """Maximize F(u) = (u.x - h(u))/phi(u) over unit u, for each row of x (N, d).

    h is the support function of the convex ``body`` (its ``support``, with
    ``support_point`` the gradient of h and ``support_hessian`` its Hessian).
    By separation (Schneider, *Convex Bodies: The Brunn-Minkowski Theory*)
    max F is the signed distance of x: delta_K(x) outside K, and minus the
    distance to the complement inside K.  Where u attains it, the support
    point of u is the foot, on the boundary of K.  On the body {0}
    (``_ORIGIN``) max F is phi_*(x) and u/phi(u) is grad phi_*(x).  With
    ``shift`` (N, d) the gauge of row i is phi(u) + u.shift_i, which must
    stay positive; a linear term leaves the gauge's Hessian as it is.
    ``seeds`` (N, k, d) adds k unit start directions to each row's.

    F is first evaluated on ``_search_grid``, explicit values in chunks of
    rows that hold at most ``_GRID_VALUES`` of them.  The best direction of
    each row is a seed, or with ``local`` every direction no lower than its
    grid neighbours (``_grid_neighbours``): outside K F has one local maximum
    where it is positive, inside it may have several.  ``_newton_rows`` on
    the sphere then lowers -F from each seed (30 iterations, 20 halvings,
    done at |grad F| <= 1e-15 max(1, |x|) or where rounding stops it, so
    that feet are good to rounding for the finite differences of curvature
    probes; shifted, only max F is read, and 1e-10 leaves it good to
    rounding), with the tangent Hessian -(D2h + F D2phi)/phi, exact
    where grad F = 0; where that is not negative definite (F is not concave
    inside K) its eigenvalues are taken by modulus.  Steps are at most 0.25,
    or 0.04 in a local search, so that a seed stays in its own basin.
    Returns (rows, u, F, res): the row of x of each seed, ascending (then
    those of ``seeds``, row by row), its polished direction, F there and
    the final |grad F|/max(1, |x|).
    """
    if not len(x):
        return np.zeros(0, dtype=int), np.zeros((0, norm.dim)), np.zeros(0), np.zeros(0)
    dirs = _search_grid(norm.dim)
    nbrs = _grid_neighbours(norm.dim) if local else None
    rows, starts = [], []
    h, phi = body.support(dirs), norm.value(dirs)
    chunk = max(_GRID_VALUES // len(dirs), 1)

    def dots(v):
        # v . dirs (n, G), a fixed sum per value, so a row's bits do not depend on its batch
        out = v[:, :1] * dirs[:, 0]
        for k in range(1, norm.dim):
            out += v[:, k : k + 1] * dirs[:, k]
        return out

    for i in range(0, len(x), chunk):
        f = dots(x[i : i + chunk])
        f -= h
        f /= phi if shift is None else dots(shift[i : i + chunk]) + phi
        if local:
            top = f[:, nbrs[:, 0]]
            for j in range(1, nbrs.shape[1]):
                np.maximum(top, f[:, nbrs[:, j]], out=top)
            r, j = np.nonzero(f >= top)
        else:
            r, j = np.arange(len(f)), np.argmax(f, axis=1)
        rows.append(i + r)
        starts.append(dirs[j])
    if seeds is not None:
        rows.append(np.repeat(np.arange(len(x)), seeds.shape[1]))
        starts.append(seeds.reshape(-1, norm.dim))
    rows, starts = np.concatenate(rows), np.concatenate(starts)
    xr = x[rows]
    sr = None if shift is None else shift[rows]
    scale = np.maximum(1.0, np.sqrt(row_dot(xr, xr)))

    def ascent(u, idx):
        # F, the gauge at u and the tangential gradient of F
        pu, dp = norm.value(u), norm.grad(u)
        if sr is not None:
            pu, dp = pu + row_dot(u, sr[idx]), dp + sr[idx]
        f = (row_dot(u, xr[idx]) - body.support(u)) / pu
        g = (xr[idx] - body.support_point(u) - f[:, None] * dp) / pu[:, None]
        return f, pu, g - u * row_dot(g, u)[:, None]

    def probe(u, idx):
        # F is good to rounding of u.x and h, of order |x|, not of |F|: the
        # merit -F - 2 max(1, |x|) makes the flat allowance of _newton_rows
        # cover that
        f, _, g = ascent(u, idx)
        return -f - 2.0 * scale[idx], np.sqrt(row_dot(g, g)) / scale[idx]

    def step(u, idx):
        f, pu, g = ascent(u, idx)
        T = tangent_basis(u)
        H = (body.support_hessian(u) + f[:, None, None] * norm.hessian(u)) / pu[:, None, None]
        A = T @ H @ np.swapaxes(T, -1, -2)
        b = np.einsum("mkd,md->mk", T, g)
        coef = _solve_rows(A, b)
        down = ~(np.einsum("mk,mk->m", coef, b) > 0)
        if down.any():
            lam, V = np.linalg.eigh(A[down])
            w = np.einsum("mki,mk->mi", V, b[down]) / np.maximum(np.abs(lam), 1e-12)
            coef[down] = np.einsum("mki,mi->mk", V, w)
        coef *= np.minimum(1.0, cap / np.maximum(np.sqrt(row_dot(coef, coef)), 1e-300))[:, None]
        return np.einsum("mk,mkd->md", coef, T)

    cap, tol = (0.04 if local else 0.25), (1e-15 if shift is None else 1e-10)
    u, _, res = _newton_rows(starts, probe, step, unit_rows, 30, tol, 20)
    return rows, u, ascent(u, slice(None))[0], res


class _Origin:
    """The body {0}: h = 0, support point 0 and support Hessian 0."""

    def support(self, u):
        return np.zeros(u.shape[:-1])

    def support_point(self, u):
        return np.zeros(u.shape)

    def support_hessian(self, u):
        return np.zeros(u.shape + u.shape[-1:])


_ORIGIN = _Origin()


class Norm:
    """Base class; concrete norms fill in value/grad (+ optional closed forms)."""

    kind: str = "abstract"
    # L with phi_*(v) = |L v| for the quadratic norms, None for the others
    dual_transform: Optional[np.ndarray] = None
    _gamma_seed: Optional[int] = None

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = int(dim)

    @property
    def key(self) -> tuple:
        """Hashable kind and parameters: norms with equal keys are equal.

        A norm class that names no parameters matches only itself.
        """
        return (self.kind, self)

    # ------------------------------------------------------------------
    # primal norm
    # ------------------------------------------------------------------
    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # dual norm
    # ------------------------------------------------------------------
    def conjugate(self, y) -> np.ndarray:
        raise NotImplementedError

    def conjugate_grad(self, y) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # boundary-of-W parametrization by Euclidean normals
    # ------------------------------------------------------------------
    def gauss_inverse(self, u) -> np.ndarray:
        """Point of bd W whose Euclidean outward normal is u (= grad phi(u))."""
        return self.grad(u)

    def gauss_map(self, eta) -> np.ndarray:
        """Unit Euclidean normal of bd W at eta: inverts ``gauss_inverse``.

        The normal of W = {phi_* <= 1} at eta is parallel to grad phi_*(eta),
        so any nonzero eta works.  Raises NonConvergenceError where
        ``conjugate_grad`` does.
        """
        try:
            return unit_rows(self.conjugate_grad(eta))
        except NonConvergenceError as err:
            raise NonConvergenceError(f"gauss_map failed to converge: {err}") from err

    # ------------------------------------------------------------------
    def _check_nonzero(self, x):
        if not np.atleast_2d(x).any(axis=-1).all():
            raise ZeroVectorError(f"{self.kind} norm direction data at the origin")

    @functools.cached_property
    def gamma(self) -> float:
        """Min of v.D2phi(u)v over unit u and v orthogonal to u, sampled on first read
        from ``_gamma_seed`` + dim (NaN on a class without a seed)."""
        if self._gamma_seed is None:
            return float("nan")
        rng = np.random.default_rng(self._gamma_seed + self.dim)
        u = rng.standard_normal((_GAMMA_SAMPLES, self.dim))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = rng.standard_normal((_GAMMA_SAMPLES, self.dim))
        v -= u * np.einsum("md,md->m", u, v)[..., None]
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        H = self.hessian(u)
        quad = np.einsum("md,mde,me->m", v, H, v)
        return float(quad.min())

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim}, gamma={self.gamma:.4g})"


# ======================================================================
# concrete norms
# ======================================================================


class EuclideanNorm(Norm):
    kind = "euclidean"
    gamma = 1.0

    def __init__(self, dim: int):
        super().__init__(dim)
        self.dual_transform = np.eye(self.dim)

    @property
    def key(self):
        return (self.kind, self.dim)

    def value(self, x):
        x = _as_points(x, self.dim)
        return np.sqrt(row_dot(x, x))

    def grad(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def hessian(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        r = np.linalg.norm(x, axis=-1)
        u = x / r[..., None]
        # in place, bit for bit (I - uu')/r: einsum's +0.0 products only meet I's +0.0
        H = np.einsum("...i,...j->...ij", u, u)
        np.subtract(np.eye(self.dim), H, out=H)
        return np.divide(H, r[..., None, None], out=H)

    conjugate = value
    conjugate_grad = grad


class EllipsoidalNorm(Norm):
    """phi(x) = sqrt(x' Q x) with Q symmetric positive definite."""

    kind = "ellipsoidal"
    _gamma_seed = 1729

    def __init__(self, Q: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        w = np.linalg.eigvalsh(Q)
        if w.min() <= 0:
            raise ValueError("Q must be positive definite")
        super().__init__(Q.shape[0])
        self.Q = 0.5 * (Q + Q.T)
        self.Qinv = np.linalg.inv(self.Q)
        # chol(Q^{-1}) maps phi_* balls to Euclidean balls: phi_*(v) = |L v|
        self.dual_transform = np.linalg.cholesky(self.Qinv).T

    @property
    def key(self):
        return (self.kind, self.dim, self.Q.tobytes())

    def _quad(self, x, M):
        # x M by einsum, not x @ M: a process whose first BLAS matrix product
        # this would be pages in OpenBLAS's kernels and buffers (~0.15 MB)
        return np.sqrt(np.maximum(row_dot(np.einsum("...d,de->...e", x, M), x), 0.0))

    def value(self, x):
        return self._quad(_as_points(x, self.dim), self.Q)

    def grad(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        return np.einsum("de,...e->...d", self.Q, x) / self.value(x)[..., None]

    def hessian(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        val = self.value(x)[..., None, None]
        qx = np.einsum("de,...e->...d", self.Q, x)
        # in place, bit for bit (Q - qx qx'/val^2)/val; not einsum, which adds each
        # product to +0.0 and so turns Q's -0.0 - (-0.0) = +0.0 into -0.0
        H = qx[..., :, None] * qx[..., None, :]
        H /= val**2
        np.subtract(self.Q, H, out=H)
        return np.divide(H, val, out=H)

    def conjugate(self, y):
        return self._quad(_as_points(y, self.dim), self.Qinv)

    def conjugate_grad(self, y):
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        return np.einsum("de,...e->...d", self.Qinv, y) / self.conjugate(y)[..., None]


class SmoothedLpNorm(Norm):
    """Regularized l^p norm, C^2 and uniformly convex for p in (1, inf).

    phi(x) = (sum_i (x_i^2 + eps^2 |x|^2)^{p/2})^{1/p}.  eps=0 recovers the
    plain l^p norm (which loses uniform convexity on the axes for p > 2);
    the default eps keeps gamma comfortably positive.
    """

    kind = "smoothed-lp"
    _gamma_seed = 9176

    def __init__(self, dim: int, p: float, eps: float = 0.05):
        if not (1.0 < p < np.inf):
            raise ValueError("p must lie in (1, inf)")
        if eps < 0:
            raise ValueError("eps must be >= 0")
        super().__init__(dim)
        self.p = float(p)
        self.eps = float(eps)

    @property
    def key(self):
        return (self.kind, self.dim, self.p, self.eps)

    def value(self, x):
        x = _as_points(x, self.dim)
        s = np.einsum("...d,...d->...", x, x)
        t = x * x + self.eps**2 * s[..., None]
        return np.einsum("...d->...", t ** (self.p / 2.0)) ** (1.0 / self.p)

    def grad(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        s = np.einsum("...d,...d->...", x, x)
        t = x * x + self.eps**2 * s[..., None]
        tp = t ** (self.p / 2.0 - 1.0)
        S = np.einsum("...d->...", t ** (self.p / 2.0))
        return S[..., None] ** (1.0 / self.p - 1.0) * (
            tp * x + self.eps**2 * np.einsum("...d->...", tp)[..., None] * x
        )

    def hessian(self, x):
        """D2phi(x) in closed form.

        With t = x^2 + eps^2 |x|^2, S = sum t^{p/2}, T = sum t^{p/2-1} and
        q = t^{p/2-2}: grad phi = S^{1/p-1} g with g = x (t^{p/2-1} + eps^2 T),
        and D2phi = S^{1/p-1} [G + (1-p) g g'/S], where G = Dg is
        diag(t^{p/2-1} + eps^2 T + (p-2) q x^2)
        + (p-2) eps^2 [(q x) x' + x (q x)' + eps^2 (sum q) x x'].
        Where t = 0 (eps = 0 on an axis) q enters only through terms that
        vanish there, so it is taken as 0.
        """
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        p, e2 = self.p, self.eps**2
        t = x * x + e2 * np.einsum("...d,...d->...", x, x)[..., None]
        pos = t > 0
        q = np.where(pos, np.where(pos, t, 1.0) ** (p / 2.0 - 2.0), 0.0)
        a = t ** (p / 2.0 - 1.0)
        S = np.einsum("...d->...", t ** (p / 2.0))[..., None, None]
        T = np.einsum("...d->...", a)[..., None]
        g = x * (a + e2 * T)
        qx = q * x
        G = (p - 2.0) * e2 * (
            qx[..., :, None] * x[..., None, :]
            + x[..., :, None] * qx[..., None, :]
            + e2 * np.einsum("...d->...", q)[..., None, None] * x[..., :, None] * x[..., None, :]
        )
        G += (a + e2 * T + (p - 2.0) * qx * x)[..., None] * np.eye(self.dim)
        return S ** (1.0 / p - 1.0) * (G + (1.0 - p) * g[..., :, None] * g[..., None, :] / S)

    def conjugate(self, y):
        y = _as_points(y, self.dim)
        pts = y.reshape(-1, self.dim)
        out = np.zeros(len(pts))
        nz = np.flatnonzero(row_dot(pts, pts) > 0)
        if len(nz):
            out[nz] = self._dual(pts[nz])[0]
        return out[0] if y.ndim == 1 else out.reshape(y.shape[:-1])

    def conjugate_grad(self, y):
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        return self._dual(y.reshape(-1, self.dim))[1].reshape(y.shape)

    def _dual(self, y):
        """phi_*(y) and grad phi_*(y) for nonzero rows y (n, d).

        ``_support_search`` on the body {0} at y/|y| finds the u that
        maximizes F(u) = u.y/(|y| phi(u)); then phi_*(y) = F |y| and
        grad phi_*(y) = u/phi(u).  Raises NonConvergenceError if a row ends
        with a residual above 1e-7.
        """
        r = np.sqrt(row_dot(y, y))
        _, u, f, res = _support_search(_ORIGIN, self, y / r[:, None])
        if not (res <= 1e-7).all():
            raise NonConvergenceError(f"dual-norm ascent stalled: worst residual {res.max():.3e}")
        return f * r, u / self.value(u)[:, None]


class NormParameterError(ValueError):
    """A ``make_norm`` parameter is unknown or contradicts another; ``key`` names it."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


def make_norm(kind: str, dim: Optional[int] = None, **kw) -> Norm:
    """Factory used by the CLI: kind in NORM_KINDS.

    ``ellipsoidal`` takes ``Q`` (a matrix, or its diagonal), whose size is
    the dimension; ``smoothed-lp`` takes ``p`` and an optional ``eps``.  An
    absent dim defaults to 2, or to the size of Q.  A missing parameter
    raises KeyError, an unknown parameter or a dim that disagrees with Q
    NormParameterError, an unknown kind or a bad value ValueError.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {', '.join(NORM_KINDS)}")
    for key in kw:
        if key not in _NORM_PARAMS[kind]:
            raise NormParameterError(f"{kind} norm has no parameter {key!r}", key)
    if kind == "ellipsoidal":
        Q = np.asarray(kw["Q"], dtype=float)
        if Q.ndim == 1:
            Q = np.diag(Q)
        if dim is not None and Q.shape[:1] != (dim,):
            raise NormParameterError(f"dim {dim} disagrees with Q of shape {Q.shape}", "dim")
        return EllipsoidalNorm(Q)
    dim = 2 if dim is None else dim
    if kind == "euclidean":
        return EuclideanNorm(dim)
    return SmoothedLpNorm(dim, p=float(kw["p"]), eps=float(kw.get("eps", 0.05)))
