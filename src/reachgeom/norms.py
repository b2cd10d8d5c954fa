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

All evaluation methods are vectorized: an input of shape (..., d) yields
values of shape (...), gradients of shape (..., d) and Hessians of shape
(..., d, d).
"""

from __future__ import annotations

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

# Finite-difference steps (relative to max(1, |x|)).
FD_STEP_GRAD = 1e-6
FD_STEP_HESS = 1e-4

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
    """Orthonormal basis of the hyperplane orthogonal to unit vector(s) u.

    Returns an array of shape (..., d-1, d): rows are the basis vectors.
    Deterministic, and computed for the whole batch at once.  In 2d the basis
    vector is u rotated by +90 degrees.  For d >= 3 the first row is the
    coordinate direction e_k least aligned with u (k = argmin |u_k|) with its
    u-component removed, t1 = (e_k - u u_k) / |e_k - u u_k|; in 3d the second
    row is u x t1.  For d >= 4 the remaining rows Gram-Schmidt the coordinate
    directions e_0, e_1, ... in order, skipping those already in the span.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    if d == 2:
        t = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return t[..., None, :]
    u2 = u.reshape(-1, d)
    rows = np.arange(len(u2))
    k = np.argmin(np.abs(u2), axis=-1)
    t1 = -u2 * u2[rows, k][:, None]
    t1[rows, k] += 1.0
    t1 = unit_rows(t1)
    out = np.zeros((len(u2), d - 1, d))
    out[:, 0] = t1
    if d == 3:
        out[:, 1] = np.cross(u2, t1)
    else:
        filled = np.ones(len(u2), dtype=int)
        for j in range(d):
            # e_j minus its components along u and the rows found so far
            # (rows not yet found are zero and remove nothing)
            v = -u2 * u2[:, j : j + 1]
            v[:, j] += 1.0
            v -= np.einsum("nk,nkd->nd", out[:, :, j], out)
            nv = np.sqrt(row_dot(v, v))
            take = np.flatnonzero((filled < d - 1) & (nv > 1e-8))
            out[take, filled[take]] = v[take] / nv[take, None]
            filled[take] += 1
    return out.reshape(u.shape[:-1] + (d - 1, d))


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"expected last axis {dim}, got shape {x.shape}")
    return x


class Norm:
    """Base class; concrete norms fill in value/grad (+ optional closed forms)."""

    kind: str = "abstract"
    # L with phi_*(v) = |L v| for the quadratic norms, None for the others
    dual_transform: Optional[np.ndarray] = None

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = int(dim)
        self.gamma = float("nan")  # set by _estimate_gamma in subclasses

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
        """D2phi(x); default is a symmetrized central difference of grad."""
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        h = FD_STEP_HESS * np.maximum(1.0, np.linalg.norm(x, axis=-1))
        H = np.empty(x.shape + (self.dim,))
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = 1.0
            xp = x + h[..., None] * step
            xm = x - h[..., None] * step
            H[..., j, :] = (self.grad(xp) - self.grad(xm)) / (2.0 * h[..., None])
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    # ------------------------------------------------------------------
    # dual norm
    # ------------------------------------------------------------------
    def conjugate(self, y) -> np.ndarray:
        raise NotImplementedError

    def conjugate_grad(self, y) -> np.ndarray:
        raise NotImplementedError

    def conjugate_hessian(self, y) -> np.ndarray:
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        h = FD_STEP_HESS * np.maximum(1.0, np.linalg.norm(y, axis=-1))
        H = np.empty(y.shape + (self.dim,))
        for j in range(self.dim):
            step = np.zeros(self.dim)
            step[j] = 1.0
            H[..., j, :] = (
                self.conjugate_grad(y + h[..., None] * step)
                - self.conjugate_grad(y - h[..., None] * step)
            ) / (2.0 * h[..., None])
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    # ------------------------------------------------------------------
    # boundary-of-W parametrization by Euclidean normals
    # ------------------------------------------------------------------
    def gauss_inverse(self, u) -> np.ndarray:
        """Point of bd W whose Euclidean outward normal is u (= grad phi(u))."""
        return self.grad(u)

    def gauss_map(self, eta) -> np.ndarray:
        """Unit Euclidean normal of bd W at eta: inverts ``gauss_inverse``.

        The input is scaled onto bd W first, so any nonzero eta works.
        Damped Newton on the sphere (50 iterations, tol 1e-10) with a
        projected-gradient fallback.
        """
        eta = _as_points(eta, self.dim)
        self._check_nonzero(eta)
        scalar_in = eta.ndim == 1
        pts = eta.reshape(-1, self.dim)
        target = pts / self.conjugate(pts)[..., None]
        u = target / np.linalg.norm(target, axis=-1, keepdims=True)  # seed
        u = self._gauss_newton(u, target)
        return u[0] if scalar_in else u.reshape(eta.shape)

    def _gauss_newton(self, u, target, iters=50, tol=1e-10):
        n_pts = u.shape[0]
        active = np.ones(n_pts, dtype=bool)
        for _ in range(iters):
            F = self.grad(u) - target
            res = np.linalg.norm(F, axis=-1)
            active = res > tol
            if not active.any():
                break
            ua = u[active]
            Fa = F[active]
            T = tangent_basis(ua)  # (m, d-1, d)
            H = self.hessian(ua)  # (m, d, d)
            A = T @ H @ np.swapaxes(T, -1, -2)  # (m, d-1, d-1)
            b = -np.einsum("mkd,md->mk", T, Fa)
            try:
                delta = np.linalg.solve(A, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                delta = b  # gradient-ish fallback step
            step = np.einsum("mk,mkd->md", delta, T)
            # damped update with simple backtracking
            new = ua + step
            new /= np.linalg.norm(new, axis=-1, keepdims=True)
            worse = np.linalg.norm(self.grad(new) - target[active], axis=-1) > res[active]
            tries = 0
            while worse.any() and tries < 20:
                step[worse] *= 0.5
                new[worse] = ua[worse] + step[worse]
                new[worse] /= np.linalg.norm(new[worse], axis=-1, keepdims=True)
                worse = np.linalg.norm(self.grad(new) - target[active], axis=-1) > res[active]
                tries += 1
            u = u.copy()
            u[active] = new
        else:
            # Newton budget exhausted: projected-gradient fallback on the residual
            u = self._gauss_fallback(u, target, tol)
        return u

    def _gauss_fallback(self, u, target, tol, iters=400):
        for _ in range(iters):
            F = self.grad(u) - target
            res = np.linalg.norm(F, axis=-1)
            if (res <= tol).all():
                return u
            g = np.einsum("mde,me->md", self.hessian(u), F)  # gradient of |F|^2/2
            g -= u * np.einsum("md,md->m", g, u)[..., None]
            gn = np.linalg.norm(g, axis=-1, keepdims=True)
            u = u - 0.02 * g / np.maximum(gn, 1e-30) * res[..., None]
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
        res = np.linalg.norm(self.grad(u) - target, axis=-1)
        if (res > max(tol, 1e-8)).any():
            raise NonConvergenceError(
                f"gauss_map failed to converge: worst residual {res.max():.3e}"
            )
        return u

    # ------------------------------------------------------------------
    def _check_nonzero(self, x):
        n = np.linalg.norm(np.atleast_2d(x), axis=-1)
        if (n == 0).any():
            raise ZeroVectorError(f"{self.kind} norm direction data at the origin")

    def _estimate_gamma(self, seed: int) -> float:
        """Min of v.D2phi(u)v over sampled unit u and unit v orthogonal to u."""
        rng = np.random.default_rng(seed)
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

    def __init__(self, dim: int):
        super().__init__(dim)
        self.gamma = 1.0
        self.dual_transform = np.eye(self.dim)

    @property
    def key(self):
        return (self.kind, self.dim)

    def value(self, x):
        return np.linalg.norm(_as_points(x, self.dim), axis=-1)

    def grad(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def hessian(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        r = np.linalg.norm(x, axis=-1)
        u = x / r[..., None]
        eye = np.broadcast_to(np.eye(self.dim), x.shape + (self.dim,))
        return (eye - u[..., :, None] * u[..., None, :]) / r[..., None, None]

    conjugate = value
    conjugate_grad = grad
    conjugate_hessian = hessian

    def gauss_map(self, eta):
        eta = _as_points(eta, self.dim)
        self._check_nonzero(eta)
        return eta / np.linalg.norm(eta, axis=-1, keepdims=True)


class EllipsoidalNorm(Norm):
    """phi(x) = sqrt(x' Q x) with Q symmetric positive definite."""

    kind = "ellipsoidal"

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
        self.gamma = self._estimate_gamma(seed=1729 + self.dim)

    @property
    def key(self):
        return (self.kind, self.dim, self.Q.tobytes())

    def _quad(self, x, M):
        return np.sqrt(np.maximum(np.einsum("...d,de,...e->...", x, M, x), 0.0))

    def value(self, x):
        return self._quad(_as_points(x, self.dim), self.Q)

    def grad(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        return np.einsum("de,...e->...d", self.Q, x) / self.value(x)[..., None]

    def hessian(self, x):
        x = _as_points(x, self.dim)
        self._check_nonzero(x)
        val = self.value(x)
        qx = np.einsum("de,...e->...d", self.Q, x)
        return (self.Q - qx[..., :, None] * qx[..., None, :] / val[..., None, None] ** 2) / val[
            ..., None, None
        ]

    def conjugate(self, y):
        return self._quad(_as_points(y, self.dim), self.Qinv)

    def conjugate_grad(self, y):
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        return np.einsum("de,...e->...d", self.Qinv, y) / self.conjugate(y)[..., None]

    def conjugate_hessian(self, y):
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        val = self.conjugate(y)
        qy = np.einsum("de,...e->...d", self.Qinv, y)
        return (self.Qinv - qy[..., :, None] * qy[..., None, :] / val[..., None, None] ** 2) / val[
            ..., None, None
        ]

    def gauss_map(self, eta):
        # grad phi(u) = eta  <=>  u parallel to Q^{-1} eta
        eta = _as_points(eta, self.dim)
        self._check_nonzero(eta)
        u = np.einsum("de,...e->...d", self.Qinv, eta)
        return u / np.linalg.norm(u, axis=-1, keepdims=True)


class SmoothedLpNorm(Norm):
    """Regularized l^p norm, C^2 and uniformly convex for p in (1, inf).

    phi(x) = (sum_i (x_i^2 + eps^2 |x|^2)^{p/2})^{1/p}.  eps=0 recovers the
    plain l^p norm (which loses uniform convexity on the axes for p > 2);
    the default eps keeps gamma comfortably positive.
    """

    kind = "smoothed-lp"

    def __init__(self, dim: int, p: float, eps: float = 0.05):
        if not (1.0 < p < np.inf):
            raise ValueError("p must lie in (1, inf)")
        if eps < 0:
            raise ValueError("eps must be >= 0")
        super().__init__(dim)
        self.p = float(p)
        self.eps = float(eps)
        self.gamma = self._estimate_gamma(seed=9176 + self.dim)

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

    # Hessian: inherited finite difference of grad.

    def conjugate(self, y):
        y = _as_points(y, self.dim)
        scalar_in = y.ndim == 1
        pts = np.atleast_2d(y).reshape(-1, self.dim)
        out = np.zeros(pts.shape[0])
        nz = np.linalg.norm(pts, axis=-1) > 0
        if nz.any():
            vstar = self._support_argmax(pts[nz])
            out[nz] = np.einsum("md,md->m", vstar, pts[nz])
        out = out.reshape(np.atleast_2d(y).shape[:-1])
        return out[0] if scalar_in else out.reshape(y.shape[:-1])

    def conjugate_grad(self, y):
        y = _as_points(y, self.dim)
        self._check_nonzero(y)
        scalar_in = y.ndim == 1
        pts = np.atleast_2d(y).reshape(-1, self.dim)
        v = self._support_argmax(pts)
        return v[0] if scalar_in else v.reshape(y.shape)

    def _support_argmax(self, y, tol=1e-12):
        """argmax of v.y over {phi(v) = 1}; also the gradient of phi_* at y.

        Dense directional sweep for a seed, then sphere Newton on the
        stationarity condition of u.y/phi(u).
        """
        m = y.shape[0]
        if self.dim == 2:
            th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
            dirs = np.c_[np.cos(th), np.sin(th)]
        else:
            k = np.arange(1024)
            ga = np.pi * (3.0 - np.sqrt(5.0))
            z = 1.0 - 2.0 * (k + 0.5) / 1024
            rad = np.sqrt(1.0 - z * z)
            dirs = np.c_[rad * np.cos(ga * k), rad * np.sin(ga * k), z]
            dirs = dirs[:, : self.dim]
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        ratio = (dirs @ y.T) / self.value(dirs)[:, None]  # (ndirs, m)
        u = dirs[np.argmax(ratio, axis=0)]
        yn = np.linalg.norm(y, axis=-1)
        for _ in range(60):
            pu = self.value(u)
            gu = self.grad(u)
            uy = np.einsum("md,md->m", u, y)
            # gradient of f(u) = u.y/phi(u) on the sphere
            gf = (y - (uy / pu)[:, None] * gu) / pu[:, None]
            gf -= u * np.einsum("md,md->m", gf, u)[:, None]
            res = np.linalg.norm(gf, axis=-1) / np.maximum(yn, 1e-300)
            if (res <= tol).all():
                break
            T = tangent_basis(u)
            H = self.hessian(u)
            # Hessian of -f on the tangent space (Gauss-Newton flavored):
            A = (uy / pu)[:, None, None] * (T @ H @ np.swapaxes(T, -1, -2)) / pu[:, None, None]
            A += np.eye(self.dim - 1) * (uy / pu)[:, None, None] * 1e-12
            b = np.einsum("mkd,md->mk", T, gf)
            try:
                delta = np.linalg.solve(A, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                delta = b
            step = np.einsum("mk,mkd->md", delta, T)
            fn = uy / pu
            new = u + step
            new /= np.linalg.norm(new, axis=-1, keepdims=True)
            worse = np.einsum("md,md->m", new, y) / self.value(new) < fn
            tries = 0
            while worse.any() and tries < 25:
                step[worse] *= 0.5
                new[worse] = u[worse] + step[worse]
                new[worse] /= np.linalg.norm(new[worse], axis=-1, keepdims=True)
                worse = np.einsum("md,md->m", new, y) / self.value(new) < fn
                tries += 1
            u = new
        else:
            pu = self.value(u)
            uy = np.einsum("md,md->m", u, y)
            gf = (y - (uy / pu)[:, None] * self.grad(u)) / pu[:, None]
            gf -= u * np.einsum("md,md->m", gf, u)[:, None]
            res = np.linalg.norm(gf, axis=-1) / np.maximum(yn, 1e-300)
            if (res > 1e-7).any():
                raise NonConvergenceError(
                    f"dual-norm ascent stalled: worst residual {res.max():.3e}"
                )
        return u / self.value(u)[:, None]


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
