"""Generalized principal curvatures sampled on the unit normal bundle.

Each bundle point (a, u) of a set A — a boundary point together with an
outward Euclidean unit normal — carries n = d-1 generalized principal
curvatures under the norm phi: eigenvalues of the derivative of the dual
normal eta = grad phi(u) along the boundary, +inf across edges, corners,
and endpoints.

On a C^2 piece with support function h, D^2h(u) on u-perp is the reverse
Weingarten map (Schneider, *Convex Bodies*, section 2.5), so eta turns by
D^2phi(u) (D^2h(u))^{-1}: the curvatures are the generalized eigenvalues of
(D^2phi(u), D^2h(u)) on u-perp (``support_curvatures``), with D^2h from the
strata (``Stratum.support_hessian``).  Flat strata carry zero curvature and
normal fans +inf.  The pointwise operator at one boundary point reads the
same pencil, with D^2h from the piece that holds the point
(``Shape.support_hessian_at``).  No distance is evaluated; the ray reach,
which only tube predictions read, is traced on first read
(``BundleSample.reach``).  This is the one curvature route: the
finite-difference probe of the level-set normal map, an independent oracle,
lives with the tests (``tests/_probe.py``).

Weights follow the bundle measure: over smooth strata the boundary area
element divided by the tangent-space Jacobian of the bundle projection, over
singular strata the product of the face measure and the fiber measure pushed
into dual coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .norms import Norm, tangent_basis
from .projection import reach_along
from .shapes import Shape, fiber_tangents
from .shapes import fiber_nodes as fiber_quadrature

__all__ = [
    "BundleSample",
    "bundle_nodes",
    "bundle_sample",
    "support_curvatures",
    "eig_small",
    "bundle_jacobian",
    "elementary_symmetric",
    "mean_curvature",
    "pointwise_shape_operator",
    "pointwise_mean_curvature",
]

# ======================================================================
# local linear algebra (n <= 2, closed forms)
# ======================================================================


def eig_small(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of batched 1x1 or 2x2 matrices, no LAPACK call.

    Returns (lam, vec): lam (N, n) ascending, vec (N, n, n) with vec[:, k]
    the coordinates of the k-th eigenvector.  The eigenvalues hold for any
    real spectrum: the discriminant is taken as (m00 - m11)^2 + 4 m01 m10,
    which does not cancel on a nearly scalar matrix as tr^2 - 4 det does,
    and a tiny negative one (roundoff) is clamped to zero.  The eigenvectors
    are those of a symmetric M: the lower one at the angle
    atan2(-2 m01, m11 - m00) / 2, the upper one perpendicular; nearly scalar
    matrices keep the input frame.
    """
    M = np.asarray(M, dtype=float)
    N, n = M.shape[0], M.shape[1]
    if n == 1:
        return M[:, 0, 0][:, None], np.ones((N, 1, 1))
    if n != 2:
        raise ValueError("only 1x1 and 2x2 spectra are needed here")
    tr = M[:, 0, 0] + M[:, 1, 1]
    gap = M[:, 0, 0] - M[:, 1, 1]
    s = np.sqrt(np.maximum(gap * gap + 4.0 * M[:, 0, 1] * M[:, 1, 0], 0.0))
    lam = np.stack([(tr - s) / 2.0, (tr + s) / 2.0], axis=1)
    scalar = s <= 1e-9 * (1.0 + np.abs(tr))
    phi = np.where(scalar, 0.0, 0.5 * np.arctan2(-2.0 * M[:, 0, 1], -gap))
    c, sn = np.cos(phi), np.sin(phi)
    return lam, np.stack([np.stack([c, sn], axis=1), np.stack([-sn, c], axis=1)], axis=1)


def elementary_symmetric(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """e_j of the masked entries per row; (N, n) -> (N, n+1), e_0 = 1."""
    N, n = values.shape
    e = np.zeros((N, n + 1))
    e[:, 0] = 1.0
    for i in range(n):
        vi = np.where(mask[:, i], values[:, i], 0.0)
        for j in range(n, 0, -1):
            e[:, j] = np.where(mask[:, i], e[:, j] + vi * e[:, j - 1], e[:, j])
    return e


def bundle_jacobian(kappa: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Tangent-space Jacobian of the bundle projection (a, eta) -> a.

    Lifts each principal direction to the bundle tangent: (tau, kappa tau)
    for finite kappa, (0, tau) for infinite, and compares Gram determinants
    against the unlifted directions.  Equals 1/sqrt(1 + kappa^2) on a smooth
    curve with unit principal direction; exactly 1 across corners and edges.
    """
    N, n, d = tau.shape
    finite = np.isfinite(kappa)
    k = np.where(finite, kappa, 0.0)
    zeta = np.zeros((N, n, 2 * d))
    base = np.zeros((N, n, 2 * d))
    zeta[:, :, :d] = np.where(finite[:, :, None], tau, 0.0)
    zeta[:, :, d:] = np.where(finite[:, :, None], k[:, :, None] * tau, tau)
    base[:, :, :d] = np.where(finite[:, :, None], tau, 0.0)
    base[:, :, d:] = np.where(finite[:, :, None], 0.0, tau)
    Gz = np.einsum("nik,njk->nij", zeta, zeta)
    Gb = np.einsum("nik,njk->nij", base, base)
    if n == 1:
        dz, db = Gz[:, 0, 0], Gb[:, 0, 0]
    else:
        dz = Gz[:, 0, 0] * Gz[:, 1, 1] - Gz[:, 0, 1] ** 2
        db = Gb[:, 0, 0] * Gb[:, 1, 1] - Gb[:, 0, 1] ** 2
    return np.sqrt(np.maximum(db, 1e-300) / np.maximum(dz, 1e-300))


# ======================================================================
# bundle sampling
# ======================================================================


@dataclass(frozen=True)
class BundleSample:
    """Weighted quadrature over the unit normal bundle of a shape.

    Immutable: its arrays are read-only, since bundles are shared through
    ``Shape.bundles`` and H_r is memoized from ``kappa``.  ``ray_reach``
    traces the ray reaches, None where every ray reaches +inf.
    """

    points: np.ndarray  # (N, d) base points a
    normals: np.ndarray  # (N, d) Euclidean unit normals u
    phi_u: np.ndarray  # (N,) phi(u): the support-function factor
    weights: np.ndarray  # (N,) bundle H^n weights
    jacobian: np.ndarray  # (N,)
    kappa: np.ndarray  # (N, n) ascending; +inf on singular strata
    stratum: np.ndarray  # (N,) supporting stratum dimension
    ray_reach: Optional[Callable[[], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def __len__(self):
        return len(self.points)

    @property
    def n(self) -> int:
        return self.kappa.shape[1]

    @property
    def density(self) -> np.ndarray:
        """(N,) weight * jacobian * phi(u): the measure every bundle integral uses."""
        return self.weights * self.jacobian * self.phi_u

    def mean_curvature(self, r: int) -> np.ndarray:
        """H_r of every sample (``mean_curvature``), memoized per r and read-only."""
        memo = self.__dict__.setdefault("_mean_curvatures", {})
        h = memo.get(r)
        if h is None:
            h = mean_curvature(self.kappa, r)
            h.setflags(write=False)
            # threads racing here compute the same array; all get the first
            h = memo.setdefault(r, h)
        return h

    @property
    def ambiguous(self) -> np.ndarray:
        """(N,) False: no curvature is read off a probe."""
        return np.broadcast_to(False, (len(self),))

    @cached_property
    def reach(self) -> np.ndarray:
        """(N,) ray reach at (a, grad phi(u)), traced on first read (read-only).

        A row with kappa_min < 0 reaches at most its focal distance
        -1/kappa_min: past it a + r grad phi(u) lies nearer other boundary
        points, however closely the traced ray misses them.
        """
        reach = np.full(len(self), np.inf) if self.ray_reach is None else self.ray_reach()
        k = self.kappa[:, 0]  # the least: kappa is ascending
        focal = np.flatnonzero(k < 0)
        reach[focal] = np.minimum(reach[focal], -1.0 / k[focal])
        reach.setflags(write=False)
        return reach


def mean_curvature(kappa: np.ndarray, r: int) -> np.ndarray:
    """r-th symmetric curvature function H_r on the bundle samples.

    With n_inf infinite principal curvatures at a sample, H_r equals the
    elementary symmetric polynomial e_{r - n_inf} of the finite ones when
    0 <= r - n_inf <= n - n_inf, and 0 otherwise.
    """
    kappa = np.atleast_2d(np.asarray(kappa, dtype=float))
    n = kappa.shape[1]
    if not 0 <= r <= n:
        raise ValueError(f"H_{r} undefined with {n} principal curvatures")
    # the short axis column by column: a reduction over it costs more
    n_inf = np.zeros(len(kappa), dtype=int)
    curved = np.zeros(len(kappa), dtype=bool)
    for k in kappa.T:
        finite = np.isfinite(k)
        n_inf += ~finite
        curved |= finite & (k != 0.0)
    j = r - n_inf
    # flat and fan rows have e = (1, 0, ..., 0): H_r is 1 where j = 0
    h = (j == 0).astype(float)
    rows = np.flatnonzero(curved)
    kc, jr = kappa[rows], j[rows]
    e = elementary_symmetric(kc, np.isfinite(kc))
    valid = (jr >= 0) & (jr <= n - n_inf[rows])
    h[rows] = np.where(valid, e[np.arange(len(rows)), np.clip(jr, 0, n)], 0.0)
    return h


def _distinct(fibers):
    """Distinct rows of ``fibers`` by their bytes, and each row's index among them."""
    rows = np.ascontiguousarray(fibers).reshape(len(fibers), -1)
    keys = rows.view(f"V{rows[0].nbytes}").ravel()
    _, first, at = np.unique(keys, return_index=True, return_inverse=True)
    return fibers[first], at


def _patch_nodes(fans, k):
    """``fiber_nodes`` of patch fans (F, G, 3); a fan f == S|f| (float ==, S the
    signs of the coordinates) is ruled once on |f| and its nodes reflected by S."""
    S = np.where((fans < 0).any(axis=1), -1.0, 1.0)[:, None, :]
    mirror = (fans == S * np.abs(fans)).all(axis=(1, 2))
    S[~mirror] = 1.0
    base, at = _distinct(np.where(mirror[:, None, None], np.abs(fans), fans))
    uu, ww = fiber_quadrature("patch", base, k)
    return S * uu[at], ww[at]


def bundle_nodes(
    shape: Shape,
    norm: Norm,
    n: int = 512,
    seed: int = 0,
    fiber_nodes: int = 16,
    patch_nodes: int = 1024,
) -> tuple:
    """Quadrature nodes (points, normals, weights, stratum dims, support Hessians).

    Expands every stratum fiber into spherical quadrature nodes and pushes
    the fiber weights into dual coordinates: 1-dimensional fans carry the
    arc length of the dual-gradient image, spherical patches its area.
    Over a face F the bundle is relint F x N(F), so each distinct fan (arc,
    edge or patch row, keyed on its bytes: -0.0 is not +0.0) is expanded
    once and its nodes, weights and transport shared by index.
    Each fan triangle of a patch takes ``patch_nodes`` rounded up to
    16 * 4^L: the degree-8 rule on 4^L sub-triangles (``shapes.fiber_nodes``).
    Nodes come in stratum, fiber, node order, on which the interleaved
    half-sums of the quadrature error estimate rely; each stratum's fibers
    are expanded together.  The support Hessians (N, d, d) are the strata's
    (``Stratum.support_hessian``), NaN on nodes of strata without one, and
    None when no stratum has one.

    A fan node's weight carries ``Norm.fan_jacobian``.  A patch whose
    generators keep one sign per coordinate is ruled once on |f| and
    reflected (``_patch_nodes``): sign flips commute with rounding, so the
    cube's octants share one rule and keep their bits.
    """
    blocks = []
    for s in shape.boundary_strata(n=n, seed=seed):
        kq = patch_nodes if s.kind == "patch" else fiber_nodes
        fibers, at = s.fibers, slice(None)
        if s.kind in ("arc", "edge", "patch"):  # fans: one per face
            fibers, at = _distinct(fibers)
        if s.kind == "patch":
            uu, ww = _patch_nodes(fibers, kq)
        else:
            uu, ww = fiber_quadrature(s.kind, fibers, kq)  # (F, q, d), (F, q)
        q, d = uu.shape[1:]
        u = uu.reshape(-1, d)
        if s.kind in ("vector", "pair"):
            transport = np.ones(len(u))
        elif s.kind == "patch":
            transport = norm.fan_jacobian(u)
        else:
            transport = norm.fan_jacobian(u, fiber_tangents(s.kind, fibers, kq).reshape(-1, d))
        blocks.append(
            (
                np.repeat(s.points, q, axis=0),
                uu[at].reshape(-1, d),
                (s.weights[:, None] * ww[at] * transport.reshape(-1, q)[at]).ravel(),
                np.full(len(s) * q, s.index),
                s.support_hessian,  # only vector strata have one, with one node per fiber
            )
        )
    *cols, hess = zip(*blocks)
    nodes = tuple(np.concatenate(col) for col in cols)
    if all(h is None for h in hess):
        return (*nodes, None)
    d = shape.dim
    hess = [np.full((len(b[1]), d, d), np.nan) if h is None else h for b, h in zip(blocks, hess)]
    return (*nodes, np.concatenate(hess))


def bundle_sample(
    shape: Shape,
    norm: Norm,
    n: int = 512,
    seed: int = 0,
    fiber_nodes: int = 16,
    patch_nodes: int = 1024,
) -> BundleSample:
    """Sample the unit normal bundle with curvatures, Jacobians, and weights.

    ``n`` steers the boundary resolution per stratum (as in boundary_strata);
    1-dimensional fibers get ``fiber_nodes`` Gauss nodes and spherical-patch
    fibers at least ``patch_nodes`` per fan triangle (``bundle_nodes``).
    Curved strata take their curvatures from support Hessians
    (``support_curvatures``); an m-dimensional stratum without one is flat
    along itself and, where m < n, a fan: m zero curvatures, then n - m
    infinite ones (the catalog's edges are straight).
    """
    a, u, w0, strat, hess = bundle_nodes(
        shape, norm, n=n, seed=seed, fiber_nodes=fiber_nodes, patch_nodes=patch_nodes
    )
    nn = shape.dim - 1
    kappa = np.where(np.arange(nn)[None, :] < strat[:, None], 0.0, np.inf)
    J = np.ones(len(a))
    if hess is not None:
        smooth = np.flatnonzero(~np.isnan(hess[:, 0, 0]))
        kappa[smooth], tau = support_curvatures(norm, u[smooth], hess[smooth])
        J[smooth] = bundle_jacobian(kappa[smooth], tau)

    def ray_reach():
        return reach_along(shape, norm, a, norm.grad(u), validate=False)

    return BundleSample(
        points=a,
        normals=u,
        phi_u=norm.value(u),
        weights=w0 / J,
        jacobian=J,
        kappa=kappa,
        stratum=strat,
        ray_reach=None if shape.is_convex else ray_reach,
    )


def _tangent_pencil(norm: Norm, u, hess) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames T = ``tangent_basis(u)`` (k, n, d) of u-perp at normals u (k, d),
    and in them the restrictions A of D^2phi(u) and B of the support Hessians
    ``hess`` (k, d, d), each (k, n, n)."""
    T = tangent_basis(u)
    A = np.einsum("kid,kde,kje->kij", T, norm.hessian(u), T)
    B = np.einsum("kid,kde,kje->kij", T, hess, T)
    return T, A, B


def support_curvatures(norm: Norm, u, hess) -> tuple[np.ndarray, np.ndarray]:
    """Curvatures (k, n), ascending, and principal directions (k, n, d) at normals u.

    ``hess`` (k, d, d) holds the support Hessians D^2h(u).  In a tangent
    frame of u-perp, the Cholesky factor L of A = D^2phi(u) whitens
    B = D^2h(u): C = L^{-1} B L^{-T} is symmetric, and where C w = r w, the
    normal field's derivative S = A B^{-1} has S L w = (1/r) L w.  So
    kappa = 1/r, along L w (not normalized).
    """
    T, A, B = _tangent_pencil(norm, np.asarray(u, dtype=float), hess)
    L = np.linalg.cholesky(A)
    Li = np.linalg.inv(L)
    r, w = eig_small(np.einsum("kij,kjl,kml->kim", Li, B, Li))
    kappa = 1.0 / r
    tau = np.einsum("kij,kmj,kid->kmd", L, w, T)
    order = np.argsort(kappa, axis=1)
    return np.take_along_axis(kappa, order, 1), np.take_along_axis(tau, order[..., None], 1)


# ======================================================================
# pointwise operator at smooth boundary points
# ======================================================================


def pointwise_shape_operator(
    shape: Shape, norm: Norm, a
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anisotropic shape operator at a boundary point with a unique normal.

    K = A B^{-1} in the frame T = ``tangent_basis(u)``, with A and B the
    restrictions of D^2phi(u) and D^2h(u) to u-perp: u is the normal of
    ``boundary_fiber_at``, and D^2h that of the piece holding the point
    (``Shape.support_hessian_at``), so K has the eigenvalues of
    ``support_curvatures``; a flat piece gives K = 0.  Returns (K, T, u)
    with K (n, n) in the rows-of-T tangent frame; raises ValueError off the
    boundary or where the normal is not unique.
    """
    a = np.asarray(a, dtype=float)
    kind, normal = shape.boundary_fiber_at(a)
    if kind != "vector":
        raise ValueError("point has no unique normal")
    u = np.asarray(normal, dtype=float)
    hess = shape.support_hessian_at(a, u)
    if hess is None:
        T = tangent_basis(u)
        return np.zeros((len(T), len(T))), T, u
    (T,), (A,), (B,) = _tangent_pencil(norm, u[None], hess[None])
    return A @ np.linalg.inv(B), T, u


def pointwise_mean_curvature(shape: Shape, norm: Norm, a) -> float:
    """Trace of the pointwise anisotropic shape operator (sum of curvatures)."""
    M, _, _ = pointwise_shape_operator(shape, norm, a)
    return float(np.trace(M))
