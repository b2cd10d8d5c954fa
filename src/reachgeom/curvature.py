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
normal fans +inf.  No distance is evaluated; the ray reach, which only tube
predictions read, is traced on first read (``BundleSample.reach``).

Probes stay as an independent oracle (``audit=True`` and
``pointwise_shape_operator``).  Put x = a + r eta, r below the ray reach.
The field ``nu(y) = (y - foot(y)) / delta(y)``, with feet from
``nearest_points``, has on the tangent plane the eigenvalues
``chi_i = kappa_i / (1 + r kappa_i)``, so ``kappa = chi / (1 - r chi)``,
with ``1 - r chi <= tol`` read as an infinite curvature; r is at most
``PROBE_REACH_FRAC`` of the ray reach.

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
from .projection import nearest_points, reach_along
from .shapes import Shape, fiber_tangents
from .shapes import fiber_nodes as fiber_quadrature

__all__ = [
    "BundleSample",
    "bundle_nodes",
    "bundle_sample",
    "support_curvatures",
    "normal_matrices",
    "kappa_from_chi",
    "eig_small",
    "bundle_jacobian",
    "elementary_symmetric",
    "mean_curvature",
    "pointwise_shape_operator",
    "pointwise_mean_curvature",
]

TOL_INF = 1e-6  # 1 - r*chi at or below this reads as kappa = +inf
AMBIG_FACTOR = 10.0  # |1 - r*chi| below AMBIG_FACTOR*TOL_INF flags the sample
PROBE_REACH_FRAC = 0.1
PROBE_DIAM_FRAC = 0.05
FD_FRAC = 1e-4  # tangential step, relative to the probe radius


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


# ======================================================================
# probe machinery
# ======================================================================


def normal_matrices(shape: Shape, norm: Norm, a, u, r) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-plane matrices of the normal field at probes a + r eta, eta = grad phi(u).

    u (N, d) are Euclidean unit normals at the feet a, and r should lie
    below the ray reach at (a, eta).  Returns (M, T): M (N, n, n) with
    M[i, j] = tau_i . (D nu) tau_j and T (N, n, d) the tangent frames of u
    (rows tau_i).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(a),))
    d = a.shape[1]
    n = d - 1
    T = tangent_basis(u)  # (N, n, d)
    x = a + r[:, None] * norm.grad(u)
    h = FD_FRAC * r
    probes = (
        x[:, None, None, :]
        + np.array([1.0, -1.0])[None, None, :, None] * h[:, None, None, None] * T[:, :, None, :]
    )  # (N, n, 2, d)
    probes = probes.reshape(-1, d)
    feet, delta = nearest_points(shape, norm, probes)
    nu = ((probes - feet) / delta[:, None]).reshape(len(a), n, 2, d)
    cols = (nu[:, :, 0, :] - nu[:, :, 1, :]) / (2.0 * h[:, None, None])  # (N, j, d)
    M = np.einsum("nid,njd->nij", T, cols)
    return M, T


def kappa_from_chi(chi: np.ndarray, r, tol_inf: float = TOL_INF):
    """Invert the probe relation; (kappa, infinite mask, ambiguous mask)."""
    chi = np.asarray(chi, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), chi.shape[:1])
    denom = 1.0 - r[:, None] * chi
    infinite = denom <= tol_inf
    ambiguous = np.abs(denom) < AMBIG_FACTOR * tol_inf
    kappa = np.where(infinite, np.inf, chi / np.where(infinite, 1.0, denom))
    return kappa, infinite, ambiguous


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
    audit_fail: Optional[np.ndarray] = None  # (N,) bool, when audited
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
        """(N,) False: no curvature is read off a probe (see ``audit_fail``)."""
        return np.broadcast_to(False, (len(self),))

    @cached_property
    def reach(self) -> np.ndarray:
        """(N,) ray reach at (a, grad phi(u)), traced on first read (read-only)."""
        reach = np.full(len(self), np.inf) if self.ray_reach is None else self.ray_reach()
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


def _tangent_determinant(H: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|det(H|u-perp)| (k,) = |u.adj(H)u| for symmetric H (k, 3, 3) and unit u (k, 3)."""
    a, b, c = H[:, 0, 0], H[:, 1, 1], H[:, 2, 2]
    f, g, k = H[:, 1, 2], H[:, 0, 2], H[:, 0, 1]
    x, y, z = u[:, 0], u[:, 1], u[:, 2]
    diag = (b * c - f * f) * x * x + (a * c - g * g) * y * y + (a * b - k * k) * z * z
    off = (g * f - k * c) * x * y + (k * f - g * b) * x * z + (k * g - a * f) * y * z
    return np.abs(diag + 2.0 * off)


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

    A patch node's area factor det(H|u-perp), H = D^2phi(u), needs no
    tangent frame: for unit u and symmetric H (d = 3) it is u.adj(H)u =
    e_2(H) - (u.Hu) tr H + |Hu|^2 (Cayley-Hamilton), e_2 the sum of the
    principal 2x2 minors.  Summed over the cofactors of H it stays within
    1e-15 of the frame's |H e_0 x H e_1|; the three-term sum cancels where
    H is nearly singular on u-perp (1e-13 off under ``SmoothedLpNorm(3, 6)``,
    2e-12 without the two terms that rounding, Hu a few ulps from 0, feeds).
    """
    blocks = []
    for s in shape.boundary_strata(n=n, seed=seed):
        kq = patch_nodes if s.kind == "patch" else fiber_nodes
        fibers, at = s.fibers, slice(None)
        if s.kind in ("arc", "edge", "patch"):  # fans: one per face, keyed on bytes
            rows = np.ascontiguousarray(fibers).reshape(len(fibers), -1)
            keys = rows.view(f"V{rows[0].nbytes}").ravel()
            _, first, at = np.unique(keys, return_index=True, return_inverse=True)
            fibers = fibers[first]
        uu, ww = fiber_quadrature(s.kind, fibers, kq)  # (F, q, d), (F, q)
        q, d = uu.shape[1:]
        u = uu.reshape(-1, d)
        if s.kind in ("vector", "pair"):
            transport = np.ones(len(u))
        elif s.kind == "patch":
            transport = _tangent_determinant(norm.hessian(u), u)
        else:
            tt = fiber_tangents(s.kind, fibers, kq).reshape(-1, d)
            transport = np.linalg.norm(np.einsum("kde,ke->kd", norm.hessian(u), tt), axis=-1)
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
    audit: bool = False,
) -> BundleSample:
    """Sample the unit normal bundle with curvatures, Jacobians, and weights.

    ``n`` steers the boundary resolution per stratum (as in boundary_strata);
    1-dimensional fibers get ``fiber_nodes`` Gauss nodes and spherical-patch
    fibers at least ``patch_nodes`` per fan triangle (``bundle_nodes``).
    Curved strata take their curvatures from support Hessians
    (``support_curvatures``); an m-dimensional stratum without one is flat
    along itself and, where m < n, a fan: m zero curvatures, then n - m
    infinite ones (the catalog's edges are straight).  With ``audit`` the
    ray reaches are traced at once, the probes (see the module docstring)
    repeat every curvature, and samples whose probe disagrees are flagged
    in ``audit_fail``.
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

    audit_fail = None
    if audit:
        eta = norm.grad(u)
        reach, probe = _reach_and_probe(shape, norm, a, eta)
        ray_reach = reach.view  # the reach just traced, as the bundle's
        M, _ = normal_matrices(shape, norm, a, u, probe)
        # within its ambiguity band the probe cannot tell 1 - r chi from 0
        kap, _, _ = kappa_from_chi(eig_small(M)[0], probe, AMBIG_FACTOR * TOL_INF)
        kap = np.sort(kap, axis=1)
        # a finite curvature agrees to 1e-4 (1 + |kappa|), an infinite one exactly
        with np.errstate(invalid="ignore"):  # inf - inf where both diverge
            close = np.abs(kappa - kap) <= 1e-4 * (1.0 + np.abs(kappa))
        audit_fail = ~np.where(np.isfinite(kappa), close, np.isinf(kap)).all(axis=1)

    return BundleSample(
        points=a,
        normals=u,
        phi_u=norm.value(u),
        weights=w0 / J,
        jacobian=J,
        kappa=kappa,
        stratum=strat,
        audit_fail=audit_fail,
        ray_reach=None if shape.is_convex else ray_reach,
    )


def support_curvatures(norm: Norm, u, hess) -> tuple[np.ndarray, np.ndarray]:
    """Curvatures (k, n), ascending, and principal directions (k, n, d) at normals u.

    ``hess`` (k, d, d) holds the support Hessians D^2h(u).  In a tangent
    frame of u-perp, the Cholesky factor L of A = D^2phi(u) whitens
    B = D^2h(u): C = L^{-1} B L^{-T} is symmetric, and where C w = r w, the
    normal field's derivative S = A B^{-1} has S L w = (1/r) L w.  So
    kappa = 1/r, along L w (not normalized).
    """
    u = np.asarray(u, dtype=float)
    T = tangent_basis(u)  # (k, n, d)
    A = np.einsum("kid,kde,kje->kij", T, norm.hessian(u), T)
    B = np.einsum("kid,kde,kje->kij", T, hess, T)
    L = np.linalg.cholesky(A)
    Li = np.linalg.inv(L)
    r, w = eig_small(np.einsum("kij,kjl,kml->kim", Li, B, Li))
    kappa = 1.0 / r
    tau = np.einsum("kij,kmj,kid->kmd", L, w, T)
    order = np.argsort(kappa, axis=1)
    return np.take_along_axis(kappa, order, 1), np.take_along_axis(tau, order[..., None], 1)


def _reach_and_probe(shape, norm, a, eta):
    """Ray reach at each (a, eta) (+inf on convex sets) and the probe radius."""
    reach = reach_along(shape, norm, a, eta, validate=False)
    return reach, np.minimum(PROBE_REACH_FRAC * reach, PROBE_DIAM_FRAC * shape.diameter)


# ======================================================================
# pointwise operator at smooth boundary points
# ======================================================================


def pointwise_shape_operator(
    shape: Shape, norm: Norm, a
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anisotropic shape operator at a boundary point with a unique normal.

    The bundle probe at (a, u), u from ``boundary_fiber_at`` (see the module
    docstring).  Returns (K, T, u) with K (n, n) in the rows-of-T tangent
    frame; raises ValueError off the boundary or where the normal is not
    unique.
    """
    a = np.asarray(a, dtype=float)
    kind, normal = shape.boundary_fiber_at(a)
    if kind != "vector":
        raise ValueError("point has no unique normal")
    a, u = a[None, :], np.asarray(normal, dtype=float)[None, :]
    _, r = _reach_and_probe(shape, norm, a, norm.grad(u))
    (M,), (T,) = normal_matrices(shape, norm, a, u, r)
    K = M @ np.linalg.inv(np.eye(len(M)) - r[0] * M)
    return K, T, u[0]


def pointwise_mean_curvature(shape: Shape, norm: Norm, a) -> float:
    """Trace of the pointwise anisotropic shape operator (sum of curvatures)."""
    M, _, _ = pointwise_shape_operator(shape, norm, a)
    return float(np.trace(M))
