"""Generalized principal curvatures sampled on the unit normal bundle.

Each bundle point (a, u) of a set A — a boundary point together with an
outward Euclidean unit normal — carries n = d-1 generalized principal
curvatures under the norm phi: eigenvalues of the derivative of the dual
normal field, with the value +inf across edges, corners, and endpoints.

They are recovered numerically from the level-set normal map.  Put
x = a + r eta with eta = grad phi(u) and r below the ray reach.  The field
``nu(y) = (y - foot(y)) / delta(y)`` is differentiable near x, its matrix on
the tangent plane has eigenvalues ``chi_i = kappa_i / (1 + r kappa_i)``, and
``kappa = chi / (1 - r chi)`` inverts the probe, with ``1 - r chi <= tol``
read as an infinite curvature.  This single code path covers smooth strata
(where every kappa is finite) and singular ones (where fiber directions come
out infinite automatically, since there the level set locally matches a
sphere of radius r around the stratum).

The probes a + r eta +- h tau, with r at most ``PROBE_REACH_FRAC`` of the ray
reach (twice that for the audit), take their feet from ``nearest_points``:
the shape's closed form, or the support search, which is global, so a probe
needs no reach to be certified.

``pointwise_shape_operator`` is this probe at one bundle point (a, u) with
the same reach and probe radius as ``bundle_sample``; it returns
K = M (I - r M)^{-1}, whose eigenvalues are the kappa above.

Weights follow the bundle measure: over smooth strata the boundary area
element divided by the tangent-space Jacobian of the bundle projection, over
singular strata the product of the face measure and the fiber measure pushed
into dual coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .norms import Norm, tangent_basis
from .projection import nearest_points, reach_along
from .shapes import Shape, fiber_tangents
from .shapes import fiber_nodes as fiber_quadrature

__all__ = [
    "BundleSample",
    "bundle_nodes",
    "bundle_sample",
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
    """Eigen-decomposition of batched 1x1 or 2x2 matrices with real spectrum.

    Returns (lam, vec): lam (N, n) ascending, vec (N, n, n) with vec[:, k]
    the coordinates of the k-th eigenvector.  A tiny negative discriminant
    (roundoff on a defective-looking matrix) is clamped to zero, and nearly
    scalar matrices keep the input frame as their eigenbasis.
    """
    M = np.asarray(M, dtype=float)
    N, n = M.shape[0], M.shape[1]
    if n == 1:
        return M[:, 0, 0][:, None], np.ones((N, 1, 1))
    if n != 2:
        raise ValueError("only 1x1 and 2x2 spectra are needed here")
    tr = M[:, 0, 0] + M[:, 1, 1]
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    disc = np.maximum(tr * tr - 4.0 * det, 0.0)
    s = np.sqrt(disc)
    lam = np.stack([(tr - s) / 2.0, (tr + s) / 2.0], axis=1)
    vec = np.zeros((N, 2, 2))
    scale = 1.0 + np.abs(tr)
    degenerate = s <= 1e-9 * scale
    for k in range(2):
        lk = lam[:, k]
        # rows of (M - lam I) are both orthogonal to the eigenvector; pick
        # the better-conditioned of the two null-vector formulas
        v1 = np.stack([M[:, 0, 1], lk - M[:, 0, 0]], axis=1)
        v2 = np.stack([lk - M[:, 1, 1], M[:, 1, 0]], axis=1)
        n1 = np.linalg.norm(v1, axis=1)
        n2 = np.linalg.norm(v2, axis=1)
        v = np.where((n1 >= n2)[:, None], v1, v2)
        nv = np.linalg.norm(v, axis=1)
        v = v / np.maximum(nv, 1e-300)[:, None]
        unusable = (nv < 1e-150 * scale) | degenerate
        v[unusable] = np.eye(2)[k]
        vec[:, k] = v
    return lam, vec


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


def normal_matrices(
    shape: Shape, norm: Norm, a, eta, r
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent-plane matrices of the normal field at probes a + r eta.

    r should lie below the ray reach at (a, eta), where a is the foot.
    Returns (M, T, u): M (N, n, n) with M[i, j] = tau_i . (D nu) tau_j,
    T (N, n, d) the tangent frames (rows tau_i), u (N, d) the Euclidean unit
    normals recovered from eta.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(a),))
    d = a.shape[1]
    n = d - 1
    w = norm.conjugate_grad(eta)  # parallel to the Euclidean normal
    u = w / np.linalg.norm(w, axis=-1, keepdims=True)
    T = tangent_basis(u)  # (N, n, d)
    x = a + r[:, None] * eta
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
    return M, T, u


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
    ``Shape.bundles`` and H_r is memoized from ``kappa``.
    """

    points: np.ndarray  # (N, d) base points a
    normals: np.ndarray  # (N, d) Euclidean unit normals u
    eta: np.ndarray  # (N, d) dual normals grad phi(u)
    phi_u: np.ndarray  # (N,) phi(u): the support-function factor
    weights: np.ndarray  # (N,) bundle H^n weights
    jacobian: np.ndarray  # (N,)
    kappa: np.ndarray  # (N, n) ascending; +inf on singular strata
    tau: np.ndarray  # (N, n, d) principal directions
    stratum: np.ndarray  # (N,) supporting stratum dimension
    reach: np.ndarray  # (N,) ray reach at (a, eta)
    probe: np.ndarray  # (N,) probe radius used
    ambiguous: np.ndarray  # (N,) bool
    audit_fail: Optional[np.ndarray] = None  # (N,) bool, when audited

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
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
    finite = np.isfinite(kappa)
    n_fin = finite.sum(axis=1)
    n_inf = n - n_fin
    e = elementary_symmetric(kappa, finite)
    j = r - n_inf
    valid = (j >= 0) & (j <= n_fin)
    jc = np.clip(j, 0, n)
    return np.where(valid, e[np.arange(len(kappa)), jc], 0.0)


def bundle_nodes(
    shape: Shape,
    norm: Norm,
    n: int = 512,
    seed: int = 0,
    fiber_nodes: int = 16,
    patch_nodes: int = 1024,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes (points, normals, weights, stratum dims) on the bundle.

    Expands every stratum fiber into spherical quadrature nodes and pushes
    the fiber weights into dual coordinates: 1-dimensional fans carry the
    arc length of the dual-gradient image, spherical patches its area.
    Nodes come in stratum, fiber, node order, on which the interleaved
    half-sums of the quadrature error estimate rely; each stratum's fibers
    are expanded together.
    """
    blocks = []
    for s in shape.boundary_strata(n=n, seed=seed):
        kq = patch_nodes if s.kind == "patch" else fiber_nodes
        uu, ww = fiber_quadrature(s.kind, s.fibers, kq)  # (F, q, d), (F, q)
        q, d = uu.shape[1:]
        u = uu.reshape(-1, d)
        if s.kind in ("vector", "pair"):
            transport = np.ones(len(u))
        elif s.kind == "patch":
            E = tangent_basis(u)  # (k, 2, 3)
            H = norm.hessian(u)
            im0 = np.einsum("kde,ke->kd", H, E[:, 0])
            im1 = np.einsum("kde,ke->kd", H, E[:, 1])
            transport = np.linalg.norm(np.cross(im0, im1), axis=-1)
        else:
            tt = fiber_tangents(s.kind, s.fibers, kq).reshape(-1, d)
            transport = np.linalg.norm(np.einsum("kde,ke->kd", norm.hessian(u), tt), axis=-1)
        blocks.append(
            (
                np.repeat(s.points, q, axis=0),
                u,
                (s.weights[:, None] * ww * transport.reshape(-1, q)).ravel(),
                np.full(len(u), s.index),
            )
        )
    return tuple(np.concatenate(col) for col in zip(*blocks))


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
    fibers about ``patch_nodes`` area-weighted nodes.  With ``audit`` the
    probe is repeated at twice the radius and disagreeing samples flagged.
    """
    a, u, w0, strat = bundle_nodes(
        shape, norm, n=n, seed=seed, fiber_nodes=fiber_nodes, patch_nodes=patch_nodes
    )
    eta = norm.grad(u)

    reach, probe = _reach_and_probe(shape, norm, a, eta)

    kappa, tau, ambiguous = _curvatures_at_probe(shape, norm, a, eta, probe)
    if audit:
        kap2, _, _ = _curvatures_at_probe(shape, norm, a, eta, 2.0 * probe)
        both_fin = np.isfinite(kappa) & np.isfinite(kap2)
        with np.errstate(invalid="ignore"):  # inf - inf where both diverge
            diff = np.where(both_fin, np.abs(kappa - kap2), 0.0)
        scale = 1.0 + np.where(both_fin, np.abs(kappa), 0.0)
        audit_fail = (diff > 1e-4 * scale).any(axis=1) | (
            np.isfinite(kappa) != np.isfinite(kap2)
        ).any(axis=1)
    else:
        audit_fail = None

    J = bundle_jacobian(kappa, tau)
    weights = w0 / J

    return BundleSample(
        points=a,
        normals=u,
        eta=eta,
        phi_u=norm.value(u),
        weights=weights,
        jacobian=J,
        kappa=kappa,
        tau=tau,
        stratum=strat,
        reach=reach,
        probe=probe,
        ambiguous=ambiguous,
        audit_fail=audit_fail,
    )


def _reach_and_probe(shape, norm, a, eta):
    """Ray reach at each (a, eta) (+inf on convex sets) and the probe radius."""
    if shape.is_convex:
        reach = np.full(len(a), np.inf)
    else:
        reach = reach_along(shape, norm, a, eta, validate=False)
    return reach, np.minimum(PROBE_REACH_FRAC * reach, PROBE_DIAM_FRAC * shape.diameter)


def _curvatures_at_probe(shape, norm, a, eta, r):
    M, T, _ = normal_matrices(shape, norm, a, eta, r)
    chi, vec = eig_small(M)
    kappa, infinite, ambiguous = kappa_from_chi(chi, r)
    tau = np.einsum("nki,nid->nkd", vec, T)  # eigencoords -> ambient
    order = np.argsort(kappa, axis=1)
    rows = np.arange(len(a))[:, None]
    return kappa[rows, order], tau[rows, order], ambiguous.any(axis=1)


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
    a = a[None, :]
    eta = norm.grad(np.asarray(normal, dtype=float)[None, :])
    _, r = _reach_and_probe(shape, norm, a, eta)
    (M,), (T,), (u,) = normal_matrices(shape, norm, a, eta, r)
    K = M @ np.linalg.inv(np.eye(len(M)) - r[0] * M)
    return K, T, u


def pointwise_mean_curvature(shape: Shape, norm: Norm, a) -> float:
    """Trace of the pointwise anisotropic shape operator (sum of curvatures)."""
    M, _, _ = pointwise_shape_operator(shape, norm, a)
    return float(np.trace(M))
