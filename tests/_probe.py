"""Finite-difference probe of the level-set normal map: the tests' curvature oracle.

The package reads every curvature from support Hessians
(``curvature.support_curvatures``).  This module repeats them independently,
from distances alone.  Put x = a + r eta, eta = grad phi(u), r below the ray
reach.  The field ``nu(y) = (y - foot(y)) / delta(y)``, with feet from
``nearest_points``, has on the tangent plane the eigenvalues
``chi_i = kappa_i / (1 + r kappa_i)``, so ``kappa = chi / (1 - r chi)``,
with ``1 - r chi <= tol`` read as an infinite curvature; r is at most
``PROBE_REACH_FRAC`` of the ray reach.
"""

import numpy as np

from reachgeom.curvature import eig_small
from reachgeom.norms import Norm, tangent_basis
from reachgeom.projection import nearest_points, reach_along
from reachgeom.shapes import Shape

TOL_INF = 1e-6  # 1 - r*chi at or below this reads as kappa = +inf
AMBIG_FACTOR = 10.0  # |1 - r*chi| below AMBIG_FACTOR*TOL_INF flags the sample
PROBE_REACH_FRAC = 0.1
PROBE_DIAM_FRAC = 0.05
FD_FRAC = 1e-4  # tangential step, relative to the probe radius


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


def _reach_and_probe(shape, norm, a, eta):
    """Ray reach at each (a, eta) (+inf on convex sets) and the probe radius."""
    reach = reach_along(shape, norm, a, eta, validate=False)
    return reach, np.minimum(PROBE_REACH_FRAC * reach, PROBE_DIAM_FRAC * shape.diameter)


def audit(shape: Shape, norm: Norm, bundle) -> np.ndarray:
    """(N,) bool: the samples of ``bundle`` (a ``bundle_sample`` of ``shape``
    under ``norm``) whose probed curvatures disagree with ``bundle.kappa``.

    A finite curvature agrees to 1e-4 (1 + |kappa|), an infinite one exactly.
    """
    a, u, kappa = bundle.points, bundle.normals, bundle.kappa
    _, probe = _reach_and_probe(shape, norm, a, norm.grad(u))
    M, _ = normal_matrices(shape, norm, a, u, probe)
    # within its ambiguity band the probe cannot tell 1 - r chi from 0
    kap, _, _ = kappa_from_chi(eig_small(M)[0], probe, AMBIG_FACTOR * TOL_INF)
    kap = np.sort(kap, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf where both diverge
        close = np.abs(kappa - kap) <= 1e-4 * (1.0 + np.abs(kappa))
    return ~np.where(np.isfinite(kappa), close, np.isinf(kap)).all(axis=1)
