"""Curvature measures, tube volumes, and the anisotropic Steiner formula.

The m-th curvature measure of a closed set weighs windows of bundle points
(a, u) by the (n-m)-th symmetric function of the generalized principal
curvatures, together with the support factor phi(u), the bundle Jacobian,
and the normalization 1/(n-m+1).  The totals are exactly the coefficients
of the tube-volume expansion: below the reach, the volume of the outer
phi-tube of radius rho is the polynomial

    sum_m  total_curvature(m) * rho^(n-m+1),

and beyond the reach the same bundle data still reproduces tube volumes
once every normal ray is truncated at its own reach (`steiner_predict`).
Tube volumes are also measured directly from the distance field by voxel
counting (`voxel_tube_volume`), which keeps an independent oracle in the
loop, and one-sided derivatives of the volume function expose the jump
contributed by boundary points whose reach equals rho exactly.

Flat-faced shapes admit a probe-free route (`fan_bundle`): faces carry zero
curvature, normal fans carry infinite curvature, and face measures are
exact, so quadrature error enters only through the fiber nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .curvature import BundleSample, bundle_nodes, bundle_sample
from .norms import Norm, tangent_basis
from .projection import distance_field
from .shapes import ConvexPolytope, EmptyInteriorError, FiberPair, Shape, fibonacci_sphere

__all__ = [
    "Window",
    "CurvatureReport",
    "TubeRecord",
    "StrataCoverageGap",
    "BudgetExceeded",
    "concat_bundles",
    "fan_bundle",
    "bundle_integral",
    "curvature_measure",
    "phi_perimeter",
    "voxel_tube_volume",
    "steiner_predict",
    "steiner_coefficients",
    "tube_record",
    "tube_polynomial_fit",
    "volume_derivatives",
]


class StrataCoverageGap(RuntimeError):
    """A boundary stratum of the shape has no samples in the given bundle."""


class BudgetExceeded(RuntimeError):
    """Voxel grid larger than the configured cap."""


# ======================================================================
# windows over the normal bundle
# ======================================================================


@dataclass
class Window:
    """Axis-box x normal-cap x stratum selector on bundle samples.

    Any field left at its default matches everything, so ``Window()`` is the
    whole bundle.  The normal cap keeps samples whose Euclidean unit normal
    u satisfies u . axis >= min_cos (axis gets normalized here).
    """

    name: str = "all"
    lo: Optional[Sequence[float]] = None
    hi: Optional[Sequence[float]] = None
    normal_axis: Optional[Sequence[float]] = None
    normal_min_cos: float = -1.0
    strata: Optional[Sequence[int]] = None

    def mask(self, sample: BundleSample) -> np.ndarray:
        keep = np.ones(len(sample), dtype=bool)
        if self.lo is not None:
            keep &= (sample.points >= np.asarray(self.lo, dtype=float)).all(axis=1)
        if self.hi is not None:
            keep &= (sample.points <= np.asarray(self.hi, dtype=float)).all(axis=1)
        if self.normal_axis is not None:
            axis = np.asarray(self.normal_axis, dtype=float)
            axis = axis / np.linalg.norm(axis)
            keep &= sample.normals @ axis >= self.normal_min_cos
        if self.strata is not None:
            keep &= np.isin(sample.stratum, np.asarray(self.strata, dtype=int))
        return keep


# ======================================================================
# bundle plumbing
# ======================================================================


def concat_bundles(samples: Sequence[BundleSample]) -> BundleSample:
    """Concatenate bundle samples (e.g. per-component unions) into one."""
    ss = list(samples)
    if not ss:
        raise ValueError("no bundle samples given")
    if len(ss) == 1:
        return ss[0]
    audits = [s.audit_fail for s in ss]
    return BundleSample(
        points=np.concatenate([s.points for s in ss]),
        normals=np.concatenate([s.normals for s in ss]),
        eta=np.concatenate([s.eta for s in ss]),
        phi_u=np.concatenate([s.phi_u for s in ss]),
        weights=np.concatenate([s.weights for s in ss]),
        jacobian=np.concatenate([s.jacobian for s in ss]),
        kappa=np.concatenate([s.kappa for s in ss]),
        tau=np.concatenate([s.tau for s in ss]),
        stratum=np.concatenate([s.stratum for s in ss]),
        reach=np.concatenate([s.reach for s in ss]),
        probe=np.concatenate([s.probe for s in ss]),
        ambiguous=np.concatenate([s.ambiguous for s in ss]),
        audit_fail=None if any(a is None for a in audits) else np.concatenate(audits),
    )


def _as_bundle(bundle: Union[BundleSample, Sequence[BundleSample]]) -> BundleSample:
    if isinstance(bundle, BundleSample):
        return bundle
    return concat_bundles(bundle)


def fan_bundle(
    shape: ConvexPolytope,
    norm: Norm,
    n: int = 512,
    seed: int = 0,
    fiber_nodes: int = 32,
    patch_nodes: int = 2048,
) -> BundleSample:
    """Probe-free bundle sample for a convex polytope.

    Faces are flat, so every curvature is known without finite differences:
    zero along the face, infinite across its normal fan.  Face measures in
    the stratum weights are exact and the bundle Jacobian is identically 1,
    which leaves fiber quadrature as the only error source.
    """
    if not isinstance(shape, ConvexPolytope):
        raise ValueError("the fan route is exact for convex polytopes only")
    a, u, w0, strat = bundle_nodes(
        shape, norm, n=n, seed=seed, fiber_nodes=fiber_nodes, patch_nodes=patch_nodes
    )
    nn = shape.dim - 1
    kappa = np.where(np.arange(nn)[None, :] < strat[:, None], 0.0, np.inf)
    ones = np.ones(len(a))
    return BundleSample(
        points=a,
        normals=u,
        eta=norm.grad(u),
        phi_u=norm.value(u),
        weights=w0,
        jacobian=ones,
        kappa=kappa,
        tau=tangent_basis(u),
        stratum=strat,
        reach=np.full(len(a), np.inf),
        probe=np.zeros(len(a)),
        ambiguous=np.zeros(len(a), dtype=bool),
    )


def _auto_bundle(shape, norm, bundle, n, seed):
    if bundle is not None:
        return _as_bundle(bundle)
    if isinstance(shape, ConvexPolytope):
        # memo on the polytope itself, so it dies with the shape it describes
        key = (norm.key, n, seed)
        b = shape.fan_bundles.get(key)
        if b is None:
            # threads racing here build the same bundle; all get the first
            b = shape.fan_bundles.setdefault(key, fan_bundle(shape, norm, n=n, seed=seed))
        return b
    return bundle_sample(shape, norm, n=n, seed=seed)


def bundle_integral(
    bundle: Union[BundleSample, Sequence[BundleSample]],
    r: int,
    window: Optional[Window] = None,
) -> float:
    """Weighted bundle integral of the r-th symmetric curvature function.

    Computes sum of weight * jacobian * phi(u) * H_r over the (optionally
    windowed) samples — the raw integral the curvature measures, the tube
    formula, and the rigidity checks are all built from.
    """
    b = _as_bundle(bundle)
    c = b.weights * b.jacobian * b.phi_u * b.mean_curvature(r)
    if window is not None:
        c = c[window.mask(b)]
    return float(c.sum())


# ======================================================================
# curvature measures
# ======================================================================


@dataclass
class CurvatureReport:
    """One curvature measure of a shape, totalled and localized."""

    m: int
    theta_total: float
    theta_on: dict = field(default_factory=dict)
    quadrature_se: float = 0.0
    stratum_breakdown: dict = field(default_factory=dict)
    abs_total: float = 0.0


def _split_half_se(contrib: np.ndarray, strat: np.ndarray) -> float:
    # difference of interleaved half-sums per stratum: the scale on which
    # halving the quadrature resolution moves the total
    se2 = 0.0
    for s in np.unique(strat):
        cs = contrib[strat == s]
        se2 += float(cs[0::2].sum() - cs[1::2].sum()) ** 2
    return float(np.sqrt(se2))


def curvature_measure(
    shape: Shape,
    norm: Norm,
    m: int,
    window: Union[Window, Sequence[Window], None] = None,
    bundle: Union[BundleSample, Sequence[BundleSample], None] = None,
    *,
    n: int = 512,
    seed: int = 0,
) -> CurvatureReport:
    """m-th curvature measure: total, per-window values, stratum breakdown.

    The defining integrand on the bundle is phi(u) * J * H_{n-m} with the
    prefactor 1/(n-m+1).  When no bundle is passed one is built on the fly —
    through the exact fan route for convex polytopes, through curvature
    probes otherwise.  Windows localize the measure; each named window gets
    its own signed value.  The absolute variant (|integrand| summed) is kept
    alongside to monitor integrability of the signed quadrature.
    """
    nn = shape.dim - 1
    if not 0 <= m <= nn:
        raise ValueError(f"curvature measure index m={m} outside 0..{nn}")
    b = _auto_bundle(shape, norm, bundle, n, seed)

    present = set(np.unique(b.stratum).tolist())
    needed = {s.index for s in shape.boundary_strata(n=8, seed=0)}
    if needed - present:
        raise StrataCoverageGap(
            f"bundle misses strata of dimension {sorted(needed - present)}"
        )

    r = nn - m
    pref = 1.0 / (r + 1)
    c = b.weights * b.jacobian * b.phi_u * b.mean_curvature(r)

    if window is None:
        windows = []
    elif isinstance(window, Window):
        windows = [window]
    else:
        windows = list(window)

    return CurvatureReport(
        m=m,
        theta_total=pref * float(c.sum()),
        theta_on={w.name: pref * float(c[w.mask(b)].sum()) for w in windows},
        quadrature_se=pref * _split_half_se(c, b.stratum),
        stratum_breakdown={
            int(s): pref * float(c[b.stratum == s].sum()) for s in np.unique(b.stratum)
        },
        abs_total=pref * float(np.abs(c).sum()),
    )


def phi_perimeter(shape: Shape, norm: Norm, n: int = 4096, seed: int = 0) -> float:
    """Anisotropic perimeter: the boundary integral of phi(outer normal).

    Quadrature runs over the top boundary stratum, whose points carry a
    single outward normal whenever the set has interior on one side; sets
    with empty interior (two-sided normals) are rejected.
    """
    vol = shape.volume()
    if vol is not None and vol <= 0.0:
        raise EmptyInteriorError(f"{shape.name} has empty interior")
    total = 0.0
    seen_top = False
    for s in shape.boundary_strata(n=n, seed=seed):
        if s.index != shape.dim - 1:
            continue
        seen_top = True
        if any(isinstance(f, FiberPair) for f in s.fibers):
            raise EmptyInteriorError(f"{shape.name} has empty interior")
        u = np.stack([np.asarray(f.u, dtype=float) for f in s.fibers])
        total += float(s.weights @ norm.value(u))
    if not seen_top:
        raise EmptyInteriorError(f"{shape.name} has no top boundary stratum")
    return total


# ======================================================================
# tube volumes: direct voxel measurement
# ======================================================================


def _unit_ball_radius(norm: Norm) -> float:
    """Largest Euclidean extent of the unit ball of the dual norm.

    A tube of radius rho reaches at most rho times this far from the set, so
    it fixes how much padding a voxel grid needs.  Sampled over directions
    with a safety margin; exact dual-norm balls are smooth, so 720 (d=2) or
    2048 (d=3) directions under-resolve the maximum by far less than 5%.
    """
    if norm.kind == "euclidean":
        return 1.0
    if norm.dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        u = np.c_[np.cos(t), np.sin(t)]
    else:
        u = fibonacci_sphere(2048)
    return 1.05 * float((1.0 / norm.conjugate(u)).max())


def _count_chunk(delta: np.ndarray, rho: np.ndarray, r_half: float):
    pos = np.sort(delta[delta > 0.0])
    cnt = np.searchsorted(pos, rho, side="right")
    cross = np.searchsorted(pos, rho + r_half, side="right") - np.searchsorted(
        pos, rho - r_half, side="right"
    )
    inner = np.searchsorted(pos, r_half, side="right")
    return cnt, cross, inner


def voxel_tube_volume(
    shape: Shape,
    norm: Norm,
    rho_grid,
    h: Optional[float] = None,
    *,
    voxel_cap: int = 60_000_000,
    on_budget: str = "mc",
    mc_budget: int = 10_000_000,
    seed: int = 0,
    cloud: Optional[int] = None,
    window: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tube volumes (outside the set, within phi-distance rho) by counting.

    Lays a voxel grid of pitch ``h`` over the padded bounding box and counts
    centers with 0 < delta <= rho; the companion error estimate charges a
    full voxel to every center within half a voxel diagonal of either
    interface, so it scales like h times the interface area.  Grids above
    ``voxel_cap`` cells either fall back to stratified Monte-Carlo with
    ``mc_budget`` points (``on_budget="mc"``, the default) or raise
    (``on_budget="raise"``).  An axis box ``window=(lo, hi)`` localizes the
    count to the tube's intersection with the box.

    Returns (volumes, error estimates) aligned with ``rho_grid``.
    """
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    if (rho <= 0).any():
        raise ValueError("tube radii must be positive")
    d = shape.dim
    if h is None:
        h = shape.diameter / (512.0 if d == 2 else 128.0)
    if cloud is None:
        cloud = 4096 if d == 2 else 32768
    lo, hi = shape.bounding_box()
    pad = float(rho.max()) * _unit_ball_radius(norm) + 3.0 * h
    lo, hi = lo - pad, hi + pad
    if window is not None:
        w_lo, w_hi = (np.asarray(w, dtype=float) for w in window)
        lo, hi = np.maximum(lo, w_lo), np.minimum(hi, w_hi)
        if (hi <= lo).any():
            return np.zeros(len(rho)), np.zeros(len(rho))
    counts_axis = np.ceil((hi - lo) / h).astype(int)
    total = int(np.prod(counts_axis))
    if total > voxel_cap:
        if on_budget == "raise":
            raise BudgetExceeded(
                f"{total} voxels exceed the cap of {voxel_cap}; "
                "pass a coarser h or on_budget='mc'"
            )
        return _mc_tube_volume(shape, norm, rho, lo, hi, mc_budget, seed, cloud)

    axes = [lo[k] + (np.arange(counts_axis[k]) + 0.5) * h for k in range(d)]
    r_half = 0.5 * h * np.sqrt(d)
    cnt = np.zeros(len(rho), dtype=np.int64)
    cross = np.zeros(len(rho), dtype=np.int64)
    inner = 0
    per_slice = int(np.prod(counts_axis[1:]))
    block = max(1, 4_000_000 // max(per_slice, 1))
    for i0 in range(0, counts_axis[0], block):
        sub = [axes[0][i0 : i0 + block]] + axes[1:]
        pts = np.stack(np.meshgrid(*sub, indexing="ij"), axis=-1).reshape(-1, d)
        delta = distance_field(shape, norm, pts, cloud=cloud)
        c, x, i = _count_chunk(delta, rho, r_half)
        cnt += c
        cross += x
        inner += int(i)
    cell = h**d
    return cnt * cell, (cross + 2 * inner) * cell


def _mc_tube_volume(shape, norm, rho, lo, hi, budget, seed, cloud):
    # one jittered sample per cell of a near-isotropic stratified grid
    d = len(lo)
    ext = hi - lo
    cell_lin = (np.prod(ext) / budget) ** (1.0 / d)
    m_axis = np.maximum(np.round(ext / cell_lin).astype(int), 1)
    n_cells = int(np.prod(m_axis))
    cell_size = ext / m_axis
    box_vol = float(np.prod(ext))
    rng = np.random.default_rng(seed)
    cnt = np.zeros(len(rho), dtype=np.int64)
    axes_idx = [np.arange(m) for m in m_axis]
    per_slice = int(np.prod(m_axis[1:]))
    block = max(1, 4_000_000 // max(per_slice, 1))
    for i0 in range(0, m_axis[0], block):
        sub = [axes_idx[0][i0 : i0 + block]] + axes_idx[1:]
        idx = np.stack(np.meshgrid(*sub, indexing="ij"), axis=-1).reshape(-1, d)
        pts = lo + (idx + rng.uniform(size=idx.shape)) * cell_size
        delta = distance_field(shape, norm, pts, cloud=cloud)
        pos = np.sort(delta[delta > 0.0])
        cnt += np.searchsorted(pos, rho, side="right")
    p_hat = cnt / n_cells
    vol = p_hat * box_vol
    err = box_vol * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n_cells)
    return vol, err


# ======================================================================
# tube volumes: bundle prediction
# ======================================================================


def steiner_coefficients(
    bundle: Union[BundleSample, Sequence[BundleSample]],
) -> np.ndarray:
    """Coefficients of rho^(j+1), j = 0..n, in the below-reach tube polynomial."""
    b = _as_bundle(bundle)
    base = b.weights * b.jacobian * b.phi_u
    return np.array(
        [float(base @ b.mean_curvature(j)) / (j + 1) for j in range(b.n + 1)]
    )


def steiner_predict(
    bundle: Union[BundleSample, Sequence[BundleSample]],
    rho_grid,
    truncate: bool = True,
) -> np.ndarray:
    """Tube volumes predicted from bundle data.

    With ``truncate`` each normal ray contributes min(rho, its reach) —
    valid for every rho.  Without it the pure polynomial in rho is
    evaluated, valid only below the global reach.
    """
    b = _as_bundle(bundle)
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    base = b.weights * b.jacobian * b.phi_u
    out = np.zeros(len(rho))
    for j in range(b.n + 1):
        hj = b.mean_curvature(j)
        if truncate:
            reach_cap = np.minimum(rho[:, None], b.reach[None, :])
            out += (reach_cap ** (j + 1)) @ (base * hj) / (j + 1)
        else:
            out += rho ** (j + 1) * float(base @ hj) / (j + 1)
    return out


def tube_polynomial_fit(rho_grid, volumes, degree: int) -> np.ndarray:
    """Least-squares fit of volumes by sum_{k=1..degree} c_k rho^k.

    The constant term is pinned to zero (a tube of radius 0 has no volume);
    returns the coefficients c_1..c_degree.  Below the reach these recover
    the Steiner coefficients, which makes the fit an independent route from
    measured volumes back to the curvature totals.
    """
    rho = np.asarray(rho_grid, dtype=float)
    A = rho[:, None] ** np.arange(1, degree + 1)[None, :]
    coef, *_ = np.linalg.lstsq(A, np.asarray(volumes, dtype=float), rcond=None)
    return coef


@dataclass
class TubeRecord:
    """Measured and predicted tube volumes over a radius grid."""

    rho_grid: np.ndarray
    voxel_volume: np.ndarray
    steiner_prediction: np.ndarray
    residuals: np.ndarray
    voxel_error: np.ndarray
    h: float


def tube_record(
    shape: Shape,
    norm: Norm,
    rho_grid,
    h: Optional[float] = None,
    bundle: Union[BundleSample, Sequence[BundleSample], None] = None,
    *,
    n: int = 512,
    seed: int = 0,
    truncate: bool = True,
    voxel_cap: int = 60_000_000,
    on_budget: str = "mc",
) -> TubeRecord:
    """Side-by-side voxel measurement and bundle prediction of tube volumes."""
    rho = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    d = shape.dim
    if h is None:
        h = shape.diameter / (512.0 if d == 2 else 128.0)
    vol, err = voxel_tube_volume(
        shape, norm, rho, h, voxel_cap=voxel_cap, on_budget=on_budget, seed=seed
    )
    b = _auto_bundle(shape, norm, bundle, n, seed)
    pred = steiner_predict(b, rho, truncate=truncate)
    return TubeRecord(
        rho_grid=rho,
        voxel_volume=vol,
        steiner_prediction=pred,
        residuals=pred - vol,
        voxel_error=err,
        h=float(h),
    )


# ======================================================================
# one-sided volume derivatives
# ======================================================================


def volume_derivatives(
    shape: Shape,
    norm: Norm,
    rho: float,
    window: Optional[Window] = None,
    bundle: Union[BundleSample, Sequence[BundleSample], None] = None,
    *,
    n: int = 512,
    seed: int = 0,
    reach_tol: float = 1e-6,
) -> tuple[float, float, float]:
    """One-sided derivatives of the tube volume at rho, and their jump.

    The right derivative sums rho^j-weighted curvature integrals over rays
    that survive strictly beyond rho, the left derivative over rays with
    reach at least rho; their difference is the (nonnegative, for the
    catalog) mass of the surface sheet whose reach equals rho exactly —
    nonzero for only countably many radii.  ``reach_tol`` widens the
    equality band to absorb the bisection tolerance of the reach values.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    b = _auto_bundle(shape, norm, bundle, n, seed)
    keep = np.ones(len(b), dtype=bool) if window is None else window.mask(b)
    base = b.weights * b.jacobian * b.phi_u
    tol = reach_tol * (1.0 + rho)
    sel_plus = keep & (b.reach > rho + tol)
    sel_minus = keep & (b.reach > rho - tol)
    v_plus = v_minus = 0.0
    for j in range(b.n + 1):
        cj = base * b.mean_curvature(j)
        v_plus += rho**j * float(cj[sel_plus].sum())
        v_minus += rho**j * float(cj[sel_minus].sum())
    return v_plus, v_minus, v_minus - v_plus
