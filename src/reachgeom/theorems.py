"""Numerical verdicts for the rigidity results of anisotropic curvature.

Every check here consumes the weighted normal-bundle samples produced by
:mod:`reachgeom.curvature` (or the exact fans of :mod:`reachgeom.measures`)
and renders a structured pass/fail record:

* Maclaurin chains: the normalized symmetric means of a curvature-type
  vector decrease with their order whenever the leading symmetric sums are
  nonnegative.
* Minkowski identities: the weighted boundary integral of the anisotropic
  surface density against H_{r-1} balances the support-weighted integral
  against H_r, and the support-weighted top-stratum mass recovers the
  volume.
* The inverse-mean-curvature bound: (n+1) * volume never exceeds n times
  the integral of phi(normal)/h_1 over the smooth part of the boundary,
  with equality exactly on disjoint unions of rescaled dual-ball bodies.
* Mean-convexity ledgers and the bubble classifier that decides whether a
  shape is such a union, recovering the common radius two independent ways.
  It reads each component's center off the normal bundle: the point of
  c + rho W with Euclidean normal u is c + rho grad phi(u).

All almost-everywhere hypotheses are interpreted as sample-quota conditions
at the stated tolerances; each verdict records the witnesses that violate a
claim so failures stay diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .curvature import BundleSample, elementary_symmetric
from .measures import _auto_bundle, bundle_integral
from .norms import Norm
from .projection import global_reach
from .shapes import Shape

__all__ = [
    "PreconditionFailed",
    "TheoremVerdict",
    "BubbleVerdict",
    "json_safe",
    "symmetric_sums",
    "maclaurin_check",
    "minkowski_check",
    "heintze_karcher_check",
    "mean_convexity_ledger",
    "alexandrov_classify",
    "lower_bound_rigidity",
]


class PreconditionFailed(RuntimeError):
    """A hypothesis of the checked statement does not hold on the input."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses if witnesses is not None else []


def json_safe(v):
    """Strict-JSON image of a result tree: non-finite floats become strings."""
    if isinstance(v, dict):
        return {k: json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_safe(x) for x in v]
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if np.isfinite(f) else repr(f)
    if isinstance(v, (np.integer, np.bool_)):
        return v.item()
    if isinstance(v, np.ndarray):
        return json_safe(v.tolist())
    return v


@dataclass
class TheoremVerdict:
    """Outcome of one identity or inequality check.

    For identities ``residual`` is the relative defect |lhs - rhs| / scale;
    for inequalities it is the relative size of the violation (0 when the
    inequality holds).  Either way ``passed`` is residual <= tolerance.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    witnesses: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_safe(asdict(self))


@dataclass(frozen=True)
class BubbleVerdict:
    """Decision on whether a shape is a disjoint union of equal bubbles.

    ``radius_consistency`` stores the gaps between the fitted radius and the
    two predicted radii (volume/perimeter quotient and the curvature-level
    formula).  When the verdict is negative, ``failure_reason`` names the
    first test that discriminated the shape.  Verdicts are shared
    (``Shape.bubble_verdicts``), so they are frozen and ``centers`` read-only.
    """

    is_bubble_union: bool
    count: int
    centers: np.ndarray
    radius: float
    radius_consistency: tuple
    failure_reason: Optional[str] = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.centers.setflags(write=False)

    def to_dict(self) -> dict:
        return json_safe(asdict(self))


# ======================================================================
# symmetric means
# ======================================================================


def symmetric_sums(x) -> np.ndarray:
    """Elementary symmetric sums S_0..S_n of a finite vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("expected a nonempty vector")
    if not np.isfinite(x).all():
        raise ValueError("entries must be finite")
    return elementary_symmetric(x[None, :], np.ones((1, len(x)), dtype=bool))[0]


def maclaurin_check(x, k: int, tolerance: float = 1e-10) -> TheoremVerdict:
    """Verify that the normalized symmetric means decrease up to order k.

    With S_i the i-th symmetric sum of x and E_i = S_i / binom(n, i), the
    chain E_1 >= E_2^(1/2) >= ... >= E_k^(1/k) holds whenever S_1..S_k are
    all nonnegative.  Vectors outside that cone are rejected.
    """
    x = np.asarray(x, dtype=float)
    S = symmetric_sums(x)
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for a vector of length {n}")
    scale = max(1.0, float(np.abs(x).max()))
    bad = [i for i in range(1, k + 1) if S[i] < -1e-12 * scale**i]
    if bad:
        raise PreconditionFailed(
            f"symmetric sums S_{bad} are negative: not in the order-{k} cone",
            witnesses=[{"i": i, "S_i": float(S[i])} for i in bad],
        )
    means = np.array(
        [max(S[i] / math.comb(n, i), 0.0) ** (1.0 / i) for i in range(1, k + 1)]
    )
    drops = means[:-1] - means[1:]  # should all be >= 0
    worst = float(drops.min()) if len(drops) else 0.0
    residual = max(0.0, -worst) / max(float(means[0]), 1e-300)
    return TheoremVerdict(
        name=f"maclaurin-k{k}",
        lhs=float(means[0]),
        rhs=float(means[-1]),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        notes={"means": means.tolist(), "sums": S[: k + 1].tolist()},
    )


# ======================================================================
# bundle-integral identities
# ======================================================================


def _require_finite_volume(shape: Shape) -> float:
    vol = shape.volume()
    if vol is None or not np.isfinite(vol) or vol <= 0:
        raise ValueError(f"{shape.name}: finite positive volume required")
    return float(vol)


def _support_weight(bundle: BundleSample) -> np.ndarray:
    """Position paired with the Euclidean unit normal, per sample."""
    return np.einsum("ij,ij->i", bundle.points, bundle.normals)


def minkowski_check(
    shape: Shape,
    norm: Norm,
    r: int,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    tolerance: float = 5e-3,
) -> TheoremVerdict:
    """Balance the order-r boundary identity and the volume identity.

    Checks (n-r+1) * integral of phi(u) J H_{r-1} against r * integral of
    (a . u) J H_r over the weighted bundle, and the support-weighted
    top-stratum mass against (n+1) * volume.  Both residuals are relative;
    the verdict keeps the larger one.
    """
    vol = _require_finite_volume(shape)
    b = _auto_bundle(shape, norm, bundle, n, seed)
    nn = b.n
    if not 1 <= r <= nn:
        raise ValueError(f"order r={r} out of range for boundary dimension {nn}")
    base = b.weights * b.jacobian
    support = _support_weight(b)
    lhs = (nn - r + 1) * float(np.sum(b.density * b.mean_curvature(r - 1)))
    rhs = r * float(np.sum(base * support * b.mean_curvature(r)))
    res_main = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    vol_lhs = float(np.sum(base * support * b.mean_curvature(0)))
    vol_rhs = (nn + 1) * vol
    res_vol = abs(vol_lhs - vol_rhs) / max(abs(vol_rhs), 1e-300)
    residual = max(res_main, res_vol)
    return TheoremVerdict(
        name=f"minkowski-r{r}",
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        notes={
            "boundary_residual": res_main,
            "volume_lhs": vol_lhs,
            "volume_rhs": vol_rhs,
            "volume_residual": res_vol,
        },
    )


def _alexandrov_mask(bundle: BundleSample) -> np.ndarray:
    """Samples at smooth-stratum points with finite curvature."""
    top = bundle.stratum == bundle.n
    return top & np.isfinite(bundle.kappa).all(axis=1)


def heintze_karcher_check(
    shape: Shape,
    norm: Norm,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    tolerance: float = 5e-3,
    tol_equality: float = 5e-3,
    h_floor: float = 1e-9,
    classify_equality: bool = False,
) -> TheoremVerdict:
    """Inverse-mean-curvature bound on the volume, with equality detection.

    Requires the sampled pointwise mean curvature h_1 to be nonnegative on
    the smooth boundary stratum.  Where h_1 vanishes the right side is
    infinite and the bound holds trivially (flagged in the notes).  When the
    two sides agree to ``tol_equality`` the equality flag is set and, on
    request, the bubble classifier corroborates the rigidity conclusion.
    """
    vol = _require_finite_volume(shape)
    b = _auto_bundle(shape, norm, bundle, n, seed)
    nn = b.n
    smooth = _alexandrov_mask(b)
    if not smooth.any():
        raise PreconditionFailed(f"{shape.name}: no smooth-stratum samples")
    h1 = b.mean_curvature(1)[smooth]
    w = b.density[smooth]
    tol_pre = 1e-7 * (1.0 + float(np.abs(h1).max()))
    neg = h1 < -tol_pre
    if neg.any():
        order = np.argsort(h1)
        pts = b.points[smooth][order[:8]]
        raise PreconditionFailed(
            f"{shape.name}: h_1 < 0 on {int(neg.sum())} smooth samples",
            witnesses=[
                {"point": p.tolist(), "h1": float(v)}
                for p, v in zip(pts, h1[order[:8]])
            ],
        )
    lhs = (nn + 1) * vol
    flat = h1 <= h_floor
    notes: dict = {"flat_weight": float(w[flat].sum())}
    if flat.any() and w[flat].sum() > 0:
        # a boundary piece of zero mean curvature makes the bound trivial
        rhs = np.inf
        slack = np.inf
        residual = 0.0
        notes["slack_flag"] = "INF"
    else:
        rhs = nn * float(np.sum(w / h1))
        slack = rhs - lhs
        residual = max(0.0, -slack) / lhs
    equality = np.isfinite(slack) and abs(slack) <= tol_equality * lhs
    notes["slack"] = float(slack)
    notes["equality"] = bool(equality)
    if equality and classify_equality:
        bubble = alexandrov_classify(shape, norm, 1, bundle=b, n=n, seed=seed)
        notes["bubble"] = bubble
        notes["rigidity_consistent"] = bool(bubble.is_bubble_union)
    return TheoremVerdict(
        name="heintze-karcher",
        lhs=lhs,
        rhs=float(rhs),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        notes=notes,
    )


def mean_convexity_ledger(
    shape: Shape,
    norm: Norm,
    r: int,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> TheoremVerdict:
    """Audit the order-r mean-convexity conditions on the sampled bundle.

    Requires h_1..h_{r-1} >= 0 at smooth-stratum samples and H_r >= 0 at
    every bundle sample; the worst offenders are reported as witnesses.
    """
    b = _auto_bundle(shape, norm, bundle, n, seed)
    nn = b.n
    if not 0 <= r <= nn:
        raise ValueError(f"order r={r} out of range for boundary dimension {nn}")
    witnesses = []
    worst = np.inf
    smooth = _alexandrov_mask(b)
    if smooth.any() and r >= 2:
        kap = b.kappa[smooth]
        e = elementary_symmetric(kap, np.isfinite(kap))
        for i in range(1, r):
            h_i = e[:, i]
            worst = min(worst, float(h_i.min()))
            bad = np.argsort(h_i)[:4]
            for j in bad:
                if h_i[j] < -tolerance:
                    witnesses.append(
                        {
                            "point": b.points[smooth][j].tolist(),
                            "order": i,
                            "value": float(h_i[j]),
                            "kind": "pointwise",
                        }
                    )
    H_r = b.mean_curvature(r)
    worst = min(worst, float(H_r.min()))
    bad = np.argsort(H_r)[:4]
    for j in bad:
        if H_r[j] < -tolerance:
            witnesses.append(
                {
                    "point": b.points[j].tolist(),
                    "order": r,
                    "value": float(H_r[j]),
                    "kind": "bundle",
                }
            )
    slack = worst if np.isfinite(worst) else 0.0
    residual = max(0.0, -slack)
    return TheoremVerdict(
        name=f"mean-convex-r{r}",
        lhs=float(slack),
        rhs=0.0,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        witnesses=witnesses,
        notes={"n_samples": len(b)},
    )


# ======================================================================
# bubble classifier
# ======================================================================


def _components(points, normals, norm, rho):
    """Centers, radii and fit residuals of the c + rho W through the samples.

    The point of c + rho W with Euclidean normal u is c + rho grad phi(u), so
    each sample (a, u) names the center c = a - rho grad phi(u).  Centers of
    disjoint c + rho W lie more than 2 rho apart in phi_*, so a center joins
    the group of the first unassigned sample when within rho of its center;
    groups are numbered by their first sample.  A group's center is the mean
    of its centers, its radius the mean of phi_*(a - center) and its residual
    the largest deviation from that mean.
    """
    centers = points - rho * norm.gauss_inverse(normals)
    labels = np.full(len(points), -1)
    count = 0
    while (free := np.flatnonzero(labels < 0)).size:
        labels[free[norm.conjugate(centers[free] - centers[free[0]]) <= rho]] = count
        count += 1
    groups = [labels == i for i in range(count)]
    means = np.stack([centers[g].mean(axis=0) for g in groups])
    dist = norm.conjugate(points - means[labels])
    radii = [float(dist[g].mean()) for g in groups]
    resid = [float(np.abs(dist[g] - rho_i).max()) for g, rho_i in zip(groups, radii)]
    return means, radii, resid


def alexandrov_classify(
    shape: Shape,
    norm: Norm,
    r: int,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    tol_const: float = 1e-3,
    tol_rad: float = 1e-2,
    tol_fit: float = 1e-3,
    tol_sing: float = 1e-3,
    check_gaps: bool = True,
) -> BubbleVerdict:
    """Decide whether a shape is a disjoint union of equal-radius bubbles.

    The discriminating sequence: the singular boundary strata must carry a
    negligible share of the bundle weight; H_r must be constant over the
    smooth stratum, yielding the level lambda = H_r / (r+1); the radius
    rho implied by lambda must match the volume/perimeter radius; and the
    boundary must split into translated dual balls c + rho_i W.  A
    smooth-stratum sample (a, u) names its center a - rho grad phi(u); the
    centers within rho (in phi_*) of the first unassigned one form a
    component, whose c is the mean of its centers.  phi_*(a - c) must stay
    within ``tol_fit`` (relative) of its mean rho_i over the component, and
    every rho_i within ``tol_rad`` of their mean.  When components are
    multiple, the pairwise center gaps are compared against twice the
    measured reach and recorded (a consistency report, not a pass/fail
    gate).

    On the shape's default bundle the verdict is memoized on the shape
    (``Shape.bubble_verdicts``) by norm key and the other arguments, and
    shared read-only; any other bundle is classified afresh.
    """
    vol = _require_finite_volume(shape)
    b = _auto_bundle(shape, norm, bundle, n, seed)
    tols = (tol_const, tol_rad, tol_fit, tol_sing)
    if b is not shape.bundles.get((norm.key, n, seed)):
        return _classify(shape, norm, r, b, vol, *tols, check_gaps)
    key = (norm.key, r, n, seed, *tols, check_gaps)
    verdict = shape.bubble_verdicts.get(key)
    if verdict is None:
        # threads racing here classify the same bundle; all get the first
        verdict = _classify(shape, norm, r, b, vol, *tols, check_gaps)
        verdict = shape.bubble_verdicts.setdefault(key, verdict)
    return verdict


def _classify(shape, norm, r, b, vol, tol_const, tol_rad, tol_fit, tol_sing, check_gaps):
    """The classification of ``alexandrov_classify`` on the bundle b."""
    nn = b.n

    def rejected(reason, **notes):
        return BubbleVerdict(
            is_bubble_union=False,
            count=0,
            centers=np.zeros((0, shape.dim)),
            radius=np.nan,
            radius_consistency=(np.nan, np.nan),
            failure_reason=reason,
            notes=notes,
        )

    top = b.stratum == nn
    frac_sing = float(b.weights[~top].sum()) / max(float(b.weights.sum()), 1e-300)
    if frac_sing > tol_sing:
        return rejected("singular-strata budget exceeded", singular_fraction=frac_sing)

    H_r = b.mean_curvature(r)[top]
    w = b.density[top]
    level = float(np.sum(w * H_r) / np.sum(w))
    spread = float(H_r.max() - H_r.min()) / max(abs(level), 1e-300)
    if spread > tol_const:
        return rejected(
            "curvature not constant", h_spread=spread, h_range=[H_r.min(), H_r.max()]
        )
    lam = level / (r + 1)
    if lam <= 1e-12:
        return rejected("nonpositive lambda", lam=lam)

    rho_alg = (math.comb(nn, r) / ((r + 1) * lam)) ** (1.0 / r)
    perim = bundle_integral(b, 0)
    rho_pred = (nn + 1) * vol / perim
    if abs(rho_alg - rho_pred) > tol_rad * rho_pred:
        return rejected(
            "radius mismatch", rho_alg=rho_alg, rho_pred=rho_pred, lam=lam
        )

    centers, radii, resid = _components(b.points[top], b.normals[top], norm, rho_alg)
    count = len(radii)
    radius = float(np.mean(radii))
    notes = {
        "lam": lam,
        "rho_alg": rho_alg,
        "rho_pred": rho_pred,
        "h_spread": spread,
        "component_radii": radii,
        "fit_residuals": resid,
        "singular_fraction": frac_sing,
    }
    if max(resid) > tol_fit * radius:
        return rejected("component fit residual too large", **notes)
    if max(abs(rho_i - radius) for rho_i in radii) > tol_rad * radius:
        return rejected("component radius mismatch", **notes)

    if count > 1 and check_gaps:
        est = global_reach(shape, norm)
        i, j = np.triu_indices(count, 1)
        gaps = (norm.conjugate(centers[j] - centers[i]) - 2.0 * radius).tolist()
        notes["center_gaps"] = gaps
        notes["two_reach"] = 2.0 * est.global_reach
        notes["reach_gap_ok"] = bool(
            min(gaps) >= 2.0 * est.global_reach - 1e-2 * (1.0 + radius)
        )
    return BubbleVerdict(
        is_bubble_union=True,
        count=count,
        centers=centers,
        radius=radius,
        radius_consistency=(abs(radius - rho_pred), abs(radius - rho_alg)),
        failure_reason=None,
        notes=notes,
    )


def lower_bound_rigidity(
    shape: Shape,
    norm: Norm,
    bundle: Optional[BundleSample] = None,
    *,
    n: int = 512,
    seed: int = 0,
    tolerance: float = 1e-3,
) -> TheoremVerdict:
    """Rigidity under the sharp curvature lower bound n / rho.

    With rho the volume/perimeter quotient, a shape whose sampled pointwise
    mean curvature everywhere reaches n / rho must be a disjoint union of
    radius-rho bubbles; the verdict asserts that implication by running the
    classifier.  When the hypothesis fails on a sample the implication is
    vacuous and the check passes with the witnesses recorded.
    """
    vol = _require_finite_volume(shape)
    b = _auto_bundle(shape, norm, bundle, n, seed)
    nn = b.n
    smooth = _alexandrov_mask(b)
    if not smooth.any():
        raise PreconditionFailed(f"{shape.name}: no smooth-stratum samples")
    rho = (nn + 1) * vol / bundle_integral(b, 0)
    bound = nn / rho
    h1 = b.mean_curvature(1)[smooth]
    short = h1 < bound * (1.0 - tolerance)
    if short.any():
        order = np.argsort(h1)
        worst = [
            {"point": b.points[smooth][j].tolist(), "h1": float(h1[j])}
            for j in order[:4]
        ]
        return TheoremVerdict(
            name="lower-bound-rigidity",
            lhs=float(h1.min()),
            rhs=float(bound),
            residual=0.0,
            tolerance=tolerance,
            passed=True,
            witnesses=worst,
            notes={"hypothesis": False, "rho": float(rho)},
        )
    bubble = alexandrov_classify(shape, norm, 1, bundle=b, n=n, seed=seed)
    residual = 0.0 if bubble.is_bubble_union else 1.0
    return TheoremVerdict(
        name="lower-bound-rigidity",
        lhs=float(h1.min()),
        rhs=float(bound),
        residual=residual,
        tolerance=tolerance,
        passed=bubble.is_bubble_union,
        notes={
            "hypothesis": True,
            "rho": float(rho),
            "bubble": bubble,
            "framework_error": None
            if bubble.is_bubble_union
            else f"hypothesis held but classifier said: {bubble.failure_reason}",
        },
    )
