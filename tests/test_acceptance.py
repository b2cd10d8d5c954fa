"""Acceptance gate: eleven end-to-end checks, one verdict line each.

Every test pins a headline guarantee of the library at a fixed tolerance —
norm duality, tube volumes against voxel counts, curvature oracles, the
probe oracle's agreement, polytope exactness, the integral identities, the
volume bound and its equality cases, the derivative jump at the reach, the
bubble classifier, the symmetric-mean chain, and the complement flip.  Each
test is independent and budgeted to run in well under a minute.
"""

import math

import numpy as np
import numpy.testing as npt

import _probe
from reachgeom.curvature import bundle_sample, elementary_symmetric
from reachgeom.measures import (
    curvature_measure,
    tube_polynomial_fit,
    tube_record,
    voxel_tube_volume,
)
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm
from reachgeom.shapes import DisjointUnion, WulffBody, make_catalog_shape
from reachgeom.theorems import (
    PreconditionFailed,
    alexandrov_classify,
    heintze_karcher_check,
    maclaurin_check,
    minkowski_check,
)

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))
Q411 = EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))

NORMS_2D = ((E2, "euclidean"), (Q41, "ellipsoidal"))
NORMS_3D = ((E3, "euclidean"), (Q411, "ellipsoidal"))


def spaced_union(norm, count):
    """Disjoint union of `count` unit dual balls spaced along the x-axis."""
    lo, hi = WulffBody(norm).bounding_box()
    step = 2.5 * float(np.max(hi - lo))
    origin = np.zeros(norm.dim)
    comps = []
    for i in range(count):
        c = origin.copy()
        c[0] = (i - (count - 1) / 2.0) * step
        comps.append(WulffBody(norm, center=c, radius=1.0, name=f"b{i}"))
    return DisjointUnion(comps, name=f"{count}-dual-balls")


def test_criterion_01_norm_duality_round_trips():
    worst = 0.0
    for norm, _ in NORMS_2D + NORMS_3D:
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1000, norm.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        on_ball = u / norm.value(u)[:, None]
        round1 = np.abs(norm.conjugate_grad(norm.grad(on_ball)) - on_ball).max()
        round2 = np.abs(norm.gauss_map(norm.gauss_inverse(u)) - u).max()
        worst = max(worst, float(round1), float(round2))
    assert worst <= 1e-8
    print(f"[PASS] criterion 1: duality round-trips, max error {worst:.2e} <= 1e-8")


def test_criterion_02_tube_volumes_match_voxel_counts():
    rho = np.linspace(0.1, 2.0, 20)
    worst = 0.0
    for key in ("disk", "unit-square", "ellipse-2-1", "two-disks-gap1"):
        for norm, tag in NORMS_2D:
            rec = tube_record(make_catalog_shape(key), norm, rho, n=512, seed=0)
            gate = np.abs(rec.residuals) <= 0.01 * rec.voxel_volume + rec.voxel_error
            assert gate.all(), f"{key}/{tag}: tube prediction off the voxel count"
            worst = max(worst, float(np.max(np.abs(rec.residuals) / rec.voxel_volume)))
    fit_rho = np.linspace(0.05, 0.6, 12)
    vols, _ = voxel_tube_volume(make_catalog_shape("unit-square"), E2, fit_rho, h=2 / 1024)
    fit = tube_polynomial_fit(fit_rho, vols, degree=2)
    npt.assert_allclose(fit, [4.0, np.pi], rtol=0.02)
    print(
        f"[PASS] criterion 2: tube volumes within 1%+err (worst rel {worst:.4f}); "
        f"square fit ({fit[0]:.4f}, {fit[1]:.4f}) ~ (4, pi)"
    )


def test_criterion_03_curvature_oracles():
    ellipse = make_catalog_shape("ellipse-2-1")
    b = bundle_sample(ellipse, E2, n=64, seed=0)
    x, y = b.points[:, 0], b.points[:, 1]
    oracle = 2.0 / (4.0 * y**2 + x**2 / 4.0) ** 1.5
    rel = float(np.max(np.abs(b.kappa[:, 0] - oracle) / oracle))
    assert len(b.points) >= 64 and rel <= 1e-3
    for norm, tag in NORMS_2D:
        radius = 0.8
        w = WulffBody(norm, radius=radius)
        bw = bundle_sample(w, norm, n=256, seed=0)
        npt.assert_allclose(bw.kappa, 1.0 / radius, rtol=1e-5,
                            err_msg=f"wulff self-test under {tag}")
    print(f"[PASS] criterion 3: ellipse oracle max rel {rel:.1e} <= 1e-3; "
          f"wulff self-test kappa = 1/rho to 1e-5 under both norms")


def test_criterion_04_probe_radius_invariance():
    # the audit's probes at the probe radius against the support-Hessian curvatures
    catalog = [
        ("disk", E2), ("unit-square", E2), ("ellipse-2-1", E2),
        ("two-disks-gap1", E2), ("two-disks-far", E2), ("two-disks-mixed", E2),
        ("cap-lens-0.25", E2), ("cap-lens-0.5", E2), ("segment-pair", E2),
        ("wulff", Q41), ("three-wulff", Q41),
        ("cube", E3), ("two-balls-3d", E3), ("wulff-3d", Q411),
    ]
    agree = total = 0
    for key, norm in catalog:
        shape = make_catalog_shape(key, norm)
        b = bundle_sample(shape, norm, n=256, seed=2)
        accepted = ~b.ambiguous
        agree += int((accepted & ~_probe.audit(shape, norm, b)).sum())
        total += int(accepted.sum())
    frac = agree / total
    assert frac >= 0.999
    print(f"[PASS] criterion 4: probes and support-Hessian curvatures agree on {frac:.2%} "
          f"of {total} accepted samples (>= 99.9%)")


def test_criterion_05_polytope_measure_exactness():
    sq = make_catalog_shape("unit-square")
    b_probe = bundle_sample(sq, E2, n=1024, seed=1)
    for m, want in ((1, 4.0), (0, np.pi)):
        fan = curvature_measure(sq, E2, m).theta_total
        probe = curvature_measure(sq, E2, m, bundle=b_probe).theta_total
        assert abs(fan - want) <= 0.005 * want
        assert abs(probe - want) <= 0.005 * want
        assert abs(fan - probe) <= 0.005 * want
    cube = make_catalog_shape("cube")
    bc = bundle_sample(cube, E3, n=512, seed=1)
    area = curvature_measure(cube, E3, 2).theta_total
    assert abs(area - 6.0) <= 0.005 * 6.0
    for m in (1, 0):  # edge- and vertex-dominated orders
        fan = curvature_measure(cube, E3, m)
        probe = curvature_measure(cube, E3, m, bundle=bc)
        for stratum, val in fan.stratum_breakdown.items():
            got = probe.stratum_breakdown[stratum]
            assert abs(got - val) <= 0.01 * max(abs(val), 1e-12) + 1e-12, (
                f"cube m={m} stratum {stratum}: probe {got} vs fan {val}"
            )
    print("[PASS] criterion 5: square (4, pi) and cube (6, 3pi, 4pi/3) exact "
          "via fan and probe routes (<= 0.5% / 1%)")


def test_criterion_06_minkowski_identities():
    worst = worst_vol = 0.0
    for key in ("disk", "unit-square", "ellipse-2-1", "wulff"):
        for norm, tag in NORMS_2D:
            shape = make_catalog_shape(key, norm)
            for r in range(1, shape.dim):
                v = minkowski_check(shape, norm, r, n=512, seed=0)
                assert v.passed, f"{key}/{tag} r={r}: residual {v.residual:.2e}"
                assert v.notes["volume_residual"] <= 0.01
                worst = max(worst, v.notes["boundary_residual"])
                worst_vol = max(worst_vol, v.notes["volume_residual"])
    print(f"[PASS] criterion 6: boundary identity residual <= {worst:.1e} (0.5%), "
          f"volume identity residual <= {worst_vol:.1e} (1%)")


def test_criterion_07_volume_bound_equality_and_slack():
    equality_cases = [
        (make_catalog_shape("wulff", E2), E2),
        (make_catalog_shape("wulff", Q41), Q41),
        (make_catalog_shape("wulff-3d", Q411), Q411),
        (make_catalog_shape("two-disks-far"), E2),
        (make_catalog_shape("two-balls-3d"), E3),
    ]
    worst = 0.0
    for shape, norm in equality_cases:
        v = heintze_karcher_check(shape, norm, n=512, seed=0)
        rel = abs(v.notes["slack"]) / v.lhs
        assert v.passed and rel <= 0.005, f"{shape.name}: slack {rel:.2%}"
        worst = max(worst, rel)
    for eps in (0.25, 0.5):
        lens = make_catalog_shape(f"cap-lens-{eps}")
        v = heintze_karcher_check(lens, E2, n=512, seed=0)
        want = 4.0 * eps * math.sqrt(1.0 - eps * eps)
        slack = v.notes["slack"]
        assert slack > 0 and abs(slack - want) <= 0.01 * want
    print(f"[PASS] criterion 7: equality within {worst:.2e} (0.5%) on dual balls "
          f"and unions; lens slack matches 4e(1-e^2)^(1/2) to 1%")


def test_criterion_08_volume_derivative_jump():
    segs = make_catalog_shape("segment-pair")
    t = 0.25
    rhos = [r0 + s for r0 in (0.5, 1.0, 1.5) for s in (-t, 0.0, t)]
    # localize to the segments' own x-extent so end caps do not contribute
    win = ([-2.0, -10.0], [2.0, 10.0])
    v, _ = voxel_tube_volume(segs, E2, rhos, h=segs.diameter / 1024, window=win)
    v = dict(zip(rhos, v))

    def jump(r0):
        back = (v[r0] - v[r0 - t]) / t
        fwd = (v[r0 + t] - v[r0]) / t
        return back - fwd

    at_reach = jump(1.0)
    assert abs(at_reach - 8.0) <= 0.02 * 8.0
    assert abs(jump(0.5)) <= 0.02 * 8.0
    assert abs(jump(1.5)) <= 0.02 * 8.0
    print(f"[PASS] criterion 8: derivative jump at the reach {at_reach:.4f} ~ 2L = 8 "
          f"(2%); no jump at rho = 0.5, 1.5")


def test_criterion_09_bubble_classifier():
    true_cases = []
    for norm, tag in NORMS_2D:
        true_cases += [
            (WulffBody(norm, radius=1.0), norm, (1,), 1, tag),
            (spaced_union(norm, 2), norm, (1,), 2, tag),
            (make_catalog_shape("three-wulff", norm), norm, (1,), 3, tag),
        ]
    for norm, tag in NORMS_3D:
        true_cases += [
            (WulffBody(norm, radius=1.0), norm, (1, 2), 1, tag),
            (spaced_union(norm, 2), norm, (1, 2), 2, tag),
            (spaced_union(norm, 3), norm, (1, 2), 3, tag),
        ]
    for shape, norm, orders, count, tag in true_cases:
        b = bundle_sample(shape, norm, n=512, seed=0)
        for r in orders:
            verdict = alexandrov_classify(shape, norm, r, bundle=b)
            assert verdict.is_bubble_union, f"{shape.name}/{tag} r={r}"
            assert verdict.count == count
            gap_pred, gap_alg = verdict.radius_consistency
            assert gap_pred <= 0.01 * verdict.radius
            assert gap_alg <= 0.01 * verdict.radius
    false_cases = ("unit-square", "ellipse-2-1", "cap-lens-0.25", "two-disks-mixed")
    reasons = {}
    for key in false_cases:
        verdict = alexandrov_classify(make_catalog_shape(key), E2, 1)
        assert not verdict.is_bubble_union and verdict.failure_reason
        reasons[key] = verdict.failure_reason
    print(f"[PASS] criterion 9: bubbles identified with (N, rho) in d=2,3 under "
          f"both norms; rejections: {reasons}")


def test_criterion_10_symmetric_mean_chain_sweep():
    rng = np.random.default_rng(42)
    n, k = 5, 3
    X = np.concatenate(
        [rng.standard_normal((80_000, n)), np.abs(rng.standard_normal((20_000, n)))]
    )
    S = elementary_symmetric(X, np.ones(X.shape, dtype=bool))
    scale = np.maximum(1.0, np.abs(X).max(axis=1))
    floor = -1e-12 * scale[:, None] ** np.arange(1, k + 1)[None, :]
    accepted = (S[:, 1 : k + 1] >= floor).all(axis=1)

    binom = np.array([math.comb(n, i) for i in range(1, k + 1)])
    means = np.maximum(S[accepted, 1 : k + 1] / binom, 0.0) ** (
        1.0 / np.arange(1, k + 1)
    )
    drops = means[:, :-1] - means[:, 1:]
    violations = int(
        (drops < -1e-10 * np.maximum(means[:, :1], 1e-300)).any(axis=1).sum()
    )
    assert violations == 0

    # the scalar checker must agree with the vectorized cone test
    idx = np.concatenate(
        [np.flatnonzero(accepted)[:150], np.flatnonzero(~accepted)[:150]]
    )
    for i in idx:
        try:
            got = maclaurin_check(X[i], k).passed
        except PreconditionFailed:
            got = False
        assert got == bool(accepted[i]), f"vector {i}: cone disagreement"
    print(f"[PASS] criterion 10: {len(X)} vectors, {int(accepted.sum())} accepted, "
          f"0 chain violations, scalar/vector cone agreement on {len(idx)} samples")


def test_criterion_11_complement_curvature_flip():
    worst = 0.0
    for key in ("disk", "ellipse-2-1"):
        shape = make_catalog_shape(key)
        comp = shape.complement()
        bs = bundle_sample(shape, E2, n=256, seed=3)
        bc = bundle_sample(comp, E2, n=256, seed=3)
        order = np.lexsort(bs.points.T)
        order_c = np.lexsort(bc.points.T)
        npt.assert_allclose(bs.points[order], bc.points[order_c], atol=1e-12)
        # curvature index i of the body pairs with index n+1-i of the complement
        err = float(
            np.max(np.abs(bs.kappa[order] + bc.kappa[order_c][:, ::-1]))
        )
        assert err <= 1e-4, f"{key}: flip error {err:.2e}"
        worst = max(worst, err)
    print(f"[PASS] criterion 11: complement flip on 256 samples of disk and "
          f"ellipse, max error {worst:.1e} <= 1e-4")
