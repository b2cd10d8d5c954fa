"""Rigidity verdicts: symmetric-mean chains, boundary identities, bubbles."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom.cli import load_config, run
from reachgeom.curvature import bundle_sample
from reachgeom import theorems
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, SmoothedLpNorm
from reachgeom.shapes import WulffBody, make_catalog_shape
from reachgeom.theorems import (
    BubbleVerdict,
    PreconditionFailed,
    TheoremVerdict,
    _components,
    alexandrov_classify,
    heintze_karcher_check,
    lower_bound_rigidity,
    maclaurin_check,
    mean_convexity_ledger,
    minkowski_check,
    symmetric_sums,
)

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))
Q411 = EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))

_BUNDLES = {}


def cached_bundle(key, norm):
    """One probe bundle per (catalog key, norm) for the whole module."""
    k = (key, id(norm))
    if k not in _BUNDLES:
        _BUNDLES[k] = bundle_sample(make_catalog_shape(key, norm), norm, n=512)
    return _BUNDLES[k]


class TestMaclaurin:
    def test_symmetric_sums(self):
        npt.assert_allclose(symmetric_sums([3.0, 1.0]), [1.0, 4.0, 3.0])
        npt.assert_allclose(symmetric_sums([4.0, 1.0, 1.0]), [1.0, 6.0, 9.0, 4.0])

    def test_equal_entries_chain_is_flat(self):
        v = maclaurin_check([1.0, 1.0], 2)
        assert v.passed
        npt.assert_allclose(v.notes["means"], [1.0, 1.0], rtol=1e-14)

    def test_two_entry_chain(self):
        v = maclaurin_check([3.0, 1.0], 2)
        assert v.passed
        npt.assert_allclose(v.notes["means"], [2.0, np.sqrt(3.0)], rtol=1e-14)

    def test_three_entry_chain(self):
        v = maclaurin_check([4.0, 1.0, 1.0], 3)
        assert v.passed
        npt.assert_allclose(
            v.notes["means"], [2.0, np.sqrt(3.0), 4.0 ** (1.0 / 3.0)], rtol=1e-14
        )

    def test_outside_cone_rejected(self):
        with pytest.raises(PreconditionFailed) as exc:
            maclaurin_check([-3.0, 1.0], 2)
        assert exc.value.witnesses[0]["i"] == 1

    def test_mixed_signs_fine_at_low_order_rejected_at_high(self):
        assert maclaurin_check([5.0, -1.0], 1).passed
        with pytest.raises(PreconditionFailed):
            maclaurin_check([5.0, -1.0], 2)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            maclaurin_check([1.0, 2.0], 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=6),
    )
    def test_positive_vectors_always_chain(self, entries):
        x = np.array(entries)
        v = maclaurin_check(x, len(x))
        assert v.passed
        means = np.array(v.notes["means"])
        assert (np.diff(means) <= 1e-10 * means[0]).all()


class TestMinkowski:
    @pytest.mark.parametrize(
        "key,norm",
        [
            ("disk", E2),
            ("disk", Q41),
            ("unit-square", E2),
            ("unit-square", Q41),
        ],
        ids=["disk-euclid", "disk-aniso", "square-euclid", "square-aniso"],
    )
    def test_first_order_balance_2d(self, key, norm):
        shape = make_catalog_shape(key, norm)
        bundle = None if key == "unit-square" else cached_bundle(key, norm)
        v = minkowski_check(shape, norm, 1, bundle=bundle)
        assert v.passed
        assert v.residual < 1e-6
        assert v.notes["volume_residual"] < 1e-6

    @pytest.mark.parametrize("norm", [E3, Q411], ids=["euclid", "aniso"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_cube_all_orders(self, norm, r):
        v = minkowski_check(make_catalog_shape("cube"), norm, r)
        assert v.passed
        # r = 2 weighs the vertex patches too
        assert v.residual < (1e-6 if r == 1 else 1e-9)

    def test_ellipse_probe_route(self):
        v = minkowski_check(
            make_catalog_shape("ellipse-2-1"), E2, 1, bundle=cached_bundle("ellipse-2-1", E2)
        )
        assert v.passed

    def test_union_of_disks(self):
        v = minkowski_check(
            make_catalog_shape("two-disks-far"), E2, 1, bundle=cached_bundle("two-disks-far", E2)
        )
        assert v.passed

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            minkowski_check(make_catalog_shape("disk"), E2, 0, bundle=cached_bundle("disk", E2))

    def test_infinite_volume_rejected(self):
        with pytest.raises(ValueError):
            minkowski_check(make_catalog_shape("disk").complement(), E2, 1)


class TestHeintzeKarcher:
    def test_disk_equality_and_rigidity(self):
        v = heintze_karcher_check(
            make_catalog_shape("disk"), E2, bundle=cached_bundle("disk", E2),
            classify_equality=True,
        )
        assert v.passed
        assert v.notes["equality"]
        assert abs(v.notes["slack"]) < 1e-8
        assert v.notes["bubble"].is_bubble_union
        assert v.notes["rigidity_consistent"]

    def test_square_flat_boundary_is_trivial(self):
        v = heintze_karcher_check(make_catalog_shape("unit-square"), E2)
        assert v.passed
        assert v.notes["slack_flag"] == "INF"
        assert np.isinf(v.rhs)

    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_lens_slack_closed_form(self, eps):
        # strict inequality on the two-cap body: the slack equals the
        # difference between the smooth perimeter and twice the area, which
        # collapses to 4 * eps * sqrt(1 - eps^2)
        lens = make_catalog_shape(f"cap-lens-{eps}")
        v = heintze_karcher_check(lens, E2)
        assert v.passed
        npt.assert_allclose(
            v.notes["slack"], 4 * eps * np.sqrt(1 - eps * eps), rtol=1e-7
        )
        assert not v.notes["equality"]

    def test_two_balls_equality_3d(self):
        v = heintze_karcher_check(
            make_catalog_shape("two-balls-3d"), E3,
            bundle=cached_bundle("two-balls-3d", E3), classify_equality=True,
        )
        assert v.passed and v.notes["equality"]
        assert v.notes["bubble"].count == 2

    def test_wulff_union_equality_anisotropic(self):
        v = heintze_karcher_check(
            make_catalog_shape("three-wulff", Q41), Q41,
            bundle=cached_bundle("three-wulff", Q41), classify_equality=True,
        )
        assert v.passed and v.notes["equality"]
        assert v.notes["bubble"].count == 3

    def test_verdict_serializes(self):
        v = heintze_karcher_check(
            make_catalog_shape("disk"), E2, bundle=cached_bundle("disk", E2),
            classify_equality=True,
        )
        json.dumps(v.to_dict(), allow_nan=False)


class TestMeanConvexity:
    @pytest.mark.parametrize(
        "key,norm", [("disk", E2), ("ellipse-2-1", E2), ("disk", Q41)]
    )
    def test_smooth_convex_passes(self, key, norm):
        b = cached_bundle(key, norm)
        shape = make_catalog_shape(key, norm)
        v = mean_convexity_ledger(shape, norm, 1, bundle=b)
        assert v.passed and not v.witnesses

    def test_polytopes_pass_every_order(self):
        sq = make_catalog_shape("unit-square")
        assert mean_convexity_ledger(sq, E2, 1).passed
        cube = make_catalog_shape("cube")
        for r in (1, 2):
            assert mean_convexity_ledger(cube, E3, r).passed

    def test_complement_of_disk_fails(self):
        v = mean_convexity_ledger(make_catalog_shape("disk").complement(), E2, 1)
        assert not v.passed
        assert v.lhs == pytest.approx(-1.0, rel=1e-6)
        assert any(w["value"] < -0.9 for w in v.witnesses)

    def test_lens_passes_first_order(self):
        v = mean_convexity_ledger(make_catalog_shape("cap-lens-0.5"), E2, 1)
        assert v.passed


class TestAlexandrovClassify:
    def test_disk_single_bubble(self):
        v = alexandrov_classify(
            make_catalog_shape("disk"), E2, 1, bundle=cached_bundle("disk", E2)
        )
        assert v.is_bubble_union and v.count == 1
        npt.assert_allclose(v.radius, 1.0, rtol=1e-6)
        npt.assert_allclose(v.centers[0], [0.0, 0.0], atol=1e-6)
        assert max(v.radius_consistency) < 1e-4

    def test_wulff_body_matching_norm(self):
        v = alexandrov_classify(
            make_catalog_shape("wulff", Q41), Q41, 1, bundle=cached_bundle("wulff", Q41)
        )
        assert v.is_bubble_union and v.count == 1
        npt.assert_allclose(v.radius, 1.0, rtol=1e-5)

    def test_ellipse_is_the_dual_ball_of_its_norm(self):
        # same boundary, two readings: a bubble for the matching norm,
        # curvature spread for the Euclidean one
        ell = make_catalog_shape("ellipse-2-1")
        v = alexandrov_classify(ell, Q41, 1, bundle=cached_bundle("ellipse-2-1", Q41))
        assert v.is_bubble_union
        npt.assert_allclose(v.radius, 1.0, rtol=1e-5)
        w = alexandrov_classify(ell, E2, 1, bundle=cached_bundle("ellipse-2-1", E2))
        assert not w.is_bubble_union
        assert w.failure_reason == "curvature not constant"

    def test_three_wulff_union(self):
        v = alexandrov_classify(
            make_catalog_shape("three-wulff", Q41), Q41, 1,
            bundle=cached_bundle("three-wulff", Q41),
        )
        assert v.is_bubble_union and v.count == 3
        npt.assert_allclose(sorted(v.centers[:, 0]), [-10.0, 0.0, 10.0], atol=1e-5)
        assert v.notes["reach_gap_ok"]

    def test_two_disks_far(self):
        v = alexandrov_classify(
            make_catalog_shape("two-disks-far"), E2, 1,
            bundle=cached_bundle("two-disks-far", E2),
        )
        assert v.is_bubble_union and v.count == 2
        npt.assert_allclose(sorted(v.centers[:, 0]), [-3.0, 3.0], atol=1e-6)
        assert v.notes["reach_gap_ok"]

    @pytest.mark.parametrize("key", ["unit-square", "cap-lens-0.25"])
    def test_singular_strata_disqualify(self, key):
        shape = make_catalog_shape(key)
        v = alexandrov_classify(shape, E2, 1)
        assert not v.is_bubble_union
        assert v.failure_reason == "singular-strata budget exceeded"
        assert v.notes["singular_fraction"] > 1e-3

    def test_rejected_verdict_is_strict_json(self):
        v = alexandrov_classify(make_catalog_shape("unit-square"), E2, 1)
        assert np.isnan(v.radius)
        d = json.loads(json.dumps(v.to_dict(), allow_nan=False))
        assert (d["is_bubble_union"], d["count"], d["centers"]) == (False, 0, [])
        assert d["radius"] == "nan" and d["radius_consistency"] == ["nan", "nan"]

    def test_mixed_radii_disqualify(self):
        v = alexandrov_classify(
            make_catalog_shape("two-disks-mixed"), E2, 1,
            bundle=cached_bundle("two-disks-mixed", E2),
        )
        assert not v.is_bubble_union
        assert v.failure_reason == "curvature not constant"

    def test_small_offset_wulff_body(self):
        # a radius other than 1 scales the support points off the centers
        shape = WulffBody(Q41, center=[0.5, -0.25], radius=0.5)
        v = alexandrov_classify(shape, Q41, 1)
        assert v.is_bubble_union and v.count == 1
        npt.assert_allclose(v.centers, [[0.5, -0.25]], atol=1e-9)
        npt.assert_allclose(v.radius, 0.5, rtol=1e-9)

    def test_unequal_components_disqualify(self):
        # at a loose curvature tolerance the two disks pass as constant H_1,
        # and their fitted radii, 1 and 1.6, tell them apart
        v = alexandrov_classify(
            make_catalog_shape("two-disks-mixed"), E2, 1,
            bundle=cached_bundle("two-disks-mixed", E2), tol_const=1.0, tol_rad=0.1,
        )
        assert not v.is_bubble_union
        assert v.failure_reason == "component radius mismatch"
        npt.assert_allclose(sorted(v.notes["component_radii"]), [1.0, 1.6], rtol=1e-6)

    def test_wavy_disk_fails_its_fit(self):
        # the disk's bundle with its points moved out by 1% of sin(5 theta):
        # curvatures and weights are the disk's, the points are not on a circle
        b = cached_bundle("disk", E2)
        theta = np.arctan2(b.points[:, 1], b.points[:, 0])
        wavy = replace(b, points=b.points * (1.0 + 0.01 * np.sin(5.0 * theta))[:, None])
        v = alexandrov_classify(make_catalog_shape("disk"), E2, 1, bundle=wavy)
        assert not v.is_bubble_union
        assert v.failure_reason == "component fit residual too large"
        npt.assert_allclose(v.notes["fit_residuals"], [0.01], rtol=0.05)

    @pytest.mark.parametrize(
        "key,norm", [("disk", E2), ("ellipse-2-1", Q41), ("wulff-3d", Q411)],
        ids=lambda v: v if isinstance(v, str) else v.kind,
    )
    def test_cap_reads_the_center_off_its_normals(self, key, norm):
        # a boundary cap, whose centroid is far from the center
        b = cached_bundle(key, norm)
        cap = (b.stratum == b.n) & (b.points[:, 1] > -0.3)
        assert abs(b.points[cap].mean(axis=0)[1]) > 0.1
        centers, radii, resid = _components(b.points[cap], b.normals[cap], norm, 1.0)
        npt.assert_allclose(centers, 0.0, atol=1e-9)
        npt.assert_allclose(radii, 1.0, rtol=1e-9)
        assert max(resid) < 1e-9

    @pytest.mark.parametrize("r", [1, 2])
    def test_wulff_3d_both_orders(self, r):
        v = alexandrov_classify(
            make_catalog_shape("wulff-3d", Q411), Q411, r,
            bundle=cached_bundle("wulff-3d", Q411),
        )
        assert v.is_bubble_union and v.count == 1
        npt.assert_allclose(v.radius, 1.0, rtol=1e-4)
        assert v.notes["lam"] > 0

    @pytest.mark.parametrize("r", [1, 2])
    def test_two_balls_3d_both_orders(self, r):
        v = alexandrov_classify(
            make_catalog_shape("two-balls-3d"), E3, r,
            bundle=cached_bundle("two-balls-3d", E3),
        )
        assert v.is_bubble_union and v.count == 2
        npt.assert_allclose(v.radius, 1.0, rtol=1e-4)

    def test_radius_agrees_both_ways(self):
        # the volume/perimeter quotient and the curvature-level radius are
        # independent estimates; on a true bubble both land on the fit
        v = alexandrov_classify(
            make_catalog_shape("two-disks-far"), E2, 1,
            bundle=cached_bundle("two-disks-far", E2),
        )
        assert max(v.radius_consistency) < 1e-6

    def test_verdict_serializes(self):
        v = alexandrov_classify(
            make_catalog_shape("three-wulff", Q41), Q41, 1,
            bundle=cached_bundle("three-wulff", Q41),
        )
        json.dumps(v.to_dict(), allow_nan=False)


def _scipy_components(points):
    """Reference labels: kd-tree single linkage and csgraph components."""
    from scipy import sparse
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    dd, _ = tree.query(points, k=2)
    pairs = tree.query_pairs(3.0 * float(dd[:, 1].mean()), output_type="ndarray")
    m = len(points)
    adj = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    return sparse.csgraph.connected_components(adj, directed=False)[1]


def _scipy_fit(points, norm):
    """Reference dual-ball fit: (center, max residual) from least_squares."""
    from scipy.optimize import least_squares

    def spread(c):
        g = norm.conjugate(points - c)
        return g - g.mean()

    sol = least_squares(spread, points.mean(axis=0), xtol=1e-14, ftol=1e-14)
    return sol.x, float(np.abs(spread(sol.x)).max())


LP3 = SmoothedLpNorm(3, 3)
_ROT = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
QROT = EllipsoidalNorm(_ROT @ np.diag([4.0, 1.0]) @ _ROT.T)


class TestClassifierAgainstScipy:
    """The verdict's components and centers reproduce the scipy route."""

    @pytest.mark.parametrize(
        "key,norm,r",
        [
            ("disk", E2, 1),
            ("ellipse-2-1", E2, 1),
            ("ellipse-2-1", Q41, 1),
            ("two-disks-gap1", E2, 1),
            ("two-disks-far", E2, 1),
            ("two-disks-mixed", E2, 1),
            ("three-wulff", Q41, 1),
            ("three-wulff", QROT, 1),
            ("wulff-3d", Q411, 1),
            ("wulff-3d", LP3, 1),
            ("wulff-3d", LP3, 2),
            ("two-balls-3d", E3, 1),
        ],
        ids=lambda v: v if isinstance(v, str) else getattr(v, "kind", None),
    )
    def test_verdict_matches_the_references(self, key, norm, r):
        b = cached_bundle(key, norm)
        points = b.points[b.stratum == b.n]
        labels = _scipy_components(points)
        # the components in the order of their first top-stratum sample
        _, firsts = np.unique(labels, return_index=True)
        comps = [points[labels == labels[f]] for f in np.sort(firsts)]
        fits = [_scipy_fit(comp, norm) for comp in comps]
        radii = [float(norm.conjugate(comp - c).mean()) for comp, (c, _) in zip(comps, fits)]
        # a union of equal dual balls, by the references at the verdict's tolerances
        bubble = max(res for _, res in fits) <= 1e-3 * np.mean(radii) and (
            np.ptp(radii) <= 1e-2 * np.mean(radii)
        )
        v = alexandrov_classify(make_catalog_shape(key, norm), norm, r, bundle=b)
        assert v.is_bubble_union == bubble
        if bubble:
            assert v.count == len(comps)
            # centers follow each component's first top-stratum sample
            for center, (center_ref, _) in zip(v.centers, fits):
                npt.assert_allclose(center, center_ref, rtol=0.0, atol=1e-9)


class TestLowerBoundRigidity:
    def test_disk_tight_bound_forces_bubble(self):
        v = lower_bound_rigidity(make_catalog_shape("disk"), E2, bundle=cached_bundle("disk", E2))
        assert v.passed and v.notes["hypothesis"]
        assert v.notes["bubble"].is_bubble_union
        npt.assert_allclose(v.rhs, 1.0, rtol=1e-6)  # n / rho with rho = 1

    def test_two_disks_far_hypothesis_holds(self):
        v = lower_bound_rigidity(
            make_catalog_shape("two-disks-far"), E2, bundle=cached_bundle("two-disks-far", E2)
        )
        assert v.passed and v.notes["hypothesis"]
        assert v.notes["bubble"].count == 2

    def test_lens_hypothesis_fails_quietly(self):
        # rho = 2 Area / Perimeter < 1 makes the bound exceed the curvature:
        # the implication is vacuous, witnesses record the shortfall
        v = lower_bound_rigidity(make_catalog_shape("cap-lens-0.5"), E2)
        assert v.passed and not v.notes["hypothesis"]
        assert v.witnesses and v.witnesses[0]["h1"] == pytest.approx(1.0, rel=1e-6)
        assert v.rhs > 1.0

    def test_square_hypothesis_fails_on_flat_edges(self):
        v = lower_bound_rigidity(make_catalog_shape("unit-square"), E2)
        assert v.passed and not v.notes["hypothesis"]

    def test_mixed_radii_hypothesis_fails_on_big_component(self):
        v = lower_bound_rigidity(
            make_catalog_shape("two-disks-mixed"), E2,
            bundle=cached_bundle("two-disks-mixed", E2),
        )
        assert v.passed and not v.notes["hypothesis"]
        assert v.lhs == pytest.approx(1.0 / 1.6, rel=1e-6)


VERIFY_WULFF = """
seed = 0

[norm aniso]
kind = ellipsoidal
diag = 4, 1

[shape wulff]
catalog = three-wulff
norm = aniso

[check wulff-verify]
type = verify
shape = wulff
norm = aniso
heintze_karcher = true
classify_equality = true
alexandrov = 1
lower_bound = true
"""


class TestBubbleMemo:
    """One classification per default bundle, shared read-only."""

    @staticmethod
    def _count_classifications(monkeypatch):
        calls = []

        def counting(points, *args):
            calls.append(len(points))
            return _components(points, *args)

        monkeypatch.setattr(theorems, "_components", counting)
        return calls

    def test_verify_check_classifies_once(self, tmp_path, monkeypatch):
        calls = self._count_classifications(monkeypatch)
        path = tmp_path / "wulff.cfg"
        path.write_text(VERIFY_WULFF, encoding="utf-8")
        status, summary = run(load_config(path))
        assert status == 0
        hk, alex, lower = summary["checks"][0]["verdicts"]
        assert hk["equality"] and alex["is_bubble_union"] and lower["hypothesis"]
        assert len(calls) == 1

    def test_other_bundle_is_classified_afresh(self, monkeypatch):
        shape = make_catalog_shape("three-wulff", Q41)
        first = alexandrov_classify(shape, Q41, 1)
        own = shape.bundles[(Q41.key, 512, 0)]
        calls = self._count_classifications(monkeypatch)
        assert alexandrov_classify(shape, Q41, 1, bundle=own) is first
        assert alexandrov_classify(shape, Q41, 1, tol_fit=2e-3) is not first
        assert len(calls) == 1
        other = bundle_sample(shape, Q41, n=256)
        for n in (512, 256):
            v = alexandrov_classify(shape, Q41, 1, bundle=other, n=n)
            assert v.is_bubble_union and v is not first
        assert len(calls) == 3
        assert len(shape.bubble_verdicts) == 2

    def test_shared_verdict_is_read_only(self):
        v = alexandrov_classify(make_catalog_shape("three-wulff", Q41), Q41, 1)
        with pytest.raises(ValueError):
            v.centers[0, 0] = 0.0
        with pytest.raises(FrozenInstanceError):
            v.radius = 0.0

    def test_threads_share_one_verdict(self):
        shape = make_catalog_shape("three-wulff", Q41)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(alexandrov_classify, shape, Q41, 1) for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(v is got[0] for v in got)
        assert [v is got[0] for v in shape.bubble_verdicts.values()] == [True]
