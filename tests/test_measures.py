"""Curvature measures, tube volumes, and the Steiner machinery."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom import measures, shapes
from reachgeom.curvature import BundleSample, bundle_sample
from reachgeom.measures import (
    BudgetExceeded,
    CurvatureReport,
    _auto_bundle,
    _unit_ball_radius,
    StrataCoverageGap,
    Window,
    bundle_integral,
    curvature_measure,
    fan_bundle,
    phi_perimeter,
    steiner_coefficients,
    steiner_predict,
    tube_polynomial_fit,
    tube_record,
    volume_derivatives,
    voxel_tube_volume,
)
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, SmoothedLpNorm, row_dot
from reachgeom.projection import distance_field, reach_along
from reachgeom.shapes import (
    Ball,
    ConvexPolytope,
    Ellipsoid,
    EmptyInteriorError,
    WulffBody,
    make_catalog_shape,
)

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))
Q411 = EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))

_BUNDLES = {}


def _rotated_q(diag, angles):
    """R diag R' with R the z-x-z product of three plane rotations."""
    R = np.eye(3)
    for (i, j), t in zip([(0, 1), (1, 2), (0, 1)], angles):
        turn = np.eye(3)
        turn[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
        R = R @ turn
    return R @ np.diag(diag) @ R.T


def cached_bundle(key, norm):
    """One probe bundle per (catalog key, norm) for the whole module."""
    k = (key, id(norm))
    if k not in _BUNDLES:
        _BUNDLES[k] = bundle_sample(make_catalog_shape(key, norm), norm, n=512)
    return _BUNDLES[k]


class TestCurvatureMeasure:
    def test_square_euclidean_totals(self):
        sq = make_catalog_shape("unit-square")
        npt.assert_allclose(curvature_measure(sq, E2, 1).theta_total, 4.0, rtol=1e-12)
        npt.assert_allclose(curvature_measure(sq, E2, 0).theta_total, np.pi, rtol=1e-12)

    def test_square_anisotropic_totals(self):
        # edges weigh phi(e1) + phi(e2) twice over; corner fans tile the whole
        # dual boundary, half its anisotropic perimeter
        sq = make_catalog_shape("unit-square")
        npt.assert_allclose(curvature_measure(sq, Q41, 1).theta_total, 6.0, rtol=1e-10)
        npt.assert_allclose(
            curvature_measure(sq, Q41, 0).theta_total, 2.0 * np.pi, rtol=1e-10
        )

    def test_disk_totals(self):
        disk = make_catalog_shape("disk")
        b = cached_bundle("disk", E2)
        npt.assert_allclose(
            curvature_measure(disk, E2, 1, bundle=b).theta_total, 2 * np.pi, rtol=1e-8
        )
        npt.assert_allclose(
            curvature_measure(disk, E2, 0, bundle=b).theta_total, np.pi, rtol=1e-8
        )

    def test_fan_route_matches_probe_route(self):
        # the exact fan numbers and the finite-difference probe quadrature
        # are independent computations of the same measure
        sq = make_catalog_shape("unit-square")
        probed = bundle_sample(sq, Q41, n=512)
        for m in (0, 1):
            exact = curvature_measure(sq, Q41, m).theta_total
            quad = curvature_measure(sq, Q41, m, bundle=probed).theta_total
            npt.assert_allclose(quad, exact, rtol=5e-3)

    def test_cube_totals(self):
        cube = make_catalog_shape("cube")
        want = {2: 6.0, 1: 3 * np.pi, 0: 4 * np.pi / 3}
        for m, value in want.items():
            npt.assert_allclose(
                curvature_measure(cube, E3, m).theta_total, value, rtol=1e-9
            )

    @pytest.mark.parametrize(
        "q,rtol",
        [
            ([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]], 1e-9),
            (_rotated_q([4.0, 1.0, 2.25], (0.6, 0.6, 0.0)), 1e-9),
            # condition number 12: the vertex-patch integrand varies most,
            # and 1,024 nodes an octant leave 4.1e-9
            (_rotated_q([3.0, 1.0, 0.25], (2.1, 0.8, 0.5)), 1e-8),
        ],
        ids=["full", "rotated", "rotated-cond12"],
    )
    def test_cube_theta0_is_the_dual_ball_volume(self, q, rtol):
        # Theta_0 of a convex body is the volume of the dual unit ball
        # {phi_* <= 1} = Q^(1/2) B, all of it carried by the vertex patches
        got = curvature_measure(make_catalog_shape("cube"), EllipsoidalNorm(q), 0).theta_total
        npt.assert_allclose(got, 4 * np.pi / 3 * np.sqrt(np.linalg.det(q)), rtol=rtol)

    def test_convex_catalog_measures_nonnegative(self):
        for key, norm in [
            ("disk", Q41),
            ("unit-square", Q41),
            ("ellipse-2-1", E2),
            ("cube", Q411),
        ]:
            shape = make_catalog_shape(key)
            for m in range(shape.dim):
                rep = curvature_measure(shape, norm, m, n=256)
                assert rep.theta_total >= -1e-9, (key, m)

    def test_complement_disk_signed_measures(self):
        # curvature -1 everywhere: the length measure keeps its sign, the
        # point-mass measure flips
        comp = Ball([0.0, 0.0], 1.0).complement()
        b = bundle_sample(comp, E2, n=512)
        npt.assert_allclose(
            curvature_measure(comp, E2, 1, bundle=b).theta_total, 2 * np.pi, rtol=1e-8
        )
        rep0 = curvature_measure(comp, E2, 0, bundle=b)
        npt.assert_allclose(rep0.theta_total, -np.pi, rtol=1e-8)
        assert rep0.abs_total >= abs(rep0.theta_total)

    def test_stratum_breakdown_sums_to_total(self):
        sq = make_catalog_shape("unit-square")
        rep = curvature_measure(sq, Q41, 0)
        npt.assert_allclose(
            sum(rep.stratum_breakdown.values()), rep.theta_total, rtol=1e-12
        )
        # the point-mass measure of a polygon sits entirely on the vertices
        npt.assert_allclose(rep.stratum_breakdown[1], 0.0, atol=1e-12)

    def test_quadrature_se_is_small_when_converged(self):
        rep = curvature_measure(
            make_catalog_shape("disk"), E2, 0, bundle=cached_bundle("disk", E2)
        )
        assert rep.quadrature_se < 1e-6

    def test_coverage_gap_raises(self):
        sq = make_catalog_shape("unit-square")
        fb = fan_bundle(sq, E2)
        keep = fb.stratum == 1
        edges_only = BundleSample(
            *(None if v is None else v[keep] for v in (getattr(fb, f.name) for f in fields(fb)))
        )
        with pytest.raises(StrataCoverageGap):
            curvature_measure(sq, E2, 0, bundle=edges_only)

    def test_coverage_strata_are_built_once_per_shape(self, monkeypatch):
        cube = make_catalog_shape("cube")
        fb = fan_bundle(cube, E3, n=64)
        lens = make_catalog_shape("cap-lens-0.5")
        lb = bundle_sample(lens, E2, n=64)
        calls = []

        def counting(plain):
            def strata(self, n=512, seed=0):
                calls.append((self.name, n, seed))
                return plain(self, n=n, seed=seed)

            return strata

        for cls in (ConvexPolytope, shapes.CapLens):
            monkeypatch.setattr(cls, "boundary_strata", counting(cls.boundary_strata))
        # a polytope's stratum kinds are fixed: it builds no strata for them
        for m in range(3):
            curvature_measure(cube, E3, m, bundle=fb)
        # a passed bundle that misses the vertices still raises
        keep = fb.stratum > 0
        no_vertices = BundleSample(
            *(None if v is None else v[keep] for v in (getattr(fb, f.name) for f in fields(fb)))
        )
        with pytest.raises(StrataCoverageGap, match=r"\[0\]"):
            curvature_measure(cube, E3, 0, bundle=no_vertices)
        assert calls == []
        # other shapes read a coarse build once, memoized on the shape
        for m in range(2):
            curvature_measure(lens, E2, m, bundle=lb)
        assert calls == [("cap-lens-0.5", 8, 0)]
        # the memo lives on the shape: an equal lens builds its own
        curvature_measure(make_catalog_shape("cap-lens-0.5"), E2, 0, bundle=lb)
        assert calls == [("cap-lens-0.5", 8, 0)] * 2

    def test_polytope_kinds_are_those_of_its_strata(self):
        boxes = [ConvexPolytope.box([0.0, 0.0], [2.0, 0.5]),
                 ConvexPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 ConvexPolytope.box([0.0, -1.0, 0.5], [3.0, 1.0, 0.75])]
        for shape in [make_catalog_shape("unit-square"), make_catalog_shape("cube"), *boxes]:
            for n in (8, 512):
                built = {(s.index, s.kind) for s in shape.boundary_strata(n=n, seed=3)}
                assert shape.stratum_kinds == built

    def test_coverage_strata_threads_share_one_set(self):
        # the coverage reads the shape's one memo of stratum kinds
        lens = make_catalog_shape("cap-lens-0.5")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: lens.stratum_kinds) for _ in range(16)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == {(0, "arc"), (1, "vector")} and all(g is got[0] for g in got)
        assert measures._coverage_strata(lens) == {0, 1}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            curvature_measure(make_catalog_shape("disk"), E2, 2)

    def test_auto_bundle_never_comes_from_another_polytope(self):
        # each box is freed before the next is built, so its id() may be reused
        for s in np.arange(0.5, 2.5, 0.1):
            box = ConvexPolytope.box([0.0, 0.0], [s, s])
            rep = curvature_measure(box, E2, 1, n=64)
            assert rep.theta_total == pytest.approx(4.0 * s, rel=1e-12)

    def test_auto_bundle_is_shared_by_equal_norms_only(self):
        sq = make_catalog_shape("unit-square")
        first = _auto_bundle(sq, EuclideanNorm(2), None, 64, 0)
        assert _auto_bundle(sq, EuclideanNorm(2), None, 64, 0) is first
        assert _auto_bundle(sq, Q41, None, 64, 0) is not first
        assert _auto_bundle(sq, EuclideanNorm(2), None, 64, 1) is not first

    def test_smooth_set_checks_share_one_bundle_sample(self, monkeypatch):
        ellipse = make_catalog_shape("ellipse-2-1")
        calls = []
        plain = measures.bundle_sample

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return plain(*args, **kwargs)

        monkeypatch.setattr(measures, "bundle_sample", counting)
        first = curvature_measure(ellipse, Q41, 1, n=64)
        tube_record(ellipse, Q41, [0.2], h=0.05, n=64)
        volume_derivatives(ellipse, Q41, 0.2, n=64)
        assert curvature_measure(ellipse, EllipsoidalNorm(np.diag([4.0, 1.0])), 1, n=64) == first
        assert len(calls) == 1
        _auto_bundle(ellipse, Q41, None, 64, 1)
        _auto_bundle(ellipse, Q41, None, 32, 0)
        assert len(calls) == 3 and len(ellipse.bundles) == 3

    def test_auto_bundle_threads_share_one_bundle(self):
        sq = make_catalog_shape("unit-square")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_auto_bundle, sq, E2, None, 64, 0) for _ in range(16)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(b is got[0] for b in got)


class TestMeasureProperties:
    """Theta_m is homogeneous of degree m and additive over separated components."""

    SCALED = {
        "ellipse-q41": (
            lambda s: Ellipsoid(s * np.array([0.3, -0.2]), s * np.array([2.0, 1.0])),
            Q41,
        ),
        "box-2d-q41": (
            lambda s: ConvexPolytope.box(s * np.array([-0.5, -0.25]), s * np.array([1.0, 0.5])),
            Q41,
        ),
        "ball-3d-q411": (lambda s: Ball(s * np.array([0.2, 0.0, -0.1]), s), Q411),
        "box-3d-q411": (
            lambda s: ConvexPolytope.box(np.zeros(3), s * np.array([1.0, 0.5, 2.0])),
            Q411,
        ),
    }

    @pytest.mark.parametrize("key", list(SCALED))
    def test_homogeneity(self, key):
        make, norm = self.SCALED[key]
        for m in range(norm.dim):
            base = curvature_measure(make(1.0), norm, m).theta_total
            for lam in (0.5, 2.0):
                scaled = curvature_measure(make(lam), norm, m).theta_total
                npt.assert_allclose(
                    scaled, lam**m * base, rtol=1e-10, err_msg=f"m={m}, lambda={lam}"
                )

    @pytest.mark.parametrize("m", [0, 1])
    def test_additivity_over_components(self, m):
        union = make_catalog_shape("two-disks-mixed", Q41)
        parts = sum(curvature_measure(c, Q41, m).theta_total for c in union.components)
        npt.assert_allclose(curvature_measure(union, Q41, m).theta_total, parts, rtol=1e-9)


class TestWindows:
    def test_stratum_selector_splits_the_measure(self):
        sq = make_catalog_shape("unit-square")
        windows = [
            Window(name="corners", strata=[0]),
            Window(name="edges", strata=[1]),
        ]
        rep = curvature_measure(sq, E2, 0, window=windows)
        npt.assert_allclose(rep.theta_on["corners"], np.pi, rtol=1e-12)
        npt.assert_allclose(rep.theta_on["edges"], 0.0, atol=1e-12)

    def test_position_box_halves_the_disk(self):
        disk = make_catalog_shape("disk")
        right = Window(name="right", lo=[0.0, -2.0])
        rep = curvature_measure(
            disk, E2, 1, window=right, bundle=cached_bundle("disk", E2)
        )
        npt.assert_allclose(rep.theta_on["right"], np.pi, rtol=1e-3)

    def test_normal_cap_selects_one_facet(self):
        sq = make_catalog_shape("unit-square")
        up = Window(name="up", normal_axis=[0.0, 1.0], normal_min_cos=0.999)
        rep = curvature_measure(sq, Q41, 1, window=up)
        npt.assert_allclose(rep.theta_on["up"], 1.0, rtol=1e-12)  # length x phi(e2)

    def test_length_bound_on_rectifiable_windows(self):
        # localized measure against the boundary length it sits on: the ratio
        # never beats the largest boundary value of phi.  The length is the
        # sampled in-window mass, so both sides share one quadrature rule.
        sq = make_catalog_shape("unit-square")
        fb = fan_bundle(sq, Q41, n=512)
        c = max(float(Q41.value([1.0, 0.0])), float(Q41.value([0.0, 1.0])))
        for width in (0.5, 0.25, 0.1):
            w = Window(name="strip", lo=[0.5 - 1e-9, -0.5], hi=[0.5 + 1e-9, -0.5 + width])
            rep = curvature_measure(sq, Q41, 1, window=w, bundle=fb)
            on_edge = (fb.stratum == 1) & w.mask(fb)
            length = float(fb.weights[on_edge].sum())
            assert length > 0.0
            ratio = rep.theta_on["strip"] / length
            assert 0.0 < ratio <= c * 1.001
            # the right edge sees the horizontal weight exactly
            npt.assert_allclose(ratio, float(Q41.value([1.0, 0.0])), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        x0=st.floats(-1.2, 1.2),
        x1=st.floats(-1.2, 1.2),
        y0=st.floats(-1.2, 1.2),
        y1=st.floats(-1.2, 1.2),
    )
    def test_top_measure_nonnegative_and_monotone(self, x0, x1, y0, y1):
        b = cached_bundle("disk", Q41)
        lo = [min(x0, x1), min(y0, y1)]
        hi = [max(x0, x1), max(y0, y1)]
        small = Window(name="w", lo=lo, hi=hi)
        grown = Window(name="w", lo=[lo[0] - 0.3, lo[1] - 0.3], hi=[hi[0] + 0.3, hi[1] + 0.3])
        t_small = bundle_integral(b, 0, window=small)
        t_grown = bundle_integral(b, 0, window=grown)
        assert 0.0 <= t_small <= t_grown + 1e-12

    @pytest.mark.parametrize(
        "window, match",
        [
            (Window(lo=(0.0,)), "lo must have length 2"),
            (Window(hi=(1.0, 1.0, 1.0)), "hi must have length 2"),
            (Window(normal_axis=(0.0, 0.0, 1.0)), "normal_axis must have length 2"),
            (Window(normal_axis=(0.0, 0.0)), "finite and nonzero"),
            (Window(normal_axis=(np.nan, 1.0)), "finite and nonzero"),
            (Window(normal_axis=(np.inf, 0.0)), "finite and nonzero"),
        ],
        ids=["short-lo", "long-hi", "long-axis", "zero-axis", "nan-axis", "inf-axis"],
    )
    def test_malformed_window_raises(self, window, match):
        # a short lo broadcast over both axes, and a zero axis gave 0.0
        with pytest.raises(ValueError, match=match):
            curvature_measure(make_catalog_shape("disk"), E2, 1, window=window,
                              bundle=cached_bundle("disk", E2))

    def test_windows_sharing_a_name_raise(self):
        # two unnamed windows were one "all" entry, the second's value
        with pytest.raises(ValueError, match="distinct names"):
            curvature_measure(make_catalog_shape("unit-square"), E2, 0,
                              window=[Window(strata=[0]), Window(strata=[1])])


class TestPhiPerimeter:
    def test_euclidean_classics(self):
        npt.assert_allclose(phi_perimeter(make_catalog_shape("disk"), E2), 2 * np.pi, rtol=1e-10)
        npt.assert_allclose(phi_perimeter(make_catalog_shape("unit-square"), E2), 4.0, rtol=1e-12)

    def test_disk_anisotropic_vs_refinement(self):
        # independent oracle: polygonal refinement of the weighted arc integral
        t = np.linspace(0.0, 2 * np.pi, 200_001)
        u = np.c_[np.cos(t), np.sin(t)]
        oracle = np.trapezoid(Q41.value(u), t)
        npt.assert_allclose(phi_perimeter(make_catalog_shape("disk"), Q41), oracle, rtol=1e-6)

    def test_matches_bundle_route(self):
        ell = make_catalog_shape("ellipse-2-1")
        for norm in (E2, Q41):
            b = bundle_sample(ell, norm, n=512)
            npt.assert_allclose(
                phi_perimeter(ell, norm), bundle_integral(b, 0), rtol=1e-6
            )

    def test_empty_interior_rejected(self):
        with pytest.raises(EmptyInteriorError):
            phi_perimeter(make_catalog_shape("segment-pair"), E2)


class TestVoxelTube:
    def test_disk_annulus(self):
        v, err = voxel_tube_volume(make_catalog_shape("disk"), E2, [0.5])
        want = np.pi * (1.5**2 - 1.0)
        assert abs(v[0] - want) <= max(0.01 * want, err[0])

    def test_square_offset(self):
        v, err = voxel_tube_volume(make_catalog_shape("unit-square"), E2, [0.25])
        want = 4 * 0.25 + np.pi * 0.25**2
        assert abs(v[0] - want) <= max(0.01 * want, err[0])

    def test_overlapping_offsets_beyond_reach(self):
        # two unit disks, centers 3 apart, rho = 2: offsets of radius 3 overlap
        two = make_catalog_shape("two-disks-gap1")
        v, err = voxel_tube_volume(two, E2, [2.0])
        R, d = 3.0, 3.0
        lens = 2 * R * R * np.arccos(d / (2 * R)) - 0.5 * d * np.sqrt(4 * R * R - d * d)
        want = 2 * np.pi * R * R - lens - 2 * np.pi
        assert abs(v[0] - want) <= max(0.01 * want, err[0])

    def test_volumes_nondecreasing(self):
        rho = np.array([0.1, 0.2, 0.35, 0.5, 0.8])
        v, _ = voxel_tube_volume(make_catalog_shape("disk"), Q41, rho)
        assert (np.diff(v) >= 0).all()

    def test_budget_raise_and_mc_fallback(self):
        disk = make_catalog_shape("disk")
        with pytest.raises(BudgetExceeded):
            voxel_tube_volume(disk, E2, [0.5], h=1e-4, on_budget="raise")
        want = np.pi * (1.5**2 - 1.0)
        v, err = voxel_tube_volume(disk, E2, [0.5], h=1e-4, mc_budget=2_000_000, seed=3)
        assert abs(v[0] - want) <= 4 * err[0]

    def test_mc_deterministic_under_seed(self):
        disk = make_catalog_shape("disk")
        a1 = voxel_tube_volume(disk, E2, [0.3, 0.5], h=1e-4, mc_budget=500_000, seed=11)
        a2 = voxel_tube_volume(disk, E2, [0.3, 0.5], h=1e-4, mc_budget=500_000, seed=11)
        npt.assert_array_equal(a1[0], a2[0])

    def test_rejects_an_empty_radius_list(self):
        with pytest.raises(ValueError, match="radii rho must not be empty"):
            voxel_tube_volume(make_catalog_shape("disk"), E2, [])

    @pytest.mark.parametrize("rho", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_radius_that_is_not_finite(self, rho):
        with pytest.raises(ValueError, match="radii rho"):
            voxel_tube_volume(make_catalog_shape("disk"), E2, [0.25, rho])

    @pytest.mark.parametrize(
        "h", [0.0, -0.01, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_rejects_a_pitch_that_is_not_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="pitch h"):
            voxel_tube_volume(make_catalog_shape("disk"), E2, [0.25], h)

    @pytest.mark.parametrize(
        "window", [((0.0,), (5.0,)), ((0.0, 0.0), (5.0, 5.0, 5.0))], ids=["short", "long"]
    )
    def test_rejects_a_window_of_another_dimension(self, window):
        # ((0,), (5,)) broadcast to the (0, 0)-(5, 5) count
        with pytest.raises(ValueError, match="window corner must have length 2"):
            voxel_tube_volume(make_catalog_shape("disk"), E2, [0.5], h=0.02, window=window)


# candidate feet the reference holds at once; a center of a 3-d box under a
# non-diagonal norm has 18 (6 facets, 12 edges), one of a square 4
_DENSE_CANDIDATES = 1_000_000


def _dense_tube_volume(shape, norm, rho, h=None, window=None):
    """Reference count: delta at every center of the grid voxel_tube_volume lays.

    Centers go to ``distance_field`` in batches sized by their candidate feet.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    d = shape.dim
    if h is None:
        h = shape.diameter / (512.0 if d == 2 else 128.0)
    lo, hi = shape.bounding_box()
    pad = float(rho.max()) * _unit_ball_radius(norm) + 3.0 * h
    lo, hi = lo - pad, hi + pad
    if window is not None:
        lo, hi = np.maximum(lo, window[0]), np.minimum(hi, window[1])
    counts_axis = np.ceil((hi - lo) / h).astype(int)
    axes = [lo[k] + (np.arange(counts_axis[k]) + 0.5) * h for k in range(d)]
    r_half = 0.5 * h * np.sqrt(d)
    cnt = np.zeros(len(rho), dtype=np.int64)
    cross = np.zeros(len(rho), dtype=np.int64)
    inner = 0
    per_slice = int(np.prod(counts_axis[1:]))
    block = max(1, _DENSE_CANDIDATES // (per_slice * (18 if d == 3 else 4)))
    for i0 in range(0, counts_axis[0], block):
        sub = [axes[0][i0 : i0 + block]] + axes[1:]
        pts = np.stack(np.meshgrid(*sub, indexing="ij"), axis=-1).reshape(-1, d)
        delta = distance_field(shape, norm, pts)
        pos = np.sort(delta[delta > 0.0])
        cnt += np.searchsorted(pos, rho, side="right")
        cross += np.searchsorted(pos, rho + r_half, side="right") - np.searchsorted(
            pos, rho - r_half, side="right"
        )
        inner += int(np.searchsorted(pos, r_half, side="right"))
    cell = h**d
    return cnt * cell, (cross + 2 * inner) * cell


class TestPrunedCount:
    """The block-pruned count equals the count over every voxel center."""

    RHO = (0.1, 0.25, 0.4, 0.6)

    @pytest.mark.parametrize(
        "key,norm",
        [
            (key, norm)
            for key in ("disk", "unit-square", "ellipse-2-1", "cap-lens-0.5", "two-disks-gap1")
            for norm in (E2, Q41)
        ]
        + [("cube", E3), ("cube", Q411)],
        ids=lambda v: v if isinstance(v, str) else v.kind,
    )
    def test_equals_dense_grid(self, key, norm):
        shape = make_catalog_shape(key)
        h = shape.diameter / (256.0 if shape.dim == 2 else 64.0)
        got = voxel_tube_volume(shape, norm, self.RHO, h)
        want = _dense_tube_volume(shape, norm, self.RHO, h)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_equals_dense_grid_in_a_window(self):
        segs = make_catalog_shape("segment-pair")
        rhos = [r0 + s for r0 in (0.5, 1.0, 1.5) for s in (-0.25, 0.0, 0.25)]
        win = ([-2.0, -10.0], [2.0, 10.0])
        h = segs.diameter / 1024
        got = voxel_tube_volume(segs, E2, rhos, h, window=win)
        want = _dense_tube_volume(segs, E2, rhos, h, window=win)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_equals_dense_grid_off_a_convex_set(self):
        # the interior rule must not fire where delta = 0 on a non-convex set
        outside = make_catalog_shape("disk").complement()
        h = outside.diameter / 256
        got = voxel_tube_volume(outside, E2, self.RHO, h)
        want = _dense_tube_volume(outside, E2, self.RHO, h)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])


class TestTiledCount:
    """The descent from the 16-voxel tiling keeps the dense count at the CLI's pitch."""

    RHO = TestPrunedCount.RHO

    @pytest.mark.parametrize(
        "key,norm",
        [
            (key, norm)
            for key in ("disk", "ellipse-2-1", "unit-square", "cap-lens-0.5", "two-disks-gap1")
            for norm in (E2, Q41)
        ],
        ids=lambda v: v if isinstance(v, str) else v.kind,
    )
    def test_equals_dense_grid_at_the_default_pitch(self, key, norm):
        shape = make_catalog_shape(key)
        got = voxel_tube_volume(shape, norm, self.RHO)
        want = _dense_tube_volume(shape, norm, self.RHO)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_corner_centers_on_the_edges(self):
        # h and rho are binary fractions, so the grid is padded by 48.5 h and
        # its centers are (i - 48) h exactly: the tiles at i = 48 and i = 96
        # have corner centers on the square's edges x = 0 and x = 63 h, where
        # delta is 0 but the membership test with its margin fails
        h = 1.0 / 64
        square = ConvexPolytope.box([0.0, 0.0], [63 * h, 63 * h])
        rho = (0.125, 0.25, 45.5 * h)
        lo, _ = square.bounding_box()
        assert (lo - max(rho) * _unit_ball_radius(E2) - 3.0 * h == -48.5 * h).all()
        got = voxel_tube_volume(square, E2, rho, h)
        want = _dense_tube_volume(square, E2, rho, h)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_window_cuts_through_the_tiles(self):
        disk = make_catalog_shape("disk")
        h = disk.diameter / 512
        win = ([-0.37, -1.61], [1.83, 0.29])
        # neither edge falls on the unwindowed grid's tiling, and the
        # windowed grid's last tiles are clipped on both axes
        counts = np.ceil((np.subtract(*win[::-1])) / h).astype(int)
        assert (counts % 16 != 0).all()
        got = voxel_tube_volume(disk, Q41, self.RHO, window=win)
        want = _dense_tube_volume(disk, Q41, self.RHO, window=win)
        assert want[0][-1] > 0
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_cube_under_a_rotated_norm(self):
        # a window around one corner of the cube keeps the dense reference
        # small; it holds interior blocks, faces, edges and the corner
        cube = make_catalog_shape("cube")
        norm = EllipsoidalNorm(_rotated_q([3.0, 1.0, 0.25], (2.1, 0.8, 0.5)))
        rho, h, win = (0.1, 0.25), cube.diameter / 128, ([0.75] * 3, [1.25] * 3)
        got = voxel_tube_volume(cube, norm, rho, h, window=win)
        want = _dense_tube_volume(cube, norm, rho, h, window=win)
        assert want[0][0] > 0
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])


def _delta_rows(monkeypatch, shape, norm, rho, h, window=None):
    """delta evaluations of one voxel count: the rows of outermost exact_projection calls.

    Every distance, on a closed-form pair, starts in a shape's
    ``exact_projection``; a union's or a lens's calls into its own pieces are
    not counted again.
    """
    rows, depth = [0], [0]

    def counting(fn):
        def wrapper(self, norm, x):
            if not depth[0]:
                rows[0] += len(np.atleast_2d(x))
            depth[0] += 1
            try:
                return fn(self, norm, x)
            finally:
                depth[0] -= 1

        return wrapper

    for cls in vars(shapes).values():
        if isinstance(cls, type) and issubclass(cls, shapes.Shape):
            if "exact_projection" in vars(cls):
                wrapped = counting(vars(cls)["exact_projection"])
                monkeypatch.setattr(cls, "exact_projection", wrapped)
    got = voxel_tube_volume(shape, norm, rho, h, window=window)
    monkeypatch.undo()
    want = _dense_tube_volume(shape, norm, rho, h, window=window)
    npt.assert_array_equal(got[0], want[0])
    npt.assert_array_equal(got[1], want[1])
    return rows[0]


class TestFootBrackets:
    """Foot brackets and the per-component interior rule keep the dense count."""

    RHO = TestPrunedCount.RHO

    def test_brackets_settle_most_block_centers(self, monkeypatch):
        # the Lipschitz band alone needs 41,271 delta rows on this grid
        disk = make_catalog_shape("disk")
        assert _delta_rows(monkeypatch, disk, Q41, self.RHO, disk.diameter / 256) <= 41_271 // 2

    def test_interior_rule_per_union_component(self, monkeypatch):
        # a union of convex disks is not convex, but a block inside one disk
        # is interior; without the rule the count needs 35,444 delta rows
        two = make_catalog_shape("two-disks-gap1")
        assert _delta_rows(monkeypatch, two, E2, self.RHO, two.diameter / 256) <= 25_000

    @pytest.mark.parametrize("dim", [2, 3])
    def test_quadratic_brackets_hold_the_dual_norm(self, dim):
        # the quadratic bounds against the dual norm and its gradient, also
        # where v + s is 0 or nearly so and the expanded square cancels
        rng = np.random.default_rng(8)
        M = rng.standard_normal((dim, dim))
        norm = EllipsoidalNorm(M @ M.T + 0.5 * np.eye(dim))
        steps = rng.uniform(-1.0, 1.0, (16, dim))
        v = np.concatenate(
            [rng.standard_normal((300, dim)), -steps, -steps * (1.0 + 1e-12)]
        )
        lower, upper = measures._foot_brackets(norm, v, steps)
        phi = norm.conjugate(v[:, None, :] + steps)
        g = norm.conjugate_grad(v)
        npt.assert_allclose(lower, row_dot(g, v)[:, None] + g @ steps.T, rtol=1e-12, atol=1e-12)
        assert (upper >= phi).all()
        npt.assert_allclose(upper, phi, rtol=1e-12, atol=1e-6)

    @pytest.mark.parametrize(
        "shape,norm,h",
        [
            (Ball([0.1, 0.0, -0.2], 1.0), Q411, 2.0 / 40),
            (WulffBody(SmoothedLpNorm(2, 3.0)), SmoothedLpNorm(2, 3.0), None),
        ],
        ids=["ball-3d-quadratic", "wulff-own-norm"],
    )
    def test_equals_dense_grid(self, shape, norm, h):
        h = h or shape.diameter / 128
        got = voxel_tube_volume(shape, norm, self.RHO, h)
        want = _dense_tube_volume(shape, norm, self.RHO, h)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_equals_dense_grid_off_the_closed_form(self):
        # no closed form for the disk under smoothed-lp: its feet are support
        # points of the support search, which the foot bracket takes as well
        disk, norm = make_catalog_shape("disk"), SmoothedLpNorm(2, 3.0)
        # 8 x 8 voxels, so the descent passes an 8 x 8 level below the root
        rho, h, win = (0.1, 0.15), disk.diameter / 64, ([1.0, 0.0], [1.25, 0.25])
        got = voxel_tube_volume(disk, norm, rho, h, window=win)
        want = _dense_tube_volume(disk, norm, rho, h, window=win)
        assert want[0][-1] > 0
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])


def _level_sets():
    """Sorted level sets: random, with duplicates, with neighbors closer than a bin."""
    rng = np.random.default_rng(29)
    sets = []
    for _ in range(40):
        levels = rng.uniform(-2.0, 3.0, rng.integers(1, 30))
        dup = rng.choice(levels, rng.integers(0, 4))
        # at most 1/4096 apart, closer than the bin width span/4096 when span > 1
        near = levels[: rng.integers(0, 4)] + rng.uniform(0.0, 1.0 / 4096)
        sets.append(np.sort(np.concatenate([levels, dup, near])))
    # on a lattice of the least gap, so that levels fall on bin edges
    for step, start in ((0.1, 0.0), (1.0 / 3.0, -1.0), (3e-7, 5.0)):
        sets.append(start + step * np.arange(25))
    # the voxel count's levels: 0, r_half and rho, rho -+ r_half
    r_half, rho = 0.5 * (2.0 / 512) * np.sqrt(2.0), np.array([0.15, 0.2448, 0.3864, 0.6])
    sets.append(np.sort(np.concatenate([[0.0, r_half], rho, rho - r_half, rho + r_half])))
    sets.append(np.array([0.0, 0.0, 0.0]))
    return sets


class TestLevelIndex:
    """The voxel count's table-lookup level index equals np.searchsorted bit for bit."""

    @pytest.mark.parametrize("levels", _level_sets(), ids=lambda v: f"{len(v)}-levels")
    def test_equals_searchsorted(self, levels):
        index = measures._LevelIndex(levels)
        span = max(levels[-1] - levels[0], 1.0)
        x = np.concatenate(
            [
                levels,
                np.nextafter(levels, -np.inf),
                np.nextafter(levels, np.inf),
                np.random.default_rng(3).uniform(levels[0] - span, levels[-1] + span, 500),
                [-1.0, -0.0, 0.0, 1e300, -1e300, np.inf, -np.inf],
            ]
        )
        # settle reads (blocks, centers) bands; the work arrays grow to x
        # and are reused for the smaller x2
        x2 = x[: len(x) // 8 * 4].reshape(-1, 4)
        for y in (x2, x, x2):
            npt.assert_array_equal(index(y), np.searchsorted(levels, y))


class TestBoundedMemory:
    """Batches and bracket chunks of at most _BATCH_BLOCKS blocks keep every count."""

    @pytest.mark.parametrize(
        "key,norm,rho,h,window",
        [
            pytest.param(key, norm, TestPrunedCount.RHO, 256.0, None, id=f"{key}-{norm.kind}")
            for key in ("disk", "unit-square", "ellipse-2-1", "cap-lens-0.5", "two-disks-gap1")
            for norm in (E2, Q41)
        ]
        + [
            pytest.param("cube", norm, TestPrunedCount.RHO, 64.0, None, id=f"cube-{norm.kind}")
            for norm in (E3, Q411)
        ]
        + [
            pytest.param(
                "segment-pair",
                E2,
                [r0 + s for r0 in (0.5, 1.0, 1.5) for s in (-0.25, 0.0, 0.25)],
                1024.0,
                ([-2.0, -10.0], [2.0, 10.0]),
                id="segment-pair-window",
            ),
            pytest.param(
                "disk", Q41, TestPrunedCount.RHO, 512.0, ([-0.37, -1.61], [1.83, 0.29]),
                id="disk-window-through-the-tiles",
            ),
            pytest.param("disk-complement", E2, TestPrunedCount.RHO, 256.0, None, id="disk-complement"),
            pytest.param(
                "cube",
                EllipsoidalNorm(_rotated_q([3.0, 1.0, 0.25], (2.1, 0.8, 0.5))),
                (0.1, 0.25),
                128.0,
                ([0.75] * 3, [1.25] * 3),
                id="cube-corner-window",
            ),
        ],
    )
    def test_tiny_batches_evaluate_the_same_centers(self, monkeypatch, key, norm, rho, h, window):
        # batches of 37 blocks, and bracket chunks of 2 blocks (d = 2) or 1 (d = 3)
        if key == "disk-complement":
            shape = make_catalog_shape("disk").complement()
        else:
            shape = make_catalog_shape(key)
        h = shape.diameter / h
        want = _delta_rows(monkeypatch, shape, norm, rho, h, window)
        monkeypatch.setattr(measures, "_BATCH_BLOCKS", 37)
        assert _delta_rows(monkeypatch, shape, norm, rho, h, window) == want

    def test_cube_tube_peak(self):
        # a whole level of the descent held at once traced 272 MB
        cube = make_catalog_shape("cube")
        norm = EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))
        tracemalloc.start()
        try:
            voxel_tube_volume(cube, norm, (0.25, 0.5, 0.75, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_mc_chunks_draw_the_one_pass_sample(self):
        disk, rho, h, budget, seed = make_catalog_shape("disk"), np.array([0.3, 0.5]), 1e-4, 50_000, 5
        got = voxel_tube_volume(disk, E2, rho, h, mc_budget=budget, seed=seed)
        # one jittered sample per cell, all drawn in one pass
        lo, hi = disk.bounding_box()
        pad = rho.max() * _unit_ball_radius(E2) + 3.0 * h
        lo, hi = lo - pad, hi + pad
        ext = hi - lo
        m_axis = np.maximum(np.round(ext / (np.prod(ext) / budget) ** 0.5).astype(int), 1)
        assert m_axis.prod() > 3 * measures._BATCH_BLOCKS
        idx = np.stack(np.meshgrid(*map(np.arange, m_axis), indexing="ij"), axis=-1).reshape(-1, 2)
        u = np.random.default_rng(seed).uniform(size=idx.shape)
        delta = distance_field(disk, E2, lo + (idx + u) * (ext / m_axis))
        p_hat = ((delta[:, None] > 0.0) & (delta[:, None] <= rho)).sum(axis=0) / len(idx)
        box_vol = float(np.prod(ext))
        npt.assert_array_equal(got[0], p_hat * box_vol)
        npt.assert_array_equal(got[1], box_vol * np.sqrt(p_hat * (1.0 - p_hat) / len(idx)))

    def test_disk_tube_peak(self):
        # the benchmark's disk count at its radii traces 1.76 MB; 4 x 4
        # bracket blocks traced 3.19 MB, and with the secular Newton's
        # full-width temporaries kept alive while the feet are formed it
        # traced 4.03 MB (3.28 MB with tiles over the whole padded grid)
        disk, norm = make_catalog_shape("disk"), Q41
        rho = (0.15, 0.244848, 0.386391, 0.440129, 0.563347, 0.6)
        tracemalloc.start()
        try:
            voxel_tube_volume(disk, norm, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * 2**20

    def test_mc_peak(self):
        # 4 M-point slabs traced 186 MB
        disk = make_catalog_shape("disk")
        tracemalloc.start()
        try:
            voxel_tube_volume(disk, E2, [0.3, 0.5], h=1e-4, mc_budget=2_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _rotated_q2(diag, angle):
    """R diag R' with R the plane rotation by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(diag) @ R.T


Q14 = EllipsoidalNorm(np.diag([0.25, 1.0]))
QROT = EllipsoidalNorm(_rotated_q2([3.0, 0.5], 0.6))
LP2 = SmoothedLpNorm(2, 3.0)


class TestTileRange:
    """Tiles only over the set's box grown by phi(e_i) times the top level keep every count.

    The grid's padding follows the dual ball's largest extent, phi(e_i) its
    extent along e_i; norms whose extents differ by axis, or which are not
    quadratic, leave tiles of the padding out on some axis.
    """

    RHO = TestPrunedCount.RHO

    @pytest.mark.parametrize(
        "key,norm",
        [
            pytest.param(key, norm, id=f"{key}-{name}")
            for key in ("disk", "unit-square", "two-disks-gap1")
            for name, norm in {"q41": Q41, "q14": Q14, "rotated": QROT}.items()
        ]
        + [
            pytest.param("disk", LP2, id="disk-lp3"),
            pytest.param("disk-complement", Q41, id="disk-complement-q41"),
        ],
    )
    def test_equals_dense_grid_at_the_default_pitch(self, key, norm):
        if key == "disk-complement":
            shape = make_catalog_shape("disk").complement()
        else:
            shape = make_catalog_shape(key)
        got = voxel_tube_volume(shape, norm, self.RHO)
        want = _dense_tube_volume(shape, norm, self.RHO)
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_window_cuts_the_tile_range(self):
        # the window's low corner lies inside the grown box, so the range
        # starts at the windowed grid's first tile; its high corner lies past
        # the padded grid, which reaches 3 and 6 tiles past the grown box
        disk = make_catalog_shape("disk")
        win = ([-1.13, -0.71], [5.0, 5.0])
        got = voxel_tube_volume(disk, QROT, self.RHO, window=win)
        want = _dense_tube_volume(disk, QROT, self.RHO, window=win)
        assert want[0][-1] > 0
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_cube_corner_window(self):
        # phi(e_i) = 2, 1, 1/2 against a padding of 2.1 on every axis; the
        # window reaches past the padded grid's high faces
        cube = make_catalog_shape("cube")
        norm = EllipsoidalNorm(np.diag([4.0, 1.0, 0.25]))
        rho, h, win = (0.1, 0.25), cube.diameter / 128, ([0.75] * 3, [3.0] * 3)
        got = voxel_tube_volume(cube, norm, rho, h, window=win)
        want = _dense_tube_volume(cube, norm, rho, h, window=win)
        assert want[0][0] > 0
        npt.assert_array_equal(got[0], want[0])
        npt.assert_array_equal(got[1], want[1])

    def test_fewer_delta_rows(self, monkeypatch):
        # tiles over the whole padded grid took 24,562 delta rows here, and
        # 4 x 4 bracket blocks 23,021; 8 x 8 blocks take 15,521
        disk = make_catalog_shape("disk")
        assert _delta_rows(monkeypatch, disk, Q41, self.RHO, disk.diameter / 512) <= 16_000


def _box_2d(center, half):
    c, w = np.asarray(center, dtype=float), np.asarray(half, dtype=float)
    return ConvexPolytope.box(c - w, c + w)


def _on_lattice(shape, norm, rho, h):
    """Window whose low corner sits on the lattice h Z^d, below the whole tube.

    voxel_tube_volume anchors its grid at the padded bounding box, which moves
    with the set; clipped by this window the grid stays on one lattice, so a
    translate is sampled at another phase of the voxels.
    """
    lo, _ = shape.bounding_box()
    w_lo = h * np.floor((lo - max(rho) * _unit_ball_radius(norm)) / h) - h
    return w_lo, np.full(shape.dim, np.inf)


class TestTubeInvariances:
    """Translation and scaling of the measured tube volumes."""

    SHAPES_2D = {
        "ball": lambda c, s: Ball(c, s),
        "box": lambda c, s: _box_2d(c, [0.7 * s, 0.4 * s]),
    }
    RHO = np.array([0.15, 0.3, 0.55])

    def _translated(self, make, norm, rho, h, v):
        out = []
        for shape in (make(np.zeros(len(v)), 1.0), make(np.asarray(v), 1.0)):
            win = _on_lattice(shape, norm, rho, h)
            out.append(voxel_tube_volume(shape, norm, rho, h, window=win))
        (v0, e0), (v1, e1) = out
        return np.abs(v1 - v0), e0 + e1

    @pytest.mark.parametrize("norm", [E2, Q41], ids=lambda n: n.kind)
    @pytest.mark.parametrize("kind", sorted(SHAPES_2D))
    def test_translation_2d(self, kind, norm):
        gap, err = self._translated(
            self.SHAPES_2D[kind], norm, self.RHO, 2.0 / 384, [0.3137, -0.2719]
        )
        assert (gap > 0).any()  # the translate is sampled at another voxel phase
        assert (gap <= err).all()

    def test_translation_3d(self):
        gap, err = self._translated(Ball, Q411, [0.2, 0.45], 2.0 / 64, [0.41, -0.17, 0.29])
        assert (gap <= err).all()

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("norm", [E2, Q41], ids=lambda n: n.kind)
    @pytest.mark.parametrize("kind", sorted(SHAPES_2D))
    def test_scaling_2d(self, kind, norm, lam):
        make = self.SHAPES_2D[kind]
        h = 2.0 / 384
        v, e = voxel_tube_volume(make([0.2, -0.1], 1.0), norm, self.RHO, h)
        vl, _ = voxel_tube_volume(make([0.2 * lam, -0.1 * lam], lam), norm, lam * self.RHO, lam * h)
        assert (np.abs(vl - lam**2 * v) <= lam**2 * e).all()

    def test_scaling_3d(self):
        lam, h, rho = 0.5, 2.0 / 64, np.array([0.2, 0.45])
        v, e = voxel_tube_volume(Ball([0.1, 0.0, -0.2], 1.0), Q411, rho, h)
        vl, _ = voxel_tube_volume(Ball([0.05, 0.0, -0.1], lam), Q411, lam * rho, lam * h)
        assert (np.abs(vl - lam**3 * v) <= lam**3 * e).all()


class TestSteinerPredict:
    def test_square_polynomial_never_truncates(self):
        fb = fan_bundle(make_catalog_shape("unit-square"), E2)
        rho = np.array([0.25, 1.0, 2.0])
        npt.assert_allclose(
            steiner_predict(fb, rho), 4 * rho + np.pi * rho**2, rtol=1e-12
        )
        npt.assert_allclose(
            steiner_predict(fb, rho, truncate=False), 4 * rho + np.pi * rho**2, rtol=1e-12
        )

    def test_disk_polynomial(self):
        b = cached_bundle("disk", E2)
        rho = np.array([0.1, 0.5, 1.5])
        npt.assert_allclose(
            steiner_predict(b, rho), 2 * np.pi * rho + np.pi * rho**2, rtol=1e-7
        )

    def test_truncation_matches_voxel_beyond_reach(self):
        segs = make_catalog_shape("segment-pair")
        b = bundle_sample(segs, E2, n=512)
        v, err = voxel_tube_volume(segs, E2, [2.0])
        p = steiner_predict(b, [2.0])[0]
        assert abs(p - v[0]) <= 0.02 * v[0]

    def test_past_the_reach_the_lazy_reach_predicts_as_an_eager_one(self):
        # the reach of two-disks-gap1 under diag(4, 1) is 1/4; the bundle
        # traces it on first read, through the call that bundle_sample made
        # when it built every bundle's reach at once
        b = bundle_sample(make_catalog_shape("two-disks-gap1"), Q41, n=256)
        fresh = make_catalog_shape("two-disks-gap1")
        eager = reach_along(fresh, Q41, b.points, Q41.grad(b.normals), validate=False)
        built = replace(b, ray_reach=lambda: eager)
        rho = np.array([0.1, 0.3, 0.6, 1.0, 2.0])
        got = steiner_predict(b, rho)
        assert got.tobytes() == steiner_predict(built, rho).tobytes()
        assert (got[1:] < steiner_predict(b, rho, truncate=False)[1:]).all()
        assert b.reach.tobytes() == eager.tobytes()

    def test_truncated_equals_pure_below_reach(self):
        b = cached_bundle("two-disks-gap1", E2)
        rho = np.array([0.1, 0.3])
        npt.assert_allclose(
            steiner_predict(b, rho), steiner_predict(b, rho, truncate=False), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "norm,rho",
        [(E3, 0.5), (Q411, 0.3)],
        ids=["euclidean", "ellipsoidal"],
    )
    def test_cube_prediction_vs_voxel(self, norm, rho):
        cube = make_catalog_shape("cube")
        v, err = voxel_tube_volume(cube, norm, [rho])
        p = steiner_predict(fan_bundle(cube, norm), [rho])[0]
        assert abs(p - v[0]) <= 0.01 * v[0] + 3 * err[0]

    def test_anisotropic_cube_closed_form(self):
        # faces push out by rho * (dual-ball support), edge wedges carry
        # quarter slices of the dual ball, vertices carry octants of it;
        # tolerance set by the vertex-patch quadrature, not the formula
        want = lambda r: 8 * r + 5 * np.pi * r**2 + (8 * np.pi / 3) * r**3
        fb = fan_bundle(make_catalog_shape("cube"), Q411)
        for r in (0.2, 0.7):
            npt.assert_allclose(steiner_predict(fb, [r])[0], want(r), rtol=1e-9)


class TestTubeRecord:
    def test_disk_record_residuals(self):
        rec = tube_record(
            make_catalog_shape("disk"), E2, [0.2, 0.5, 1.0], bundle=cached_bundle("disk", E2)
        )
        assert (np.abs(rec.residuals) <= 0.01 * rec.voxel_volume + 3 * rec.voxel_error).all()
        assert rec.h > 0

    def test_polynomial_fit_recovers_coefficients(self):
        sq = make_catalog_shape("unit-square")
        rho = np.linspace(0.05, 0.6, 12)
        vols, _ = voxel_tube_volume(sq, Q41, rho, h=2 / 1024)
        fit = tube_polynomial_fit(rho, vols, degree=2)
        want = steiner_coefficients(fan_bundle(sq, Q41))
        npt.assert_allclose(fit, want, rtol=0.02)

    def test_disk_fit_recovers_coefficients(self):
        rho = np.linspace(0.02, 0.5, 13)
        vols, _ = voxel_tube_volume(make_catalog_shape("disk"), E2, rho, h=2 / 1024)
        fit = tube_polynomial_fit(rho, vols, degree=2)
        npt.assert_allclose(fit, [2 * np.pi, np.pi], rtol=0.02)


class TestVolumeDerivatives:
    def test_disk_smooth_derivative(self):
        disk = make_catalog_shape("disk")
        b = cached_bundle("disk", E2)
        for rho in (0.3, 1.0):
            vp, vm, jump = volume_derivatives(disk, E2, rho, bundle=b)
            npt.assert_allclose(vp, 2 * np.pi * (1 + rho), rtol=1e-7)
            npt.assert_allclose(jump, 0.0, atol=1e-9)

    def test_segment_pair_jump_is_twice_the_length(self):
        segs = make_catalog_shape("segment-pair")
        b = bundle_sample(segs, E2, n=512)
        vp, vm, jump = volume_derivatives(segs, E2, 1.0, bundle=b)
        npt.assert_allclose(jump, 8.0, rtol=1e-8)
        npt.assert_allclose(vm, 16 + 4 * np.pi, rtol=1e-8)
        npt.assert_allclose(vp, 8 + 4 * np.pi, rtol=1e-8)
        assert volume_derivatives(segs, E2, 0.5, bundle=b)[2] == pytest.approx(0.0, abs=1e-12)

    def test_segment_pair_jump_matches_voxel_quotients(self):
        # one-sided difference quotients of the windowed volume function;
        # away from the endpoint caps the growth is piecewise linear, so
        # coarse quotients land on the slopes and their gap comes out as
        # twice the boundary length inside the window
        segs = make_catalog_shape("segment-pair")
        win = ([-1.5, -10.0], [1.5, 10.0])
        v, _ = voxel_tube_volume(
            segs, E2, [0.5, 1.0, 1.5], h=segs.diameter / 1024, window=win
        )
        lower = (v[1] - v[0]) / 0.5
        upper = (v[2] - v[1]) / 0.5
        npt.assert_allclose(lower, 12.0, rtol=0.02)
        npt.assert_allclose(upper, 6.0, rtol=0.02)
        npt.assert_allclose(lower - upper, 6.0, rtol=0.02)

    def test_two_disks_quotients_detect_the_reach(self):
        # backward-minus-forward quotients carry a smooth -t * V'' bias
        # (= -4 pi t for two disjoint unit disks); once that is removed the
        # gap vanishes below the reach, while the square-root onset of
        # overlap past the equidistant point leaves a positive excess
        two = make_catalog_shape("two-disks-gap1")
        t = 0.08

        def corrected_gap(rho):
            v, _ = voxel_tube_volume(two, E2, [rho - t, rho, rho + t], h=two.diameter / 1024)
            return (v[1] - v[0]) / t - (v[2] - v[1]) / t + 4 * np.pi * t

        assert abs(corrected_gap(0.4)) < 0.25
        assert corrected_gap(0.5) > 0.6

    def test_jumps_isolated_on_a_radius_sweep(self):
        # nonzero jumps occur at isolated radii only
        segs = make_catalog_shape("segment-pair")
        b = bundle_sample(segs, E2, n=512)
        rho_grid = np.round(np.arange(0.1, 2.01, 0.05), 10)
        jumps = np.array(
            [volume_derivatives(segs, E2, r, bundle=b)[2] for r in rho_grid]
        )
        big = np.abs(jumps) > 0.1
        assert big.sum() == 1
        assert rho_grid[big][0] == pytest.approx(1.0)

    def test_window_localizes_the_jump(self):
        # only the inward-facing half of the bundle saturates at rho = 1
        segs = make_catalog_shape("segment-pair")
        b = bundle_sample(segs, E2, n=512)
        down = Window(name="down", normal_axis=[0.0, -1.0], normal_min_cos=0.99)
        vp, vm, jump = volume_derivatives(segs, E2, 1.0, window=down, bundle=b)
        npt.assert_allclose(jump, 4.0, rtol=1e-8)  # one segment's inward sheet
