"""Curvature measures, tube volumes, and the Steiner machinery."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom.curvature import bundle_sample
from reachgeom.measures import (
    BudgetExceeded,
    CurvatureReport,
    _auto_bundle,
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
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm
from reachgeom.shapes import Ball, ConvexPolytope, EmptyInteriorError, make_catalog_shape

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
        edges_only = fb.select(fb.stratum == 1)
        with pytest.raises(StrataCoverageGap):
            curvature_measure(sq, E2, 0, bundle=edges_only)

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
            npt.assert_allclose(steiner_predict(fb, [r])[0], want(r), rtol=5e-6)


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
