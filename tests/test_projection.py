"""Nearest points, distance gradients, reach, and boundary classification."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom.norms import EllipsoidalNorm, EuclideanNorm
from reachgeom.projection import (
    InvalidNormalError,
    _solver,
    classify_boundary_point,
    distance_field,
    global_reach,
    grad_delta,
    nearest_points,
    project,
    reach_along,
    set_distance,
)
from reachgeom.shapes import Ball, make_catalog_shape

E2 = EuclideanNorm(2)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))


class TestProject:
    def test_disk_exterior(self):
        res = project(make_catalog_shape("disk", E2), E2, np.array([2.0, 0.0]))
        assert res.delta == pytest.approx(1.0)
        npt.assert_allclose(res.foot, [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(res.nu, [1.0, 0.0], atol=1e-12)
        assert res.multiplicity == "unique"
        assert res.residual < 1e-12

    def test_interior_point_is_its_own_foot(self):
        res = project(make_catalog_shape("disk", E2), E2, np.array([0.2, -0.1]))
        assert res.delta == 0.0
        npt.assert_allclose(res.foot, [0.2, -0.1])
        assert res.nu is None

    def test_generic_path_matches_symmetry(self):
        # disk under the anisotropic norm: on the x-axis the foot stays (1, 0)
        # and the distance is the dual norm of the gap
        res = project(make_catalog_shape("disk", Q41), Q41, np.array([2.0, 0.0]))
        assert res.delta == pytest.approx(0.5, abs=1e-10)
        npt.assert_allclose(res.foot, [1.0, 0.0], atol=1e-8)

    def test_cut_locus_reports_multiple_feet(self):
        two = make_catalog_shape("two-disks-gap1", E2)
        res = project(two, E2, np.array([0.0, 0.0]))
        assert res.multiplicity == "multiple"
        assert len(res.feet) == 2
        xs = np.sort(res.feet[:, 0])
        npt.assert_allclose(xs, [-0.5, 0.5], atol=1e-9)

    def test_complement_center_sees_whole_circle(self):
        comp = make_catalog_shape("disk", E2).complement()
        res = project(comp, E2, np.array([0.0, 0.0]))
        assert res.delta == pytest.approx(1.0)
        assert res.multiplicity == "multiple"

    def test_batch_matches_scalar(self):
        shape = make_catalog_shape("unit-square", E2)
        pts = np.array([[2.0, 0.0], [0.9, 0.9], [-1.0, -2.0]])
        feet, delta = nearest_points(shape, E2, pts)
        for x, f, d in zip(pts, feet, delta):
            res = project(shape, E2, x)
            assert res.delta == pytest.approx(d, abs=1e-12)
            npt.assert_allclose(res.foot, f, atol=1e-12)


class TestSolverMemo:
    def test_solvers_die_with_their_shapes(self):
        # Q41 has no closed form on a Euclidean ball: every call builds a solver
        refs = []
        for i in range(30):
            ball = Ball([0.0, 0.0], 1.0 + 0.01 * i)
            nearest_points(ball, Q41, np.array([[3.0, 0.5]]))
            assert len(ball.chart_solvers) == 1
            refs.append(weakref.ref(ball))
            del ball
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_threads_share_one_solver(self):
        ball = Ball([0.0, 0.0], 1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_solver, ball, Q41) for _ in range(16)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(s is got[0] for s in got)
        assert list(ball.chart_solvers.values()) == [got[0]]

    def test_solver_is_shared_by_equal_norms_only(self):
        ball = Ball([0.0, 0.0], 1.0)
        for norm in (Q41, EllipsoidalNorm(np.diag([4.0, 1.0])), EllipsoidalNorm(np.diag([2.0, 1.0]))):
            nearest_points(ball, norm, np.array([[3.0, 0.5]]))
        assert len(ball.chart_solvers) == 2


class TestDistanceInvariants:
    def setup_method(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-3.0, 3.0, size=(60, 2))
        self.pts = pts

    @pytest.mark.parametrize("key", ["disk", "unit-square", "ellipse-2-1"])
    @pytest.mark.parametrize("norm", [E2, Q41], ids=["euclid", "q41"])
    def test_gradient_is_dual_gradient_of_gap(self, key, norm):
        shape = make_catalog_shape(key, norm)
        x = self.pts[~shape.contains(self.pts)]
        g = grad_delta(shape, norm, x)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (set_distance(shape, norm, x + e) - set_distance(shape, norm, x - e)) / (
                2.0 * h
            )
            npt.assert_allclose(fd, g[:, k], atol=1e-4)

    @pytest.mark.parametrize("norm", [E2, Q41], ids=["euclid", "q41"])
    def test_foot_constant_along_normal_ray(self, norm):
        shape = make_catalog_shape("disk", norm)
        t = np.linspace(0.1, 2 * np.pi, 17)
        u = np.c_[np.cos(t), np.sin(t)]
        a = u.copy()  # boundary points of the unit disk
        eta = norm.grad(u)
        for s in (0.05, 0.4, 1.3):
            feet, delta = nearest_points(shape, norm, a + s * eta)
            npt.assert_allclose(feet, a, atol=1e-6)
            npt.assert_allclose(delta, s, atol=1e-8)

    def test_distance_is_dual_lipschitz(self):
        shape = make_catalog_shape("cap-lens-0.25", E2)
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(80, 2))
        y = x + rng.normal(scale=0.3, size=x.shape)
        dx = set_distance(shape, E2, x)
        dy = set_distance(shape, E2, y)
        gap = E2.conjugate(x - y)
        assert (np.abs(dx - dy) <= gap + 1e-9).all()


class TestDistanceField:
    def test_exact_disk(self):
        shape = make_catalog_shape("disk", E2)
        g = np.mgrid[-2:2:41j, -2:2:41j].reshape(2, -1).T
        d = distance_field(shape, E2, g)
        expect = np.maximum(np.linalg.norm(g, axis=-1) - 1.0, 0.0)
        npt.assert_allclose(d, expect, atol=1e-12)

    def test_box_under_diagonal_norm(self):
        shape = make_catalog_shape("unit-square", Q41)
        g = np.mgrid[-2:2:31j, -2:2:31j].reshape(2, -1).T
        d = distance_field(shape, Q41, g)
        feet = np.clip(g, [-0.5, -0.5], [0.5, 0.5])
        npt.assert_allclose(d, Q41.conjugate(g - feet), atol=1e-12)

    def test_cloud_fallback_close_to_solver(self):
        # disk under the anisotropic norm has no closed form: the KD-tree
        # route against a dense boundary cloud must agree with the chart
        # solver up to the chord sag of the cloud
        shape = make_catalog_shape("disk", Q41)
        rng = np.random.default_rng(7)
        x = rng.uniform(-2.5, 2.5, size=(50, 2))
        d_field = distance_field(shape, Q41, x, cloud=8192)
        d_solver = set_distance(shape, Q41, x)
        npt.assert_allclose(d_field, d_solver, atol=5e-7)
        assert (d_field >= d_solver - 1e-12).all()


class TestReach:
    def test_two_disks_inner_ray(self):
        two = make_catalog_shape("two-disks-gap1", E2)
        r = reach_along(two, E2, np.array([[0.5, 0.0]]), np.array([[-1.0, 0.0]]))
        npt.assert_allclose(r, [0.5], atol=1e-6)

    def test_outward_ray_is_infinite(self):
        two = make_catalog_shape("two-disks-gap1", E2)
        r = reach_along(two, E2, np.array([[2.5, 0.0]]), np.array([[1.0, 0.0]]))
        assert np.isinf(r).all()

    def test_rejects_non_normal_pairs(self):
        two = make_catalog_shape("two-disks-gap1", E2)
        with pytest.raises(InvalidNormalError):
            reach_along(two, E2, np.array([[0.5, 0.0]]), np.array([[0.0, 1.0]]))

    def test_convex_reach_is_infinite(self):
        est = global_reach(make_catalog_shape("disk", E2), E2)
        assert est.is_infinite
        assert np.isinf(est.global_reach)

    def test_global_reach_two_disks(self):
        est = global_reach(
            make_catalog_shape("two-disks-gap1", E2), E2, n_samples=1024, n_scan=4000
        )
        assert est.global_reach == pytest.approx(0.5, rel=1e-2)
        assert est.bracket[0] <= 0.5 <= est.bracket[1] + 1e-6

    def test_global_reach_segments(self):
        est = global_reach(
            make_catalog_shape("segment-pair", E2), E2, n_samples=512, n_scan=2000
        )
        assert est.global_reach == pytest.approx(1.0, rel=1e-2)

    @given(st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=20, deadline=None)
    def test_lens_complement_reach_hits_cut_locus(self, eps):
        # descending from the lens apex, the foot switches from the upper to
        # the lower arc at the origin, so the inward reach is 1 - eps
        lens = make_catalog_shape(f"cap-lens-{eps}", E2)
        a = np.array([[0.0, 1.0 - lens.eps]])
        r = reach_along(lens.complement(), E2, a, np.array([[0.0, -1.0]]), validate=False)
        assert r[0] == pytest.approx(1.0 - eps, abs=1e-6)


class TestClassify:
    def test_smooth_point(self):
        cls = classify_boundary_point(make_catalog_shape("disk", E2), E2, np.array([0.0, 1.0]))
        assert cls.kind == "alexandrov"
        npt.assert_allclose(cls.h_spectrum, [1.0], atol=1e-8)

    def test_square_corner_and_edge(self):
        sq = make_catalog_shape("unit-square", E2)
        assert classify_boundary_point(sq, E2, np.array([0.5, 0.5])).kind == "non-viscosity"
        edge = classify_boundary_point(sq, E2, np.array([0.1, -0.5]))
        assert edge.kind == "alexandrov"
        npt.assert_allclose(edge.h_spectrum, [0.0], atol=1e-10)

    def test_segment_interior(self):
        seg = make_catalog_shape("segment-pair", E2)
        assert classify_boundary_point(seg, E2, np.array([0.3, 1.0])).kind == "non-viscosity"

    def test_ellipse_spectrum_matches_curvature(self):
        ell = make_catalog_shape("ellipse-2-1", E2)
        t = 0.7
        a = np.array([2 * np.cos(t), np.sin(t)])
        cls = classify_boundary_point(ell, E2, a)
        kap = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        assert cls.kind == "alexandrov"
        npt.assert_allclose(cls.h_spectrum, [kap], rtol=1e-6)
