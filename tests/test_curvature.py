"""Principal curvatures, bundle weights, and the tube-probe machinery."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom.curvature import (
    bundle_jacobian,
    bundle_nodes,
    bundle_sample,
    eig_small,
    elementary_symmetric,
    kappa_from_chi,
    mean_curvature,
    pointwise_mean_curvature,
    pointwise_shape_operator,
)
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, tangent_basis
from reachgeom.shapes import make_catalog_shape

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))
Q411 = EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))


def bundle_integral(sample, r):
    """Sum w * J * phi(u) * H_r over the sample: the tube-formula integrand."""
    return float(
        (sample.weights * sample.jacobian * sample.phi_u * sample.mean_curvature(r)).sum()
    )


class TestLinearAlgebra:
    def test_eig_small_matches_numpy_on_symmetric(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(50, 2, 2))
        A = A + np.transpose(A, (0, 2, 1))
        lam, vec = eig_small(A)
        npt.assert_allclose(lam, np.linalg.eigvalsh(A), atol=1e-10)
        for i in range(len(A)):
            for k in range(2):
                resid = A[i] @ vec[i, k] - lam[i, k] * vec[i, k]
                npt.assert_allclose(resid, 0.0, atol=1e-8)

    def test_eig_small_near_scalar_keeps_frame(self):
        A = np.broadcast_to(np.eye(2) * 3.0, (4, 2, 2)).copy()
        lam, vec = eig_small(A)
        npt.assert_allclose(lam, 3.0)
        npt.assert_allclose(vec, np.broadcast_to(np.eye(2), (4, 2, 2)))

    def test_elementary_symmetric_with_mask(self):
        vals = np.array([[2.0, 3.0], [5.0, np.inf]])
        mask = np.isfinite(vals)
        e = elementary_symmetric(vals, mask)
        npt.assert_allclose(e[0], [1.0, 5.0, 6.0])
        npt.assert_allclose(e[1], [1.0, 5.0, 0.0])

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_kappa_chi_round_trip(self, kappa, r):
        chi = kappa / (1.0 + r * kappa)
        out, infinite, _ = kappa_from_chi(np.array([[chi]]), np.array([r]))
        assert not infinite.any()
        assert out[0, 0] == pytest.approx(kappa, rel=1e-9, abs=1e-9)

    def test_kappa_infinite_at_probe_radius(self):
        out, infinite, ambiguous = kappa_from_chi(np.array([[10.0]]), np.array([0.1]))
        assert infinite.all() and np.isinf(out).all() and ambiguous.all()


class TestBundleJacobian:
    def test_unit_circle_value(self):
        tau = np.array([[[0.0, 1.0]]])
        J = bundle_jacobian(np.array([[1.0]]), tau)
        npt.assert_allclose(J, 1.0 / np.sqrt(2.0))

    def test_corner_is_one(self):
        J = bundle_jacobian(np.array([[np.inf]]), np.array([[[0.6, 0.8]]]))
        npt.assert_allclose(J, 1.0)

    def test_mixed_edge_is_one(self):
        kappa = np.array([[0.0, np.inf]])
        tau = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        npt.assert_allclose(bundle_jacobian(kappa, tau), 1.0)

    def test_sphere_product_rule(self):
        R = 2.0
        tau = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        J = bundle_jacobian(np.array([[1.0 / R, 1.0 / R]]), tau)
        npt.assert_allclose(J, 1.0 / (1.0 + 1.0 / R**2))


class TestMeanCurvature:
    def test_smooth_sample(self):
        kappa = np.array([[0.5, 2.0]])
        npt.assert_allclose(mean_curvature(kappa, 0), [1.0])
        npt.assert_allclose(mean_curvature(kappa, 1), [2.5])
        npt.assert_allclose(mean_curvature(kappa, 2), [1.0])

    def test_one_infinite_direction_shifts_the_index(self):
        kappa = np.array([[0.5, np.inf]])
        npt.assert_allclose(mean_curvature(kappa, 0), [0.0])
        npt.assert_allclose(mean_curvature(kappa, 1), [1.0])
        npt.assert_allclose(mean_curvature(kappa, 2), [0.5])

    def test_fully_singular_sample(self):
        kappa = np.array([[np.inf, np.inf]])
        npt.assert_allclose(mean_curvature(kappa, 2), [1.0])
        npt.assert_allclose(mean_curvature(kappa, 1), [0.0])
        npt.assert_allclose(mean_curvature(kappa, 0), [0.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mean_curvature(np.array([[1.0]]), 2)


class TestCircleBundle:
    def setup_method(self):
        self.sample = bundle_sample(make_catalog_shape("disk", E2), E2, n=256)

    def test_curvature_is_one(self):
        npt.assert_allclose(self.sample.kappa, 1.0, atol=1e-8)

    def test_jacobian(self):
        npt.assert_allclose(self.sample.jacobian, 1.0 / np.sqrt(2.0), atol=1e-8)

    def test_bundle_length(self):
        assert self.sample.weights.sum() == pytest.approx(2 * np.pi * np.sqrt(2), rel=1e-6)

    def test_perimeter_and_total_curvature(self):
        assert bundle_integral(self.sample, 0) == pytest.approx(2 * np.pi, rel=1e-12)
        assert bundle_integral(self.sample, 1) == pytest.approx(2 * np.pi, rel=1e-8)

    def test_no_ambiguous_samples(self):
        assert not self.sample.ambiguous.any()


class TestSquareBundle:
    @pytest.mark.parametrize(
        "norm,theta0,theta1",
        [(E2, np.pi, 4.0), (Q41, 2 * np.pi, 6.0)],
        ids=["euclid", "q41"],
    )
    def test_corner_fans_and_edges(self, norm, theta0, theta1):
        # Theta_1 is the phi-perimeter of the square; Theta_0 the total fan
        # measure in dual coordinates, which tiles the Wulff boundary
        sq = make_catalog_shape("unit-square", norm)
        bs = bundle_sample(sq, norm, n=256)
        corners = bs.stratum == 0
        assert np.isinf(bs.kappa[corners]).all()
        npt.assert_allclose(bs.kappa[~corners], 0.0, atol=1e-8)
        npt.assert_allclose(bs.jacobian[corners], 1.0)
        assert 0.5 * bundle_integral(bs, 1) == pytest.approx(theta0, rel=1e-10)
        assert bundle_integral(bs, 0) == pytest.approx(theta1, rel=1e-10)


class TestBundleNodes:
    @pytest.mark.parametrize(
        "key,norm",
        [
            ("cube", E3),
            ("cube", EllipsoidalNorm([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]])),
            ("segment-pair", Q41),
        ],
        ids=["cube-euclid", "cube-aniso", "segments-q41"],
    )
    def test_order_and_values_match_per_node_loop(self, key, norm):
        shape = make_catalog_shape(key)
        got = bundle_nodes(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        ref = _bundle_nodes_per_node(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        npt.assert_array_equal(got[0], ref[0])
        npt.assert_array_equal(got[3], ref[3])
        npt.assert_allclose(got[1], ref[1], rtol=0, atol=1e-14)
        npt.assert_allclose(got[2], ref[2], rtol=1e-14, atol=0)


def _bundle_nodes_per_node(shape, norm, n, seed, fiber_nodes, patch_nodes):
    """bundle_nodes one fiber and one node at a time, in stratum/fiber/node order."""
    pts, us, w_base, strat = [], [], [], []
    for s in shape.boundary_strata(n=n, seed=seed):
        for p, w_a, fib in zip(s.points, s.weights, s.fibers):
            kq = fiber_nodes if fib.dim_fiber == 1 else patch_nodes
            uu, ww = fib.nodes(kq)
            if fib.dim_fiber == 0:
                transport = np.ones(len(uu))
            elif fib.dim_fiber == 1:
                im = np.einsum("kde,ke->kd", norm.hessian(uu), fib.tangents(kq))
                transport = np.linalg.norm(im, axis=-1)
            else:
                E = tangent_basis(uu)
                H = norm.hessian(uu)
                im0 = np.einsum("kde,ke->kd", H, E[:, 0])
                im1 = np.einsum("kde,ke->kd", H, E[:, 1])
                transport = np.linalg.norm(np.cross(im0, im1), axis=-1)
            for ui, wi, ti in zip(uu, ww, transport):
                pts.append(p)
                us.append(ui)
                w_base.append(w_a * wi * ti)
                strat.append(s.index)
    return np.array(pts), np.array(us), np.array(w_base), np.array(strat)


class TestSmoothOracles:
    def test_ellipse_euclidean_curvature(self):
        a, b = 2.0, 1.0
        bs = bundle_sample(make_catalog_shape("ellipse-2-1", E2), E2, n=256)
        t = np.arctan2(bs.points[:, 1] / b, bs.points[:, 0] / a)
        expect = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        npt.assert_allclose(bs.kappa[:, 0], expect, atol=1e-6)

    def test_ellipse_is_the_wulff_body_of_q41(self):
        bs = bundle_sample(make_catalog_shape("ellipse-2-1", Q41), Q41, n=256)
        npt.assert_allclose(bs.kappa, 1.0, atol=1e-8)
        assert bundle_integral(bs, 0) == pytest.approx(4 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("norm", [E2, Q41], ids=["euclid", "q41"])
    def test_wulff_body_constant_curvature(self, norm):
        bs = bundle_sample(make_catalog_shape("wulff", norm), norm, n=256)
        npt.assert_allclose(bs.kappa, 1.0, atol=1e-7)

    def test_generic_path_agrees_with_pointwise(self):
        # disk under the anisotropic norm exercises the chart-solver feet
        disk = make_catalog_shape("disk", Q41)
        bs = bundle_sample(disk, Q41, n=64)
        for i in range(0, len(bs), 9):
            kp = pointwise_mean_curvature(disk, Q41, bs.points[i])
            assert bs.kappa[i, 0] == pytest.approx(kp, abs=1e-6)

    def test_anisotropic_circle_curvature_spans_hessian_range(self):
        bs = bundle_sample(make_catalog_shape("disk", Q41), Q41, n=512)
        assert bs.kappa.min() == pytest.approx(0.5, abs=1e-4)
        assert bs.kappa.max() == pytest.approx(4.0, abs=1e-2)


class TestThreeDimensional:
    def test_cube_fan_totals(self):
        bs = bundle_sample(make_catalog_shape("cube", E3), E3, n=400)
        for m, expect in ((2, 6.0), (1, 3 * np.pi), (0, 4 * np.pi / 3)):
            r = 2 - m
            val = bundle_integral(bs, r) / (r + 1)
            assert val == pytest.approx(expect, rel=1e-9), f"Theta_{m}"

    def test_cube_strata_signatures(self):
        bs = bundle_sample(make_catalog_shape("cube", E3), E3, n=300)
        faces = bs.stratum == 2
        edges = bs.stratum == 1
        verts = bs.stratum == 0
        npt.assert_allclose(bs.kappa[faces], 0.0, atol=1e-9)
        assert np.isinf(bs.kappa[edges, 1]).all()
        npt.assert_allclose(bs.kappa[edges, 0], 0.0, atol=1e-8)
        assert np.isinf(bs.kappa[verts]).all()
        npt.assert_allclose(bs.jacobian[edges], 1.0)

    def test_sphere_curvatures_and_area(self):
        ball = make_catalog_shape("two-balls-3d", E3).components[0]
        bs = bundle_sample(ball, E3, n=400)
        npt.assert_allclose(bs.kappa, 1.0, atol=1e-6)
        assert bundle_integral(bs, 0) == pytest.approx(4 * np.pi, rel=1e-10)
        assert bundle_integral(bs, 1) == pytest.approx(8 * np.pi, rel=1e-6)
        assert bundle_integral(bs, 2) == pytest.approx(4 * np.pi, rel=1e-6)

    def test_wulff_3d_constant_curvature(self):
        bs = bundle_sample(make_catalog_shape("wulff-3d", Q411), Q411, n=300)
        npt.assert_allclose(bs.kappa, 1.0, atol=1e-6)


class TestComplement:
    def test_disk_complement_flips_curvature(self):
        comp = make_catalog_shape("disk", E2).complement()
        bs = bundle_sample(comp, E2, n=128)
        npt.assert_allclose(bs.kappa, -1.0, atol=1e-8)
        npt.assert_allclose(bs.reach, 1.0, atol=1e-6)

    def test_flip_identity_against_the_body(self):
        # kappa_i of the set at (a, u) and kappa_{n+1-i} of its complement at
        # (a, -u) are opposite numbers
        shape = make_catalog_shape("ellipse-2-1", E2)
        comp = shape.complement()
        bs = bundle_sample(shape, E2, n=64, seed=3)
        bc = bundle_sample(comp, E2, n=64, seed=3)
        order = np.lexsort(bs.points.T)
        order_c = np.lexsort(bc.points.T)
        npt.assert_allclose(bs.points[order], bc.points[order_c], atol=1e-12)
        npt.assert_allclose(
            bs.kappa[order, 0], -bc.kappa[order_c, 0], atol=1e-7
        )


class TestPointwiseOperator:
    def test_circle(self):
        assert pointwise_mean_curvature(
            make_catalog_shape("disk", E2), E2, np.array([np.cos(0.3), np.sin(0.3)])
        ) == pytest.approx(1.0, abs=1e-9)

    def test_ellipse(self):
        t = 0.7
        a = np.array([2 * np.cos(t), np.sin(t)])
        kap = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        assert pointwise_mean_curvature(
            make_catalog_shape("ellipse-2-1", E2), E2, a
        ) == pytest.approx(kap, rel=1e-7)

    def test_sphere_sum(self):
        ball = make_catalog_shape("two-balls-3d", E3).components[0]
        a = ball.center + ball.radius * np.array([0.3, -0.5, np.sqrt(0.66)])
        assert pointwise_mean_curvature(ball, E3, a) == pytest.approx(
            2.0 / ball.radius, rel=1e-8
        )

    def test_box_face_is_flat(self):
        box = make_catalog_shape("cube", E3)
        M, _, _ = pointwise_shape_operator(box, E3, np.array([0.5, 0.5, 1.0]))
        npt.assert_allclose(M, 0.0, atol=1e-10)

    def test_off_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            pointwise_shape_operator(make_catalog_shape("disk", E2), E2, np.array([0.5, 0.5]))


class TestAudit:
    def test_probe_invariance_on_smooth_shape(self):
        bs = bundle_sample(make_catalog_shape("ellipse-2-1", E2), E2, n=128, audit=True)
        assert bs.audit_fail is not None
        assert not bs.audit_fail.any()
