"""Principal curvatures, bundle weights, and the tube-probe machinery."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _probe
from reachgeom import curvature, projection, shapes
from reachgeom.curvature import (
    bundle_jacobian,
    bundle_nodes,
    bundle_sample,
    eig_small,
    elementary_symmetric,
    mean_curvature,
    pointwise_mean_curvature,
    pointwise_shape_operator,
)
from reachgeom.measures import fan_bundle
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, SmoothedLpNorm, tangent_basis
from reachgeom.shapes import Ball, DisjointUnion, SegmentUnion, WulffBody, make_catalog_shape

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
        out, infinite, _ = _probe.kappa_from_chi(np.array([[chi]]), np.array([r]))
        assert not infinite.any()
        assert out[0, 0] == pytest.approx(kappa, rel=1e-9, abs=1e-9)

    def test_kappa_infinite_at_probe_radius(self):
        out, infinite, ambiguous = _probe.kappa_from_chi(np.array([[10.0]]), np.array([0.1]))
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flat_and_fan_rows_equal_the_recurrence_on_every_row(self, n):
        # flat and fan rows skip the recurrence; the result keeps every bit
        rng = np.random.default_rng(n)
        kappa = rng.choice([0.0, -0.0, 0.75, -2.5, 1e-300, -1e100, np.inf], size=(3000, n))
        finite = np.isfinite(kappa)
        e = elementary_symmetric(kappa, finite)
        n_fin = finite.sum(axis=1)
        for r in range(n + 1):
            j = r - (n - n_fin)
            want = np.where((j >= 0) & (j <= n_fin), e[np.arange(len(kappa)), np.clip(j, 0, n)], 0.0)
            npt.assert_array_equal(mean_curvature(kappa, r), want)


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

    def test_mean_curvature_is_memoized_read_only(self):
        h = self.sample.mean_curvature(1)
        assert self.sample.mean_curvature(1) is h
        npt.assert_array_equal(h, mean_curvature(self.sample.kappa, 1))
        with pytest.raises(ValueError):
            h[0] = 0.0
        with pytest.raises(ValueError):
            self.sample.kappa[0, 0] = 0.0


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


def _segment_disk_segment():
    """A union whose top stratum runs pair, vector, pair fibers."""
    return DisjointUnion(
        [
            SegmentUnion([((-4.0, 0.0), (-2.0, 0.0))], "left"),
            Ball([0.0, 0.0], 1.0, "disk"),
            SegmentUnion([((2.0, 0.0), (4.0, 0.0))], "right"),
        ],
        name="segment-disk-segment",
    )


class TestBundleNodes:
    @pytest.mark.parametrize(
        "make,norm",
        [
            (lambda: make_catalog_shape("cube"), E3),
            (
                lambda: make_catalog_shape("cube"),
                EllipsoidalNorm([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]]),
            ),
            (lambda: make_catalog_shape("cube"), SmoothedLpNorm(3, 3)),
            # D^2phi(u)u is a few ulps from 0 here and D^2phi nearly singular
            # on u-perp near the octants' rims: e_2(H) alone, and the sum
            # e_2(H) - (u.Hu) tr H + |Hu|^2, miss the frame's area by > 1e-14
            (lambda: make_catalog_shape("cube"), SmoothedLpNorm(3, 6)),
            (lambda: make_catalog_shape("segment-pair"), Q41),
            (_segment_disk_segment, Q41),
        ],
        ids=["cube-euclid", "cube-aniso", "cube-lp3", "cube-lp6", "segments-q41",
             "segment-disk-segment-q41"],
    )
    def test_order_and_values_match_per_node_loop(self, make, norm):
        shape = make()
        got = bundle_nodes(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        ref = _bundle_nodes_per_node(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        npt.assert_array_equal(got[0], ref[0])
        npt.assert_array_equal(got[3], ref[3])
        npt.assert_allclose(got[1], ref[1], rtol=0, atol=1e-14)
        npt.assert_allclose(got[2], ref[2], rtol=1e-14, atol=0)

    def test_union_top_stratum_keeps_component_order(self):
        union = _segment_disk_segment()
        strata = union.boundary_strata(n=96, seed=4)
        assert [(s.index, s.kind) for s in strata] == [
            (1, "pair"), (1, "vector"), (1, "pair"), (0, "arc")
        ]
        tops = [
            c.boundary_strata(n=32, seed=4 + k)[0] for k, c in enumerate(union.components)
        ]
        for s, top in zip(strata, tops):
            npt.assert_array_equal(s.points, top.points)
            npt.assert_array_equal(s.fibers, top.fibers)


def _bundle_nodes_per_point(shape, norm, n, seed, fiber_nodes, patch_nodes):
    """bundle_nodes with every point's fiber expanded on its own, as before the
    fans were shared: points, normals, weights and strata."""
    blocks = []
    for s in shape.boundary_strata(n=n, seed=seed):
        kq = patch_nodes if s.kind == "patch" else fiber_nodes
        uu, ww = shapes.fiber_nodes(s.kind, s.fibers, kq)
        q, d = uu.shape[1:]
        u = uu.reshape(-1, d)
        if s.kind in ("vector", "pair"):
            transport = np.ones(len(u))
        elif s.kind == "patch":
            transport = norm.fan_jacobian(u)
        else:
            transport = norm.fan_jacobian(u, shapes.fiber_tangents(s.kind, s.fibers, kq).reshape(-1, d))
        w = (s.weights[:, None] * ww * transport.reshape(-1, q)).ravel()
        blocks.append((np.repeat(s.points, q, axis=0), u, w, np.full(len(u), s.index)))
    return tuple(np.concatenate(col) for col in zip(*blocks))


class _EdgeFans:
    """A 3-d stratum of edge fans, two of which differ only in the sign of a zero."""

    dim = 3

    def boundary_strata(self, n, seed):
        # an obtuse fan (e0.n1 < 0) carries -0.0 into e1 and the nodes short of 90 degrees
        plus = [[0.8, 0.6, 0.0], [-0.8, 0.6, 0.0]]
        minus = [[0.8, 0.6, -0.0], [-0.8, 0.6, -0.0]]
        tilted = [[0.0, 0.6, 0.8], [0.0, 0.0, 1.0]]
        fibers = np.array([plus, minus, tilted, minus, plus, tilted, minus])
        points = np.arange(3.0 * len(fibers)).reshape(-1, 3)
        return [shapes.Stratum(1, "edge", points, np.linspace(1.0, 2.0, len(fibers)), fibers)]


class TestSharedFans:
    """Each distinct fan is expanded once; every bit matches the per-point expansion."""

    @pytest.mark.parametrize(
        "key,norm",
        [
            ("cube", E3),
            ("cube", EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))),
            ("cube", EllipsoidalNorm([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]])),
            ("cube", SmoothedLpNorm(3, 3)),
            ("unit-square", Q41),
            ("cap-lens-0.5", Q41),
            ("segment-pair", Q41),
            (None, E3),
        ],
        ids=["cube-euclid", "cube-q412", "cube-rotated", "cube-lp3", "square-q41",
             "lens-q41", "segments-q41", "signed-zero-edges"],
    )
    def test_bits_match_per_point_expansion(self, key, norm):
        shape = _EdgeFans() if key is None else make_catalog_shape(key)
        got = bundle_nodes(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        ref = _bundle_nodes_per_point(shape, norm, n=96, seed=4, fiber_nodes=8, patch_nodes=64)
        for g, r in zip(got[:4], ref):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert np.array_equal(g.view(np.uint64), r.view(np.uint64))

    def test_signed_zero_fans_stay_apart(self):
        _, u, _, _, _ = bundle_nodes(_EdgeFans(), E3, fiber_nodes=8)
        z = np.signbit(u[:, 2].reshape(7, 8))
        assert z[[1, 3, 6]].any(axis=1).all() and not z[[0, 4]].any()

    def test_cube_hessian_rows_expand_distinct_fans_once(self, monkeypatch):
        # 8 vertex octants of 1,024 nodes, and 12 edge fans of 32 (not 252 edge points);
        # the octants share one rule, but the norm sees each octant's own nodes
        norm, rows = SmoothedLpNorm(3, 3), []
        hessian = norm.hessian
        monkeypatch.setattr(norm, "hessian", lambda x: rows.append(len(x)) or hessian(x))
        fan_bundle(make_catalog_shape("cube"), norm)
        assert sum(rows) == 8 * 1024 + 12 * 32 == 8576

    def test_octants_are_ruled_once(self, monkeypatch):
        ruled = []
        rule = curvature.fiber_quadrature
        monkeypatch.setattr(
            curvature, "fiber_quadrature",
            lambda kind, fibers, k: ruled.append((kind, len(fibers))) or rule(kind, fibers, k),
        )
        fan_bundle(make_catalog_shape("cube"), E3)
        assert ruled == [("vector", 486), ("edge", 12), ("patch", 1)]

    @pytest.mark.parametrize("norm", [E3, EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))],
                             ids=["euclid", "q412"])
    def test_quadratic_fans_need_no_hessian(self, monkeypatch, norm):
        # closed-form fan Jacobians: no D^2phi, and no LAPACK paged in for a determinant
        calls = []

        def count(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(norm, "hessian", count("hessian", norm.hessian))
        for name in dir(np.linalg):
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, count(name, fn))
        fan_bundle(make_catalog_shape("cube"), norm)
        assert calls == []


def _bundle_nodes_per_node(shape, norm, n, seed, fiber_nodes, patch_nodes):
    """bundle_nodes one fiber and one node at a time, in stratum/fiber/node order."""
    pts, us, w_base, strat = [], [], [], []
    for s in shape.boundary_strata(n=n, seed=seed):
        kq = patch_nodes if s.kind == "patch" else fiber_nodes
        for i, (p, w_a) in enumerate(zip(s.points, s.weights)):
            row = s.fibers[i : i + 1]
            (uu,), (ww,) = shapes.fiber_nodes(s.kind, row, kq)
            if s.kind in ("vector", "pair"):
                transport = np.ones(len(uu))
            elif s.kind in ("arc", "edge"):
                tt = shapes.fiber_tangents(s.kind, row, kq)[0]
                transport = np.linalg.norm(np.einsum("kde,ke->kd", norm.hessian(uu), tt), axis=-1)
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
        # disk under the anisotropic norm exercises the secular-equation feet;
        # on the unit circle the dual normal field grad phi(u) turns at rate
        # tau' hess phi(u) tau per unit arc length, which both routes must give
        disk = make_catalog_shape("disk", Q41)
        bs = bundle_sample(disk, Q41, n=64)
        tau = np.stack([-bs.normals[:, 1], bs.normals[:, 0]], axis=1)
        exact = np.einsum("nd,nde,ne->n", tau, Q41.hessian(bs.normals), tau)
        npt.assert_allclose(bs.kappa[:, 0], exact, rtol=0, atol=1e-8)
        for i in range(0, len(bs), 9):
            kp = pointwise_mean_curvature(disk, Q41, bs.points[i])
            assert kp == pytest.approx(exact[i], abs=1e-8)

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

    def test_disk_complement_is_negative(self):
        comp = make_catalog_shape("disk", E2).complement()
        assert pointwise_mean_curvature(comp, E2, np.array([0.0, 1.0])) == pytest.approx(
            -1.0, abs=1e-9
        )

    def test_ellipse_complement_is_negated(self):
        t = 0.7
        a = np.array([2 * np.cos(t), np.sin(t)])
        kap = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        comp = make_catalog_shape("ellipse-2-1", E2).complement()
        assert pointwise_mean_curvature(comp, E2, a) == pytest.approx(-kap, rel=1e-7)

    def test_box_face_is_flat(self):
        box = make_catalog_shape("cube", E3)
        M, _, _ = pointwise_shape_operator(box, E3, np.array([0.5, 0.5, 1.0]))
        npt.assert_allclose(M, 0.0, atol=1e-10)

    def test_off_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            pointwise_shape_operator(make_catalog_shape("disk", E2), E2, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("norm_kind", ["euclid", "diag", "lp3"])
    @pytest.mark.parametrize(
        "key",
        ["disk", "ellipse-2-1", "wulff", "cap-lens-0.5", "two-disks-gap1", "two-balls-3d",
         "wulff-3d"],
    )
    def test_spectrum_equals_the_bundle_curvatures(self, key, norm_kind):
        # at every curved node, on the set and on a 2-d convex body's complement
        d = 3 if key.endswith("3d") else 2
        norm = NORM_KINDS[f"{norm_kind}-{d}"]
        shape = make_catalog_shape(key, norm)
        for s in [shape] + ([shape.complement()] if shape.is_convex and d == 2 else []):
            bs = bundle_sample(s, norm, n=64)
            for i in np.flatnonzero(bs.stratum == d - 1):
                K, _, _ = pointwise_shape_operator(s, norm, bs.points[i])
                spectrum = np.sort(eig_small(K[None])[0][0])
                npt.assert_allclose(spectrum, bs.kappa[i], rtol=1e-12, atol=0.0)


class TestAudit:
    def test_probe_invariance_on_smooth_shape(self):
        shape = make_catalog_shape("ellipse-2-1", E2)
        fail = _probe.audit(shape, E2, bundle_sample(shape, E2, n=128))
        assert fail is not None
        assert not fail.any()


class TestWarmProbes:
    """Probe feet come from nearest_points: a closed form or the global support search."""

    def _probe_calls(self, monkeypatch, shape, norm, n):
        """Every probe batch of the audit of a convex shape's bundle_sample, with its feet."""
        calls = []
        plain = projection.nearest_points

        def spy(shape_, norm_, x_):
            out = plain(shape_, norm_, x_)
            calls.append((x_, out))
            return out

        monkeypatch.setattr(_probe, "nearest_points", spy)
        _probe.audit(shape, norm, bundle_sample(shape, norm, n=n))
        monkeypatch.undo()
        assert len(calls) == 1  # the audit's probes at r; the curvatures take none
        return calls

    def test_lens_feet_equal_the_global_route(self, monkeypatch):
        # the lens has no closed form under a smoothed-lp norm: its disks'
        # feet come from the support search, and no point of a dense sample
        # of the arcs is nearer
        lens, norm = make_catalog_shape("cap-lens-0.5"), SmoothedLpNorm(2, 3.0)
        calls = self._probe_calls(monkeypatch, lens, norm, 512)
        (arcs, corners) = lens.boundary_strata(n=1024)
        cloud = np.concatenate([arcs.points, corners.points])
        for x, (feet, delta) in calls:
            assert x.shape == (1088, 2)
            assert lens.contains(feet, tol=1e-12).all()
            rows = np.arange(0, len(x), 34)
            near = norm.conjugate(x[rows, None, :] - cloud).min(axis=1)
            assert (delta[rows] <= near + 1e-12).all()

    def test_smoothed_lp_body_in_3d(self, monkeypatch):
        # the 3-d support search from outside the body, against a dense
        # boundary sample
        body = WulffBody(SmoothedLpNorm(3, 3.0))
        calls = self._probe_calls(monkeypatch, body, E3, 32)
        (stratum,) = body.boundary_strata(n=20000)
        for x, (feet, delta) in calls:
            npt.assert_allclose(body.norm.conjugate(feet), 1.0, rtol=0.0, atol=1e-12)
            near = np.linalg.norm(x[:, None, :] - stratum.points, axis=-1).min(axis=1)
            assert (delta <= near + 1e-12).all()

    def test_kappa_agrees_with_the_global_route(self, search_twin):
        # under diag(4, 1) the lens projects in closed form, and the complement
        # of its own dual ball by the mirror of the radial foot; under the
        # twin both take the support search
        twin = search_twin(Q41)
        for shape in (
            make_catalog_shape("cap-lens-0.5"),
            make_catalog_shape("ellipse-2-1").complement(),
        ):
            closed = bundle_sample(shape, Q41, n=128)
            search = bundle_sample(shape, twin, n=128)
            finite = np.isfinite(closed.kappa)
            assert np.array_equal(np.isfinite(search.kappa), finite)
            # feet one ulp apart move chi by about 1e-16 / (2 h r) with h = 1e-4 r,
            # and r is small near the lens corners
            npt.assert_allclose(search.kappa[finite], closed.kappa[finite], rtol=1e-7, atol=1e-9)
            assert np.array_equal(
                _probe.audit(shape, twin, search), _probe.audit(shape, Q41, closed)
            )

    def test_probes_take_the_normals_they_are_given(self, monkeypatch):
        # the audit holds u already; recovering it from eta would run the
        # dual-norm search under a smoothed-lp norm
        norm = SmoothedLpNorm(3, 3.0)
        shape = make_catalog_shape("wulff-3d", norm)
        plain = bundle_sample(shape, norm, n=64)
        monkeypatch.setattr(type(norm), "conjugate_grad", None)
        shape = make_catalog_shape("wulff-3d", norm)
        bs = bundle_sample(shape, norm, n=64)
        assert not _probe.audit(shape, norm, bs).any()
        assert np.array_equal(bs.kappa, plain.kappa)

    def test_probe_past_a_focal_point_takes_the_true_foot(self):
        # below the apex of the disk complement under diag(4, 1), past the
        # focal distance 1/4, the apex is no longer the foot: at r = 0.4 the
        # distance is sqrt(0.13), not 0.4
        comp, norm = make_catalog_shape("disk").complement(), Q41
        # u = (0, -1) has eta = grad phi(u) = (0, -1)
        a, eta, r = np.array([[0.0, 1.0]]), np.array([[0.0, -1.0]]), 0.4
        M, T = _probe.normal_matrices(comp, norm, a, eta, r)
        h = _probe.FD_FRAC * r
        probes = a + r * eta + np.array([[h], [-h]]) * T[0]
        npt.assert_allclose(projection.set_distance(comp, norm, a + r * eta), np.sqrt(0.13))
        feet, delta = projection.nearest_points(comp, norm, probes)
        assert (delta < 0.361).all()
        nu = (probes - feet) / delta[:, None]
        want = T[0] @ ((nu[0] - nu[1]) / (2.0 * h))
        npt.assert_allclose(M[0, 0, 0], want, rtol=1e-12)


def _rotated(diag, angles):
    """R diag R' with R a product of plane rotations (2-d: one; 3-d: z-x-z)."""
    d = len(diag)
    planes = [(0, 1)] if d == 2 else [(0, 1), (1, 2), (0, 1)]
    R = np.eye(d)
    for (i, j), t in zip(planes, angles):
        turn = np.eye(d)
        turn[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
        R = R @ turn
    return EllipsoidalNorm(R @ np.diag(diag) @ R.T)


NORM_KINDS = {
    "euclid-2": E2,
    "diag-2": Q41,
    "rotated-2": _rotated([3.0, 0.5], [0.7]),
    "lp3-2": SmoothedLpNorm(2, 3.0),
    "lp1.5-2": SmoothedLpNorm(2, 1.5),
    "euclid-3": E3,
    "diag-3": EllipsoidalNorm(np.diag([4.0, 1.0, 2.0])),
    "rotated-3": _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5]),
    "lp3-3": SmoothedLpNorm(3, 3.0),
    "lp4-3": SmoothedLpNorm(3, 4.0),
}


class TestSupportHessianCurvatures:
    """Curvatures in closed form from (D2phi(u), D2h(u)), with no probe and no ray."""

    @pytest.mark.parametrize("norm", NORM_KINDS.values(), ids=NORM_KINDS.keys())
    def test_dual_ball_has_curvature_one_over_its_radius(self, norm):
        bs = bundle_sample(WulffBody(norm, radius=0.8), norm, n=256)
        npt.assert_allclose(bs.kappa, 1.0 / 0.8, rtol=1e-12, atol=0.0)
        assert not bs.ambiguous.any()

    def test_ellipse_has_the_textbook_curvature(self):
        a, b = 2.0, 1.0
        bs = bundle_sample(make_catalog_shape("ellipse-2-1", E2), E2, n=256)
        t = np.arctan2(bs.points[:, 1] / b, bs.points[:, 0] / a)
        expect = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        npt.assert_allclose(bs.kappa[:, 0], expect, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "shape,norm",
        [
            (make_catalog_shape("ellipse-2-1"), E2),
            (make_catalog_shape("cap-lens-0.5"), SmoothedLpNorm(2, 3.0)),
            (WulffBody(_rotated([4.0, 1.0, 0.5], [0.3, 1.2, 0.7])), NORM_KINDS["rotated-3"]),
            (shapes.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 0.5]), SmoothedLpNorm(3, 3.0)),
        ],
        ids=["ellipse-euclid", "lens-lp3", "wulff-3d-rotated", "ellipsoid-lp3"],
    )
    def test_complement_mirrors_the_curvatures(self, shape, norm):
        # the complement at (a, -u) has the curvatures of the set at (a, u),
        # negated and in reverse order
        bs = bundle_sample(shape, norm, n=128, seed=3)
        bc = bundle_sample(shape.complement(), norm, n=128, seed=3)
        top = bs.stratum == shape.dim - 1
        npt.assert_array_equal(bs.points[top], bc.points)
        npt.assert_array_equal(bs.normals[top], -bc.normals)
        npt.assert_allclose(bc.kappa, -bs.kappa[top, ::-1], rtol=1e-12, atol=0.0)

    def test_principal_directions_of_an_ellipsoid(self):
        # on the ellipsoid's axes the principal directions are the other axes,
        # with curvatures a / b^2 for semiaxes a (along u) and b
        body = shapes.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 0.5])
        u = np.eye(3)
        kappa, tau = curvature.support_curvatures(E3, u, body.support_hessian(u))
        npt.assert_allclose(kappa, [[2.0, 8.0], [0.25, 4.0], [0.125, 0.5]], rtol=1e-12)
        axes = np.eye(3)[[[1, 2], [0, 2], [0, 1]]]
        unit = tau / np.linalg.norm(tau, axis=-1, keepdims=True)
        npt.assert_allclose(np.abs(unit), axes, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "key,norm",
        [
            ("disk", Q41), ("unit-square", Q41), ("ellipse-2-1", E2), ("two-disks-gap1", Q41),
            ("two-disks-mixed", SmoothedLpNorm(2, 3.0)), ("cap-lens-0.5", Q41),
            ("segment-pair", Q41), ("wulff", Q41), ("three-wulff", Q41), ("cube", E3),
            ("two-balls-3d", EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))), ("wulff-3d", Q411),
        ],
    )
    def test_no_probe_and_no_ray_without_audit(self, monkeypatch, key, norm):
        def refuse(*args, **kwargs):
            raise AssertionError("a bundle without audit evaluated a distance")

        monkeypatch.setattr(projection, "nearest_points", refuse)
        for cls in vars(shapes).values():
            if isinstance(cls, type) and issubclass(cls, shapes.Shape) and (
                "exact_projection" in vars(cls)
            ):
                monkeypatch.setattr(cls, "exact_projection", refuse)
        monkeypatch.setattr(curvature, "reach_along", refuse)
        shape = make_catalog_shape(key, norm)
        bundle_sample(shape, norm, n=64)
        if shape.dim == 2 and key not in ("unit-square", "segment-pair"):
            bundle_sample(shape.complement(), norm, n=64)

    def test_reach_is_traced_once_on_first_read(self, monkeypatch):
        calls = []
        plain = projection.reach_along

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return plain(*args, **kwargs)

        monkeypatch.setattr(curvature, "reach_along", counting)
        shape = make_catalog_shape("two-disks-gap1")
        bs = bundle_sample(shape, Q41, n=128)
        assert calls == []
        reach = bs.reach
        assert calls == [len(bs)]
        assert bs.reach is reach and calls == [len(bs)]
        fresh = make_catalog_shape("two-disks-gap1")
        eager = plain(fresh, Q41, bs.points, Q41.grad(bs.normals), validate=False)
        assert reach.tobytes() == eager.tobytes()
        with pytest.raises(ValueError):
            reach[0] = 0.0

    @pytest.mark.parametrize("key", ["disk", "ellipse-2-1"])
    def test_complement_reach_stops_at_the_focal_distance(self, key):
        # past -1/kappa_min a point on the ray is nearer other boundary points,
        # and the traced reach may run past it by rounding
        bs = bundle_sample(make_catalog_shape(key).complement(), Q41, n=512)
        k = bs.kappa[:, 0]
        assert (k < 0).all()
        assert (bs.reach <= -1.0 / k * (1.0 + 1e-12)).all()

    def test_convex_bundle_reach_is_infinite_without_a_ray(self, monkeypatch):
        monkeypatch.setattr(curvature, "reach_along", None)
        bs = bundle_sample(make_catalog_shape("ellipse-2-1"), Q41, n=64)
        assert np.isinf(bs.reach).all()

    def test_audit_flags_wrong_curvatures(self, monkeypatch):
        # the probes are an independent oracle: curvatures 1 % off fail it
        plain = curvature.support_curvatures

        def off(*args):
            kappa, tau = plain(*args)
            return 1.01 * kappa, tau

        shape = make_catalog_shape("cap-lens-0.5")
        assert not _probe.audit(shape, Q41, bundle_sample(shape, Q41, n=64)).any()
        monkeypatch.setattr(curvature, "support_curvatures", off)
        bs = bundle_sample(shape, Q41, n=64)
        npt.assert_array_equal(_probe.audit(shape, Q41, bs), bs.stratum == 1)
