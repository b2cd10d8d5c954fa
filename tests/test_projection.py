"""Nearest points, distance gradients, reach, and boundary classification."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachgeom import norms, projection, shapes
from reachgeom.curvature import bundle_nodes, support_curvatures
from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, SmoothedLpNorm, unit_rows
from reachgeom.projection import (
    InvalidNormalError,
    classify_boundary_point,
    distance_field,
    global_reach,
    grad_delta,
    nearest_points,
    project,
    reach_along,
    set_distance,
)
from reachgeom.shapes import (
    Ball,
    ComplementShape,
    ConvexPolytope,
    DisjointUnion,
    Ellipsoid,
    SegmentUnion,
    WulffBody,
    _gap_bounds,
    fiber_nodes,
    make_catalog_shape,
)

E2 = EuclideanNorm(2)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))
LP2, LP3 = SmoothedLpNorm(2, 3.0), SmoothedLpNorm(3, 3.0)
Q412 = EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))



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


class TestSeedSearchChunks:
    def test_feet_batch_equals_its_chunks(self, monkeypatch):
        # the support search's grid stage takes rows in chunks of at most
        # _GRID_VALUES values, and a row's foot does not depend on its chunk
        comp = make_catalog_shape("cap-lens-0.5").complement()
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(600, 2)) * [1.0, 0.5]
        whole = nearest_points(comp, Q41, x)
        monkeypatch.setattr(norms, "_GRID_VALUES", 100 * norms.GAP_GRID)
        chunked = nearest_points(comp, Q41, x)
        for got, want in zip(chunked, whole):
            assert got.tobytes() == want.tobytes()
        for i in range(0, 600, 37):
            alone = nearest_points(comp, Q41, x[i : i + 1])
            assert alone[0].tobytes() == whole[0][i : i + 1].tobytes(), i

    def test_empty_batch(self):
        lens = make_catalog_shape("cap-lens-0.5")
        assert distance_field(lens, SmoothedLpNorm(2, 3.0), np.zeros((0, 2))).shape == (0,)


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

    def test_gradient_rejects_boundary_points_with_rounded_distance(self):
        # on the boundary the closed form can return delta ~ 1e-16 with the
        # foot equal to the point; there is no exterior gradient to give
        ball = Ball([1.5, 0.0], 1.0)
        t = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        x = np.c_[1.5 + np.cos(t), np.sin(t)]
        feet, delta = nearest_points(ball, Q41, x)
        rounded = x[(delta > 0) & ~(x - feet).any(axis=1)]
        assert len(rounded)
        with pytest.raises(ValueError, match="exterior points only"):
            grad_delta(ball, Q41, rounded[0])

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

    def test_norm_without_dual_transform_takes_the_chart_route(self):
        # no closed form under a smoothed-lp norm: the field is set_distance
        # itself, from the disks' support search
        lens = make_catalog_shape("cap-lens-0.5", E2)
        norm = SmoothedLpNorm(2, 3.0)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.2, 1.2, size=(24, 2))
        assert lens.contains(x).any() and not lens.contains(x).all()
        assert distance_field(lens, norm, x).tobytes() == set_distance(lens, norm, x).tobytes()

    def test_quadratic_norm_without_a_closed_form_takes_the_chart_route(self):
        # the lens complement has no closed form under diag(4, 1) either: it
        # takes its disks' complements' support search
        outside = make_catalog_shape("cap-lens-0.5", Q41).complement()
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.2, 1.2, size=(24, 2))
        assert outside.contains(x).any() and not outside.contains(x).all()
        assert distance_field(outside, Q41, x).tobytes() == set_distance(outside, Q41, x).tobytes()


def _rot(dim, angles):
    # 2-d: one rotation; 3-d: the z-x-z Euler rotation
    def plane(i, j, t):
        R = np.eye(dim)
        R[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
        return R

    if dim == 2:
        return plane(0, 1, angles[0])
    return plane(0, 1, angles[0]) @ plane(1, 2, angles[1]) @ plane(0, 1, angles[2])


def _rotated(diag, angles):
    R = _rot(len(diag), angles)
    return EllipsoidalNorm(R @ np.diag(diag) @ R.T)


E3 = EuclideanNorm(3)
QUADRATIC_PAIRS = {
    "ball-q41": (Ball([0.3, -0.2], 1.0), Q41),
    "ball-rotated": (Ball([0.0, 0.5], 1.5), _rotated([3.0, 0.5], [0.7])),
    "ellipse-euclid": (Ellipsoid([0.1, 0.2], [2.0, 1.0]), E2),
    "ellipse-rotated": (Ellipsoid([0.0, 0.0], [2.0, 1.0]), _rotated([3.0, 0.5], [0.7])),
    "wulff-rotated-q41": (WulffBody(_rotated([4.0, 1.0], [0.6]), [0.5, -1.0], 1.5), Q41),
    "wulff-rotated-euclid": (WulffBody(_rotated([4.0, 1.0], [0.6]), radius=0.8), E2),
    "ball-3d-diag411": (Ball([0.2, 0.0, -0.1], 1.0), EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))),
    "ellipsoid-3d-euclid": (Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 0.5]), E3),
    "wulff-3d-rotated": (
        WulffBody(_rotated([4.0, 1.0, 0.5], [0.3, 1.2, 0.7])),
        _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5]),
    ),
}


def _whitened_axes(body, norm):
    """Rows x - c on the boundary where U' L (x - c) has one nonzero entry."""
    L = norm.dual_transform
    A = np.eye(body.dim) if body.norm.kind == "euclidean" else np.linalg.cholesky(body.norm.Q)
    U, s, _ = np.linalg.svd(body.radius * L @ A)
    return (np.linalg.solve(L, U) * s).T


class TestQuadraticRoute:
    """The closed-form route of a quadratic body under another quadratic norm."""

    @pytest.mark.parametrize("case", list(QUADRATIC_PAIRS))
    def test_agrees_with_chart_solver(self, case, search_twin):
        body, norm = QUADRATIC_PAIRS[case]
        rng = np.random.default_rng(3)
        x = body.center + rng.uniform(-4.0, 4.0, size=(400 if body.dim == 2 else 120, body.dim))
        x = x[~body.contains(x)]
        feet, delta = body.exact_projection(norm, x)
        # the foot lies on the body
        npt.assert_allclose(body.norm.conjugate(feet - body.center), body.radius, atol=1e-12)
        npt.assert_allclose(norm.conjugate(x - feet), delta, rtol=1e-12)
        # first order: the dual gradient of x - foot is the body's normal there
        normal = body.norm.gauss_map(feet - body.center)
        direction = norm.conjugate_grad(x - feet)
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        npt.assert_allclose(direction, normal, atol=1e-9)
        _, delta_search = body.exact_projection(search_twin(norm), x)
        npt.assert_allclose(delta, delta_search, rtol=0.0, atol=1e-12)

    def test_finds_the_foot_the_3d_chart_solver_missed(self, search_twin):
        # here the multi-start chart Newton that preceded the support search
        # once settled on a foot 0.0917 farther than this one; the problem is
        # convex, so a foot on the body that meets the first-order condition
        # is the global minimum
        body, norm = QUADRATIC_PAIRS["wulff-3d-rotated"]
        x = np.array([[0.347, 0.9884, 1.066]])
        feet, delta = body.exact_projection(norm, x)
        npt.assert_allclose(body.norm.conjugate(feet - body.center), body.radius, atol=1e-12)
        direction = norm.conjugate_grad(x - feet)
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        npt.assert_allclose(direction, body.norm.gauss_map(feet - body.center), atol=1e-9)
        npt.assert_allclose(delta, [0.030456963666204664], rtol=1e-9)
        _, delta_search = body.exact_projection(search_twin(norm), x)
        npt.assert_allclose(delta_search, delta, rtol=0.0, atol=1e-12)
        (stratum,) = body.boundary_strata(n=20000)
        assert delta[0] <= norm.conjugate(x - stratum.points).min()

    @pytest.mark.parametrize("case", list(QUADRATIC_PAIRS))
    def test_interior_points_are_their_own_feet(self, case):
        body, norm = QUADRATIC_PAIRS[case]
        rng = np.random.default_rng(4)
        v = rng.standard_normal((50, body.dim))
        g = body.norm.conjugate(v)
        x = body.center + v * (body.radius * rng.uniform(0.0, 0.999, size=50) / g)[:, None]
        feet, delta = body.exact_projection(norm, np.vstack([x, body.center]))
        assert (feet == np.vstack([x, body.center])).all()
        assert (delta == 0.0).all()

    @pytest.mark.parametrize("case", list(QUADRATIC_PAIRS))
    def test_far_axis_and_boundary_points_are_finite(self, case, search_twin):
        body, norm = QUADRATIC_PAIRS[case]
        rng = np.random.default_rng(5)
        v = rng.standard_normal((20, body.dim))
        far = body.center + 1e6 * v / np.linalg.norm(v, axis=-1, keepdims=True)
        axes = _whitened_axes(body, norm)
        on_axes = body.center + np.concatenate([s * axes for s in (-3.0, 1.5, 1e6)])
        (stratum,) = body.boundary_strata(n=64)
        for x in (far, on_axes, stratum.points):
            feet, delta = body.exact_projection(norm, x)
            assert np.isfinite(feet).all() and np.isfinite(delta).all()
            npt.assert_allclose(
                body.norm.conjugate(feet - body.center), body.radius, rtol=1e-12, atol=1e-12
            )
        npt.assert_allclose(delta, 0.0, atol=1e-12)
        feet, delta = body.exact_projection(norm, on_axes[: 2 * body.dim])
        _, delta_search = body.exact_projection(search_twin(norm), on_axes[: 2 * body.dim])
        npt.assert_allclose(delta, delta_search, rtol=0.0, atol=1e-12)
        npt.assert_allclose(norm.conjugate(on_axes[: 2 * body.dim] - feet), delta, rtol=1e-12)


def _secular_bisection(body, norm, x):
    """delta of the quadratic route from the root t of |r(t)| = 1 found by bisection."""
    L = norm.dual_transform
    A = np.eye(body.dim) if body.norm.kind == "euclidean" else np.linalg.cholesky(body.norm.Q)
    U, s, _ = np.linalg.svd(body.radius * L @ A)
    z = (x - body.center) @ (L.T @ U)
    lo = np.zeros(len(x))
    hi = np.linalg.norm(s * z, axis=-1)  # |r(hi)| <= |s z| / hi = 1
    for _ in range(1100):  # down to adjacent floats from any exponent
        mid = 0.5 * (lo + hi)
        r = s * z / (mid[:, None] + s * s)
        above = (r * r).sum(axis=-1) > 1.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    e = lo[:, None] * z / (lo[:, None] + s * s)
    return np.linalg.norm(e, axis=-1)


class TestSecularSolve:
    """``WulffBody._quadratic_projection``: its Newton solve of the secular equation."""

    @pytest.mark.parametrize("case", ["ellipse-rotated", "wulff-3d-rotated"])
    def test_row_alone_equals_row_in_a_tall_batch(self, case):
        body, norm = QUADRATIC_PAIRS[case]
        rng = np.random.default_rng(6)
        x = body.center + rng.uniform(-4.0, 4.0, size=(10_000, body.dim))
        feet, delta = body._quadratic_projection(norm, x)
        for i in range(0, len(x), 7):
            f, d = body._quadratic_projection(norm, x[i])
            assert f.tobytes() == feet[i : i + 1].tobytes(), i
            assert d.tobytes() == delta[i : i + 1].tobytes(), i

    @pytest.mark.parametrize(
        "body,norm",
        [
            (Ellipsoid([0.1, -0.2], [1.0, 1e-6]), E2),
            (Ellipsoid([0.0, 0.0], [1e6, 1.0]), Q41),
            (Ellipsoid([0.0, 0.0, 0.0], [1.0, 1e-3, 1e-6]), E3),
            QUADRATIC_PAIRS["wulff-3d-rotated"],
        ],
        ids=["ratio-1e6", "ratio-1e6-q41", "ratio-1e6-3d", "rotated-3d"],
    )
    def test_extreme_cases_converge_to_the_bisection_root(self, body, norm):
        # the cases of the 100-step cap: points at |x - c| = 1e6, and bodies
        # whose whitened axes differ by a factor 1e6, from 1.5 to 3 times
        # their size out
        rng = np.random.default_rng(7)
        v = rng.standard_normal((200, body.dim))
        far = body.center + 1e6 * v / np.linalg.norm(v, axis=-1, keepdims=True)
        scale = body.radius * rng.uniform(1.5, 3.0, 200) / body.norm.conjugate(v)
        near = body.center + v * scale[:, None]
        for x in (far, near):
            _, delta = body._quadratic_projection(norm, x)
            npt.assert_allclose(delta, _secular_bisection(body, norm, x), rtol=1e-14, atol=0.0)


def _slow_newton_rows(body, norm):
    """Rows outside a quadratic body near its whitened evolute, and just outside it.

    In z = U' L (x - c) the body is the ellipsoid with semi-axes s, in
    descending order.  Its section by the first and last axes has the
    evolute (c / s_0 cos^3 t, c / s_k sin^3 t), c = s_0^2 - s_k^2, whose
    cusps on the last axis lie outside the body when s_0 > 1.62 s_k.  The
    secular Newton stops after 2 to 6 steps on these rows in 2-d and 2 to 8
    in 3-d, so each batch holds rows that stop at every step.
    """
    L = norm.dual_transform
    A = np.eye(body.dim) if body.norm.kind == "euclidean" else np.linalg.cholesky(body.norm.Q)
    U, s, _ = np.linalg.svd(body.radius * L @ A)
    t = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    c = s[0] ** 2 - s[-1] ** 2
    evolute = np.zeros((len(t), body.dim))
    evolute[:, 0], evolute[:, -1] = c / s[0] * np.cos(t) ** 3, c / s[-1] * np.sin(t) ** 3
    u = np.random.default_rng(9).standard_normal((400, body.dim))
    near = s * u / np.linalg.norm(u, axis=1, keepdims=True)
    near *= 1.0 + np.geomspace(1e-6, 0.5, len(near))[:, None]
    z = np.concatenate([evolute * (1.0 + 1e-3), near])
    z = z[((z / s) ** 2).sum(axis=1) > 1.0]
    return body.center + np.linalg.solve(L, U @ z.T).T


class TestExactProjectionBatches:
    """A row projected alone has the bytes it has in a tall batch, on each route the voxel descent calls.

    The voxel count equals the dense counter's only so: the two evaluate a
    center in different batches.  The secular Newton of a quadratic body
    moves all rows of a batch until its slowest stops.
    """

    @pytest.mark.parametrize(
        "shape,norm,slow",
        [
            pytest.param(*QUADRATIC_PAIRS["ellipse-rotated"], True, id="ellipse-rotated"),
            pytest.param(*QUADRATIC_PAIRS["wulff-3d-rotated"], True, id="wulff-3d-rotated"),
            pytest.param(make_catalog_shape("cap-lens-0.5"), Q41, False, id="cap-lens"),
            pytest.param(
                make_catalog_shape("unit-square"), _rotated([3.0, 0.5], [0.7]), False,
                id="square-rotated",
            ),
            pytest.param(
                make_catalog_shape("cube"), _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5]), False,
                id="cube-rotated",
            ),
            pytest.param(make_catalog_shape("two-disks-gap1"), Q41, False, id="two-disks"),
        ],
    )
    def test_row_alone_equals_row_in_a_tall_batch(self, shape, norm, slow):
        lo, hi = shape.bounding_box()
        x = np.random.default_rng(4).uniform(lo - 1.0, hi + 1.0, (10_000, shape.dim))
        rows = np.arange(0, len(x), 29)
        if slow:
            hard = _slow_newton_rows(shape, norm)
            rows = np.r_[rows, len(x) + np.arange(len(hard))]
            x = np.concatenate([x, hard])
        feet, delta = shape.exact_projection(norm, x)
        for i in rows:
            f, d = shape.exact_projection(norm, x[i : i + 1])
            assert f.tobytes() == feet[i : i + 1].tobytes(), i
            assert d.tobytes() == delta[i : i + 1].tobytes(), i


class TestChartNewton3d:
    def test_smoothed_lp_body_probes_reach_their_feet(self):
        # curvature probes of this body's n = 512 bundle whose chart Newton
        # once settled 0.0064, 0.083 and 0.0016 past the true distance, which
        # moved its Theta_1 from 11.42 to 13.04; a dense boundary cloud bounds
        # the distance from above
        body = WulffBody(SmoothedLpNorm(3, 3.0))
        x = np.array(
            [
                [-0.19097203659662204, 0.1058524889195181, 1.1167560268696517],
                [-0.76094514284018, 0.6035089625626583, 0.33851956611402234],
                [0.0536341899834954, -1.1587449034446689, 0.08701949332782978],
            ]
        )
        _, delta = nearest_points(body, E3, x)
        (stratum,) = body.boundary_strata(n=20000)
        cloud = np.linalg.norm(x[:, None, :] - stratum.points[None, :, :], axis=-1).min(axis=1)
        assert (delta <= cloud).all()

    @pytest.mark.parametrize(
        "shape, norm",
        [
            (WulffBody(SmoothedLpNorm(3, 3.0)), EuclideanNorm(3)),
            (make_catalog_shape("cap-lens-0.5", Q41).complement(), Q41),
        ],
        ids=["sphere-chart", "lens-arc"],
    )
    def test_row_alone_equals_row_in_batch(self, shape, norm):
        # the support search, from outside a 3-d body and from inside the
        # lens toward its complement (every local maximum polished)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((400, shape.dim))
        x *= rng.uniform(0.5, 1.5, (400, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        feet, delta = nearest_points(shape, norm, x)
        for i in range(0, len(x), 16):
            feet_i, delta_i = nearest_points(shape, norm, x[i : i + 1])
            assert feet_i.tobytes() == feet[i : i + 1].tobytes(), i
            assert delta_i.tobytes() == delta[i : i + 1].tobytes(), i


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
        assert (est.global_reach, est.bracket, est.is_infinite) == (np.inf, (np.inf, np.inf), True)

    def test_global_reach_two_disks(self):
        est = global_reach(make_catalog_shape("two-disks-gap1", E2), E2)
        assert est.global_reach == pytest.approx(0.5, rel=1e-2)
        assert est.bracket[0] <= 0.5 <= est.bracket[1] + 1e-6

    def test_global_reach_segments(self):
        est = global_reach(make_catalog_shape("segment-pair", E2), E2)
        assert est.global_reach == pytest.approx(1.0, rel=1e-2)
        # the endpoints' weights are no sample spacing
        assert est.bracket[0] > 0.99

    def test_project_multiplicity_matches_the_greedy_dedupe(self):
        # inside the lens, the complement's cut locus lies on the axes
        comp = make_catalog_shape("cap-lens-0.5", Q41).complement()
        rng = np.random.default_rng(4)
        axis = np.c_[np.linspace(-0.6, 0.6, 9), np.zeros(9)]
        pts = np.concatenate([rng.uniform(-0.8, 0.8, size=(40, 2)) * [1.0, 0.4], axis])
        pts = pts[~comp.contains(pts)]
        feet_all, vals_all = comp.foot_candidates(Q41, pts)
        val = vals_all.min(axis=1)
        near = vals_all <= (val + projection.TOL_EQ_REL * (1.0 + val))[:, None]
        sep = projection.TOL_MULTI_REL * comp.diameter
        multi = []
        for f in (feet_all[i][near[i]] for i in range(len(pts))):
            distinct = [f[0]]
            for g in f[1:]:
                if not any(np.linalg.norm(g - h) <= sep for h in distinct):
                    distinct.append(g)
            multi.append(len(distinct) > 1)
        assert 0 < sum(multi) < len(pts)
        for i, m in enumerate(multi):
            res = project(comp, Q41, pts[i])
            assert res.multiplicity == ("multiple" if m else "unique"), i
            assert res.delta == val[i]

    def test_segment_ties_are_second_feet(self):
        # on y = 0 the two segments of segment-pair are both nearest, at
        # phi_*((0, 1)) = 1 under diag(4, 1); (1, 0.5) has one foot.  The
        # ties are read from one foot per segment
        segs = make_catalog_shape("segment-pair")
        for x in ([0.3, 0.0], [-1.5, 0.0]):
            res = project(segs, Q41, np.array(x))
            assert (res.multiplicity, res.delta, len(res.feet)) == ("multiple", 1.0, 2)
        assert project(segs, Q41, np.array([1.0, 0.5])).multiplicity == "unique"

    @given(st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=20, deadline=None)
    def test_lens_complement_reach_hits_cut_locus(self, eps):
        # descending from the lens apex, the foot switches from the upper to
        # the lower arc at the origin, so the inward reach is 1 - eps
        lens = make_catalog_shape(f"cap-lens-{eps}", E2)
        a = np.array([[0.0, 1.0 - lens.eps]])
        r = reach_along(lens.complement(), E2, a, np.array([[0.0, -1.0]]), validate=False)
        assert r[0] == pytest.approx(1.0 - eps, abs=1e-6)


class TestCornerCandidates:
    """An unpolished corner candidate near a chart foot is no second foot."""

    # under diag(4, 1) the corner (-2, 1) lies 8.9e-4 (more than the foot
    # separation) from this point's foot and only 1.45e-7 above its distance
    WITNESS = np.array([-1.99911, 1.67679])

    def test_project_reports_one_foot_near_a_segment_end(self):
        res = project(make_catalog_shape("segment-pair"), Q41, self.WITNESS)
        assert res.multiplicity == "unique"
        assert len(res.feet) == 1
        npt.assert_allclose(res.foot, [-1.99911, 1.0], atol=1e-12)

    def test_segment_pair_global_reach(self):
        # the cut locus is y = 0, so the reach is 1
        est = global_reach(make_catalog_shape("segment-pair"), Q41)
        assert 0.99 <= est.global_reach <= 1.0001


def _halving_reference(shape, norm, a, eta, tol_pred=1e-8):
    """Ray reach by 60 plain halvings from 10 x the bounding-box diagonal."""
    lo, hi = shape.bounding_box()
    s_max = 10.0 * float(np.linalg.norm(hi - lo))

    def holds(s):
        return set_distance(shape, norm, a + s[:, None] * eta) >= s - tol_pred * (1.0 + s)

    at_max = holds(np.full(len(a), s_max))
    lo_s, hi_s = np.zeros(len(a)), np.full(len(a), s_max)
    for _ in range(60):
        mid = 0.5 * (lo_s + hi_s)
        h = holds(mid)
        lo_s, hi_s = np.where(h, mid, lo_s), np.where(h, hi_s, mid)
    return np.where(at_max, np.inf, 0.5 * (lo_s + hi_s))


class TestReachBracket:
    """reach_along stops once its bracket is below the predicate's tolerance."""

    @staticmethod
    def _rays(key, norm, n, complement=False):
        shape = make_catalog_shape(key, norm)
        if complement:
            shape = shape.complement()
        a, u, *_ = bundle_nodes(shape, norm, n=n)
        return shape, a, norm.grad(u)

    def test_distance_rows_per_finite_ray(self, monkeypatch):
        # rays on a union of disjoint convex pieces take _union_reach, by
        # Newton on each piece's slack, and never set_distance
        shape, a, eta = self._rays("two-disks-gap1", Q41, 256)
        rows = []
        plain = projection.set_distance

        def counting(shape_, norm_, x):
            rows.append(len(x))
            return plain(shape_, norm_, x)

        monkeypatch.setattr(projection, "set_distance", counting)
        r = reach_along(shape, Q41, a, eta, validate=False)
        monkeypatch.undo()
        assert rows == []
        assert np.isfinite(r).sum() == 128

    @pytest.mark.parametrize(
        "key, n, complement, n_finite",
        [("segment-pair", 64, False, 96), ("cap-lens-0.5", 16, True, 16)],
        ids=["segment-pair", "lens-complement"],
    )
    def test_segment_and_complement_rays_take_no_distance_rows(
        self, monkeypatch, key, n, complement, n_finite
    ):
        # segments take _union_reach, complements their base's separation
        shape, a, eta = self._rays(key, Q41, n, complement)
        rows = []
        plain = projection.set_distance

        def counting(shape_, norm_, x):
            rows.append(len(x))
            return plain(shape_, norm_, x)

        monkeypatch.setattr(projection, "set_distance", counting)
        r = reach_along(shape, Q41, a, eta, validate=False)
        monkeypatch.undo()
        assert rows == []
        assert np.isfinite(r).sum() == n_finite

    @pytest.mark.parametrize(
        "key, norm, n, complement",
        [
            ("two-disks-gap1", Q41, 256, False),
            ("three-wulff", Q41, 64, False),
            ("segment-pair", Q41, 16, False),
            ("cap-lens-0.5", Q41, 16, True),
            ("unit-square", Q41, 16, True),
        ],
        ids=["two-disks", "three-wulff", "segment-pair", "lens-complement", "square-complement"],
    )
    def test_agrees_with_sixty_halvings(self, key, norm, n, complement):
        shape, a, eta = self._rays(key, norm, n, complement)
        r = reach_along(shape, norm, a, eta, validate=False)
        ref = _halving_reference(shape, norm, a, eta)
        assert np.array_equal(np.isinf(r), np.isinf(ref))
        finite = np.isfinite(ref)
        assert (np.abs(r[finite] - ref[finite]) <= 2e-8 * (1.0 + ref[finite])).all()


class TestReachMemo:
    """Global reach is memoized on the shape; every test builds fresh shapes."""

    def test_estimate_memo_keys(self):
        shape = make_catalog_shape("two-disks-gap1", Q41)
        first = global_reach(shape, Q41)
        assert global_reach(shape, EllipsoidalNorm(np.diag([4.0, 1.0]))) is first
        other = global_reach(shape, E2)
        assert other is not first
        assert shape.reach_estimates == {Q41.key: first, E2.key: other}
        with pytest.raises(FrozenInstanceError):
            first.global_reach = 0.0

    def test_repeated_global_reach_computes_no_distance(self, monkeypatch):
        shape = make_catalog_shape("two-disks-gap1", Q41).complement()
        first = global_reach(shape, Q41)
        calls = []

        def counting(plain):
            def wrapper(*args, **kwargs):
                calls.append(len(args[2]))
                return plain(*args, **kwargs)

            return wrapper

        # the rays' reaches and any distance
        monkeypatch.setattr(projection, "reach_along", counting(reach_along))
        monkeypatch.setattr(projection, "nearest_points", counting(nearest_points))
        assert global_reach(shape, Q41) is first
        assert calls == []

    @pytest.mark.parametrize(
        "key, norm, complement",
        [
            ("three-wulff", LP2, False),
            ("segment-pair", Q41, False),
            ("disk", LP2, True),
            ("two-disks-gap1", Q41, True),
            ("cap-lens-0.5", Q41, True),
            ("unit-square", Q41, True),
            ("two-balls-3d", EllipsoidalNorm(np.diag([4.0, 1.0, 2.0])), True),
        ],
        ids=["three-wulff-lp", "segment-pair", "disk-lp-complement", "two-disks-complement",
             "lens-complement", "square-complement", "two-balls-complement"],
    )
    def test_row_alone_equals_row_in_a_batch(self, key, norm, complement):
        # no ray reach is memoized, and every route computes each ray from
        # that ray alone, so a ray's bits do not depend on its batch
        shape = make_catalog_shape(key, norm)
        if complement:
            shape = shape.complement()
        a, u, *_ = bundle_nodes(shape, norm, n=64)
        eta = norm.grad(u)
        batch = reach_along(shape, norm, a, eta, validate=False)
        finite = np.flatnonzero(np.isfinite(batch))
        rows = finite[[0, len(finite) // 3, -1]]
        for i in rows:
            alone = reach_along(shape, norm, a[[i]], eta[[i]], validate=False)
            assert alone.tobytes() == batch[[i]].tobytes(), i
        assert reach_along(shape, norm, a[rows], eta[rows], validate=False).tobytes() == (
            batch[rows].tobytes()
        )

    def test_validate_checks_every_call(self):
        two = make_catalog_shape("two-disks-gap1", E2)
        a, eta = np.array([[0.5, 0.0]]), np.array([[0.0, 1.0]])
        reach_along(two, E2, a, eta, validate=False)
        with pytest.raises(InvalidNormalError):
            reach_along(two, E2, a, eta)

    def test_threads_share_one_estimate(self):
        shape = make_catalog_shape("two-disks-gap1", Q41)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(global_reach, shape, Q41) for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(est is got[0] for est in got)
        assert list(shape.reach_estimates.values()) == [got[0]]


class TestGlobalReachRays:
    @pytest.mark.parametrize(
        "make, norm, want",
        [
            (lambda: make_catalog_shape("segment-pair"), Q41, 1.0),
            (lambda: make_catalog_shape("segment-pair"), LP2,
             float(LP2.conjugate(np.array([0.0, 1.0])))),
            (lambda: make_catalog_shape("unit-square").complement(), Q41, 0.0),
            (lambda: make_catalog_shape("cap-lens-0.5").complement(), Q41, 0.0),
            (lambda: make_catalog_shape("cube").complement(), Q412, 0.0),
            (lambda: make_catalog_shape("disk").complement(), Q41, 0.25),
            (lambda: make_catalog_shape("ellipse-2-1").complement(), E2, 0.5),
            (lambda: Ball([0.0, 0.0, 0.0], 1.0).complement(), Q412, 0.25),
            (lambda: make_catalog_shape("two-disks-mixed").complement(), Q41, 0.25),
        ],
        ids=["segment-pair", "segment-pair-lp", "square-complement", "lens-complement",
             "cube-complement", "disk-complement", "ellipse-complement", "ball-3d-complement",
             "two-disks-mixed-complement"],
    )
    def test_closed_forms_trace_no_ray(self, monkeypatch, make, norm, want):
        # half the least segment gap; 0 at a reentrant corner; on a smooth
        # complement the least radius of curvature of the body relative to
        # W: under diag(q) that of a unit disk or ball at e_j along e_i is
        # sqrt(q_j)/q_i, least 1/4 at e_2 along e_1, and the ellipse's
        # Euclidean one is b^2/a = 1/2
        shape = make()
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        # the corner test reads the base's strata, once, unless the base is a
        # polytope, whose kinds are fixed; nothing else reads any
        base = shape.base if isinstance(shape, ComplementShape) else shape
        monkeypatch.setattr(projection, "reach_along", counting("rays", reach_along))
        monkeypatch.setattr(base, "boundary_strata", counting("strata", base.boundary_strata))
        est = global_reach(shape, norm)
        corner = want == 0.0 and not isinstance(base, ConvexPolytope)
        assert calls == (["strata"] if corner else [])
        assert abs(est.global_reach - want) <= 1e-12
        assert est.bracket == (est.global_reach, est.global_reach)
        assert not est.is_infinite

    def test_a_segment_and_a_disk_have_no_exact_global_reach(self):
        union = DisjointUnion([SegmentUnion([((-4.0, 0.0), (-2.0, 0.0))]), Ball([0.0, 0.0], 1.0)])
        with pytest.raises(NotImplementedError, match="has no exact global reach"):
            global_reach(union, Q41)

    # "-lp": a body of the smoothed l^3 norm of its dimension
    @pytest.mark.parametrize(
        "make, norm",
        [
            (lambda: make_catalog_shape("disk"), Q41),
            (lambda: make_catalog_shape("disk"), LP2),
            (lambda: make_catalog_shape("ellipse-2-1"), E2),
            (lambda: make_catalog_shape("wulff", LP2), Q41),
            (lambda: Ball([0.0, 0.0, 0.0], 1.0), Q412),
            (lambda: make_catalog_shape("wulff-3d", LP3), Q412),
            (lambda: make_catalog_shape("two-disks-mixed"), Q41),
            (lambda: make_catalog_shape("three-wulff", LP2), Q41),
        ],
        ids=["disk", "disk-lp", "ellipse", "wulff-lp", "ball-3d", "wulff-3d-lp",
             "two-disks-mixed", "three-wulff-lp"],
    )
    def test_smooth_complements_match_a_dense_reference(self, make, norm):
        base = make()
        shape = base.complement()
        est = global_reach(shape, norm)
        pieces = base.components if isinstance(base, DisjointUnion) else [base]
        ref = min(_dense_least_radius(p, norm) for p in pieces)
        assert abs(est.global_reach - ref) <= 1e-10 * ref
        assert est.bracket == (est.global_reach, est.global_reach)
        # every ray runs at least that far, traced with a tight predicate
        a, u, *_ = bundle_nodes(shape, norm, n=256)
        rays = reach_along(shape, norm, a, norm.grad(u), tol_pred=1e-14, validate=False)
        assert est.global_reach <= rays.min() * (1.0 + 1e-9)


def _dense_least_radius(body, norm):
    """min over u of the least radius of curvature of a Wulff body relative to
    the norm, by a dense search: 2^16 directions, then, about each of the 8
    least, grids of 65 offsets (d=2) or 17 x 17 (d=3) on the tangent plane,
    moving to the least and shrinking 4x when none is lower.
    """

    def radii(v):
        return 1.0 / support_curvatures(norm, v, body.support_hessian(v))[0][:, -1]

    n = 1 << 16
    if body.dim == 2:
        t = 2 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(t), np.sin(t)], 1)
        offsets = np.linspace(-1.0, 1.0, 65)[:, None]
    else:
        dirs = norms.fibonacci_sphere(n)
        t = np.linspace(-1.0, 1.0, 17)
        offsets = np.stack(np.meshgrid(t, t), -1).reshape(-1, 2)
    r = radii(dirs)
    best = np.inf
    for j in np.argsort(r)[:8]:
        v, val, radius = dirs[j], r[j], 0.05
        for _ in range(200):
            if radius < 1e-14:
                break
            trial = unit_rows(v + radius * offsets @ norms.tangent_basis(v[None])[0])
            f = radii(trial)
            k = np.argmin(f)
            if f[k] < val:
                v, val = trial[k], f[k]
            else:
                radius /= 4
        best = min(best, val)
    return best


def _dense_ratio(body, norm, a, u, tol=1e-8):
    """The ray reach of the complement of a convex body by a dense direction search.

    The least (h(u) - u.a + tol phi(u)) / ((1 - tol) phi(u) + u.eta), eta =
    grad phi(u_ray), over 40,000 Fibonacci directions and rings about the
    ray's own normal -u_ray down to 1e-3, then on shrinking rings about the
    six best, per ray.
    """

    def ratio(v, i):
        p = norm.value(v)
        num = body.support(v) - v @ a[i] + tol * p
        den = (1.0 - tol) * p + v @ norm.grad(u[i])
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)

    def rings(v0, radii, k):
        T = norms.tangent_basis(v0[None])[0]
        t = 2.0 * np.pi * np.arange(k) / k
        w = np.cos(t)[:, None] * T[0] + np.sin(t)[:, None] * T[1]
        return unit_rows(v0 + (radii[:, None, None] * w).reshape(-1, 3))

    sphere = norms.fibonacci_sphere(40_000)
    out = np.empty(len(a))
    for i in range(len(a)):
        dirs = np.concatenate([sphere, rings(-u[i], np.geomspace(1e-3, 0.2, 60), 64)])
        f = ratio(dirs, i)
        best = np.inf
        for j in np.argsort(f)[:6]:
            v, val, radius = dirs[j], f[j], 0.02
            for _ in range(10):
                g = rings(v, np.linspace(radius / 8, radius, 8), 32)
                fg = ratio(g, i)
                k = np.argmin(fg)
                if fg[k] < val:
                    v, val = g[k], fg[k]
                else:
                    radius /= 4
            best = min(best, val)
        out[i] = best
    return out


class TestComplementReach:
    @pytest.mark.parametrize(
        "body, n",
        [(Ball([0.0, 0.0, 0.0], 1.0), 64), (WulffBody(LP3), 128)],
        ids=["ball", "wulff-lp"],
    )
    def test_rays_agree_with_a_dense_direction_search(self, body, n):
        # past a focal point two branches of feet part on opposite sides of
        # the ray's normal, closer than the search grid's spacing, and near
        # the rounded vertices of the lp3 body the least ratio has maxima
        # closer than that too; the bracket ended past the reach on 10 of
        # 256 ball rays
        norm = EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))
        a, u, *_ = bundle_nodes(body.complement(), norm, n=n)
        r = reach_along(body.complement(), norm, a, norm.grad(u), validate=False)
        dense = _dense_ratio(body, norm, a, u)
        # the predicate holds at r: no direction is a nearer constraint
        assert (r <= dense * (1.0 + 1e-12)).all()
        # and fails just past it
        assert (dense <= r + 1e-8 * (1.0 + r)).all()

    def test_corner_test_reads_the_coarse_strata_once(self, monkeypatch):
        # the reentrant corner needs only the base's fiber kinds
        # (Shape.stratum_kinds), not its n = 512 nodes and weights
        calls = []

        def counting(plain):
            def strata(self, n=512, seed=0):
                calls.append((self.name, n, seed))
                return plain(self, n=n, seed=seed)

            return strata

        for cls in (ConvexPolytope, shapes.CapLens):
            monkeypatch.setattr(cls, "boundary_strata", counting(cls.boundary_strata))
        # a polytope's kinds are fixed: no strata at all
        outside = make_catalog_shape("cube").complement()
        assert global_reach(outside, Q412).global_reach == 0.0
        assert global_reach(outside, EuclideanNorm(3)).global_reach == 0.0
        assert calls == []
        # another base builds its coarse strata once, for every norm
        outside = make_catalog_shape("cap-lens-0.5").complement()
        assert global_reach(outside, Q41).global_reach == 0.0
        assert global_reach(outside, E2).global_reach == 0.0
        assert calls == [("cap-lens-0.5", 8, 0)]

    def test_local_search_steps_stay_in_their_basin(self):
        # a 0.25 rad Newton step carried a seed into the neighbouring basin,
        # whose maximum is lower: the distance came out 2.9e-5 too large
        body, norm = Ball([0.0, 0.0, 0.0], 1.0), EllipsoidalNorm(np.diag([4.0, 1.0, 2.0]))
        x = np.array([-1.47e-4, 0.295203, -0.45456])
        got = set_distance(body.complement(), norm, x[None])[0]
        v = norms.fibonacci_sphere(200_000)
        f = (body.support(v) - v @ x) / norm.value(v)
        v0 = v[np.argmin(f)]
        T = norms.tangent_basis(v0[None])[0]
        t = np.linspace(-0.01, 0.01, 201)
        fine = unit_rows(v0 + (t[:, None, None] * T[0] + t[None, :, None] * T[1]).reshape(-1, 3))
        upper = min(f.min(), float(((body.support(fine) - fine @ x) / norm.value(fine)).min()))
        assert got <= upper + 1e-12
        assert got == pytest.approx(0.34297096, abs=1e-8)

    def test_feet_near_a_focal_point_take_the_nearer_branch(self):
        # just past a focal point the two nearest feet part closer than the
        # search grid's spacing; seeded from the grid alone the distance came
        # out 5.8e-8 too large
        body = WulffBody(LP2)
        c, s = np.cos(0.7), np.sin(0.7)
        R = np.array([[c, -s], [s, c]])
        norm = EllipsoidalNorm(R @ np.diag([3.0, 0.5]) @ R.T)
        a, u, *_ = bundle_nodes(body.complement(), norm, n=512)
        x = a[385] + 0.0705143 * norm.grad(u[385])
        got = set_distance(body.complement(), norm, x[None])[0]
        t = np.linspace(0.0, 2.0 * np.pi, 2_000_000, endpoint=False)
        v = np.stack([np.cos(t), np.sin(t)], axis=1)
        dense = float(((body.support(v) - v @ x) / norm.value(v)).min())
        assert abs(got - dense) <= 1e-10


def _moved(shape, lam, t):
    """lam * shape + t, for unions of Wulff bodies, segment unions and their complements."""
    if isinstance(shape, ComplementShape):
        return _moved(shape.base, lam, t).complement()
    if isinstance(shape, SegmentUnion):
        return SegmentUnion([(lam * p + t, lam * q + t) for p, q in shape.segments])
    if isinstance(shape, WulffBody):
        return WulffBody(shape.norm, lam * shape.center + t, lam * shape.radius)
    return DisjointUnion([_moved(c, lam, t) for c in shape.components])


class TestUnionGap:
    """The reach of a union of disjoint Wulff bodies is half their least phi_* gap."""

    @pytest.mark.parametrize(
        "key, norm, want",
        [
            ("two-disks-gap1", EllipsoidalNorm(np.diag([2.0, 1.0])), 1.0 / (2.0 * np.sqrt(2.0))),
            ("two-disks-gap1", Q41, 0.25),
            ("two-disks-gap1", EllipsoidalNorm(np.diag([9.0, 1.0])), 1.0 / 6.0),
            ("two-disks-gap1", E2, 0.5),
            ("two-balls-3d", EuclideanNorm(3), 2.0),
        ],
        ids=["diag-2", "diag-4", "diag-9", "E2", "two-balls-E3"],
    )
    def test_half_gap_matches_the_closed_form(self, key, norm, want):
        est = global_reach(make_catalog_shape(key, norm), norm)
        r = est.global_reach
        assert abs(r - want) <= 1e-12
        lo, hi = est.bracket
        assert lo <= r <= hi and hi - lo <= 1e-12 * (1.0 + r)
        assert abs(lo - want) <= 1e-12
        assert not est.is_infinite

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gap_of_dual_balls_under_their_own_norm(self, dim):
        # phi_* balls of radii r1, r2 lie phi_*(c2 - c1) - r1 - r2 apart
        norm = SmoothedLpNorm(dim, 3)
        rng = np.random.default_rng(dim)
        pairs, want = [], []
        for _ in range(4):
            c = rng.standard_normal(dim)
            c *= 4.0 / np.linalg.norm(c)
            r1, r2 = rng.uniform(0.5, 1.2, 2)
            pairs.append((WulffBody(norm, np.zeros(dim), r1), WulffBody(norm, c, r2)))
            want.append(float(norm.conjugate(c)) - r1 - r2)
        lower, upper = _gap_bounds(pairs, norm)
        assert (lower <= upper).all()
        npt.assert_allclose(lower, want, rtol=0, atol=1e-12)
        npt.assert_allclose(upper, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", ["euclid", "diag", "rotated", "lp"])
    def test_closed_form_gap_matches_a_direct_search(self, dim, name):
        # W = -W makes A - B the Wulff body (c_A - c_B) + (r_A + r_B) W, so
        # the pair's gap is phi_*(c_B - c_A) - r_A - r_B; the search on
        # A - B (the route every other pair takes) finds the same value
        norm = ROUTE_NORMS[dim][name]
        rng = np.random.default_rng(7 * dim + len(name))
        pairs, want = [], [1.0, 0.2, -0.2, -0.9]  # apart, then overlapping
        for gap in want:
            a, c = rng.standard_normal((2, dim))
            r1, r2 = rng.uniform(0.5, 1.2, 2)
            c *= (r1 + r2 + gap) / norm.conjugate(c)
            pairs.append((WulffBody(norm, a, r1), WulffBody(norm, a + c, r2)))
        lower, upper = _gap_bounds(pairs, norm)
        npt.assert_allclose(lower, want, rtol=0, atol=1e-12)
        for (A, B), lo, hi in zip(pairs, lower, upper):
            body = shapes._Difference(A, B)
            _, u, f, _ = norms._support_search(body, norm, np.zeros((1, dim)))
            found = norm.conjugate(-body.support_point(u))[0]
            assert lo == hi and abs(lo - f[0]) <= 1e-12
            # the search's upper bound phi_*(b - a) is unsigned
            assert abs(abs(hi) - found) <= 1e-12

    def test_same_norm_pairs_run_no_search(self, monkeypatch):
        calls = []

        def counting(body, norm, x, **kwargs):
            calls.append(type(body).__name__)
            return norms._support_search(body, norm, x, **kwargs)

        monkeypatch.setattr(shapes, "_support_search", counting)
        same = [(WulffBody(Q41, [-1.5, 0.0]), WulffBody(Q41, [1.5, 0.0], 0.5)),
                (Ball([0.0, 0.0, 0.0], 1.0), Ball([3.0, 0.0, 0.0], 1.0))]
        _gap_bounds(same[:1], Q41)
        _gap_bounds(same[1:], EuclideanNorm(3))
        make_catalog_shape("two-disks-gap1")  # its Euclidean gap check
        assert calls == []
        # a pair under another norm, or of bodies of two norms, takes the search
        _gap_bounds(same[:1], E2)
        _gap_bounds([(Ball([-1.5, 0.0], 1.0), WulffBody(Q41, [1.5, 0.0], 0.5))], Q41)
        assert calls == ["_Difference", "_Difference"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overlapping_same_norm_bodies_still_raise(self, dim):
        far = np.zeros(dim)
        for depth in (1e-4, 0.5, 2.0):  # shallow, deep, concentric
            far[0] = 2.0 - depth
            pair = [Ball(np.zeros(dim), 1.0), Ball(far, 1.0)]
            lower, upper = _gap_bounds([tuple(pair)], EuclideanNorm(dim))
            assert lower[0] == upper[0] == pytest.approx(-depth, abs=1e-15)
            with pytest.raises(ValueError, match="components 0 and 1 overlap"):
                DisjointUnion(pair)

    @pytest.mark.parametrize(
        "make, norm",
        [
            (lambda: make_catalog_shape("two-disks-mixed"), Q41),
            (lambda: make_catalog_shape("three-wulff", Q41), Q41),
            (lambda: make_catalog_shape("three-wulff", LP2), LP2),
            (lambda: make_catalog_shape("two-balls-3d"), Q412),
            (lambda: make_catalog_shape("segment-pair"), Q41),
            (lambda: make_catalog_shape("segment-pair"), LP2),
            (lambda: make_catalog_shape("disk").complement(), Q41),
            (lambda: make_catalog_shape("wulff-3d", LP3).complement(), Q412),
            (lambda: make_catalog_shape("two-disks-mixed").complement(), Q41),
        ],
        ids=["mixed", "three-wulff", "three-wulff-lp", "two-balls", "segment-pair",
             "segment-pair-lp", "disk-complement", "wulff-3d-lp-complement",
             "mixed-complement"],
    )
    def test_translation_invariance_and_scaling(self, make, norm):
        shape = make()
        r = global_reach(shape, norm).global_reach
        t = np.linspace(0.3, -1.7, shape.dim)
        assert global_reach(_moved(shape, 1.0, t), norm).global_reach == (
            pytest.approx(r, rel=1e-12)
        )
        for lam in (0.5, 3.0):
            got = global_reach(_moved(shape, lam, t), norm).global_reach
            assert got == pytest.approx(lam * r, rel=1e-12)

    @pytest.mark.parametrize(
        "key, norm",
        [("two-disks-gap1", Q41), ("three-wulff", Q41), ("two-balls-3d", EuclideanNorm(3))],
        ids=["two-disks", "three-wulff", "two-balls"],
    )
    def test_half_gap_is_at_most_every_ray_reach(self, key, norm):
        shape = make_catalog_shape(key, norm)
        est = global_reach(shape, norm)
        rays_a, rays_u = [], []
        for s in shape.boundary_strata(n=256, seed=0):
            uu, _ = fiber_nodes(s.kind, s.fibers, 8)
            rays_a.append(np.repeat(s.points, uu.shape[1], axis=0))
            rays_u.append(uu.reshape(-1, shape.dim))
        rays_eta = norm.grad(np.concatenate(rays_u))
        rays = reach_along(shape, norm, np.concatenate(rays_a), rays_eta, validate=False)
        assert est.global_reach <= rays.min()

    @pytest.mark.parametrize(
        "key, norm",
        [("two-disks-gap1", Q41), ("three-wulff", Q41), ("two-balls-3d", EuclideanNorm(3))],
        ids=["two-disks", "three-wulff", "two-balls"],
    )
    def test_gap_route_traces_nothing(self, monkeypatch, key, norm):
        shape = make_catalog_shape(key, norm)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(projection, "reach_along", counting("rays", reach_along))
        monkeypatch.setattr(shape, "boundary_strata", counting("strata", shape.boundary_strata))
        est = global_reach(shape, norm)
        assert calls == []
        pieces = shape.components
        pairs = [(p, q) for i, p in enumerate(pieces) for q in pieces[i + 1 :]]
        lower, upper = _gap_bounds(pairs, norm)
        assert est.global_reach == 0.5 * upper.min()
        assert est.bracket == (0.5 * lower.min(), 0.5 * upper.min())
        assert not est.is_infinite


ROUTE_NORMS = {
    2: {"euclid": E2, "diag": Q41, "rotated": _rotated([3.0, 0.5], [0.7]), "lp": LP2},
    3: {
        "euclid": E3,
        "diag": EllipsoidalNorm(np.diag([4.0, 1.0, 2.0])),
        "rotated": _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5]),
        "lp": LP3,
    },
}
# "-lp": the catalog Wulff body of the smoothed-lp norm, under every norm
ROUTE_SHAPES = {
    2: ["disk", "unit-square", "ellipse-2-1", "two-disks-gap1", "two-disks-mixed",
        "cap-lens-0.5", "segment-pair", "wulff", "three-wulff", "wulff-lp"],
    3: ["cube", "two-balls-3d", "wulff-3d", "wulff-3d-lp"],
}


def _route_cases(dims=(2, 3), names=None):
    return [
        pytest.param(dim, key, name, comp, id=f"{key}-{name}" + ("-complement" if comp else ""))
        for dim in dims
        for key in ROUTE_SHAPES[dim]
        for name in names or ROUTE_NORMS[dim]
        for comp in (False, True)
        if not (comp and key == "segment-pair")
    ]


def _route_pair(dim, key, name, complement, n=30):
    """The shape, the norm and n points around the shape (seeded by the case)."""
    norm = ROUTE_NORMS[dim][name]
    body_norm = {2: LP2, 3: LP3}[dim] if key.endswith("-lp") else norm
    shape = make_catalog_shape(key.removesuffix("-lp"), body_norm)
    if complement:
        shape = shape.complement()
    lo, hi = shape.bounding_box()
    rng = np.random.default_rng(len(key) + 10 * len(name) + complement)
    return shape, norm, rng.uniform(lo - 0.3, hi + 0.3, size=(n, dim))


class TestSupportRoutes:
    """Every catalog shape projects itself under every norm, complements included."""

    @pytest.mark.parametrize("dim, key, name, complement", _route_cases())
    def test_closed_forms_agree_with_the_search(self, dim, key, name, complement, search_twin):
        # under the twin no closed form applies: Wulff bodies take the
        # support search and boxes their facets' and edges' feet
        shape, norm, x = _route_pair(dim, key, name, complement)
        feet, delta = nearest_points(shape, norm, x)
        feet_s, delta_s = nearest_points(shape, search_twin(norm), x)
        npt.assert_allclose(delta, delta_s, rtol=0.0, atol=1e-12)
        npt.assert_allclose(norm.conjugate(x - feet), delta, rtol=0.0, atol=1e-12)
        assert (delta[shape.contains(x, tol=-1e-9)] == 0.0).all()

    @pytest.mark.parametrize(
        "dim, key, name, complement",
        _route_cases((2,)) + [c for c in _route_cases((3,), ["rotated"]) if c.values[1] == "cube"],
    )
    def test_distance_agrees_with_a_dense_boundary_sample(self, dim, key, name, complement):
        # no boundary point is nearer than the foot, and the nearest sample
        # lies within the sample spacing of it; in 3-d the box under a
        # rotated norm, whose edges take the clamped least-squares foot
        shape, norm, x = _route_pair(dim, key, name, complement, n=12)
        delta = set_distance(shape, norm, x)
        base = shape.base if complement else shape
        strata = base.boundary_strata(n=1024 if dim == 2 else 6000)
        cloud = np.concatenate([s.points for s in strata])
        spacing = max(s.weights.max() ** (1.0 / s.index) for s in strata if s.index)
        out = ~shape.contains(x, tol=0.0)
        near = norm.conjugate(x[out, None, :] - cloud).min(axis=1)
        # phi_* of a Euclidean step is at most its length times this
        stretch = norm.conjugate(unit_rows(np.random.default_rng(0).standard_normal((999, dim))))
        assert (delta[out] <= near + 1e-12).all()
        assert (near - delta[out] <= 2.0 * stretch.max() * spacing).all()


class TestEdgeFeet:
    def test_quadratic_closed_form_equals_the_newton_route(self, search_twin):
        # under the twin the edges of the box take the 1-d Newton
        cube, norm = make_catalog_shape("cube"), _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5])
        x = np.random.default_rng(5).uniform(-1.0, 2.0, (3000, 3))
        x = x[~cube.contains(x, tol=0.0)][:2000]
        assert len(x) == 2000
        args = (x, cube._edge_starts, cube._edge_vecs)
        feet, delta = shapes._edge_feet(norm, *args)
        feet_n, delta_n = shapes._edge_feet(search_twin(norm), *args)
        npt.assert_allclose(delta, delta_n, rtol=1e-12, atol=0.0)
        npt.assert_allclose(norm.conjugate(x[:, None, :] - feet), delta, rtol=1e-14, atol=0.0)
        npt.assert_allclose(feet, feet_n, rtol=0.0, atol=1e-10)
        closed, newton = distance_field(cube, norm, x), distance_field(cube, search_twin(norm), x)
        npt.assert_allclose(closed, newton, rtol=1e-12, atol=0.0)

    def test_row_alone_equals_row_in_a_batch(self):
        cube, norm = make_catalog_shape("cube"), _rotated([3.0, 1.0, 0.25], [2.1, 0.8, 0.5])
        x = np.random.default_rng(6).uniform(-1.0, 2.0, (500, 3))
        feet, delta = shapes._edge_feet(norm, x, cube._edge_starts, cube._edge_vecs)
        for i in range(0, 500, 50):
            f1, d1 = shapes._edge_feet(norm, x[i : i + 1], cube._edge_starts, cube._edge_vecs)
            assert f1.tobytes() == feet[i : i + 1].tobytes()
            assert d1.tobytes() == delta[i : i + 1].tobytes()


class TestFacetFormula:
    def test_square_complement_distance_is_exact(self):
        # the chart solver gave 1.8e-8 (2.2e-5 relative) too much here
        x = np.array([[0.2386503, -0.49918422]])
        a = np.array([0.0, -1.0])
        want = (0.5 - a @ x[0]) / LP2.value(a)
        got = set_distance(make_catalog_shape("unit-square").complement(), LP2, x)[0]
        assert abs(got - want) <= 1e-15 * want

    def test_box_complement_ties_are_second_feet(self):
        comp = ConvexPolytope.box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]).complement()
        res = project(comp, LP3, np.array([0.5, 0.5, 1.5]))
        assert res.multiplicity == "multiple"
        npt.assert_allclose(res.delta, 0.5 / LP3.value(np.array([1.0, 0.0, 0.0])), rtol=1e-15)


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

    def test_off_boundary_point_raises(self):
        # an interior point is neither viscosity nor Alexandrov: it is rejected,
        # and so is a point on a face's plane but off the box
        for key, norm, a in (
            ("disk", E2, [0.5, 0.5]),
            ("cap-lens-0.5", E2, [0.0, 0.0]),
            ("cube", E3, [1.0, 5.0, 0.5]),
        ):
            with pytest.raises(ValueError, match="not on the boundary"):
                classify_boundary_point(make_catalog_shape(key, norm), norm, np.array(a))

    def test_union_point_takes_its_own_component(self):
        u = make_catalog_shape("two-disks-gap1", E2)
        cls = classify_boundary_point(u, E2, np.array([1.5, 1.0]))
        assert cls.kind == "alexandrov"
        npt.assert_allclose(cls.normal, [0.0, 1.0], atol=1e-12)
        npt.assert_allclose(cls.h_spectrum, [1.0], atol=1e-8)

    def test_complement_spectrum_is_negated(self):
        comp = make_catalog_shape("disk", E2).complement()
        cls = classify_boundary_point(comp, E2, np.array([0.0, 1.0]))
        assert cls.kind == "alexandrov"
        npt.assert_allclose(cls.normal, [0.0, -1.0], atol=1e-12)
        npt.assert_allclose(cls.h_spectrum, [-1.0], atol=1e-8)
        t = 0.7
        a = np.array([2 * np.cos(t), np.sin(t)])
        kap = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        ell = make_catalog_shape("ellipse-2-1", E2).complement()
        # the support-Hessian pencil holds the closed form to rounding (a
        # finite-difference probe of the normal field misses it by 2e-10)
        npt.assert_allclose(classify_boundary_point(ell, E2, a).h_spectrum, [-kap], rtol=1e-13)

    def test_ellipse_spectrum_matches_curvature(self):
        ell = make_catalog_shape("ellipse-2-1", E2)
        t = 0.7
        a = np.array([2 * np.cos(t), np.sin(t)])
        cls = classify_boundary_point(ell, E2, a)
        kap = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        assert cls.kind == "alexandrov"
        npt.assert_allclose(cls.h_spectrum, [kap], rtol=1e-13)  # a probe misses by 5e-12

    @pytest.mark.parametrize("norm_kind", ["euclid", "diag", "lp3"])
    @pytest.mark.parametrize(
        "key", ["ellipse-2-1", "wulff", "two-balls-3d", "disk-complement"]
    )
    def test_spectrum_is_translation_invariant_and_scales_inversely(self, key, norm_kind):
        # the spectrum of lam * A + t at lam * a + t is that of A at a, over lam
        d = 3 if key.endswith("3d") else 2
        lp = {2: LP2, 3: LP3}[d]
        norm = {"euclid": EuclideanNorm(d), "diag": {2: Q41, 3: Q412}[d], "lp3": lp}[norm_kind]
        if key == "disk-complement":
            shape = make_catalog_shape("disk").complement()
        else:
            shape = make_catalog_shape(key, lp)  # the wulff body is lp3's
        (top,) = [s for s in shape.boundary_strata(n=16) if s.index == d - 1]
        t = np.linspace(0.3, -1.7, d)
        for a in top.points[::3]:
            want = classify_boundary_point(shape, norm, a).h_spectrum
            for lam in (1.0, 0.5, 3.0):
                got = classify_boundary_point(_moved(shape, lam, t), norm, lam * a + t)
                npt.assert_allclose(got.h_spectrum, want / lam, rtol=1e-12, atol=0.0)
