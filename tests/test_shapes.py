import numpy as np
import numpy.testing as npt
import pytest

from reachgeom.norms import EllipsoidalNorm, EuclideanNorm
from reachgeom.projection import _ChartSolver
from reachgeom.shapes import (
    Ball,
    CapLens,
    ConvexPolytope,
    DisjointUnion,
    EmptyInteriorError,
    Ellipsoid,
    FiberArc,
    FiberPair,
    FiberVector,
    SegmentUnion,
    WulffBody,
    make_catalog_shape,
    spherical_polygon_area,
)

E2 = EuclideanNorm(2)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))


def _total_weight(shape, index, n=512, seed=0):
    return sum(
        s.weights.sum() for s in shape.boundary_strata(n=n, seed=seed) if s.index == index
    )


class TestBall:
    def test_membership_and_volume(self):
        b = Ball([1.0, -1.0], 2.0)
        assert b.contains(np.array([2.9, -1.0]))
        assert not b.contains(np.array([3.1, -1.0]))
        npt.assert_allclose(b.volume(), 4 * np.pi)

    def test_boundary_weights_reproduce_perimeter(self):
        b = Ball([0.0, 0.0], 1.0)
        w1 = _total_weight(b, 1, n=256)
        w2 = _total_weight(b, 1, n=512)
        npt.assert_allclose(w1, 2 * np.pi, rtol=1e-3)
        # doubling changes the total by well under 0.1%
        assert abs(w2 - w1) / w1 < 1e-3

    def test_exact_projection_euclidean(self):
        b = Ball([0.0, 0.0], 1.0)
        feet, d = b.exact_projection(E2, np.array([[3.0, 4.0], [0.1, 0.0]]))
        npt.assert_allclose(d, [4.0, 0.0])
        npt.assert_allclose(feet[0], [0.6, 0.8])
        npt.assert_allclose(feet[1], [0.1, 0.0])
        x = np.array([[3.0, 4.0]])
        feet, d = b.exact_projection(Q41, x)
        feet_chart, d_chart = _ChartSolver(b, Q41).feet_batch(x)
        npt.assert_allclose(d, d_chart)
        npt.assert_allclose(feet, feet_chart)

    def test_sphere_strata(self):
        b = Ball([0.0, 0.0, 0.0], 2.0)
        npt.assert_allclose(_total_weight(b, 2, n=2000), 16 * np.pi, rtol=1e-9)


class TestPolytope:
    def test_square_strata_weights_exact(self):
        sq = make_catalog_shape("unit-square")
        assert _total_weight(sq, 1) == pytest.approx(4.0, abs=1e-9)
        strata = {s.index: s for s in sq.boundary_strata()}
        assert len(strata[0]) == 4
        for f in strata[0].fibers:
            assert isinstance(f, FiberArc)
            npt.assert_allclose(f.measure(), np.pi / 2)

    def test_vertex_order_and_convexity_validation(self):
        # shuffled input gets sorted; non-convex input rejected
        sq = ConvexPolytope([[0.5, 0.5], [-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5]])
        npt.assert_allclose(sq.volume(), 1.0)
        with pytest.raises(ValueError):
            ConvexPolytope([[0, 0], [2, 0], [0.1, 0.1], [0, 2]])

    def test_polygon_projection_matches_brute_force(self):
        tri = ConvexPolytope([[0, 0], [2, 0], [0, 1]])
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 3, size=(64, 2))
        feet, d = tri.exact_projection(E2, x)
        t = np.linspace(0, 1, 20001)
        cand = np.concatenate(
            [
                (1 - t)[:, None] * np.array([0.0, 0.0]) + t[:, None] * np.array([2.0, 0.0]),
                (1 - t)[:, None] * np.array([2.0, 0.0]) + t[:, None] * np.array([0.0, 1.0]),
                (1 - t)[:, None] * np.array([0.0, 1.0]) + t[:, None] * np.array([0.0, 0.0]),
            ]
        )
        brute = np.sqrt(((x[:, None, :] - cand[None, :, :]) ** 2).sum(-1)).min(1)
        inside = tri.contains(x, tol=0.0)
        brute[inside] = 0.0
        npt.assert_allclose(d, brute, atol=1e-7)

    def test_box_projection_ellipsoidal_diag(self):
        sq = make_catalog_shape("unit-square")
        x = np.array([[2.5, 0.0], [0.0, 3.0], [2.5, 3.0]])
        feet, d = sq.exact_projection(Q41, x)
        # phi_*(v) = sqrt(v1^2/4 + v2^2)
        npt.assert_allclose(d, [1.0, 2.5, np.sqrt(1.0 + 6.25)])
        npt.assert_allclose(feet[2], [0.5, 0.5])

    def test_cube_strata(self):
        cube = make_catalog_shape("cube")
        assert _total_weight(cube, 2, n=600) == pytest.approx(6.0, abs=1e-9)
        assert _total_weight(cube, 1, n=600) == pytest.approx(12.0, abs=1e-9)
        strata = {s.index: s for s in cube.boundary_strata(n=600)}
        for f in strata[0].fibers:
            npt.assert_allclose(f.measure(), np.pi / 2)  # octant
        for f in strata[1].fibers:
            npt.assert_allclose(f.measure(), np.pi / 2)  # right dihedral fan

    def test_3d_requires_box(self):
        with pytest.raises(NotImplementedError):
            ConvexPolytope(np.random.default_rng(0).uniform(size=(5, 3)))


class TestWulffBody:
    def test_is_dual_unit_body(self):
        w = WulffBody(Q41)
        assert w.contains(np.array([1.9, 0.0]))
        assert not w.contains(np.array([2.1, 0.0]))
        assert w.contains(np.array([0.0, 0.99]))
        npt.assert_allclose(w.volume(), 2 * np.pi, rtol=1e-6)

    def test_boundary_normals_consistent(self):
        w = WulffBody(Q41, center=[1.0, 2.0], radius=0.7)
        s = w.boundary_strata(n=128)[0]
        for p, f in list(zip(s.points, s.fibers))[::16]:
            u = Q41.gauss_map(p - np.array([1.0, 2.0]))
            npt.assert_allclose(f.u, u, atol=1e-9)

    def test_exact_projection_own_norm(self):
        w = WulffBody(Q41, radius=2.0)
        x = np.array([[8.0, 0.0]])
        feet, d = w.exact_projection(Q41, x)
        npt.assert_allclose(d, [2.0])
        npt.assert_allclose(feet, [[4.0, 0.0]])
        feet, d = w.exact_projection(E2, x)
        feet_chart, d_chart = _ChartSolver(w, E2).feet_batch(x)
        npt.assert_allclose(d, d_chart)
        npt.assert_allclose(feet, feet_chart)


class _GradChartNorm(EllipsoidalNorm):
    """An ellipsoidal norm under another kind: its WulffBody takes the general path."""

    kind = "ellipsoidal-via-grad"


def _rotated_q(dim):
    # eigenvalues 4, 1 (, 2.25) in a frame rotated off the axes
    c, s = np.cos(0.6), np.sin(0.6)
    if dim == 2:
        R = np.array([[c, -s], [s, c]])
        return R @ np.diag([4.0, 1.0]) @ R.T
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
    )
    return R @ np.diag([4.0, 1.0, 2.25]) @ R.T


class TestQuadraticWulffBody:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_chart_points_on_the_level_set_with_gauss_map_normals(self, dim):
        norm = EllipsoidalNorm(_rotated_q(dim))
        c = np.arange(1.0, dim + 1.0)
        w = WulffBody(norm, center=c, radius=0.7)
        (ch,) = w.charts()
        t = ch.seeds(64)
        p, nu = ch.point(t), ch.normal(t)
        npt.assert_allclose(norm.conjugate(p - c), 0.7, rtol=0, atol=1e-12)
        npt.assert_allclose(nu, norm.gauss_map(p - c), rtol=0, atol=1e-12)
        (s,) = w.boundary_strata(n=256)
        npt.assert_allclose(norm.conjugate(s.points - c), 0.7, rtol=0, atol=1e-12)
        u = np.array([f.u for f in s.fibers])
        npt.assert_allclose(u, norm.gauss_map(s.points - c), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_closed_form_volume_matches_divergence_quadrature(self, dim):
        Q = _rotated_q(dim)
        closed = WulffBody(EllipsoidalNorm(Q), radius=1.3)
        general = WulffBody(_GradChartNorm(Q), radius=1.3)
        omega = np.pi if dim == 2 else 4.0 / 3.0 * np.pi
        npt.assert_allclose(closed.volume(), omega * 1.3**dim * np.sqrt(np.linalg.det(Q)))
        npt.assert_allclose(general.volume(), closed.volume(), rtol=1e-6)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_area_matches_general_path(self, dim):
        Q = _rotated_q(dim)
        closed = WulffBody(EllipsoidalNorm(Q), radius=1.3)
        general = WulffBody(_GradChartNorm(Q), radius=1.3)
        area = [_total_weight(w, dim - 1, n=4096) for w in (closed, general)]
        # the two paths weight the Fibonacci lattice differently in 3-d
        npt.assert_allclose(area[0], area[1], rtol=1e-5)

    def test_ball_and_ellipsoid_volumes_are_exact(self):
        for r in (0.3, 1.0, 2.7):
            assert Ball([0.5, -1.0], r).volume() == np.pi * r**2
            assert Ball([0.0, 0.0, 1.0], r).volume() == 4.0 / 3.0 * np.pi * r**3
        for a in ([2.0, 1.0], [0.3, 1.7]):
            assert Ellipsoid([1.0, 1.0], a).volume() == np.pi * float(np.prod(a))
        a = [2.0, 1.0, 0.7]
        assert Ellipsoid(np.zeros(3), a).volume() == 4.0 / 3.0 * np.pi * float(np.prod(a))

    def test_ball_and_ellipsoid_are_wulff_bodies_of_their_norms(self):
        b = Ball([1.0, 2.0], 1.5)
        e = Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 0.5])
        assert isinstance(b, WulffBody) and isinstance(e, WulffBody)
        assert b.norm.key == EuclideanNorm(2).key and b.radius == 1.5
        assert e.norm.key == EllipsoidalNorm(np.diag([4.0, 1.0, 0.25])).key
        assert e.radius == 1.0
        assert b.diameter == 3.0 and e.diameter == 4.0


class TestCapLens:
    def test_contains_origin_and_area(self):
        lens = CapLens(0.5)
        assert lens.contains(np.zeros(2))
        npt.assert_allclose(lens.volume(), 2 * (np.arccos(0.5) - 0.5 * np.sqrt(0.75)))

    def test_corner_fans(self):
        lens = CapLens(0.25)
        strata = {s.index: s for s in lens.boundary_strata()}
        for f in strata[0].fibers:
            npt.assert_allclose(f.measure(), 2 * np.arcsin(0.25))
        npt.assert_allclose(strata[1].weights.sum(), 4 * np.arccos(0.25), rtol=1e-6)

    def test_exact_projection(self):
        lens = CapLens(0.5)
        feet, d = lens.exact_projection(E2, np.array([[0.0, 3.0]]))
        # nearest point is the top of the upper arc (0, 1 - eps)
        npt.assert_allclose(feet[0], [0.0, 0.5])
        npt.assert_allclose(d, [2.5])
        # corner wins for points out along the x-axis
        feet, d = lens.exact_projection(E2, np.array([[3.0, 0.0]]))
        npt.assert_allclose(feet[0], lens.corner_points()[0])

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            CapLens(0.0)
        with pytest.raises(ValueError):
            CapLens(1.0)


class TestSegmentsAndUnions:
    def test_segment_fibers(self):
        segs = make_catalog_shape("segment-pair")
        strata = {s.index: s for s in segs.boundary_strata()}
        assert all(isinstance(f, FiberPair) for f in strata[1].fibers)
        assert len(strata[0]) == 4  # endpoints
        for f in strata[0].fibers:
            npt.assert_allclose(f.measure(), np.pi)
        npt.assert_allclose(strata[1].weights.sum(), 8.0)
        assert segs.volume() == 0.0

    def test_union_requires_gap(self):
        with pytest.raises(ValueError):
            DisjointUnion([Ball([0.0, 0.0], 1.0), Ball([1.9, 0.0], 1.0)])

    def test_union_projection_picks_nearest_component(self):
        u = make_catalog_shape("two-disks-gap1")
        feet, d = u.exact_projection(E2, np.array([[0.3, 0.0], [2.0, 0.0]]))
        npt.assert_allclose(d, [0.2, 0.0])
        npt.assert_allclose(feet[0], [0.5, 0.0])
        # the midpoint is equidistant: either foot is a valid nearest point
        feet, d = u.exact_projection(E2, np.array([[0.0, 0.0]]))
        npt.assert_allclose(d, [0.5])
        npt.assert_allclose(np.abs(feet[0, 0]), 0.5)
        assert u.volume() == pytest.approx(2 * np.pi)

    def test_complement_of_segments_rejected(self):
        with pytest.raises(EmptyInteriorError):
            make_catalog_shape("segment-pair").complement()


class TestComplement:
    def test_membership_flips(self):
        K = Ball([0.0, 0.0], 1.0).complement()
        assert K.contains(np.array([2.0, 0.0]))
        assert not K.contains(np.array([0.0, 0.0]))
        assert K.contains(np.array([1.0, 0.0]))  # boundary kept

    def test_normals_flip(self):
        disk = Ball([0.0, 0.0], 1.0)
        K = disk.complement()
        s = K.boundary_strata(n=64)[0]
        for p, f in zip(s.points, s.fibers):
            npt.assert_allclose(np.asarray(f.u), -p / np.linalg.norm(p), atol=1e-12)

    def test_ellipsoid_interior_projection_under_its_own_norm_only(self):
        K = Ellipsoid([1.0, 0.0], [2.0, 1.0]).complement()
        feet, d = K.exact_projection(EllipsoidalNorm(np.diag([4.0, 1.0])), np.array([[2.0, 0.0]]))
        npt.assert_allclose(d, [0.5])
        npt.assert_allclose(feet, [[3.0, 0.0]])
        assert K.exact_projection(E2, np.array([[2.0, 0.0]])) is None

    def test_square_corner_fans_dropped(self):
        K = make_catalog_shape("unit-square").complement()
        strata = K.boundary_strata()
        assert all(s.index == 1 for s in strata)
        assert all(isinstance(f, FiberVector) for s in strata for f in s.fibers)

    def test_interior_projection(self):
        K = Ball([0.0, 0.0], 1.0).complement()
        feet, d = K.exact_projection(E2, np.array([[0.5, 0.0], [2.0, 0.0]]))
        npt.assert_allclose(d, [0.5, 0.0])
        npt.assert_allclose(feet[0], [1.0, 0.0])


class TestFiberQuadrature:
    def test_arc_nodes_integrate_angle(self):
        arc = FiberArc(0.3, 1.1)
        u, w = arc.nodes(8)
        npt.assert_allclose(w.sum(), 0.8)
        npt.assert_allclose(np.linalg.norm(u, axis=-1), 1.0)
        # Gauss nodes integrate smooth integrands to high order
        ang = np.arctan2(u[:, 1], u[:, 0])
        npt.assert_allclose((np.cos(ang) * w).sum(), np.sin(1.1) - np.sin(0.3), atol=1e-12)

    def test_spherical_polygon_octant(self):
        octant = np.eye(3)
        npt.assert_allclose(spherical_polygon_area(octant), np.pi / 2)

    def test_patch_nodes_weights_exact_total(self):
        from reachgeom.shapes import FiberPatch

        patch = FiberPatch(np.eye(3))
        u, w = patch.nodes(256)
        npt.assert_allclose(w.sum(), np.pi / 2, atol=1e-12)
        npt.assert_allclose(np.linalg.norm(u, axis=-1), 1.0)
        # centroid rule converges: integrating z over the octant = pi/4
        val = (u[:, 2] * w).sum()
        npt.assert_allclose(val, np.pi / 4, rtol=1e-3)

    @pytest.mark.parametrize("n_gens", [3, 4])
    def test_patch_nodes_match_recursive_reference(self, n_gens):
        from reachgeom.shapes import FiberPatch

        gens = np.array([[0.0, 0.0, 1.0], [1.0, 0.1, 0.3], [0.1, 1.0, 0.2], [-1.0, 0.3, 0.4]])
        gens = gens[:n_gens] / np.linalg.norm(gens[:n_gens], axis=1, keepdims=True)
        for k in (1, 16, 300):
            u, w = FiberPatch(gens).nodes(k)
            u_ref, w_ref = _patch_nodes_reference(gens, k)
            npt.assert_allclose(u, u_ref, rtol=0, atol=1e-14)
            npt.assert_allclose(w, w_ref, rtol=1e-14, atol=0)

    def test_stacked_patches_equal_single_ones(self):
        from reachgeom.shapes import FiberPatch

        patches = [FiberPatch(np.diag(s)) for s in ([1, 1, 1], [-1, 1, 1], [1, -1, -1])]
        u, w = FiberPatch.stack_nodes(patches, 64)
        for i, p in enumerate(patches):
            ui, wi = p.nodes(64)
            npt.assert_array_equal(u[i], ui)
            npt.assert_array_equal(w[i], wi)

    def test_edge_arc_nodes_match_per_fiber_formula(self):
        from reachgeom.shapes import FiberEdgeArc

        n0, n1 = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
        arc = FiberEdgeArc(n0, n1)
        u, w = arc.nodes(7)
        x, wx = np.polynomial.legendre.leggauss(7)
        angle = np.arccos(0.6)
        t = 0.5 * angle * (x + 1.0)
        e1 = np.array([0.0, 1.0, 0.0])
        npt.assert_allclose(u, np.outer(np.cos(t), n0) + np.outer(np.sin(t), e1), atol=1e-15)
        npt.assert_allclose(w, wx * 0.5 * angle, rtol=1e-15)
        npt.assert_allclose(
            arc.tangents(7), np.outer(-np.sin(t), n0) + np.outer(np.cos(t), e1), atol=1e-15
        )
        npt.assert_allclose(arc.measure(), angle, rtol=1e-15)


def _patch_nodes_reference(gens, k):
    """Triangle by triangle: fan-triangulate, split each spherical triangle into
    (a,ab,ca), (ab,b,bc), (ca,bc,c), (ab,bc,ca), recurse; nodes at normalized
    centroids, weights the exact sub-triangle areas."""
    level = max(int(np.ceil(np.log2(max(k, 1)) / 2)), 1)

    def unit(v):
        return v / np.linalg.norm(v)

    def split(a, b, c, depth):
        if depth == 0:
            return [(a, b, c)]
        ab, bc, ca = unit(a + b), unit(b + c), unit(c + a)
        out = []
        for tri in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)):
            out += split(*tri, depth - 1)
        return out

    tris = []
    for i in range(1, len(gens) - 1):
        tris += split(gens[0], gens[i], gens[i + 1], level)
    u = np.array([unit(a + b + c) for a, b, c in tris])
    w = np.array([spherical_polygon_area(np.stack(t)) for t in tris])
    return u, w


def test_catalog_keys():
    for key in [
        "disk",
        "unit-square",
        "ellipse-2-1",
        "two-disks-gap1",
        "two-disks-mixed",
        "cap-lens-0.25",
        "cap-lens-0.5",
        "segment-pair",
        "cube",
        "two-balls-3d",
    ]:
        s = make_catalog_shape(key)
        assert s.dim in (2, 3)
    for key in ["wulff", "three-wulff", "wulff-3d"]:
        norm = Q41 if key != "wulff-3d" else EllipsoidalNorm(np.diag([4.0, 1.0, 1.0]))
        assert make_catalog_shape(key, norm).dim == norm.dim
    with pytest.raises(KeyError):
        make_catalog_shape("klein-bottle")


@pytest.mark.parametrize("key", ["wulff", "three-wulff", "wulff-3d"])
def test_catalog_wulff_shapes_need_a_norm(key):
    with pytest.raises(ValueError, match="needs a norm"):
        make_catalog_shape(key)
