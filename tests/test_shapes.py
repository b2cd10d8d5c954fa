from math import factorial

import numpy as np
import numpy.testing as npt
import pytest

from reachgeom.norms import EllipsoidalNorm, EuclideanNorm, SmoothedLpNorm, unit_rows
from reachgeom.shapes import (
    Ball,
    CapLens,
    ComplementShape,
    ConvexPolytope,
    DisjointUnion,
    EmptyInteriorError,
    Ellipsoid,
    SegmentUnion,
    WulffBody,
    _dunavant8,
    _gauss_legendre,
    _spherical_triangle_areas,
    fiber_nodes,
    fiber_tangents,
    make_catalog_shape,
)

E2 = EuclideanNorm(2)
Q41 = EllipsoidalNorm(np.diag([4.0, 1.0]))


def _whitened_segment_feet(x, starts, edges, L):
    """Feet and distances on the nearest segment under phi_*(v) = |L v|.

    A Euclidean projection onto the segments' images under L: each
    orthogonal projection clamped to the segment, the nearest kept.
    """
    w = edges @ L.T
    rel = (x @ L.T)[:, None, :] - starts @ L.T
    t = np.clip(np.einsum("nsd,sd->ns", rel, w) / (w * w).sum(-1), 0.0, 1.0)
    gap = rel - t[..., None] * w
    d2 = (gap * gap).sum(-1)
    best = np.argmin(d2, axis=1)
    rows = np.arange(len(x))
    return starts[best] + t[rows, best, None] * edges[best], np.sqrt(d2[rows, best])


def spherical_polygon_area(vertices: np.ndarray) -> float:
    """Area of a convex spherical polygon given ordered unit vertices (exact)."""
    v = np.asarray(vertices, dtype=float)
    i = np.arange(1, len(v) - 1)
    return float(_spherical_triangle_areas(v[0], v[i], v[i + 1]).sum())


def _total_weight(shape, index, n=512, seed=0):
    return sum(
        s.weights.sum() for s in shape.boundary_strata(n=n, seed=seed) if s.index == index
    )


def _fiber_measures(s):
    """Spherical measure of each fiber of a stratum: its k = 1 weight total."""
    return fiber_nodes(s.kind, s.fibers, 1)[1].sum(axis=1)


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

    def test_exact_projection_euclidean(self, search_twin):
        b = Ball([0.0, 0.0], 1.0)
        feet, d = b.exact_projection(E2, np.array([[3.0, 4.0], [0.1, 0.0]]))
        npt.assert_allclose(d, [4.0, 0.0])
        npt.assert_allclose(feet[0], [0.6, 0.8])
        npt.assert_allclose(feet[1], [0.1, 0.0])
        x = np.array([[3.0, 4.0]])
        feet, d = b.exact_projection(Q41, x)
        feet_search, d_search = b.exact_projection(search_twin(Q41), x)
        npt.assert_allclose(d, d_search)
        npt.assert_allclose(feet, feet_search)

    def test_sphere_strata(self):
        b = Ball([0.0, 0.0, 0.0], 2.0)
        npt.assert_allclose(_total_weight(b, 2, n=2000), 16 * np.pi, rtol=1e-9)


class TestPolytope:
    def test_square_strata_weights_exact(self):
        sq = make_catalog_shape("unit-square")
        assert _total_weight(sq, 1) == pytest.approx(4.0, abs=1e-9)
        strata = {s.index: s for s in sq.boundary_strata()}
        assert len(strata[0]) == 4
        assert strata[0].kind == "arc" and strata[0].fibers.shape == (4, 2)
        npt.assert_allclose(_fiber_measures(strata[0]), np.pi / 2)

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
        assert (strata[0].kind, strata[1].kind, strata[2].kind) == ("patch", "edge", "vector")
        npt.assert_allclose(_fiber_measures(strata[0]), np.pi / 2)  # octant
        npt.assert_allclose(_fiber_measures(strata[1]), np.pi / 2)  # right dihedral fan

    def test_box_fiber_only_on_the_boundary(self):
        cube = make_catalog_shape("cube")
        kind, u = cube.boundary_fiber_at(np.array([1.0, 0.5, 0.5]))
        assert kind == "vector"
        npt.assert_array_equal(u, [1.0, 0.0, 0.0])
        kind, fan = cube.boundary_fiber_at(np.array([1.0, 0.0, 0.5]))
        assert kind == "edge"
        npt.assert_array_equal(fan, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        kind, gens = cube.boundary_fiber_at(np.array([0.0, 1.0, 1.0]))
        assert kind == "patch"
        npt.assert_array_equal(gens, np.diag([-1.0, 1.0, 1.0]))
        # on a face's plane but off the face, on an edge's line past the box,
        # and inside
        for a in ([1.0, 5.0, 0.5], [1.0, 1.0, 7.0], [0.5, 0.5, 0.5]):
            with pytest.raises(ValueError, match="not on the boundary"):
                cube.boundary_fiber_at(np.array(a))
        # the tolerance is absolute: 5e-3 inside a large box is not on its face
        box = ConvexPolytope.box([0.0, 0.0, 0.0], [1000.0, 1000.0, 1000.0])
        with pytest.raises(ValueError, match="not on the boundary"):
            box.boundary_fiber_at(np.array([1000.0 - 5e-3, 500.0, 500.0]))

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
        assert s.kind == "vector"
        u = Q41.gauss_map(s.points - np.array([1.0, 2.0]))
        npt.assert_allclose(s.fibers, u, atol=1e-9)

    def test_fiber_only_on_the_boundary(self):
        w = WulffBody(Q41, center=[1.0, 2.0], radius=0.7)
        s = w.boundary_strata(n=64)[0]
        for p, u in list(zip(s.points, s.fibers))[::8]:
            kind, row = w.boundary_fiber_at(p)
            assert kind == "vector"
            npt.assert_allclose(row, u, atol=1e-12)
        for x in ([1.0, 2.0], [1.0, 2.0 + 0.7 * 1.01], [1.0 + 2 * 0.7 * 0.99, 2.0]):
            with pytest.raises(ValueError):
                w.boundary_fiber_at(np.array(x))

    def test_exact_projection_own_norm(self, search_twin):
        w = WulffBody(Q41, radius=2.0)
        x = np.array([[8.0, 0.0]])
        feet, d = w.exact_projection(Q41, x)
        npt.assert_allclose(d, [2.0])
        npt.assert_allclose(feet, [[4.0, 0.0]])
        feet, d = w.exact_projection(E2, x)
        feet_search, d_search = w.exact_projection(search_twin(E2), x)
        npt.assert_allclose(d, d_search)
        npt.assert_allclose(feet, feet_search)


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
        (s,) = w.boundary_strata(n=256)
        npt.assert_allclose(norm.conjugate(s.points - c), 0.7, rtol=0, atol=1e-12)
        npt.assert_allclose(s.fibers, norm.gauss_map(s.points - c), rtol=0, atol=1e-12)

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
        npt.assert_allclose(_fiber_measures(strata[0]), 2 * np.arcsin(0.25))
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

    def test_fiber_off_the_boundary_rejected(self):
        lens = make_catalog_shape("cap-lens-0.5")
        with pytest.raises(ValueError):
            lens.boundary_fiber_at(np.zeros(2))
        with pytest.raises(ValueError):
            lens.boundary_fiber_at(np.array([0.0, 0.6]))
        kind, u = lens.boundary_fiber_at(np.array([0.0, 0.5]))
        assert kind == "vector"
        npt.assert_allclose(u, [0.0, 1.0])

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            CapLens(0.0)
        with pytest.raises(ValueError):
            CapLens(1.0)


class TestSegmentsAndUnions:
    def test_segment_fibers(self):
        segs = make_catalog_shape("segment-pair")
        strata = {s.index: s for s in segs.boundary_strata()}
        assert strata[1].kind == "pair"
        assert len(strata[0]) == 4  # endpoints
        npt.assert_allclose(_fiber_measures(strata[0]), np.pi)
        npt.assert_allclose(strata[1].weights.sum(), 8.0)
        assert segs.volume() == 0.0

    def test_union_requires_gap(self):
        with pytest.raises(ValueError):
            DisjointUnion([Ball([0.0, 0.0], 1.0), Ball([1.9, 0.0], 1.0)])

    def test_shallow_overlap_is_an_overlap(self):
        # the balls overlap by 1e-4, a cap no 256-point boundary cloud samples
        with pytest.raises(ValueError, match="overlap"):
            DisjointUnion([Ball([0.0, 0.0, 0.0], 1.0), Ball([0.0, 0.0, 1.9999], 1.0)])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_touching_pair_is_rejected_and_a_gap_above_the_margin_is_not(self, dim):
        def pair(gap):
            far = np.zeros(dim)
            far[0] = 2.0 + gap
            return [Ball(np.zeros(dim), 1.0), Ball(far, 1.0)]

        with pytest.raises(ValueError, match="overlap|not separated"):
            DisjointUnion(pair(0.0))
        with pytest.raises(ValueError, match="not separated"):
            DisjointUnion(pair(1e-7))
        assert DisjointUnion(pair(1e-5)).dim == dim

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

    def test_union_fiber_comes_from_the_component_holding_the_point(self):
        u = make_catalog_shape("two-disks-gap1")
        npt.assert_allclose(u.boundary_fiber_at(np.array([1.5, 1.0]))[1], [0.0, 1.0])
        npt.assert_allclose(u.boundary_fiber_at(np.array([-2.5, 0.0]))[1], [-1.0, 0.0])
        with pytest.raises(ValueError):
            u.boundary_fiber_at(np.zeros(2))

    def test_complement_of_segments_rejected(self):
        with pytest.raises(EmptyInteriorError):
            make_catalog_shape("segment-pair").complement()


SEGMENT_SETS = {
    "unit-square": make_catalog_shape("unit-square"),
    "triangle": ConvexPolytope([[0.0, 0.0], [1.5, 0.2], [0.3, 1.1]]),
    "quadrilateral": ConvexPolytope([[0.0, 0.0], [2.0, 0.3], [1.6, 1.4], [-0.2, 1.0]]),
    "segment-pair": make_catalog_shape("segment-pair"),
    # not segments: a lens's feet are its disks' quadratic feet or a corner
    "cap-lens-0.2": make_catalog_shape("cap-lens-0.2"),
    "cap-lens-0.5": make_catalog_shape("cap-lens-0.5"),
}
_R = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
ROTATED = EllipsoidalNorm(_R @ np.diag([3.0, 0.5]) @ _R.T)


class TestSegmentProjection:
    # phi_*(v) = |L v| makes the distance to a polygon or a segment union a
    # Euclidean one to its image under L; a lens takes its disks' feet
    @pytest.mark.parametrize("key", list(SEGMENT_SETS))
    @pytest.mark.parametrize("norm", [Q41, ROTATED, E2], ids=["q41", "rotated", "euclid"])
    def test_closed_form_matches_the_chart_solver(self, key, norm, search_twin):
        shape = SEGMENT_SETS[key]
        lo, hi = shape.bounding_box()
        x = np.random.default_rng(2).uniform(lo - 1.5, hi + 1.5, size=(400, 2))
        x = x[~shape.contains(x, tol=0.0)]
        feet, d = shape.exact_projection(norm, x)
        if isinstance(shape, CapLens):
            want = shape.exact_projection(search_twin(norm), x)[1]
        else:
            ends = shape.vertices if isinstance(shape, ConvexPolytope) else shape._starts
            want = _whitened_segment_feet(x, ends, shape._edges, norm.dual_transform)[1]
        npt.assert_allclose(d, want, rtol=0, atol=1e-12)
        assert shape.contains(feet, tol=1e-9).all()


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
        assert s.kind == "vector"
        npt.assert_allclose(s.fibers, -unit_rows(s.points), atol=1e-12)

    def test_ellipsoid_interior_projection_under_its_own_norm_only(self):
        K = Ellipsoid([1.0, 0.0], [2.0, 1.0]).complement()
        feet, d = K.exact_projection(EllipsoidalNorm(np.diag([4.0, 1.0])), np.array([[2.0, 0.0]]))
        npt.assert_allclose(d, [0.5])
        npt.assert_allclose(feet, [[3.0, 0.0]])
        # under another norm the support search: the nearest boundary points
        # of (2, 0) are (7/3, +-sqrt(5)/3), sqrt(2/3) away
        feet, d = K.exact_projection(E2, np.array([[2.0, 0.0]]))
        npt.assert_allclose(d, [np.sqrt(2.0 / 3.0)], rtol=1e-14)
        npt.assert_allclose(np.abs(feet), [[7.0 / 3.0, np.sqrt(5.0) / 3.0]], rtol=1e-7)

    def test_square_corner_fans_dropped(self):
        K = make_catalog_shape("unit-square").complement()
        strata = K.boundary_strata()
        assert [(s.index, s.kind) for s in strata] == [(1, "vector")]

    @pytest.mark.parametrize("key", ["disk", "cap-lens-0.5", "cube"])
    def test_shares_charts_and_negates_vector_fibers(self, key):
        base = make_catalog_shape(key)
        K = base.complement()
        base_vectors = [s for s in base.boundary_strata(n=64) if s.kind == "vector"]
        strata = K.boundary_strata(n=64)
        assert len(strata) == len(base_vectors)
        for s, b in zip(strata, base_vectors):
            assert s.kind == "vector"
            npt.assert_array_equal(s.points, b.points)
            npt.assert_array_equal(s.fibers, -b.fibers)

    def test_interior_projection(self):
        K = Ball([0.0, 0.0], 1.0).complement()
        feet, d = K.exact_projection(E2, np.array([[0.5, 0.0], [2.0, 0.0]]))
        npt.assert_allclose(d, [0.5, 0.0])
        npt.assert_allclose(feet[0], [1.0, 0.0])


class TestFiberQuadrature:
    def test_arc_nodes_integrate_angle(self):
        (u,), (w,) = fiber_nodes("arc", [[0.3, 1.1]], 8)
        npt.assert_allclose(w.sum(), 0.8)
        npt.assert_allclose(np.linalg.norm(u, axis=-1), 1.0)
        # Gauss nodes integrate smooth integrands to high order
        ang = np.arctan2(u[:, 1], u[:, 0])
        npt.assert_allclose((np.cos(ang) * w).sum(), np.sin(1.1) - np.sin(0.3), atol=1e-12)

    def test_spherical_polygon_octant(self):
        octant = np.eye(3)
        npt.assert_allclose(spherical_polygon_area(octant), np.pi / 2)

    def test_patch_nodes_weights_exact_total(self):
        (u,), (w,) = fiber_nodes("patch", np.eye(3)[None], 256)
        npt.assert_allclose(w.sum(), np.pi / 2, atol=1e-12)
        npt.assert_allclose(np.linalg.norm(u, axis=-1), 1.0)
        # integrating z over the octant = pi/4
        val = (u[:, 2] * w).sum()
        npt.assert_allclose(val, np.pi / 4, rtol=1e-7)

    def test_triangle_rule_has_degree_8(self):
        # x^i y^j over the triangle (0,0), (1,0), (0,1), area 1/2:
        # i! j! / (i + j + 2)!; exact to degree 8, not to degree 9
        bary, w = _dunavant8()
        x, y = bary[:, 0], bary[:, 1]
        npt.assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for deg in range(10):
            err = max(
                abs(0.5 * (w * x**i * y ** (deg - i)).sum()
                    - factorial(i) * factorial(deg - i) / factorial(deg + 2))
                for i in range(deg + 1)
            )
            assert (err < 1e-15) == (deg <= 8), (deg, err)

    @pytest.mark.parametrize("k", [16, 32, 1, 7, 8, 33])
    def test_gauss_legendre_rules_are_leggauss_to_the_bit(self, k):
        # 16 and 32 are tabulated and mirrored; other counts call leggauss
        from numpy.polynomial.legendre import leggauss

        x, w = _gauss_legendre(k)
        want_x, want_w = leggauss(k)
        assert np.array_equal(x.view(np.uint64), want_x.view(np.uint64))
        assert np.array_equal(w.view(np.uint64), want_w.view(np.uint64))
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("n_gens", [3, 4])
    def test_patch_nodes_match_recursive_reference(self, n_gens):
        gens = np.array([[0.0, 0.0, 1.0], [1.0, 0.1, 0.3], [0.1, 1.0, 0.2], [-1.0, 0.3, 0.4]])
        gens = gens[:n_gens] / np.linalg.norm(gens[:n_gens], axis=1, keepdims=True)
        for k in (1, 16, 17, 300):
            (u,), (w,) = fiber_nodes("patch", gens[None], k)
            u_ref, w_ref = _patch_nodes_reference(gens, k)
            npt.assert_allclose(u, u_ref, rtol=0, atol=1e-14)
            npt.assert_allclose(w, w_ref, rtol=1e-14, atol=0)
        # the k = 1 weight total is the polygon's exact area
        npt.assert_allclose(
            fiber_nodes("patch", gens[None], 1)[1].sum(), spherical_polygon_area(gens), rtol=1e-14
        )

    def test_stacked_patches_equal_single_ones(self):
        patches = np.stack([np.diag(s) for s in ([1.0, 1, 1], [-1.0, 1, 1], [1.0, -1, -1])])
        u, w = fiber_nodes("patch", patches, 64)
        for i in range(len(patches)):
            (ui,), (wi,) = fiber_nodes("patch", patches[i : i + 1], 64)
            npt.assert_array_equal(u[i], ui)
            npt.assert_array_equal(w[i], wi)

    def test_edge_arc_nodes_match_per_fiber_formula(self):
        n0, n1 = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
        edge = np.stack([n0, n1])[None]
        (u,), (w,) = fiber_nodes("edge", edge, 7)
        x, wx = np.polynomial.legendre.leggauss(7)
        angle = np.arccos(0.6)
        t = 0.5 * angle * (x + 1.0)
        e1 = np.array([0.0, 1.0, 0.0])
        npt.assert_allclose(u, np.outer(np.cos(t), n0) + np.outer(np.sin(t), e1), atol=1e-15)
        npt.assert_allclose(w, wx * 0.5 * angle, rtol=1e-15)
        npt.assert_allclose(
            fiber_tangents("edge", edge, 7)[0],
            np.outer(-np.sin(t), n0) + np.outer(np.cos(t), e1),
            atol=1e-15,
        )
        npt.assert_allclose(fiber_nodes("edge", edge, 1)[1].sum(), angle, rtol=1e-15)

    def test_vectors_and_pairs_are_counted(self):
        u = np.array([[0.6, 0.8], [0.0, -1.0]])
        nodes, w = fiber_nodes("vector", u, 8)
        npt.assert_array_equal(nodes[:, 0], u)
        npt.assert_array_equal(w, 1.0)
        nodes, w = fiber_nodes("pair", u, 8)
        npt.assert_array_equal(nodes, np.stack([u, -u], axis=1))
        npt.assert_array_equal(w, 1.0)
        with pytest.raises(ValueError):
            fiber_tangents("pair", u, 8)
        with pytest.raises(ValueError):
            fiber_nodes("sheet", u, 8)


def _patch_nodes_reference(gens, k):
    """Triangle by triangle: fan-triangulate, split each spherical triangle into
    (a,ab,ca), (ab,b,bc), (ca,bc,c), (ab,bc,ca), recurse until 16 * 4^depth >= k;
    on each leaf (a, b, c) the triangle rule's node p = beta . (a, b, c) maps to
    p/|p| with weight w_beta/|p|^3, the weights scaled to the leaf's exact area.
    Nodes in rule-point order, each point over all leaves."""
    level = 0
    while 16 * 4**level < k:
        level += 1

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
    bary, w_rule = _dunavant8()
    u = np.empty((len(w_rule), len(tris), 3))
    w = np.empty((len(w_rule), len(tris)))
    for t, (a, b, c) in enumerate(tris):
        p = [beta[0] * a + beta[1] * b + beta[2] * c for beta in bary]
        wt = np.array([wb / np.linalg.norm(pb) ** 3 for wb, pb in zip(w_rule, p)])
        u[:, t] = [unit(pb) for pb in p]
        w[:, t] = wt * spherical_polygon_area(np.stack([a, b, c])) / wt.sum()
    return u.reshape(-1, 3), w.ravel()


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


_SAMPLED = [
    ("disk", None),
    ("unit-square", None),
    ("ellipse-2-1", None),
    ("two-disks-gap1", None),
    ("two-disks-far", None),
    ("two-disks-mixed", None),
    ("cap-lens-0.25", None),
    ("cap-lens-0.5", None),
    ("segment-pair", None),
    ("wulff", Q41),
    ("wulff", SmoothedLpNorm(2, p=3.0, eps=0.3)),
    ("three-wulff", Q41),
    ("cube", None),
    ("two-balls-3d", None),
    ("wulff-3d", EllipsoidalNorm(np.diag([4.0, 1.0, 2.25]))),
    ("wulff-3d", SmoothedLpNorm(3, p=3.0, eps=0.3)),
]


def _exact_measures(shape):
    """{stratum index: its exact H^m measure}, where that is closed form."""
    if isinstance(shape, ComplementShape):
        # only the top stratum's normals survive on the complement side
        top = shape.dim - 1
        return {k: v for k, v in _exact_measures(shape.base).items() if k == top}
    if isinstance(shape, DisjointUnion):
        parts = [_exact_measures(c) for c in shape.components]
        return {k: sum(p[k] for p in parts) for k in parts[0] if all(k in p for p in parts)}
    if isinstance(shape, Ball):
        r = shape.radius
        return {1: 2 * np.pi * r} if shape.dim == 2 else {2: 4 * np.pi * r * r}
    if isinstance(shape, CapLens):
        return {1: 4 * np.arccos(shape.eps)}
    if isinstance(shape, SegmentUnion):
        return {1: sum(np.hypot(*(q - p)) for p, q in shape.segments)}
    if isinstance(shape, ConvexPolytope) and shape.dim == 2:
        v = shape.vertices
        return {1: float(np.hypot(*(np.roll(v, -1, axis=0) - v).T).sum())}
    if isinstance(shape, ConvexPolytope):
        a, b, c = shape.hi - shape.lo
        return {2: 2 * (a * b + a * c + b * c), 1: 4 * (a + b + c)}
    return {}


# a segment union has no interior, so no complement; a complement flips a
# smoothed-lp body's rows as it does a quadratic one's, which are quicker
# to locate on the boundary
_SAMPLED_SIDES = [(k, n, c) for k, n in _SAMPLED for c in (False, True) if not c or (
    k != "segment-pair" and (n is None or n.kind != "smoothed-lp"))]


class TestSampler:
    @pytest.mark.parametrize("key, norm, complement", _SAMPLED_SIDES, ids=[
        (k if n is None else f"{k}-{n.kind}") + ("-complement" if c else "")
        for k, n, c in _SAMPLED_SIDES
    ])
    def test_nodes_carry_their_exact_fibers_and_weights(self, key, norm, complement):
        """Every node of the segment and angle rules lies on the boundary with
        the fiber ``boundary_fiber_at`` gives there, and every closed-form
        measure (edges, facets, lens arcs, circles, spheres) is its weights'
        total, at every n and seed."""
        shape = make_catalog_shape(key, norm)
        if complement:
            shape = shape.complement()
        exact = _exact_measures(shape)
        for n in (8, 64, 512):
            for seed in (0, 3):
                strata = shape.boundary_strata(n=n, seed=seed)
                assert strata[0].index == shape.dim - 1
                for s in strata:
                    if s.index in exact:
                        npt.assert_allclose(s.weights.sum(), exact[s.index], rtol=1e-12)
                    if s.kind == "patch":
                        continue
                    for a, row in zip(s.points, s.fibers):
                        kind, fiber = shape.boundary_fiber_at(a)
                        assert kind == s.kind
                        if kind == "pair" and fiber @ row < 0:
                            fiber = -fiber
                        npt.assert_allclose(row, fiber, rtol=0, atol=1e-9)
