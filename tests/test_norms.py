import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from reachgeom.norms import (
    EuclideanNorm,
    EllipsoidalNorm,
    NonConvergenceError,
    NormParameterError,
    SmoothedLpNorm,
    ZeroVectorError,
    make_norm,
    tangent_basis,
)

Q41 = np.diag([4.0, 1.0])


def _unit_vectors(n, dim, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, dim))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def _fd_grad(f, x, h=None):
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, np.linalg.norm(x))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestEuclidean:
    def test_value_grad_hessian(self):
        nrm = EuclideanNorm(3)
        x = np.array([1.0, -2.0, 2.0])
        npt.assert_allclose(nrm.value(x), 3.0)
        npt.assert_allclose(nrm.grad(x), x / 3.0)
        H = nrm.hessian(x)
        npt.assert_allclose(H @ x, np.zeros(3), atol=1e-14)
        npt.assert_allclose(np.trace(H), 2.0 / 3.0)

    def test_self_dual(self):
        nrm = EuclideanNorm(2)
        y = np.array([[0.5, 1.5], [-2.0, 0.1]])
        npt.assert_allclose(nrm.conjugate(y), nrm.value(y))

    def test_gauss_maps_are_identity_on_sphere(self):
        nrm = EuclideanNorm(2)
        u = _unit_vectors(64, 2, seed=3)
        npt.assert_allclose(nrm.gauss_inverse(u), u)
        npt.assert_allclose(nrm.gauss_map(u), u)

    def test_gamma_exact(self):
        assert EuclideanNorm(2).gamma == 1.0


class TestEllipsoidal:
    def test_value_and_conjugate_closed_forms(self):
        nrm = EllipsoidalNorm(Q41)
        x = np.array([0.3, -1.2])
        npt.assert_allclose(nrm.value(x), np.sqrt(4 * 0.09 + 1.44))
        npt.assert_allclose(nrm.conjugate(x), np.sqrt(0.09 / 4 + 1.44))

    def test_grad_matches_finite_differences(self):
        nrm = EllipsoidalNorm(Q41)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
            npt.assert_allclose(nrm.grad(x), _fd_grad(nrm.value, x), atol=1e-7)
            npt.assert_allclose(
                nrm.conjugate_grad(x), _fd_grad(nrm.conjugate, x), atol=1e-7
            )

    def test_hessian_annihilates_radial_direction(self):
        nrm = EllipsoidalNorm(Q41)
        x = np.array([1.1, 0.7])
        npt.assert_allclose(nrm.hessian(x) @ x, np.zeros(2), atol=1e-13)

    def test_round_trips_machine_precision(self):
        nrm = EllipsoidalNorm(Q41)
        u = _unit_vectors(1000, 2, seed=5)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.conjugate(eta), 1.0, atol=1e-12)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-12)
        v = u / nrm.value(u)[:, None]  # on {phi = 1}
        npt.assert_allclose(nrm.conjugate_grad(nrm.grad(v)), v, atol=1e-12)
        y = u / nrm.conjugate(u)[:, None]  # on {phi_* = 1}
        npt.assert_allclose(nrm.grad(nrm.conjugate_grad(y)), y, atol=1e-12)

    def test_support_identity_on_wulff_boundary(self):
        # phi(gauss_map(eta)) equals eta . gauss_map(eta) on {phi_* = 1}
        nrm = EllipsoidalNorm(Q41)
        u = _unit_vectors(256, 2, seed=7)
        eta = nrm.gauss_inverse(u)
        lhs = nrm.value(nrm.gauss_map(eta))
        rhs = np.einsum("md,md->m", eta, nrm.gauss_map(eta))
        npt.assert_allclose(lhs, rhs, atol=1e-12)
        assert (rhs > 0).all()

    def test_gamma_estimate_brackets_exact_value(self):
        # exact uniform-convexity modulus for diag(4,1) is 0.5 (attained at e1)
        nrm = EllipsoidalNorm(Q41)
        assert 0.5 - 1e-9 <= nrm.gamma <= 0.505

    def test_3d(self):
        Q = np.diag([4.0, 1.0, 0.25])
        nrm = EllipsoidalNorm(Q)
        u = _unit_vectors(100, 3, seed=9)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-12)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            EllipsoidalNorm(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            EllipsoidalNorm(np.diag([1.0, -1.0]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestQuadraticHessianBits:
    """The in-place Hessians match the broadcast formulas bit for bit, signed zeros too."""

    @staticmethod
    def _batches(d):
        rng = np.random.default_rng(d)
        rows = rng.standard_normal((12, d))
        rows[:4] = np.eye(d)[np.arange(4) % d]  # exact zeros
        rows[4:8] = -rows[:4]  # -0.0 beside -1.0
        rows[8, 0] = 0.0
        rows[9, -1] = -0.0
        return [rows[4], rows[5:6], rows, rows.reshape(3, 4, d)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_euclidean(self, d):
        nrm = EuclideanNorm(d)
        for x in self._batches(d):
            r = np.linalg.norm(x, axis=-1)
            u = x / r[..., None]
            eye = np.broadcast_to(np.eye(d), x.shape + (d,))
            want = (eye - u[..., :, None] * u[..., None, :]) / r[..., None, None]
            got = nrm.hessian(x)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize(
        "Q",
        [
            np.diag([4.0, 1.0]),
            [[2.0, -0.0], [-0.0, 0.5]],  # Q's -0.0 minus a -0.0 product is +0.0
            np.diag([4.0, 1.0, 2.0]),
            [[3.0, 0.5, -0.0], [0.5, 2.0, 0.2], [-0.0, 0.2, 1.0]],
        ],
        ids=["diag-2", "signed-zero-2", "diag-3", "signed-zero-3"],
    )
    def test_ellipsoidal(self, Q):
        nrm = EllipsoidalNorm(Q)
        for x in self._batches(nrm.dim):
            val = nrm.value(x)
            qx = np.einsum("de,...e->...d", nrm.Q, x)
            outer = qx[..., :, None] * qx[..., None, :]
            want = (nrm.Q - outer / val[..., None, None] ** 2) / val[..., None, None]
            got = nrm.hessian(x)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


class TestSmoothedLp:
    def test_reduces_to_euclidean_at_p2_eps0(self):
        nrm = SmoothedLpNorm(2, p=2.0, eps=0.0)
        x = np.random.default_rng(0).standard_normal((40, 2))
        npt.assert_allclose(nrm.value(x), np.linalg.norm(x, axis=-1), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        nrm = SmoothedLpNorm(2, p=3.0, eps=0.05)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.standard_normal(2) * rng.uniform(0.2, 3.0)
            npt.assert_allclose(nrm.grad(x), _fd_grad(nrm.value, x), atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_round_trips(self, p):
        nrm = SmoothedLpNorm(2, p=p, eps=0.05)
        u = _unit_vectors(200, 2, seed=17)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-12)
        v = u / nrm.value(u)[:, None]
        npt.assert_allclose(nrm.conjugate_grad(nrm.grad(v)), v, atol=1e-12)

    def test_support_identity(self):
        nrm = SmoothedLpNorm(2, p=4.0, eps=0.05)
        u = _unit_vectors(64, 2, seed=19)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(
            nrm.value(nrm.gauss_map(eta)),
            np.einsum("md,md->m", eta, nrm.gauss_map(eta)),
            atol=1e-8,
        )

    def test_hessian_annihilates_radial_direction(self):
        nrm = SmoothedLpNorm(2, p=3.0, eps=0.05)
        x = np.array([1.3, 0.4])
        npt.assert_allclose(nrm.hessian(x) @ x, np.zeros(2), atol=1e-6)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_closed_form_hessian(self, dim, p):
        nrm = SmoothedLpNorm(dim, p=p, eps=0.05)
        rng = np.random.default_rng(41)
        x = rng.standard_normal((20, dim)) * rng.uniform(0.2, 3.0, (20, 1))
        H = nrm.hessian(x)
        npt.assert_allclose(np.einsum("nde,ne->nd", H, x), 0.0, atol=1e-13)
        # central differences of grad, column by column
        h = 1e-5
        fd = np.stack([(nrm.grad(x + h * e) - nrm.grad(x - h * e)) / (2 * h) for e in np.eye(dim)],
                      axis=-1)
        npt.assert_allclose(H, fd, atol=1e-6)

    def test_hessian_on_an_axis_without_smoothing(self):
        # eps = 0: t = 0 off the axis, where the l^3 Hessian is 0
        nrm = SmoothedLpNorm(3, p=3.0, eps=0.0)
        x = np.array([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = nrm.hessian(x)
        assert np.isfinite(H).all()
        npt.assert_allclose(H[0], 0.0, atol=0)
        npt.assert_allclose(np.einsum("nde,ne->nd", H, x), 0.0, atol=1e-13)

    def test_gamma_positive(self):
        assert SmoothedLpNorm(2, p=3.0, eps=0.05).gamma > 0.01

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_3d_round_trip(self, p):
        nrm = SmoothedLpNorm(3, p=p, eps=0.05)
        u = _unit_vectors(32, 3, seed=23)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SmoothedLpNorm(2, p=1.0)
        with pytest.raises(ValueError):
            SmoothedLpNorm(2, p=3.0, eps=-0.1)


class _StiffLp(SmoothedLpNorm):
    """A smoothed-lp norm whose Hessian is 1000 times too stiff within 26 degrees of e_0.

    Newton steps there are a thousandth of their length, so a solve whose
    answer lies in that cone ends its budget far above its tolerance.
    """

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        stiff = x[..., 0] > 0.9 * np.linalg.norm(x, axis=-1)
        return np.where(stiff[..., None, None], 1e3, 1.0) * super().hessian(x)


class TestRowIndependence:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method", ["conjugate", "conjugate_grad", "gauss_map"])
    def test_row_alone_equals_row_in_batch(self, dim, method):
        nrm = SmoothedLpNorm(dim, p=3.0)
        rng = np.random.default_rng(37)
        y = rng.standard_normal((400, dim)) * rng.uniform(0.1, 5.0, (400, 1))
        batch = getattr(nrm, method)(y)
        for i in range(0, len(y), 8):
            alone = getattr(nrm, method)(y[i : i + 1])
            assert alone.tobytes() == batch[i : i + 1].tobytes(), i

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "nrm,method",
        [("euclidean", "value"), ("euclidean", "conjugate"), ("ellipsoidal", "conjugate")],
    )
    def test_quadratic_kernel_row_alone_equals_row_in_a_tall_batch(self, dim, nrm, method):
        rng = np.random.default_rng(41)
        if nrm == "euclidean":
            nrm = EuclideanNorm(dim)
        else:
            M = rng.standard_normal((dim, dim))
            nrm = EllipsoidalNorm(M @ M.T + 0.5 * np.eye(dim))
        y = rng.standard_normal((10_000, dim)) * rng.uniform(1e-3, 1e3, (10_000, 1))
        batch = getattr(nrm, method)(y)
        for i in range(0, len(y), 7):
            assert getattr(nrm, method)(y[i]).tobytes() == batch[i].tobytes(), i
            assert getattr(nrm, method)(y[i : i + 1]).tobytes() == batch[i : i + 1].tobytes(), i

    def test_unconverged_row_raises(self):
        nrm = _StiffLp(2, p=3.0)
        y = np.array([[0.0, 1.0], [1.0, 0.1], [-1.0, 0.3]])  # row 1 in the stiff cone
        plain = SmoothedLpNorm(2, p=3.0)
        npt.assert_allclose(nrm.conjugate(y[[0, 2]]), plain.conjugate(y[[0, 2]]))
        for method in (nrm.conjugate, nrm.conjugate_grad):
            with pytest.raises(NonConvergenceError, match="dual-norm ascent"):
                method(y)

    def test_unconverged_gauss_row_raises(self):
        nrm = _StiffLp(2, p=3.0)
        nrm.conjugate = SmoothedLpNorm(2, p=3.0).conjugate  # exact targets
        u = np.array([[0.0, 1.0], [np.cos(0.3), np.sin(0.3)], [-1.0, 0.0]])
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta[[0, 2]]), u[[0, 2]], atol=1e-9)
        with pytest.raises(NonConvergenceError, match="gauss_map"):
            nrm.gauss_map(eta)


class TestLazyGamma:
    @pytest.mark.parametrize(
        "make, want",
        [
            (lambda: EllipsoidalNorm(np.diag([4.0, 1.0])), 0.5000000142631627),
            (lambda: SmoothedLpNorm(2, 3.0), 0.05249291704201802),
            (lambda: SmoothedLpNorm(3, 3.0), 0.05324926631493444),
        ],
        ids=["ellipsoidal", "lp-2d", "lp-3d"],
    )
    def test_sampled_once_on_first_read(self, monkeypatch, make, want):
        # no constructor samples gamma; its first read samples 10,000
        # Hessians from the seeds the constructors took, so the value is the
        # one they computed
        cls, rows = type(make()), []
        plain = cls.hessian
        monkeypatch.setattr(cls, "hessian", lambda self, x: rows.append(len(x)) or plain(self, x))
        nrm = make()
        assert rows == []
        assert nrm.gamma == want
        assert nrm.gamma == want and rows == [10_000]


class TestErrorsAndFactory:
    def test_zero_vector_raises(self):
        for nrm in (EuclideanNorm(2), EllipsoidalNorm(Q41), SmoothedLpNorm(2, 3.0)):
            with pytest.raises(ZeroVectorError):
                nrm.grad(np.zeros(2))
            with pytest.raises(ZeroVectorError):
                nrm.gauss_map(np.zeros(2))

    def test_make_norm(self):
        assert make_norm("euclidean", 2).kind == "euclidean"
        assert make_norm("ellipsoidal", 2, Q=[4.0, 1.0]).kind == "ellipsoidal"
        assert make_norm("smoothed-lp", 2, p=3).kind == "smoothed-lp"
        with pytest.raises(ValueError):
            make_norm("taxicab", 2)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("smoothed-lp", {"p": 3, "epsilon": 0.3}, "epsilon"),
            ("euclidean", {"Q": [4.0, 1.0]}, "Q"),
            ("ellipsoidal", {"Q": [4.0, 1.0], "p": 2}, "p"),
        ],
    )
    def test_make_norm_rejects_unknown_parameters(self, kind, params, key):
        with pytest.raises(NormParameterError, match=repr(key)) as err:
            make_norm(kind, 2, **params)
        assert err.value.key == key
        assert isinstance(err.value, ValueError)

    def test_make_norm_ellipsoidal_dim(self):
        with pytest.raises(NormParameterError) as err:
            make_norm("ellipsoidal", 3, Q=[4.0, 1.0])
        assert err.value.key == "dim"
        # an absent dim follows Q; the other kinds default to 2
        assert make_norm("ellipsoidal", Q=[4.0, 1.0, 1.0]).dim == 3
        assert make_norm("ellipsoidal", 3, Q=[4.0, 1.0, 1.0]).dim == 3
        assert make_norm("euclidean").dim == 2
        assert make_norm("smoothed-lp", p=3, eps=0.3).eps == 0.3

    def test_tangent_basis_orthonormal(self):
        u = _unit_vectors(50, 3, seed=29)
        T = tangent_basis(u)
        gram = np.einsum("mkd,mld->mkl", T, T)
        npt.assert_allclose(gram, np.broadcast_to(np.eye(2), (50, 2, 2)), atol=1e-12)
        npt.assert_allclose(np.einsum("mkd,md->mk", T, u), 0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [3])
    @pytest.mark.parametrize("batch", [(), (40,), (5, 8)])
    def test_tangent_basis_matches_per_row_reference(self, dim, batch):
        u = _unit_vectors(max(int(np.prod(batch)), 1), dim, seed=31)
        u[: dim] = np.eye(dim)[: len(u)]  # ties in |u_k| and exact axes
        u = u.reshape(batch + (dim,))
        ref = np.stack([_tangent_basis_row(r) for r in u.reshape(-1, dim)])
        got = tangent_basis(u)
        assert got.shape == batch + (dim - 1, dim)
        npt.assert_allclose(got.reshape(ref.shape), ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_tangent_basis_takes_two_or_three_dimensions(self, dim):
        with pytest.raises(ValueError, match="d = 2 or 3"):
            tangent_basis(np.eye(dim)[:1])


def _tangent_basis_row(u):
    """One row at a time: e_k - u u_k for the least aligned axis k, then u x t1."""
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = e - u * u[k]
    t1 = t1 / np.linalg.norm(t1)
    return np.stack([t1, np.cross(u, t1)])


# ----------------------------------------------------------------------
# property-based checks
# ----------------------------------------------------------------------

norm_strategy = st.sampled_from(["euclidean", "ellipsoidal", "smoothed-lp"])


def _build(kind, dim=2):
    if kind == "euclidean":
        return EuclideanNorm(dim)
    if kind == "ellipsoidal":
        return EllipsoidalNorm(Q41)
    return SmoothedLpNorm(dim, p=3.0, eps=0.05)


@settings(max_examples=60, deadline=None)
@given(kind=norm_strategy, seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 100.0))
def test_homogeneity_and_symmetry(kind, seed, scale):
    nrm = _build(kind)
    x = np.random.default_rng(seed).standard_normal(2)
    if np.linalg.norm(x) < 1e-6:
        return
    npt.assert_allclose(nrm.value(scale * x), scale * nrm.value(x), rtol=1e-10)
    npt.assert_allclose(nrm.value(-x), nrm.value(x), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=norm_strategy, seed=st.integers(0, 2**31 - 1))
def test_duality_sandwich(kind, seed):
    # x . y <= phi(x) phi_*(y), with equality attained by the support argmax
    nrm = _build(kind)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-6:
        return
    assert x @ y <= nrm.value(x) * nrm.conjugate(y) * (1 + 1e-9) + 1e-12
    v = nrm.conjugate_grad(y)  # maximizer of v.y over {phi <= 1}
    npt.assert_allclose(v @ y, nrm.conjugate(y), rtol=1e-6)
    npt.assert_allclose(nrm.value(v), 1.0, rtol=1e-6)
