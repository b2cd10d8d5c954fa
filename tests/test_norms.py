import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from reachgeom.norms import (
    EuclideanNorm,
    EllipsoidalNorm,
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
        npt.assert_allclose(nrm.conjugate_hessian(x) @ x, np.zeros(2), atol=1e-13)

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

    def test_round_trips(self):
        nrm = SmoothedLpNorm(2, p=3.0, eps=0.05)
        u = _unit_vectors(200, 2, seed=17)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-6)
        v = u / nrm.value(u)[:, None]
        npt.assert_allclose(nrm.conjugate_grad(nrm.grad(v)), v, atol=1e-6)

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

    def test_gamma_positive(self):
        assert SmoothedLpNorm(2, p=3.0, eps=0.05).gamma > 0.01

    def test_3d_round_trip(self):
        nrm = SmoothedLpNorm(3, p=3.0, eps=0.05)
        u = _unit_vectors(32, 3, seed=23)
        eta = nrm.gauss_inverse(u)
        npt.assert_allclose(nrm.gauss_map(eta), u, atol=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SmoothedLpNorm(2, p=1.0)
        with pytest.raises(ValueError):
            SmoothedLpNorm(2, p=3.0, eps=-0.1)


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

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("batch", [(), (40,), (5, 8)])
    def test_tangent_basis_matches_per_row_reference(self, dim, batch):
        u = _unit_vectors(max(int(np.prod(batch)), 1), dim, seed=31)
        u[: dim] = np.eye(dim)[: len(u)]  # ties in |u_k| and exact axes
        u = u.reshape(batch + (dim,))
        ref = np.stack([_tangent_basis_row(r) for r in u.reshape(-1, dim)])
        got = tangent_basis(u)
        assert got.shape == batch + (dim - 1, dim)
        npt.assert_allclose(got.reshape(ref.shape), ref, rtol=0, atol=1e-14)


def _tangent_basis_row(u):
    """One row at a time: e_k - u u_k for the least aligned axis k, then u x t1
    in 3d or Gram-Schmidt of the coordinate directions beyond."""
    d = len(u)
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(d)
    e[k] = 1.0
    t1 = e - u * u[k]
    basis = [t1 / np.linalg.norm(t1)]
    if d == 3:
        return np.stack([basis[0], np.cross(u, basis[0])])
    for j in range(d):
        if len(basis) == d - 1:
            break
        v = np.zeros(d)
        v[j] = 1.0
        v = v - u * u[j] - sum(b * (b @ v) for b in basis)
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
    return np.stack(basis)


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
