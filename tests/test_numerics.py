import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from mmood.errors import InsufficientDataError, NumericalError, ParameterError
from mmood.numerics import (
    component_rng,
    covariance,
    default_reg_eps,
    dirichlet_sample,
    l2_normalize,
    logsumexp,
    make_rng,
    principal_subspace,
    regularized_inverse,
    softmax,
)

finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).random(100)
        b = make_rng(123).random(100)
        assert np.array_equal(a, b)

    def test_component_slots_independent(self):
        # draws in slot 0 must not move when slot 1 is or is not consumed
        a = component_rng(7, 0).random(10)
        _ = component_rng(7, 1).random(3)
        b = component_rng(7, 0).random(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, component_rng(7, 1).random(10))


class TestDirichlet:
    def test_simplex_every_draw(self):
        rng = make_rng(0)
        for _ in range(200):
            lam = dirichlet_sample(0.7, 3, rng)
            assert np.all(lam >= 0) and np.all(lam <= 1)
            assert abs(lam.sum() - 1.0) < 1e-12

    def test_symmetric_mean_is_uniform(self):
        rng = make_rng(1)
        draws = np.array([dirichlet_sample(1000.0, 4, rng) for _ in range(10_000)])
        assert np.all(np.abs(draws.mean(axis=0) - 0.25) < 0.05)

    def test_alpha_one_k_two_uniform_marginal(self):
        rng = make_rng(2)
        first = np.array([dirichlet_sample(1.0, 2, rng)[0] for _ in range(10_000)])
        assert kstest(first, "uniform").statistic < 0.02

    def test_underflow_fallback_is_one_hot_per_row(self):
        # at alpha=1e-3 about half the gamma draws underflow to 0.0, so many
        # rows of a batched draw have no mass left to normalize
        shape = (5, 400, 3)
        lam = dirichlet_sample(1e-3, shape, make_rng(11))
        dead = make_rng(11).standard_gamma(1e-3, size=shape).sum(axis=-1) == 0
        assert lam.shape == shape and dead.sum() > 100 and (~dead).sum() > 100
        assert not np.isnan(lam).any()
        assert np.all(lam >= 0) and np.all(lam <= 1)
        assert np.all(np.abs(lam.sum(axis=-1) - 1.0) < 1e-12)
        assert np.all(np.count_nonzero(lam[dead], axis=-1) == 1)
        assert np.all(lam[dead].max(axis=-1) == 1.0)

    @pytest.mark.parametrize("alpha,k", [(0.0, 3), (-1.0, 3), (1.0, 1), (1.0, 0)])
    def test_bad_parameters(self, alpha, k):
        with pytest.raises(ParameterError):
            dirichlet_sample(alpha, k, make_rng(0))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3])

    def test_no_overflow_on_large_inputs(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])
        assert np.all(np.isfinite(out))

    def test_closed_form(self):
        out = softmax([np.log(2.0), 0.0])
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    @given(finite_vectors, st.floats(min_value=-30, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_and_simplex(self, v, c):
        base = softmax(v)
        shifted = softmax(np.asarray(v) + c)
        assert abs(base.sum() - 1.0) < 1e-12
        assert np.all(base > 0) and np.all(base < 1 + 1e-15)
        assert np.allclose(base, shifted, atol=1e-12)

    @given(finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, v):
        v = np.asarray(v)
        perm = np.random.default_rng(0).permutation(len(v))
        assert np.allclose(softmax(v)[perm], softmax(v[perm]), atol=1e-14)


class TestLogsumexp:
    def test_two_zeros(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_single_element(self):
        assert logsumexp([3.25]) == 3.25

    def test_shift_identity_large(self):
        assert logsumexp([1e4, 1e4]) == pytest.approx(1e4 + np.log(2.0), rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            logsumexp([])

    @given(finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, v):
        out = logsumexp(v)
        assert max(v) - 1e-12 <= out <= max(v) + np.log(len(v)) + 1e-12


class TestL2Normalize:
    def test_three_four(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit(self):
        v = l2_normalize(make_rng(3).normal(size=7))
        assert np.allclose(l2_normalize(v), v, atol=1e-12)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_zero_guard(self):
        assert np.array_equal(l2_normalize(np.zeros(5)), np.zeros(5))


class TestCovariance:
    def test_identical_rows_zero(self):
        rows = np.ones((4, 3)) * 2.5
        assert np.array_equal(covariance(rows), np.zeros((3, 3)))

    def test_hand_case(self):
        got = covariance([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(got, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_exactly_symmetric_and_psd(self):
        rng = make_rng(4)
        for _ in range(20):
            c = covariance(rng.normal(size=(rng.integers(2, 12), 5)))
            assert np.array_equal(c, c.T)
            assert np.linalg.eigvalsh(c).min() > -1e-10

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            covariance([[1.0, 2.0]])


class TestRegularizedInverse:
    def test_identity(self):
        eps = 0.5
        got = regularized_inverse(np.eye(3), eps=eps, min_eps=0.0)
        assert np.allclose(got, np.eye(3) / (1.0 + eps), atol=1e-12)

    def test_diagonal(self):
        got = regularized_inverse(np.diag([2.0, 4.0]), eps=0.0)
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-5)

    def test_singular_rank_one(self):
        v = np.array([[1.0, 2.0, 3.0]])
        m = v.T @ v
        got = regularized_inverse(m)
        assert np.all(np.isfinite(got))

    def test_scale_aware_default(self):
        assert default_reg_eps(np.diag([2.0, 4.0])) == pytest.approx(3e-6)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            regularized_inverse([[1.0, 2.0], [0.0, 1.0]])

    def test_unfixable_matrix_raises(self):
        bad = -1e12 * np.eye(2)
        with pytest.raises(NumericalError):
            regularized_inverse(bad, eps=1e-6)


def _eig_oracle_projector(cov, d):
    # independent route: general (non-symmetric) eigensolver + sorting
    vals, vecs = np.linalg.eig(cov)
    order = np.argsort(vals.real)[::-1][:d]
    b = vecs[:, order].real
    q, _ = np.linalg.qr(b)
    return q @ q.T


class TestPrincipalSubspace:
    def test_diagonal_case(self):
        b = principal_subspace(np.diag([3.0, 2.0, 1.0]), 1)
        assert b.shape == (3, 1)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-12
        assert np.allclose(b[1:], 0.0, atol=1e-12)

    def test_full_basis_is_orthonormal_projector(self):
        rng = make_rng(5)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T
        b = principal_subspace(cov, 4)
        assert np.allclose(b.T @ b, np.eye(4), atol=1e-10)
        assert np.allclose(b @ b.T, np.eye(4), atol=1e-10)

    def test_residual_matches_eig_oracle(self):
        rng = make_rng(6)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            cov = a @ a.T + 0.1 * np.eye(5)
            b = principal_subspace(cov, 2)
            proj = b @ b.T
            oracle = _eig_oracle_projector(cov, 2)
            for _ in range(5):
                x = rng.normal(size=5)
                mine = np.linalg.norm(x - proj @ x)
                ref = np.linalg.norm(x - oracle @ x)
                assert abs(mine - ref) < 1e-8

    @pytest.mark.parametrize("d", [0, 4])
    def test_d_out_of_range(self, d):
        with pytest.raises(ParameterError):
            principal_subspace(np.eye(3), d)
