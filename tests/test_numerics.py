import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from mmood.config import load_config
from mmood.corpus import load_corpus
from mmood.errors import InsufficientDataError, NumericalError, ParameterError
from mmood.heads import CosineHead
from mmood.oodgen import OodGenConfig
from mmood.numerics import (
    NORM_EPS,
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
    softmax_backward,
    unit_rows,
    unit_rows_backward,
)
from mmood.scoring import fit_class_stats
from mmood.train import train
from conftest import built, class_covariances, split
from oracles import (
    CosineHeadOracle,
    contrastive_unit_backward_oracle,
    contrastive_unit_oracle,
    energy_oracle,
    normalize_rows_oracle,
    softmax_backward_oracle,
    softmax_last_oracle,
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
        # dirichlet_sample trusts the pseudo-OOD config that holds alpha and k
        with pytest.raises(ParameterError):
            OodGenConfig(alpha=alpha, mix_count=k)


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

    def test_last_axis_per_row(self):
        x = make_rng(6).normal(size=(5, 4)) * 30
        out = logsumexp(x)
        assert out.shape == (5,)
        assert all(out[i] == logsumexp(row) for i, row in enumerate(x))

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ParameterError, match="logsumexp of an empty"):
            logsumexp(np.zeros((3, 0)))


class TestL2Normalize:
    def test_three_four(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit(self):
        v = l2_normalize(make_rng(3).normal(size=7))
        assert np.allclose(l2_normalize(v), v, atol=1e-12)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_zero_guard(self):
        assert np.array_equal(l2_normalize(np.zeros(5)), np.zeros(5))

    def test_rows_normalised_independently(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
        assert np.array_equal(l2_normalize(x), [[0.6, 0.8], [0.0, 0.0],
                                                [0.0, -1.0]])


def _feature_rows(rng, n, d):
    """Random rows at mixed scales plus a zero row, a row whose norm is
    exactly NORM_EPS and rows just above it."""
    x = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3, size=(n, 1))
    x[0] = 0.0
    x[1] = 0.0
    x[1, d // 2] = NORM_EPS
    x[2] = 0.0
    x[2, 0] = -2 * NORM_EPS
    x[3] = NORM_EPS  # norm sqrt(d) * NORM_EPS, live
    assert np.linalg.norm(x[1]) == NORM_EPS and np.sqrt(x[1] @ x[1]) == NORM_EPS
    return x


FEATURE_SHAPES = [(64, 16), (32, 64), (48, 7), (4, 16, 8)]


class TestSharedFormulasMatchFormerCopies:
    """Each shared formula gives the bits of the copies it replaced."""

    # every row length from 2 to 129, each at row counts either side of the
    # 384 rows from which lengths 2 to 32 go key-axis first; a numpy whose
    # add.reduce sums in another order fails here
    @pytest.mark.parametrize("shape", [
        (32, 4, 7, 7), (32, 2, 11, 11), (32, 3), (300, 3),
        (256, 4, 7, 7), (256, 4, 8, 8), (256, 4, 10, 10), (12000, 3),
        *[(rows, n) for n in range(2, 130) for rows in (383, 384)],
        *[(2, 4, 48, n) for n in (8, 10, 16, 17, 31, 32, 33, 127, 128, 129)]])
    def test_softmax_and_backward(self, shape):
        rng = make_rng(20)
        x = rng.normal(size=shape) * 5.0
        g = rng.normal(size=shape)
        p = softmax(x)
        assert np.array_equal(p, softmax_last_oracle(x))
        assert np.array_equal(softmax_backward(g, p),
                              softmax_backward_oracle(g, p))

    def test_logsumexp_is_former_energy(self):
        logits = make_rng(21).normal(size=(500, 7)) * 20
        assert np.array_equal(logsumexp(logits), energy_oracle(logits))

    @pytest.mark.parametrize("shape", FEATURE_SHAPES)
    def test_l2_normalize_is_former_row_loop(self, shape):
        rows = _feature_rows(make_rng(22), int(np.prod(shape[:-1])), shape[-1])
        expected = normalize_rows_oracle(rows).reshape(shape)
        assert np.array_equal(l2_normalize(rows.reshape(shape)), expected)

    @pytest.mark.parametrize("shape", FEATURE_SHAPES[:3])
    def test_unit_rows_is_former_contrastive_normalisation(self, shape):
        rng = make_rng(24)
        views = _feature_rows(rng, *shape)
        g_u = rng.normal(size=shape)
        u, norms, live = unit_rows(views)
        u_ref, norms_ref, live_ref = contrastive_unit_oracle(views)
        assert np.array_equal(u, u_ref) and np.array_equal(live, live_ref)
        assert not live[:2].any() and live[2:].all()
        assert np.array_equal(norms, np.maximum(norms_ref, NORM_EPS))
        assert np.array_equal(
            unit_rows_backward(g_u, u, norms, live),
            contrastive_unit_backward_oracle(g_u, u_ref, norms_ref, live_ref))

    @pytest.mark.parametrize("n, d, k", [(64, 16, 3), (32, 64, 5), (8, 7, 2)])
    def test_cosine_head_is_former_head(self, n, d, k):
        rng = make_rng(25)
        head = built(CosineHead("h", d, k, 16.0), rng)
        ref = CosineHeadOracle(head)
        z = _feature_rows(rng, n, d)
        g = rng.normal(size=(n, k))
        logits, cache = head.forward(z)
        ref_logits, ref_cache = ref.forward(z)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(head.backward(g, cache),
                              ref.backward(g, ref_cache))
        assert np.array_equal(head.W.grad, ref.W.grad)

    def test_cosine_head_dead_weight_row_is_zero(self):
        rng = make_rng(26)
        head = built(CosineHead("h", 6, 3, 16.0), rng)
        head.W.value[1] = 0.0
        head.W.value[2] = 0.0
        head.W.value[2, 0] = NORM_EPS
        z = rng.normal(size=(5, 6))
        logits, cache = head.forward(z)
        head.backward(rng.normal(size=(5, 3)), cache)
        assert np.array_equal(logits[:, 1:], np.zeros((5, 2)))
        assert np.all(logits[:, 0] != 0)
        assert np.array_equal(head.W.grad[1:], np.zeros((2, 6)))
        assert np.all(head.W.grad[0] != 0)


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
        got = regularized_inverse(np.eye(3), eps=eps)
        assert np.allclose(got, np.eye(3) / (1.0 + eps), atol=1e-12)

    def test_diagonal(self):
        got = regularized_inverse(np.diag([2.0, 4.0]), eps=0.0)
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-5)

    def test_singular_rank_one(self):
        v = np.array([[1.0, 2.0, 3.0]])
        m = v.T @ v
        got = regularized_inverse(m, eps=default_reg_eps(m))
        assert np.all(np.isfinite(got))

    def test_scale_aware_default(self):
        assert default_reg_eps(np.diag([2.0, 4.0])) == pytest.approx(3e-6)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            regularized_inverse([[1.0, 2.0], [0.0, 1.0]], eps=1e-6)

    def test_unfixable_matrix_raises(self):
        bad = -1e12 * np.eye(2)
        with pytest.raises(NumericalError):
            regularized_inverse(bad, eps=1e-6)


def _cholesky_oracle(shifted):
    """scipy's Cholesky solve against I, symmetrized as the package does."""
    from scipy.linalg import cho_factor, cho_solve

    inv = cho_solve(cho_factor(shifted, lower=True), np.eye(len(shifted)))
    return (inv + inv.T) / 2.0


def _spd(rng, d, cond):
    """A random SPD matrix with condition number ``cond`` at a random scale."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    m = (q * np.logspace(0.0, -np.log10(cond), d)) @ q.T * 10 ** rng.uniform(-3, 3)
    return (m + m.T) / 2.0


class TestRegularizedInverseOracle:
    """numpy's Cholesky inverse against scipy's ``cho_factor``/``cho_solve``."""

    @pytest.mark.parametrize("d", [2, 16, 64])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("shift", ["zero", "default"])
    def test_matches_scipy(self, d, cond, shift):
        rng = make_rng(d + int(np.log10(cond)))
        for _ in range(5):
            m = _spd(rng, d, cond)
            eps = 0.0 if shift == "zero" else default_reg_eps(m)
            shifted = m + eps * np.eye(d)
            inv = regularized_inverse(m, eps)
            want = _cholesky_oracle(shifted)
            assert np.abs(inv - want).max() <= 1e-8 * np.abs(want).max()
            assert np.array_equal(inv, inv.T)
            assert np.allclose(shifted @ inv, np.eye(d), rtol=0.0,
                               atol=max(1e-13, 1e-15 * np.linalg.cond(shifted)))

    def test_class_precisions_match_scipy(self, micro):
        cfg = load_config(micro["cfg"])
        corpus = load_corpus(micro["corpus"])
        trained = train(corpus, cfg.train, cfg.oodgen)
        labels = split(corpus, "train").labels
        stats = fit_class_stats(trained.train_features, labels,
                                corpus.num_classes, eps=cfg.train.cov_eps)
        _, covs, shifts = class_covariances(trained.train_features, labels,
                                            corpus.num_classes,
                                            eps=cfg.train.cov_eps)
        for cov, eps, got in zip(covs, shifts, stats.precisions):
            want = _cholesky_oracle(cov + eps * np.eye(len(cov)))
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


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
