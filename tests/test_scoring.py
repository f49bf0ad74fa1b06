import math
import warnings

import numpy as np
import pytest

from mmood.errors import (
    InsufficientDataError,
    NumericalError,
    ParameterError,
)
from mmood.metrics import aupr, fpr95_der, roc_auroc
from mmood.numerics import default_reg_eps, make_rng, regularized_inverse
from mmood.scoring import (
    SCORERS,
    apply_scorer,
    check_class_counts,
    fit_class_stats,
    fit_residual,
    fit_scorer,
    fit_vim,
    normalize_scores,
    residual_magnitude,
    score_energy,
    score_mahalanobis,
    score_maxlogit,
    score_msp,
    score_residual,
    score_vim,
)


def gaussian_features(rng, n, dim, num_classes, spread=4.0):
    means = rng.normal(size=(num_classes, dim)) * spread
    labels = rng.integers(0, num_classes, size=n)
    feats = means[labels] + rng.normal(size=(n, dim))
    return feats, labels


class TestClassStats:
    def test_identical_features(self):
        feats = np.vstack([np.full((3, 2), 1.5), np.zeros((3, 2))])
        labels = [0, 0, 0, 1, 1, 1]
        stats = fit_class_stats(feats, labels, 2)
        assert np.allclose(stats.means[0], [1.5, 1.5])
        assert np.allclose(stats.covs[0], 0.0)
        assert stats.counts.tolist() == [3, 3]

    def test_hand_case(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [5.0, 7.0]])
        stats = fit_class_stats(feats, [0, 0, 1, 1], 2)
        assert np.allclose(stats.means[0], [1.0, 0.0])
        assert np.allclose(stats.covs[0], [[2.0, 0.0], [0.0, 0.0]])

    def test_one_pair_per_class(self):
        rng = make_rng(0)
        feats, labels = gaussian_features(rng, 40, 3, 4)
        stats = fit_class_stats(feats, labels, 4)
        assert stats.means.shape == (4, 3)
        assert stats.covs.shape == (4, 3, 3)

    def test_small_class_rejected_by_name(self):
        feats = np.zeros((3, 2))
        with pytest.raises(InsufficientDataError, match="class 1"):
            fit_class_stats(feats, [0, 0, 1], 2)

    @pytest.mark.parametrize("labels, num_classes, message", [
        ([0, 0, 2, 2], 3, "class 1 has 0 "),
        ([1, 0, 1, 2, 0], 3, "class 2 has 1 "),
        ([0, 0, 1, 1], 10**12, "class 2 has 0 "),  # nothing K-sized is built
        ([], 2, "class 0 has 0 "),
    ])
    def test_first_short_class_named(self, labels, num_classes, message):
        with pytest.raises(InsufficientDataError, match=message):
            check_class_counts(np.array(labels, dtype=int), num_classes)

    def test_default_eps_is_scale_aware(self):
        # covariances near 1e4 * I: the default 1e-6 * trace / dim is ~1e-2
        feats, labels = gaussian_features(make_rng(7), 60, 3, 2)
        stats = fit_class_stats(feats * 100.0, labels, 2)
        for k in range(2):
            eps = default_reg_eps(stats.covs[k])
            assert eps > 1e-3
            assert stats.eps[k] == eps
            assert np.array_equal(stats.precisions[k],
                                  regularized_inverse(stats.covs[k], eps))

    def test_cov_eps_override(self):
        feats, labels = gaussian_features(make_rng(8), 60, 3, 2)
        stats = fit_class_stats(feats, labels, 2, eps=0.5)
        assert stats.eps.tolist() == [0.5, 0.5]
        for k in range(2):
            expected = np.linalg.inv(stats.covs[k] + 0.5 * np.eye(3))
            assert np.allclose(stats.precisions[k], expected, atol=1e-12)

    @pytest.mark.parametrize("scale, eps", [(1e-4, None), (1.0, 0.0),
                                            (1.0, 1e-9)])
    def test_eps_floor(self, scale, eps):
        # the default at 1e-4 scale is ~1e-14, and overrides below 1e-6
        # are raised to it too
        feats, labels = gaussian_features(make_rng(9), 60, 3, 2)
        stats = fit_class_stats(feats * scale, labels, 2, eps=eps)
        assert stats.eps.tolist() == [1e-6, 1e-6]
        for k in range(2):
            assert np.array_equal(stats.precisions[k],
                                  regularized_inverse(stats.covs[k], 1e-6))


class TestMahalanobis:
    def test_score_zero_at_class_means(self):
        rng = make_rng(1)
        feats, labels = gaussian_features(rng, 60, 4, 3)
        stats = fit_class_stats(feats, labels, 3)
        for k in range(3):
            assert abs(score_mahalanobis(stats.means[k][None], stats)[0]) <= 1e-8

    def test_identity_covariance_distance(self):
        # exact identity covariances: distance is the squared Euclidean norm
        from mmood.scoring import ClassStats
        eps = 1e-6
        means = np.array([[10.0, 0.0], [-10.0, 0.0]])
        covs = np.stack([np.eye(2), np.eye(2)])
        stats = ClassStats(
            means=means, covs=covs, counts=np.array([5, 5]),
            eps=np.array([eps, eps]),
            precisions=np.stack([np.eye(2) / (1 + eps)] * 2),
        )
        z = means[0] + np.array([2.0, 0.0])
        assert score_mahalanobis(z[None], stats)[0] == pytest.approx(-4.0, abs=1e-5)

    def test_matches_dense_loop_oracle(self):
        rng = make_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            feats, labels = gaussian_features(rng, int(rng.integers(20, 50)),
                                              dim, 3)
            stats = fit_class_stats(feats, labels, 3)
            z = rng.normal(size=dim)
            dists = []
            for k in range(3):
                cov = stats.covs[k] + stats.eps[k] * np.eye(dim)
                delta = z - stats.means[k]
                dists.append(float(delta @ np.linalg.inv(cov) @ delta))
            assert score_mahalanobis(z[None], stats)[0] == pytest.approx(
                -min(dists), abs=1e-8)

    def test_score_is_nonpositive(self):
        rng = make_rng(4)
        feats, labels = gaussian_features(rng, 80, 5, 3)
        stats = fit_class_stats(feats, labels, 3)
        scores = score_mahalanobis(rng.normal(size=(50, 5)), stats)
        assert np.all(scores <= 0)


class TestLogitScores:
    def test_msp_uniform(self):
        assert score_msp(np.zeros(4)[None])[0] == pytest.approx(0.25, abs=1e-15)

    def test_maxlogit_and_energy_bounds(self):
        logits = np.array([16.0, 0.0, 0.0])
        assert score_maxlogit(logits[None])[0] == 16.0
        energy = score_energy(logits[None])[0]
        assert 16.0 < energy < 16.0 + math.log(3.0)

    def test_msp_closed_form(self):
        logits = np.array([2.0, 1.0, 0.0])
        expected = math.exp(2) / (math.exp(2) + math.exp(1) + 1.0)
        assert score_msp(logits[None])[0] == pytest.approx(expected, abs=1e-14)

    def test_energy_is_logsumexp(self):
        rng = make_rng(5)
        logits = rng.normal(size=(7, 4))
        expected = np.log(np.exp(logits).sum(axis=1))
        assert np.allclose(score_energy(logits), expected, atol=1e-12)


class TestResidual:
    def _fitted(self, rng, n=60, dim=5, k=2):
        feats = rng.normal(size=(n, dim)) @ np.diag([3.0, 2.5, 0.3, 0.2, 0.1])
        return feats, fit_residual(feats, k)

    def test_training_mean_scores_zero(self):
        rng = make_rng(6)
        feats, state = self._fitted(rng)
        # the (normalized-space) mean has zero centered component
        norm_feats = np.stack([f / np.linalg.norm(f) for f in feats])
        mean = norm_feats.mean(axis=0)
        # a vector whose normalization equals the mean direction scores ~ -|mean_perp|
        z = state.mean
        mag = residual_magnitude((z / np.linalg.norm(z))[None], state)[0]
        centered = state.mean / np.linalg.norm(state.mean) - state.mean
        proj = state.basis @ (state.basis.T @ centered)
        assert mag == pytest.approx(float(np.linalg.norm(centered - proj)),
                                    abs=1e-10)

    def test_in_span_scores_zero(self):
        # build a unit vector whose centered component lies inside span(B):
        # v = mean + t*B*d with ||v|| = 1 (t from the quadratic formula)
        rng = make_rng(7)
        _, state = self._fitted(rng)
        d = state.basis @ np.array([0.6, 0.8])
        m2 = float(state.mean @ state.mean)
        md = float(state.mean @ d)
        assert m2 < 1.0  # mean of distinct unit vectors is strictly inside
        t = -md + math.sqrt(md * md + (1.0 - m2))
        v = state.mean + t * d
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert residual_magnitude(v[None], state)[0] <= 1e-8

    def test_matches_dense_eig_oracle(self):
        rng = make_rng(8)
        for _ in range(10):
            feats = rng.normal(size=(40, 5))
            state = fit_residual(feats, 2)
            norm = np.stack([f / np.linalg.norm(f) for f in feats])
            centered = norm - norm.mean(axis=0)
            cov = centered.T @ centered / (len(feats) - 1)
            vals, vecs = np.linalg.eig((cov + cov.T) / 2)
            order = np.argsort(vals.real)[::-1][:2]
            basis = vecs[:, order].real
            q, _ = np.linalg.qr(basis)
            z = rng.normal(size=5)
            z_n = z / np.linalg.norm(z)
            c = z_n - norm.mean(axis=0)
            expected = np.linalg.norm(c - q @ (q.T @ c))
            assert residual_magnitude(z[None], state)[0] == pytest.approx(
                expected, abs=1e-8)

    def test_scale_invariance(self):
        rng = make_rng(9)
        feats, state = self._fitted(rng)
        z = rng.normal(size=5)
        assert score_residual(z[None], state)[0] == pytest.approx(
            score_residual((17.0 * z)[None], state)[0], abs=1e-12)

    def test_degenerate_subspace_flagged(self):
        rng = make_rng(10)
        feats = rng.normal(size=(30, 3))
        state = fit_residual(feats, 3)
        assert state.degenerate
        assert residual_magnitude(rng.normal(size=3)[None], state)[0] <= 1e-10


class TestVim:
    def test_alpha_ratio_of_constants(self):
        rng = make_rng(11)
        feats = rng.normal(size=(30, 4))
        state = fit_residual(feats, 2)
        mags = residual_magnitude(feats, state)
        logits = np.tile([3.0, 1.0], (30, 1))
        # all max logits are 3.0
        vim = fit_vim(feats, logits, state)
        assert vim.alpha == pytest.approx(3.0 / float(np.mean(mags)), rel=1e-12)

    def test_closed_form_score(self):
        rng = make_rng(12)
        feats = rng.normal(size=(30, 4))
        state = fit_residual(feats, 2)
        vim = fit_vim(feats, np.tile([2.0, 1.0], (30, 1)), state)
        z = rng.normal(size=4)
        v = vim.alpha * residual_magnitude(z[None], state)[0]
        expected = -math.exp(v) / (math.exp(2) + math.exp(1) + math.exp(v))
        assert score_vim(z[None], np.array([2.0, 1.0])[None], vim)[0] \
            == pytest.approx(expected, abs=1e-12)

    def test_zero_residual_gives_zero_virtual_logit(self):
        rng = make_rng(13)
        feats = rng.normal(size=(30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = fit_residual(feats, 3)  # degenerate: residuals all zero
        with pytest.raises(NumericalError):
            fit_vim(feats, np.ones((30, 2)), state)

    def test_zero_residual_score_path(self):
        rng = make_rng(14)
        feats = rng.normal(size=(40, 4))
        state = fit_residual(feats, 2)
        vim = fit_vim(feats, rng.normal(size=(40, 3)), state)
        # force residual 0 by scoring a point whose normalized form lands
        # exactly at mean + span(B): virtual logit 0 among the real logits
        logits = np.array([1.0, 2.0, 0.5])
        z = state.mean
        mag = residual_magnitude(z[None], state)[0]
        v = vim.alpha * mag
        probs = np.exp(np.append(logits, v))
        expected = -(probs[-1] / probs.sum())
        assert score_vim(z[None], logits[None], vim)[0] == pytest.approx(
            expected, abs=1e-12)


class TestNormalize:
    def test_simple(self):
        assert np.allclose(normalize_scores([1.0, 2.0, 3.0]), [0.0, 0.5, 1.0])

    def test_identity_on_unit_span(self):
        s = np.array([0.0, 0.25, 1.0])
        assert np.array_equal(normalize_scores(s), s)

    def test_constant_convention(self):
        assert np.array_equal(normalize_scores([4.0, 4.0, 4.0]),
                              [0.5, 0.5, 0.5])

    def test_order_preserved(self):
        rng = make_rng(15)
        s = rng.normal(size=30)
        assert np.array_equal(np.argsort(normalize_scores(s)), np.argsort(s))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            normalize_scores([])


class TestScorerBank:
    @pytest.fixture()
    def fitted(self, separable_pipeline):
        trained = separable_pipeline["trained"]
        feats = separable_pipeline["test_features"]
        logits = separable_pipeline["test_logits"]
        flags = separable_pipeline["test_is_id"]
        return {
            "train_feats": trained.train_features,
            "train_logits": trained.model.logits_for(trained.train_features),
            "stats": trained.class_stats,
            "id_feats": feats[flags], "id_logits": logits[flags],
            "ood_feats": feats[~flags], "ood_logits": logits[~flags],
        }

    @pytest.mark.parametrize("variant", SCORERS)
    def test_directional_sanity(self, fitted, variant):
        state = fit_scorer(variant, fitted["train_feats"],
                           fitted["train_logits"], fitted["stats"], 3)
        s_id = apply_scorer(state, fitted["id_feats"], fitted["id_logits"])
        s_ood = apply_scorer(state, fitted["ood_feats"], fitted["ood_logits"])
        assert s_id.mean() > s_ood.mean(), variant

    @pytest.mark.parametrize("variant", SCORERS)
    def test_monotone_transform_leaves_rank_metrics(self, fitted, variant):
        state = fit_scorer(variant, fitted["train_feats"],
                           fitted["train_logits"], fitted["stats"], 3)
        s_id = apply_scorer(state, fitted["id_feats"], fitted["id_logits"])
        s_ood = apply_scorer(state, fitted["ood_feats"], fitted["ood_logits"])
        scores = np.concatenate([s_id, s_ood])
        flags = np.array([True] * len(s_id) + [False] * len(s_ood))
        transformed = 2.0 * scores + 7.0
        assert roc_auroc(scores, flags)[1] == roc_auroc(transformed, flags)[1]
        assert aupr(scores, flags, "ID") == aupr(transformed, flags, "ID")
        assert aupr(scores, flags, "OOD") == aupr(transformed, flags, "OOD")
        assert fpr95_der(scores, flags) == fpr95_der(transformed, flags)

    def test_unknown_variant(self, fitted):
        with pytest.raises(ParameterError):
            fit_scorer("knn", fitted["train_feats"], fitted["train_logits"],
                       fitted["stats"], 3)
