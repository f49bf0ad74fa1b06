import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood.errors import MetricError, ParameterError
from mmood.metrics import (
    aupr,
    confusion_matrix,
    fpr95_der,
    id_metrics,
    ood_metrics,
    roc_auroc,
)
from mmood.numerics import make_rng


from oracles import (
    aupr_enumeration_oracle,
    auroc_pair_oracle,
    fpr95_scan_oracle,
)


def random_case(rng, max_n=50, ties=False):
    n = int(rng.integers(4, max_n))
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 1)
    flags = rng.integers(0, 2, size=n).astype(bool)
    if flags.all():
        flags[0] = False
    if not flags.any():
        flags[0] = True
    return scores, flags


# -- ID metrics ---------------------------------------------------------------


class TestIdMetrics:
    def test_perfect_predictions_all_ones(self):
        golds = [0, 1, 2, 1, 0, 2, 2]
        m = id_metrics(golds, golds, 3)
        for value in (m.acc, m.precision, m.recall, m.f1, m.wp, m.wf1):
            assert value == 1.0
        assert m.per_class_acc == [1.0, 1.0, 1.0]

    def test_hand_confusion_case(self):
        preds = [0, 0, 1, 1]
        golds = [0, 1, 1, 1]
        m = id_metrics(preds, golds, 2)
        assert m.acc == 0.75
        assert m.precision == pytest.approx(0.75)        # (1/2 + 1) / 2
        assert m.recall == pytest.approx(5 / 6)          # (1 + 2/3) / 2
        f1_0 = 2 * 0.5 * 1.0 / 1.5
        f1_1 = 2 * 1.0 * (2 / 3) / (1.0 + 2 / 3)
        assert m.wf1 == pytest.approx(0.25 * f1_0 + 0.75 * f1_1)
        assert m.wp == pytest.approx(0.25 * 0.5 + 0.75 * 1.0)
        assert np.array_equal(m.confusion, [[1, 0], [1, 2]])

    def test_balanced_supports_wf1_equals_mean_f1(self):
        preds = [0, 1, 1, 0]
        golds = [0, 0, 1, 1]
        m = id_metrics(preds, golds, 2)
        f1_c = []
        for k in range(2):
            tp = sum(1 for p, g in zip(preds, golds) if p == g == k)
            fp = sum(1 for p, g in zip(preds, golds) if p == k and g != k)
            fn = sum(1 for p, g in zip(preds, golds) if p != k and g == k)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1_c.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert m.wf1 == pytest.approx(sum(f1_c) / 2)

    def test_missing_class_contributes_zero(self):
        # class 2 never predicted and never gold: P=R=0 for it
        m = id_metrics([0, 1], [0, 1], 3)
        assert m.precision == pytest.approx(2 / 3)
        assert m.per_class_acc[2] == 0.0

    def test_swap_changes_acc_by_quantum(self):
        golds = [0, 1, 2, 0, 1, 2]
        preds = list(golds)
        base = id_metrics(preds, golds, 3).acc
        preds[0], preds[1] = preds[1], preds[0]
        swapped = id_metrics(preds, golds, 3).acc
        assert base - swapped == pytest.approx(2 / 6)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            id_metrics([0, 1], [0], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            confusion_matrix([0, 3], [0, 1], 2)


# -- AUROC --------------------------------------------------------------------


class TestAuroc:
    def test_perfect_separation(self):
        scores = [3.0, 2.5, 2.0, 1.0, 0.5]
        flags = [True, True, True, False, False]
        _, auroc = roc_auroc(scores, flags)
        assert auroc == 1.0

    def test_all_tied_is_half(self):
        _, auroc = roc_auroc([1.0] * 6, [True, False] * 3)
        assert auroc == 0.5

    def test_one_inversion_matches_pair_oracle(self):
        scores = [6.0, 5.0, 3.0, 4.0, 2.0, 1.0]
        flags = [True, True, False, True, False, False]
        _, auroc = roc_auroc(scores, flags)
        assert auroc == auroc_pair_oracle(scores, flags)

    def test_matches_pair_oracle_with_ties(self):
        rng = make_rng(0)
        for _ in range(100):
            scores, flags = random_case(rng, ties=True)
            _, auroc = roc_auroc(scores, flags)
            assert auroc == pytest.approx(auroc_pair_oracle(scores, flags),
                                          abs=1e-12)

    def test_curve_endpoints(self):
        points, _ = roc_auroc([1.0, 2.0, 3.0], [True, False, True])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auroc([1.0, 2.0], [True, True])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_complement_identities(self, seed):
        rng = make_rng(seed)
        scores, flags = random_case(rng, ties=True)
        _, base = roc_auroc(scores, flags)
        _, negated = roc_auroc(-scores, flags)
        _, swapped = roc_auroc(scores, ~flags)
        assert base + negated == pytest.approx(1.0, abs=1e-12)
        assert base + swapped == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = make_rng(seed)
        scores, flags = random_case(rng)
        perm = rng.permutation(len(scores))
        _, a = roc_auroc(scores, flags)
        _, b = roc_auroc(scores[perm], flags[perm])
        assert a == b


# -- AUPR ---------------------------------------------------------------------


class TestAupr:
    def test_perfect_separation_both_orientations(self):
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        flags = np.array([True, True, False, False])
        assert aupr(scores, flags, "ID") == 1.0
        assert aupr(scores, flags, "OOD") == 1.0

    def test_four_sample_hand_case(self):
        scores = np.array([4.0, 2.0, 3.0, 1.0])
        flags = np.array([True, True, False, False])
        for positive in ("ID", "OOD"):
            assert aupr(scores, flags, positive) == pytest.approx(
                aupr_enumeration_oracle(scores, flags, positive), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = make_rng(1)
        for _ in range(100):
            scores, flags = random_case(rng, ties=True)
            for positive in ("ID", "OOD"):
                assert aupr(scores, flags, positive) == pytest.approx(
                    aupr_enumeration_oracle(scores, flags, positive),
                    abs=1e-12)

    def test_random_scores_approach_prevalence(self):
        rng = make_rng(2)
        n, n_pos = 200, 60
        flags = np.array([True] * n_pos + [False] * (n - n_pos))
        values = []
        for _ in range(100):
            scores = rng.normal(size=n)
            values.append(aupr(scores, flags, "ID"))
        assert np.mean(values) == pytest.approx(n_pos / n, abs=0.05)

    def test_no_positives_rejected(self):
        with pytest.raises(MetricError):
            aupr([1.0, 2.0], [True, True], "OOD")

    def test_bad_positive_name(self):
        with pytest.raises(ParameterError):
            aupr([1.0, 2.0], [True, False], "id")


# -- FPR95 / DER --------------------------------------------------------------


class TestFpr95Der:
    def test_perfect_separation(self):
        scores = np.concatenate([np.linspace(2, 3, 40), np.linspace(0, 1, 20)])
        flags = np.array([True] * 40 + [False] * 20)
        fpr95, der = fpr95_der(scores, flags)
        assert fpr95 == 0.0
        assert der <= 0.025 + 1e-12

    def test_der_arithmetic_case(self):
        # TPR exactly 0.95 with FPR 0.5 at the qualifying threshold
        id_scores = np.array([1.0] * 19 + [0.0])
        ood_scores = np.array([1.0, -1.0])
        scores = np.concatenate([id_scores, ood_scores])
        flags = np.array([True] * 20 + [False] * 2)
        fpr95, der = fpr95_der(scores, flags)
        assert fpr95 == 0.5
        assert der == 0.275

    def test_matches_scan_oracle(self):
        rng = make_rng(3)
        for _ in range(100):
            n_id = int(rng.integers(20, 40))
            n_ood = int(rng.integers(2, 15))
            scores = np.concatenate([
                rng.normal(loc=1.0, size=n_id), rng.normal(size=n_ood)
            ])
            flags = np.array([True] * n_id + [False] * n_ood)
            expected = fpr95_scan_oracle(scores, flags)
            assert fpr95_der(scores, flags) == pytest.approx(expected,
                                                             abs=1e-12)

    def test_forty_sample_hand_case(self):
        rng = make_rng(4)
        scores = np.round(rng.normal(size=40), 1)
        flags = np.array([True] * 25 + [False] * 15)
        assert fpr95_der(scores, flags) == pytest.approx(
            fpr95_scan_oracle(scores, flags), abs=1e-12)

    def test_few_id_samples_warns(self):
        with pytest.warns(UserWarning, match="fewer than 20"):
            fpr95_der([1.0, 2.0, 0.5], [True, True, False])


class TestOodMetricsBundle:
    def test_bundle_consistency(self):
        rng = make_rng(5)
        scores = np.concatenate([rng.normal(2.0, 1.0, 50),
                                 rng.normal(0.0, 1.0, 30)])
        flags = np.array([True] * 50 + [False] * 30)
        bundle = ood_metrics(scores, flags)
        assert bundle.auroc == roc_auroc(scores, flags)[1]
        assert bundle.aupr_in == aupr(scores, flags, "ID")
        assert bundle.aupr_out == aupr(scores, flags, "OOD")
        assert (bundle.fpr95, bundle.der) == fpr95_der(scores, flags)
        for value in bundle.as_dict().values():
            assert 0.0 <= value <= 1.0

    def test_permutation_invariance_of_bundle(self):
        rng = make_rng(6)
        scores, flags = random_case(rng, max_n=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = ood_metrics(scores, flags)
            perm = rng.permutation(len(scores))
            b = ood_metrics(scores[perm], flags[perm])
        assert a == b


class TestBitIdentity:
    """Exact (``==``) agreement with the oracles at realistic sizes.

    ``metrics.csv`` writes every metric with ``repr``, so the last bits are
    part of the output; tie-heavy and float32-rounded scores exercise the
    grouped sweep.
    """

    @staticmethod
    def cases():
        rng = make_rng(7)
        for n in (300, 2000):
            for kind in ("ties", "coarse", "float32"):
                raw = rng.normal(size=n)
                if kind == "ties":
                    scores = np.round(raw, 1)
                elif kind == "coarse":
                    scores = rng.integers(0, 12, size=n).astype(float)
                else:
                    scores = raw.astype(np.float32).astype(np.float64)
                flags = rng.random(n) < rng.uniform(0.2, 0.8)
                yield scores + 0.5 * flags, flags

    def test_aupr_equals_enumeration_oracle(self):
        for scores, flags in self.cases():
            for positive in ("ID", "OOD"):
                assert aupr(scores, flags, positive) == \
                    aupr_enumeration_oracle(scores, flags, positive)

    def test_fpr95_der_equals_scan_oracle(self):
        for scores, flags in self.cases():
            assert fpr95_der(scores, flags) == fpr95_scan_oracle(scores, flags)

    def test_ood_metrics_permutation_invariant(self):
        rng = make_rng(8)
        for scores, flags in self.cases():
            perm = rng.permutation(len(scores))
            assert ood_metrics(scores, flags) == \
                ood_metrics(scores[perm], flags[perm])

    def test_nan_scores_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            ood_metrics([0.5, float("nan"), 0.1], [True, True, False])
