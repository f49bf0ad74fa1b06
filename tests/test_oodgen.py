import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood import oodgen
from mmood.corpus import MODALITIES, OOD_LABEL, Corpus, CorpusMeta
from mmood.errors import GenerationError, ParameterError
from mmood.numerics import make_rng
from mmood.oodgen import OodGenConfig, build_mixed_batch, sample_pseudo_ood

from oracles import mix_loop_oracle

SHAPES = {"T": (3, 4), "V": (2, 5), "A": (4, 2)}


def make_records(labels, rng):
    """A train-split Corpus, one row per label, drawn record by record."""
    draws = [{m: rng.normal(size=SHAPES[m]) for m in MODALITIES} for _ in labels]
    return Corpus(
        meta=CorpusMeta(num_classes=3, shapes=SHAPES),
        ids=np.array([f"r{i}" for i in range(len(labels))]),
        splits=np.full(len(labels), "train"),
        labels=np.array(labels),
        seqs={m: np.stack([d[m] for d in draws]) for m in MODALITIES},
    )


def modality_lams(s):
    """Per-modality (n, k) weights of a PseudoBatch, shared or not."""
    return dict(zip(MODALITIES, np.broadcast_to(s.lams, (3, *s.sources.shape))))


def check_rows(records, s, k):
    """Per row: distinct sources, >= 2 classes, simplex weights, convexity."""
    n = len(s.sources)
    assert s.sources.shape == (n, k)
    assert all(s.seqs[m].shape == (n, *SHAPES[m]) for m in MODALITIES)
    lams = modality_lams(s)
    for r in range(n):
        idx = s.sources[r]
        assert len(set(idx.tolist())) == k
        assert len(set(records.labels[idx].tolist())) >= 2
        for m in MODALITIES:
            lam = lams[m][r]
            assert abs(lam.sum() - 1.0) < 1e-12
            assert np.all(lam >= 0)
            stack = records.seqs[m][idx]
            assert np.all(s.seqs[m][r] >= stack.min(axis=0) - 1e-9)
            assert np.all(s.seqs[m][r] <= stack.max(axis=0) + 1e-9)


def fixed_weights(monkeypatch, lam):
    """Make every Dirichlet draw in oodgen return the weight vector ``lam``."""
    monkeypatch.setattr(oodgen, "dirichlet_sample",
                        lambda alpha, shape, rng: np.broadcast_to(
                            np.asarray(lam, dtype=float), shape).copy())


class TestMix:
    """The batched einsum mix against the sequential loop oracle."""

    def test_endpoint_lambda_returns_source(self, monkeypatch):
        rng = make_rng(0)
        records = make_records([0, 1, 2], rng)
        seqs = list(records.seqs["T"])
        assert np.array_equal(mix_loop_oracle(seqs, [1.0, 0.0, 0.0]), seqs[0])
        fixed_weights(monkeypatch, [1.0, 0.0, 0.0])
        s = sample_pseudo_ood(records, OodGenConfig(mix_count=3), make_rng(1), 4)
        for m in MODALITIES:
            assert np.array_equal(s.seqs[m], records.seqs[m][s.sources[:, 0]])

    def test_midpoint(self, monkeypatch):
        a = np.full((1, 1), 2.0)
        b = np.full((1, 1), 4.0)
        assert mix_loop_oracle([a, b], [0.5, 0.5])[0, 0] == 3.0
        shapes = {m: (1, 1) for m in MODALITIES}
        records = Corpus(
            meta=CorpusMeta(num_classes=3, shapes=shapes),
            ids=np.array(["a", "b"]), splits=np.full(2, "train"),
            labels=np.array([0, 1]),
            seqs={m: np.stack([a, b]) for m in MODALITIES},
        )
        fixed_weights(monkeypatch, [0.5, 0.5])
        s = sample_pseudo_ood(records, OodGenConfig(mix_count=2), make_rng(2), 3)
        for m in MODALITIES:
            assert np.all(s.seqs[m] == 3.0)

    def test_matches_direct_recomputation(self):
        rng = make_rng(1)
        records = make_records([0, 1, 2, 0, 1], rng)
        for share in (True, False):
            cfg = OodGenConfig(mix_count=3, alpha=0.7, share_lambda=share)
            s = sample_pseudo_ood(records, cfg, make_rng(42), 20)
            lams = modality_lams(s)
            for m in MODALITIES:
                for r, idx in enumerate(s.sources):
                    expected = mix_loop_oracle(records.seqs[m][idx], lams[m][r])
                    assert np.allclose(s.seqs[m][r], expected, rtol=0,
                                       atol=1e-12)


class TestSamplePseudoOod:
    def test_constraints_hold_over_many_draws(self):
        rng = make_rng(2)
        records = make_records([0, 0, 1, 1, 2, 2, 0, 1], rng)
        cfg = OodGenConfig(mix_count=3, alpha=2.0)
        check_rows(records, sample_pseudo_ood(records, cfg, make_rng(3), 500), 3)

    def test_shared_lambda_across_modalities(self):
        rng = make_rng(4)
        records = make_records([0, 1, 2, 0], rng)
        s = sample_pseudo_ood(records, OodGenConfig(mix_count=3), make_rng(5), 6)
        assert s.lams.shape == (6, 3)

    def test_per_modality_lambda_option(self):
        rng = make_rng(6)
        records = make_records([0, 1, 2, 0], rng)
        cfg = OodGenConfig(mix_count=3, share_lambda=False)
        s = sample_pseudo_ood(records, cfg, make_rng(7), 6)
        assert s.lams.shape == (3, 6, 3)
        assert not np.array_equal(s.lams[0], s.lams[1])
        assert np.all(np.abs(s.lams.sum(axis=-1) - 1.0) < 1e-12)

    def test_single_class_rejected(self):
        rng = make_rng(8)
        records = make_records([1, 1, 1, 1], rng)
        with pytest.raises(GenerationError):
            sample_pseudo_ood(records, OodGenConfig(), make_rng(9), 1)

    def test_mix_count_larger_than_batch(self):
        rng = make_rng(10)
        records = make_records([0, 1], rng)
        with pytest.raises(ParameterError):
            sample_pseudo_ood(records, OodGenConfig(mix_count=3), make_rng(11), 1)

    def test_max_resample_exhaustion(self):
        # a 9:1 class skew makes each row's k=2 draw same-class with p=0.8,
        # so with one round per row some of 8 rows fail (p = 1 - 0.2**8)
        rng = make_rng(18)
        records = make_records([0] * 9 + [1], rng)
        cfg = OodGenConfig(mix_count=2, max_resample=1)
        with pytest.raises(GenerationError, match="resample"):
            sample_pseudo_ood(records, cfg, make_rng(0), 8)
        # the cap counts rounds per row: a 1,000-row draw on the same pool
        # succeeds, where one all-rows round would pass with p = 0.2**1000
        s = sample_pseudo_ood(records, OodGenConfig(mix_count=2), make_rng(0),
                              1000)
        check_rows(records, s, 2)
        assert (records.labels[s.sources] == 1).any(axis=1).all()


class TestMixedBatch:
    def test_balanced_flags(self):
        rng = make_rng(12)
        records = make_records([0, 1, 2, 0], rng)
        batch = build_mixed_batch(records, OodGenConfig(mix_count=3), make_rng(13))
        assert batch.size == 8
        assert batch.binary.sum() == 4
        assert (batch.labels[batch.binary == 0] == OOD_LABEL).all()
        assert (batch.labels[batch.binary == 1] >= 0).all()

    def test_deterministic(self):
        rng = make_rng(14)
        records = make_records([0, 1, 2, 1], rng)
        a = build_mixed_batch(records, OodGenConfig(), make_rng(15))
        b = build_mixed_batch(records, OodGenConfig(), make_rng(15))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.binary, b.binary)
        for m in MODALITIES:
            assert np.array_equal(a.seqs[m], b.seqs[m])

    def test_single_class_half_rejected(self):
        rng = make_rng(16)
        records = make_records([2, 2, 2], rng)
        with pytest.raises(GenerationError):
            build_mixed_batch(records, OodGenConfig(), make_rng(17))


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"mix_count": 1}, {"alpha": 0.0}, {"alpha": -2.0}, {"max_resample": 0},
    ])
    def test_bad_config(self, kw):
        with pytest.raises(ParameterError):
            OodGenConfig(**kw)


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.1, max_value=10.0),
       st.integers(min_value=0, max_value=10_000),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_convexity_property(n, k, alpha, seed, share):
    rng = make_rng(seed)
    labels = [i % 3 for i in range(max(k, 4))]
    records = make_records(labels, rng)
    cfg = OodGenConfig(mix_count=k, alpha=alpha, share_lambda=share)
    s = sample_pseudo_ood(records, cfg, make_rng(seed + 1), n)
    check_rows(records, s, k)
    if not share:
        lams = modality_lams(s)
        for r in range(n):
            assert not np.array_equal(lams["T"][r], lams["V"][r])
            assert not np.array_equal(lams["V"][r], lams["A"][r])
