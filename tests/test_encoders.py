import tracemalloc

import numpy as np
import pytest

from mmood.config import load_config
from mmood.corpus import MODALITIES, Corpus, CorpusMeta, load_corpus
from mmood.encoders import ModalityEncoder, sinusoidal_positions
from mmood.errors import ParameterError
from mmood.layers import check_gradients
from mmood.model import FusionModel, ModelHyper
from mmood.numerics import make_rng
from mmood.train import ABLATION_VARIANTS, TrainConfig, variant_config
from conftest import built
from oracles import class_token_encoder_oracle


def encode(enc, seq):
    """One (L, d_in) sequence to a (d_out,) vector, eval mode."""
    y, _ = enc.forward_batch(np.asarray(seq, dtype=np.float64)[None, :, :])
    return y[0]


def pool_encoder(rng, d_in=6, d_out=4, positional=False):
    return built(ModalityEncoder("enc.V", d_in=d_in, d_out=d_out, n_heads=2,
                                 ffn_hidden=d_in, use_class_token=False,
                                 positional=positional), rng)


def cls_encoder(rng, d=6, n_heads=2, positional=False):
    return built(ModalityEncoder("enc.T", d_in=d, d_out=d, n_heads=n_heads,
                                 ffn_hidden=d, use_class_token=True,
                                 positional=positional), rng)


class TestShapes:
    def test_output_dim_shared_for_both_kinds(self):
        rng = make_rng(0)
        pool = pool_encoder(rng, d_in=6, d_out=4)
        cls = cls_encoder(make_rng(1), d=4)
        assert encode(pool, rng.normal(size=(5, 6))).shape == (4,)
        assert encode(cls, rng.normal(size=(3, 4))).shape == (4,)

    def test_class_token_needs_matching_dims(self):
        with pytest.raises(ParameterError):
            ModalityEncoder("enc.T", d_in=6, d_out=4, n_heads=2, ffn_hidden=6,
                            use_class_token=True)

    def test_wrong_input_dim_rejected(self):
        enc = pool_encoder(make_rng(3))
        with pytest.raises(ParameterError):
            encode(enc, np.zeros((4, 5)))


class TestZeroCases:
    def test_all_zero_params_give_zero_output(self):
        enc = pool_encoder(make_rng(4))
        for p in enc.params():
            p.value[...] = 0.0
        out = encode(enc, make_rng(5).normal(size=(4, 6)))
        assert np.array_equal(out, np.zeros(4))

    def test_zero_input_zero_biases_random_weights(self):
        # biases are zero-initialized, so with a zero sequence (and zero
        # class token) nothing can flow through the affine maps
        pool = pool_encoder(make_rng(20))
        assert np.array_equal(encode(pool, np.zeros((4, 6))), np.zeros(4))
        cls = cls_encoder(make_rng(21))
        cls.class_token.value[...] = 0.0
        assert np.array_equal(encode(cls, np.zeros((3, 6))), np.zeros(6))

    def test_cls_all_zero_params_and_input(self):
        enc = cls_encoder(make_rng(6))
        for p in enc.params():
            p.value[...] = 0.0
        out = encode(enc, np.zeros((3, 6)))
        assert np.array_equal(out, np.zeros(6))

    def test_length_one_sequence(self):
        # with a single timestep, mean pooling is the identity on it
        enc = pool_encoder(make_rng(7))
        seq = make_rng(8).normal(size=(1, 6))
        block_out, _ = enc.block.forward(seq[None])
        expected, _ = enc.out_proj.forward(block_out[0, 0])
        assert np.allclose(encode(enc, seq), expected, atol=1e-12)


class TestPermutation:
    def test_mean_pool_invariant_without_positions(self):
        enc = pool_encoder(make_rng(9))
        seq = make_rng(10).normal(size=(7, 6))
        perm = make_rng(11).permutation(7)
        assert np.allclose(encode(enc, seq), encode(enc, seq[perm]), atol=1e-10)

    def test_positional_encoding_breaks_invariance(self):
        enc = pool_encoder(make_rng(12), positional=True)
        seq = make_rng(13).normal(size=(7, 6))
        perm = np.roll(np.arange(7), 1)
        assert not np.allclose(encode(enc, seq), encode(enc, seq[perm]), atol=1e-6)

    def test_sinusoidal_shape_and_range(self):
        enc = sinusoidal_positions(10, 8)
        assert enc.shape == (10, 8)
        assert np.all(np.abs(enc) <= 1.0)


class TestDeterminism:
    def test_encode_is_deterministic(self):
        enc = pool_encoder(make_rng(14))
        seq = make_rng(15).normal(size=(5, 6))
        assert np.array_equal(encode(enc, seq), encode(enc, seq))


class TestGradients:
    @pytest.mark.parametrize("kind, positional, length", [
        ("pool", False, 3), ("cls", False, 3), ("cls", True, 3),
        ("cls", False, 1), ("cls", False, 5),
    ], ids=["pool", "cls", "cls-positional", "cls-length1", "cls-length5"])
    def test_param_gradients_match_finite_differences(self, kind, positional,
                                                      length):
        rng = make_rng(16)
        enc = pool_encoder(rng) if kind == "pool" \
            else cls_encoder(rng, d=6, positional=positional)
        d_out = enc.d_out
        x = make_rng(17).normal(size=(2, length, enc.d_in))
        probe = make_rng(18).normal(size=(2, d_out))

        def run(compute_grads):
            y, cache = enc.forward_batch(x)
            if compute_grads:
                enc.backward_batch(probe, cache)
            return float((y * probe).sum())

        assert check_gradients(run, enc.params()) == []


class TestClassTokenQueryRows:
    """The class-token readout computes its two query rows only; the former
    path ran the block over every row. Both give the same bits."""

    @staticmethod
    def make(batch, rows, d, seed):
        enc = cls_encoder(make_rng(seed), d=d, n_heads=4)
        x = make_rng(seed + 1).normal(size=(batch, rows - 1, d))
        return enc, x

    @pytest.mark.parametrize("rows, d", [(2, 8), (7, 16), (7, 64)])
    def test_output_and_gradients_equal_full_rows(self, rows, d):
        enc, x = self.make(32, rows, d, seed=30 + rows + d)
        g = make_rng(29).normal(size=(32, d))
        y, cache = enc.forward_batch(x)
        enc.backward_batch(g, cache)
        grads = [p.grad.copy() for p in enc.params()]
        for p in enc.params():
            p.zero_grad()
        assert np.array_equal(y, class_token_encoder_oracle(enc, x, g))
        assert all(np.array_equal(got, p.grad)
                   for got, p in zip(grads, enc.params()))
        assert np.any(enc.class_token.grad != 0.0)

    @pytest.mark.parametrize("batch", [1, 13, 256])
    def test_forward_equals_full_rows(self, batch):
        enc, x = self.make(batch, 7, 64, seed=40 + batch)
        y, _ = enc.forward_batch(x)
        assert np.array_equal(y, class_token_encoder_oracle(enc, x))


def test_features_read_float32_as_float64(micro):
    """``features_for`` widens the corpus's float32 chunks itself, so a
    caller's float64 copy of the corpus gives the same features."""
    cfg = load_config(micro["cfg"])
    corpus = load_corpus(micro["corpus"])
    wide = Corpus(corpus.meta, corpus.ids, corpus.splits, corpus.labels,
                  {m: s.astype(np.float64) for m, s in corpus.seqs.items()})
    model, rows = FusionModel(corpus.meta, cfg.train.model, seed=0), \
        np.arange(len(corpus))
    feats = model.features_for(corpus, rows)
    assert feats.dtype == np.float64
    assert np.array_equal(feats, model.features_for(wide, rows))


class TestCacheFreeForward:
    """With ``keep`` off an encoder returns the same output and no cache."""

    @pytest.mark.parametrize("kind", ["pool", "cls"])
    @pytest.mark.parametrize("positional", [False, True],
                             ids=["plain", "positional"])
    def test_same_output_no_cache(self, kind, positional):
        rng = make_rng(50)
        enc = pool_encoder(rng, positional=positional) if kind == "pool" \
            else cls_encoder(rng, positional=positional)
        x = make_rng(51).normal(size=(5, 4, enc.d_in))
        y, cache = enc.forward_batch(x)
        y_free, no_cache = enc.forward_batch(x, keep=False)
        assert cache is not None and no_cache is None
        assert np.array_equal(y_free, y)


# one 256-record chunk at ablate-wide's dims (perfbench's WIDE_INI)
WIDE_META = CorpusMeta(num_classes=4,
                       shapes={"T": (6, 64), "V": (8, 48), "A": (10, 32)})
WIDE_HYPER = ModelHyper(attn_heads=4, fusion_hidden=32)


def wide_chunk() -> Corpus:
    rng, n = make_rng(52), 256
    seqs = {m: rng.normal(size=(n, *WIDE_META.shapes[m])).astype(np.float32)
            for m in MODALITIES}
    return Corpus(WIDE_META, np.array([f"r{i}" for i in range(n)]),
                  np.full(n, "test"), rng.integers(0, 4, size=n), seqs)


@pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
def test_features_equal_cached_encoders_then_fusion(variant):
    """``features_for`` runs each encoder cache-free, one modality at a
    time; its features have the bits of ``encode_batch`` followed by an
    eval-mode fusion pass, as training's forward computes them."""
    hyper = variant_config(TrainConfig(model=WIDE_HYPER), variant).model
    model = FusionModel(WIDE_META, hyper, seed=0)
    corpus = wide_chunk()
    xs, _ = model.encode_batch({m: s.astype(np.float64)
                                for m, s in corpus.seqs.items()})
    z, _, _ = model.fusion.forward(xs, False, None)
    assert np.array_equal(model.features_for(corpus, np.arange(len(corpus))),
                          z)


def test_features_peak_below_four_chunks():
    """Over one chunk, ``features_for``'s traced peak stays below four
    times the chunk's float64 bytes; the three encoders' backward caches,
    kept together, took it to some nine."""
    model = FusionModel(WIDE_META, WIDE_HYPER, seed=0)
    corpus = wide_chunk()
    chunk_bytes = sum(s.size for s in corpus.seqs.values()) * 8
    rows = np.arange(len(corpus))
    tracemalloc.start()
    try:
        model.features_for(corpus, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * chunk_bytes
