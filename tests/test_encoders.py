import numpy as np
import pytest

from mmood.encoders import ModalityEncoder, sinusoidal_positions
from mmood.errors import ParameterError
from mmood.layers import check_gradients
from mmood.numerics import make_rng


def encode(enc, seq):
    """One (L, d_in) sequence to a (d_out,) vector, eval mode."""
    y, _ = enc.forward_batch(np.asarray(seq, dtype=np.float64)[None, :, :])
    return y[0]


def pool_encoder(rng, d_in=6, d_out=4, positional=False):
    return ModalityEncoder("enc.V", d_in=d_in, d_out=d_out, n_heads=2,
                           ffn_hidden=d_in, rng=rng, use_class_token=False,
                           positional=positional)


def cls_encoder(rng, d=6):
    return ModalityEncoder("enc.T", d_in=d, d_out=d, n_heads=2, ffn_hidden=d,
                           rng=rng, use_class_token=True)


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
                            rng=make_rng(2), use_class_token=True)

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
    @pytest.mark.parametrize("kind", ["pool", "cls"])
    def test_param_gradients_match_finite_differences(self, kind):
        rng = make_rng(16)
        enc = pool_encoder(rng) if kind == "pool" else cls_encoder(rng, d=6)
        d_out = enc.d_out
        x = make_rng(17).normal(size=(2, 3, enc.d_in))
        probe = make_rng(18).normal(size=(2, d_out))

        def run(compute_grads):
            y, cache = enc.forward_batch(x)
            if compute_grads:
                enc.backward_batch(probe, cache)
            return float((y * probe).sum())

        assert check_gradients(run, enc.params()) == []
