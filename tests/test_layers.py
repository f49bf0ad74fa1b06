import numpy as np
import pytest

from mmood.corpus import CorpusMeta
from mmood.errors import ParameterError
from mmood.layers import (
    Affine,
    Dropout,
    FeedForward,
    SelfAttention,
    TransformerBlock,
    check_gradients,
    relu,
    relu_backward,
)
from mmood.model import FusionModel, ModelHyper
from mmood.numerics import make_rng
from conftest import built


def scalar_readout(y, probe):
    return float((y * probe).sum())


class TestAffine:
    def test_forward_matches_manual(self):
        rng = make_rng(0)
        lin = built(Affine("lin", 3, 2), rng)
        x = rng.normal(size=(5, 3))
        y, _ = lin.forward(x)
        assert np.allclose(y, x @ lin.W.value + lin.b.value)

    def test_gradients(self):
        rng = make_rng(1)
        lin = built(Affine("lin", 4, 3), rng)
        x = rng.normal(size=(6, 4))
        probe = rng.normal(size=(6, 3))

        def run(compute_grads):
            y, cache = lin.forward(x)
            if compute_grads:
                lin.backward(probe, cache)
            return scalar_readout(y, probe)

        assert check_gradients(run, lin.params()) == []

    def test_input_gradient(self):
        rng = make_rng(2)
        lin = built(Affine("lin", 3, 3), rng)
        x = rng.normal(size=(2, 3))
        probe = rng.normal(size=(2, 3))
        y, cache = lin.forward(x)
        gx = lin.backward(probe, cache)
        h = 1e-6
        for i in range(x.size):
            x.flat[i] += h
            f1 = scalar_readout(lin.forward(x)[0], probe)
            x.flat[i] -= 2 * h
            f2 = scalar_readout(lin.forward(x)[0], probe)
            x.flat[i] += h
            assert gx.flat[i] == pytest.approx((f1 - f2) / (2 * h), rel=1e-4, abs=1e-7)


class TestReluDropout:
    def test_relu(self):
        y, mask = relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, [0.0, 0.0, 2.0])
        assert np.array_equal(relu_backward(np.ones(3), mask), [0.0, 0.0, 1.0])

    def test_dropout_eval_is_identity(self):
        x = make_rng(3).normal(size=(4, 5))
        y, cache = Dropout(0.5).forward(x, train=False, rng=None)
        assert np.array_equal(y, x)
        assert cache is None

    def test_dropout_train_preserves_expectation(self):
        rng = make_rng(4)
        x = np.ones((2000, 10))
        y, _ = Dropout(0.3).forward(x, train=True, rng=rng)
        assert y.mean() == pytest.approx(1.0, abs=0.05)
        kept = y[y != 0]
        assert np.allclose(kept, 1.0 / 0.7)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            ModelHyper(dropout=1.0)


class TestAttention:
    def test_heads_must_divide(self):
        meta = CorpusMeta(num_classes=2,
                          shapes={"T": (2, 8), "V": (2, 6), "A": (2, 8)})
        with pytest.raises(ParameterError, match="modality V dim 6"):
            FusionModel(meta, ModelHyper(attn_heads=4), 0)

    def test_gradients(self):
        rng = make_rng(5)
        attn = built(SelfAttention("a", 6, 2), rng)
        x = rng.normal(size=(2, 3, 6))
        probe = rng.normal(size=(2, 3, 6))

        def run(compute_grads):
            y, cache = attn.forward(x)
            if compute_grads:
                attn.backward(probe, cache)
            return scalar_readout(y, probe)

        assert check_gradients(run, attn.params()) == []

    def test_permutation_equivariance(self):
        rng = make_rng(6)
        attn = built(SelfAttention("a", 4, 2), rng)
        x = rng.normal(size=(1, 5, 4))
        perm = rng.permutation(5)
        y, _ = attn.forward(x)
        y_perm, _ = attn.forward(x[:, perm, :])
        assert np.allclose(y[:, perm, :], y_perm, atol=1e-10)


class TestBlock:
    def test_gradients(self):
        rng = make_rng(7)
        block = built(TransformerBlock("b", 4, 2, 4), rng)
        x = rng.normal(size=(2, 3, 4))
        probe = rng.normal(size=(2, 3, 4))

        def run(compute_grads):
            y, cache = block.forward(x)
            if compute_grads:
                block.backward(probe, cache)
            return scalar_readout(y, probe)

        assert check_gradients(run, block.params()) == []

    def test_ffn_gradients(self):
        rng = make_rng(8)
        ffn = built(FeedForward("f", 4, 6), rng)
        x = rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 4))

        def run(compute_grads):
            y, cache = ffn.forward(x)
            if compute_grads:
                ffn.backward(probe, cache)
            return scalar_readout(y, probe)

        assert check_gradients(run, ffn.params()) == []

    @pytest.mark.parametrize("layer", ["attn", "block"])
    def test_parameter_only_backward(self, layer):
        """Without the input gradient, the same parameter gradients."""
        rng = make_rng(9)
        unit = built(SelfAttention("a", 4, 2) if layer == "attn"
                     else TransformerBlock("b", 4, 2, 4), rng)
        x = rng.normal(size=(3, 5, 4))
        probe = rng.normal(size=(3, 5, 4))
        _, cache = unit.forward(x)
        grads = []
        for input_grad in (True, False):
            for p in unit.params():
                p.zero_grad()
            gx = unit.backward(probe, cache, input_grad)
            assert (gx is None) != input_grad
            grads.append([p.grad.copy() for p in unit.params()])
        assert all(map(np.array_equal, *grads))
