import numpy as np
import pytest

from mmood.corpus import MODALITIES
from mmood.errors import ParameterError
from mmood.fusion import FusionNetwork
from mmood.layers import check_gradients
from mmood.model import ModelHyper
from mmood.numerics import make_rng
from conftest import built


def make_net(mode="weighted", d=5, hidden=4, dropout=0.0, seed=0):
    return built(FusionNetwork("fusion", d, hidden, dropout, mode),
                 make_rng(seed))


def rand_inputs(d=5, b=3, seed=1):
    rng = make_rng(seed)
    return {m: rng.normal(size=(b, d)) for m in MODALITIES}


class TestScores:
    def test_zero_input_zero_bias_gives_zero_scores(self):
        net = make_net()
        xs = {m: np.zeros((2, 5)) for m in MODALITIES}
        scores, _ = net.modality_scores(xs, train=False, rng=None)
        for m in MODALITIES:
            assert np.array_equal(scores[m], np.zeros(2))

    def test_identical_params_and_inputs_give_identical_scores(self):
        net = make_net()
        ref = net.score["T"].lin1, net.score["T"].lin2
        for m in ("V", "A"):
            net.score[m].lin1.W.value[...] = ref[0].W.value
            net.score[m].lin1.b.value[...] = ref[0].b.value
            net.score[m].lin2.W.value[...] = ref[1].W.value
            net.score[m].lin2.b.value[...] = ref[1].b.value
        x = make_rng(2).normal(size=(4, 5))
        xs = {m: x for m in MODALITIES}
        scores, _ = net.modality_scores(xs, train=False, rng=None)
        assert np.array_equal(scores["T"], scores["V"])
        assert np.array_equal(scores["T"], scores["A"])

    def test_matches_hand_composition(self):
        net = make_net()
        xs = rand_inputs(seed=3)
        scores, _ = net.modality_scores(xs, train=False, rng=None)
        for m in MODALITIES:
            hidden = np.maximum(
                xs[m] @ net.score[m].lin1.W.value + net.score[m].lin1.b.value, 0.0
            )
            expected = hidden @ net.score[m].lin2.W.value + net.score[m].lin2.b.value
            assert np.allclose(scores[m], expected[:, 0], atol=1e-12)


class TestWeightedFusion:
    def test_equal_scores_give_arithmetic_mean(self):
        net = make_net()
        for p in net.params():
            p.value[...] = 0.0  # all scores identical (zero)
        xs = rand_inputs(seed=4)
        z, w, _ = net.forward(xs, train=False, rng=None)
        assert np.allclose(w, 1 / 3, atol=1e-12)
        assert np.allclose(z, (xs["T"] + xs["V"] + xs["A"]) / 3, atol=1e-12)

    def test_weights_on_simplex(self):
        net = make_net(seed=5)
        _, w, _ = net.forward(rand_inputs(seed=6), train=False, rng=None)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w > 0) and np.all(w < 1)

    def test_convex_hull_per_coordinate(self):
        net = make_net(seed=7)
        xs = rand_inputs(seed=8)
        z, _, _ = net.forward(xs, train=False, rng=None)
        stack = np.stack([xs[m] for m in MODALITIES])
        assert np.all(z >= stack.min(axis=0) - 1e-12)
        assert np.all(z <= stack.max(axis=0) + 1e-12)

    def test_score_saturation_selects_dominant_modality(self):
        net = make_net()
        xs = rand_inputs(seed=9)
        # +50 score gap for T via the output bias
        net.score["T"].lin2.b.value[...] = 50.0
        net.score["V"].lin2.b.value[...] = 0.0
        net.score["A"].lin2.b.value[...] = 0.0
        for m in MODALITIES:
            net.score[m].lin1.W.value[...] = 0.0
            net.score[m].lin2.W.value[...] = 0.0
        z, w, _ = net.forward(xs, train=False, rng=None)
        assert np.all(w[:, 0] > 0.999)
        assert np.allclose(z, xs["T"], rtol=1e-3, atol=1e-3)

    def test_shift_invariance_of_scores(self):
        net = make_net(seed=10)
        xs = rand_inputs(seed=11)
        z1, w1, _ = net.forward(xs, train=False, rng=None)
        for m in MODALITIES:
            net.score[m].lin2.b.value += 7.5  # common constant on every score
        z2, w2, _ = net.forward(xs, train=False, rng=None)
        assert np.allclose(w1, w2, atol=1e-10)
        assert np.allclose(z1, z2, atol=1e-10)


class TestAblationModes:
    def test_add_mode(self):
        net = make_net(mode="add", d=2)
        xs = {"T": np.array([[1.0, 0.0]]), "V": np.array([[0.0, 1.0]]),
              "A": np.array([[1.0, 1.0]])}
        z, w, _ = net.forward(xs, train=False, rng=None)
        assert np.array_equal(z, [[2.0, 2.0]])
        assert np.allclose(w, 1 / 3)
        assert net.params() == []

    def test_concat_mode_projects(self):
        net = make_net(mode="concat", d=5, seed=12)
        xs = rand_inputs(seed=13)
        z, w, _ = net.forward(xs, train=False, rng=None)
        flat = np.concatenate([xs[m] for m in MODALITIES], axis=1)
        expected = flat @ net.concat_proj.W.value + net.concat_proj.b.value
        assert np.allclose(z, expected, atol=1e-12)
        assert w is None

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            ModelHyper(fusion_mode="gated")


class TestGradients:
    @pytest.mark.parametrize("mode", ["weighted", "concat", "add"])
    def test_z_and_w_gradients(self, mode):
        net = make_net(mode=mode, seed=14)
        xs = rand_inputs(seed=15)
        rng_probe = make_rng(16)
        probe_z = rng_probe.normal(size=(3, 5))
        probe_w = rng_probe.normal(size=(3, 3))

        def run(compute_grads):
            z, w, cache = net.forward(xs, train=False, rng=None)
            loss = float((z * probe_z).sum())
            g_w = None
            if mode == "weighted":
                loss += float((w * probe_w).sum())
                g_w = probe_w
            if compute_grads:
                net.backward(probe_z, cache, g_w=g_w)
            return loss

        assert check_gradients(run, net.params()) == []

    def test_dropout_view_gradients(self):
        # gradients stay correct with an active, seeded dropout mask
        net = make_net(dropout=0.4, seed=17)
        xs = rand_inputs(seed=18)
        probe = make_rng(19).normal(size=(3, 5))

        def run(compute_grads):
            rng = make_rng(99)
            z, _, cache = net.forward(xs, train=True, rng=rng)
            if compute_grads:
                net.backward(probe, cache)
            return float((z * probe).sum())

        assert check_gradients(run, net.params()) == []

    def test_input_gradients_weighted(self):
        net = make_net(seed=20)
        xs = rand_inputs(seed=21)
        probe = make_rng(22).normal(size=(3, 5))
        z, _, cache = net.forward(xs, train=False, rng=None)
        gxs = net.backward(probe, cache)
        h = 1e-6
        for m in MODALITIES:
            for idx in [(0, 0), (1, 3), (2, 4)]:
                xs[m][idx] += h
                f1 = float((net.forward(xs, False, None)[0] * probe).sum())
                xs[m][idx] -= 2 * h
                f2 = float((net.forward(xs, False, None)[0] * probe).sum())
                xs[m][idx] += h
                numeric = (f1 - f2) / (2 * h)
                assert gxs[m][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
