import numpy as np
import pytest

from mmood.corpus import SynthConfig, synth_corpus
from mmood.model import ModelHyper, SLOT_SYNTH
from mmood.numerics import component_rng
from mmood.oodgen import OodGenConfig
from mmood.train import TrainConfig, train


@pytest.fixture(autouse=True)
def no_scratch_left(tmp_path):
    """Fail a test that leaves a command's ``*.partial-*`` scratch directory
    anywhere under its ``tmp_path``: a finished command, failed or not,
    deletes it."""
    yield
    assert sorted(tmp_path.rglob("*.partial-*")) == []


@pytest.fixture(scope="session")
def separable_pipeline():
    """The canonical separable corpus (K=3, sigma=0.3, r=5) trained once.

    Shared by tests that need a realistic fitted model; training it takes a
    few seconds, so keep it session-scoped and treat it as read-only.
    """
    corpus = synth_corpus(SynthConfig(), component_rng(0, SLOT_SYNTH))
    cfg = TrainConfig(
        batch_size=32, stage1_epochs=5, stage2_epochs=25,
        learning_rate=2e-3, seed=0,
        model=ModelHyper(attn_heads=4, fusion_hidden=32),
    )
    trained = train(corpus, cfg, OodGenConfig())
    test = corpus.split("test")
    feats = trained.model.features_for(test)
    logits = trained.model.logits_for(feats)
    flags = ~test.is_ood
    return {
        "corpus": corpus,
        "trained": trained,
        "test_records": test,
        "test_features": feats,
        "test_logits": logits,
        "test_is_id": flags,
    }
