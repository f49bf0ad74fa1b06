from dataclasses import fields

import pytest

from mmood.config import RunConfig, load_config
from mmood.corpus import MODALITIES, ModalitySynth, SynthConfig
from mmood.errors import ParameterError
from mmood.model import ModelHyper
from mmood.oodgen import OodGenConfig
from mmood.train import TrainConfig


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI text with every key spelled out."""
    lines = ["[corpus]"]
    for f in fields(SynthConfig):
        if f.name == "modalities":
            continue
        lines.append(f"{f.name} = {getattr(cfg.synth, f.name)}")
    for m in MODALITIES:
        spec = cfg.synth.modalities[m]
        for f in fields(ModalitySynth):
            lines.append(f"{f.name}_{m.lower()} = {getattr(spec, f.name)}")
    lines.append("")
    lines.append("[oodgen]")
    for f in fields(OodGenConfig):
        lines.append(f"{f.name} = {getattr(cfg.oodgen, f.name)}")
    lines.append("")
    lines.append("[model]")
    for f in fields(ModelHyper):
        lines.append(f"{f.name} = {getattr(cfg.train.model, f.name)}")
    lines.append("")
    lines.append("[train]")
    for f in fields(TrainConfig):
        if f.name == "model":
            continue
        lines.append(f"{f.name} = {getattr(cfg.train, f.name)}")
    lines.append("")
    lines.append("[eval]")
    lines.append(f"scorer = {cfg.eval.scorer}")
    if cfg.out_dir is not None:
        lines.append("")
        lines.append("[run]")
        lines.append(f"out_dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestLoad:
    def test_defaults_from_empty_file(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.train.batch_size == 32
        assert cfg.train.stage1_epochs == 20
        assert cfg.train.stage2_epochs == 80
        assert cfg.oodgen.mix_count == 3
        assert cfg.train.model.fusion_hidden == 256
        assert cfg.eval.scorer == "mahalanobis"

    def test_section_values_applied(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[corpus]
num_classes = 4
sigma_t = 0.7
dim_v = 24

[oodgen]
alpha = 0.7
share_lambda = off

[model]
fusion_mode = concat
no_binary = true

[train]
batch_size = 16
learning_rate = 0.005
cov_eps = 1e-4

[eval]
scorer = all
"""))
        assert cfg.synth.num_classes == 4
        assert cfg.synth.modalities["T"].sigma == 0.7
        assert cfg.synth.modalities["V"].dim == 24
        assert cfg.oodgen.alpha == 0.7
        assert cfg.oodgen.share_lambda is False
        assert cfg.train.model.fusion_mode == "concat"
        assert cfg.train.model.no_binary is True
        assert cfg.train.batch_size == 16
        assert cfg.train.cov_eps == 1e-4
        assert cfg.eval.selected() == list(
            ("mahalanobis", "energy", "msp", "maxlogit", "residual", "vim"))

    def test_cov_eps_none(self, tmp_path):
        cfg = load_config(write(tmp_path, "[train]\ncov_eps = none\n"))
        assert cfg.train.cov_eps is None

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-1e-4"])
    def test_cov_eps_bad_value_rejected(self, tmp_path, raw):
        with pytest.raises(ParameterError, match="cov_eps") as info:
            load_config(write(tmp_path, f"[train]\ncov_eps = {raw}\n"))
        assert str(info.value).startswith(("config: [train] cov_eps",
                                           "train: cov_eps"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown key 'dropout_rate'"):
            load_config(write(tmp_path, "[model]\ndropout_rate = 0.5\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match=r"unknown section \[optim\]"):
            load_config(write(tmp_path, "[optim]\nlr = 0.1\n"))

    def test_unknown_corpus_key_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="sigma_x"):
            load_config(write(tmp_path, "[corpus]\nsigma_x = 0.5\n"))

    def test_bad_boolean_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="not a boolean"):
            load_config(write(tmp_path, "[model]\nno_binary = maybe\n"))

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="not a int"):
            load_config(write(tmp_path, "[train]\nbatch_size = thirty\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError):
            load_config(tmp_path / "absent.ini")

    def test_bad_scorer_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="scorer"):
            load_config(write(tmp_path, "[eval]\nscorer = knn\n"))


class TestRoundTrip:
    def test_ini_round_trip(self, tmp_path):
        cfg = RunConfig()
        cfg.train.batch_size = 8
        cfg.synth.modalities["A"].sigma = 0.9
        cfg.out_dir = "runs/exp1"
        text = config_to_ini(cfg)
        reloaded = load_config(write(tmp_path, text))
        assert reloaded.train.batch_size == 8
        assert reloaded.synth.modalities["A"].sigma == 0.9
        assert reloaded.out_dir == "runs/exp1"
        assert config_to_ini(reloaded) == text
