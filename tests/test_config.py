from dataclasses import fields, replace

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
max_resample = 40

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
        assert cfg.oodgen.max_resample == 40
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

    def test_nested_dataclass_field_is_not_a_key(self, tmp_path):
        # [train] holds the ModelHyper of [model]; it is no [train] key
        with pytest.raises(ParameterError,
                           match=r"unknown key 'model' in \[train\]"):
            load_config(write(tmp_path, "[train]\nmodel = x\n"))

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

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="config: cannot read"):
            load_config(tmp_path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\nout_dir = caf\xe9\n")
        with pytest.raises(ParameterError,
                           match="config: cannot read .*can't decode"):
            load_config(path)

    def test_interpolation_and_escaped_percent(self, tmp_path):
        cfg = load_config(write(tmp_path, "[train]\nstage1_epochs = 3\n"
                                "stage2_epochs = %(stage1_epochs)s\n"
                                "[run]\nout_dir = runs/a%%b\n"))
        assert cfg.train.stage2_epochs == 3
        assert cfg.out_dir == "runs/a%b"

    def test_lone_percent_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="config: cannot parse"):
            load_config(write(tmp_path, "[run]\nout_dir = runs/a%b\n"))

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


class TestGate:
    """Each config dataclass checks every row of its table at load; a
    modality row names the key as [corpus] spells it."""

    # rows and values test_cli.py::TestConfigGate does not run
    @pytest.mark.parametrize("section, key, value", [
        ("model", "dropout", "-0.5"), ("model", "dropout", "1.0"),
        ("model", "tau", "nan"), ("train", "learning_rate", "inf"),
        ("train", "weight_decay", "nan"), ("corpus", "n_valid", "-1"),
        ("corpus", "n_test_id", "-1"), ("corpus", "n_test_ood", "-1"),
        ("corpus", "radius_a", "-1.0"), ("corpus", "radius_t", "nan"),
        ("corpus", "sigma_v", "inf"), ("corpus", "class_sigma_spread_a", "-0.5"),
    ])
    def test_row_rejects(self, tmp_path, section, key, value):
        with pytest.raises(ParameterError) as info:
            load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))
        assert str(info.value).startswith(f"{section}: {key} must be ")

    def test_replace_reaches_the_gate(self):
        with pytest.raises(ParameterError, match="model: dropout must be"):
            replace(ModelHyper(), dropout=1.5)
        with pytest.raises(ParameterError, match="train: patience must be"):
            replace(TrainConfig(), patience=-1)

    def test_ood_clusters_needed_for_ood_records(self, tmp_path):
        with pytest.raises(ParameterError,
                           match="corpus: ood_clusters must be >= 1"):
            load_config(write(tmp_path, "[corpus]\nood_clusters = 0\n"))
        cfg = load_config(write(tmp_path, "[corpus]\nood_clusters = 0\n"
                                          "n_test_ood = 0\n"))
        assert cfg.synth.ood_clusters == 0
        with pytest.raises(ParameterError,
                           match="corpus: ood_clusters must be >= 0, got -4"):
            load_config(write(tmp_path, "[corpus]\nood_clusters = -4\n"
                                        "n_test_ood = 0\n"))
