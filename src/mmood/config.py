"""Run configuration: a single INI-style file with per-section dataclasses.

Sections map to the pipeline stages::

    [corpus]   synthetic corpus settings (per-modality keys use a _t/_v/_a
               suffix, e.g. sigma_t, dim_v)
    [oodgen]   pseudo-OOD mixing
    [model]    architecture hyperparameters and ablation flags
    [train]    optimization schedule
    [eval]     scorer selection ("mahalanobis", ..., or "all")
    [run]      optional out_dir default

Unknown sections or keys are rejected. Every key is optional; omitted keys
keep their dataclass defaults. CLI flags override file values.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import MODALITIES, ModalitySynth, SynthConfig
from .errors import ParameterError, check_fields
from .oodgen import OodGenConfig
from .scoring import SCORERS
from .train import TrainConfig


@dataclass
class EvalConfig:
    scorer: str = "mahalanobis"

    def __post_init__(self):
        check_fields("config", {"scorer": ("all", *SCORERS)}, self)

    def selected(self) -> list[str]:
        return list(SCORERS) if self.scorer == "all" else [self.scorer]


@dataclass
class RunConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    oodgen: OodGenConfig = field(default_factory=OodGenConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str | None = None


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(raw: str, typ, section: str, key: str):
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ParameterError(f"config: [{section}] {key} = {raw!r} is not a boolean")
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError as exc:
        raise ParameterError(
            f"config: [{section}] {key} = {raw!r} is not a {typ.__name__}"
        ) from exc
    return raw


def _apply_section(obj, items: dict[str, str], section: str):
    """``obj`` with ``items`` parsed to each (non-dataclass) field's type; a
    field whose default is None takes ``none`` or a float."""
    defaults = {f.name: f.default for f in fields(obj)
                if not dataclasses.is_dataclass(getattr(obj, f.name))}
    updates = {}
    for key, raw in items.items():
        if key not in defaults:
            raise ParameterError(f"config: unknown key {key!r} in [{section}]")
        if defaults[key] is None:
            updates[key] = None if raw.strip().lower() == "none" \
                else _coerce(raw, float, section, key)
        else:
            updates[key] = _coerce(raw, type(getattr(obj, key)), section, key)
    return dataclasses.replace(obj, **updates)


def _apply_corpus_section(cfg: SynthConfig, items: dict[str, str]) -> SynthConfig:
    scalar = {f.name: f for f in fields(SynthConfig) if f.name != "modalities"}
    mod_fields = {f.name for f in fields(ModalitySynth)}
    modalities = {m: dataclasses.replace(s) for m, s in cfg.modalities.items()}
    updates = {}
    for key, raw in items.items():
        if key in scalar:
            updates[key] = _coerce(raw, type(getattr(cfg, key)), "corpus", key)
            continue
        base, _, suffix = key.rpartition("_")
        modality = suffix.upper()
        if base in mod_fields and modality in MODALITIES:
            current = getattr(modalities[modality], base)
            setattr(modalities[modality], base,
                    _coerce(raw, type(current), "corpus", key))
            continue
        raise ParameterError(f"config: unknown key {key!r} in [corpus]")
    return dataclasses.replace(cfg, modalities=modalities, **updates)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ParameterError(f"config: file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), str(path))
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"config: cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParameterError(f"config: cannot parse {path}: {exc}") from exc
    cfg = RunConfig()
    known = {"corpus", "oodgen", "model", "train", "eval", "run"}
    for section in sections:
        if section not in known:
            raise ParameterError(f"config: unknown section [{section}]")
    if "corpus" in sections:
        cfg.synth = _apply_corpus_section(cfg.synth, sections["corpus"])
    if "oodgen" in sections:
        cfg.oodgen = _apply_section(cfg.oodgen, sections["oodgen"], "oodgen")
    if "model" in sections:
        hyper = _apply_section(cfg.train.model, sections["model"], "model")
        cfg.train = dataclasses.replace(cfg.train, model=hyper)
    if "train" in sections:
        cfg.train = _apply_section(cfg.train, sections["train"], "train")
    if "eval" in sections:
        cfg.eval = _apply_section(cfg.eval, sections["eval"], "eval")
    if "run" in sections:
        unknown = set(sections["run"]) - {"out_dir"}
        if unknown:
            raise ParameterError(
                f"config: unknown key {sorted(unknown)[0]!r} in [run]"
            )
        cfg.out_dir = sections["run"].get("out_dir")
    return cfg
