"""Full model assembly: three modality encoders, fusion, and heads.

Component initialization uses fixed seed slots, so ablating one component
away never changes how the remaining ones are initialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MODALITIES, Corpus, CorpusMeta
from .encoders import ModalityEncoder
from .errors import ParameterError
from .fusion import FUSION_MODES, FusionNetwork
from .heads import BinaryHead, ContrastHead, CosineHead, LinearHead
from .layers import Param, bind_flat
from .numerics import component_rng

Array = np.ndarray

# fixed rng slots per component (see component_rng)
SLOT_ENCODER = {"T": 0, "V": 1, "A": 2}
SLOT_FUSION = 3
SLOT_BINARY = 4
SLOT_CLASS = 5
SLOT_CONTRAST = 6
SLOT_TRAIN_LOOP = 7
SLOT_SYNTH = 8


@dataclass
class ModelHyper:
    attn_heads: int = 4
    ffn_hidden: int = 0        # 0 -> matches each modality's input dim
    fusion_hidden: int = 256
    contrast_dim: int = 0      # 0 -> shared dim
    gamma: float = 16.0
    tau: float = 2.0
    dropout: float = 0.1
    positional_encoding: bool = False
    fusion_mode: str = "weighted"
    no_binary: bool = False
    no_cosine: bool = False
    no_contrast: bool = False

    def __post_init__(self):
        if self.fusion_mode not in FUSION_MODES:
            raise ParameterError(
                f"model: fusion_mode must be one of {FUSION_MODES}, "
                f"got {self.fusion_mode!r}"
            )
        if not self.tau > 0:
            raise ParameterError(f"model: tau must be > 0, got {self.tau}")
        if not self.gamma > 0:
            raise ParameterError(f"model: gamma must be > 0, got {self.gamma}")


class FusionModel:
    def __init__(self, meta: CorpusMeta, hyper: ModelHyper, seed: int):
        self.meta = meta
        self.hyper = hyper
        self.seed = seed
        self.d_shared = meta.shapes["T"][1]
        self.num_classes = meta.num_classes

        self.encoders: dict[str, ModalityEncoder] = {}
        for m in MODALITIES:
            d_in = meta.shapes[m][1]
            self.encoders[m] = ModalityEncoder(
                f"encoder.{m}", d_in=d_in, d_out=self.d_shared,
                n_heads=hyper.attn_heads,
                ffn_hidden=hyper.ffn_hidden or d_in,
                rng=component_rng(seed, SLOT_ENCODER[m]),
                use_class_token=(m == "T"),
                positional=hyper.positional_encoding,
            )
        self.fusion = FusionNetwork(
            "fusion", self.d_shared, hyper.fusion_hidden, hyper.dropout,
            hyper.fusion_mode, component_rng(seed, SLOT_FUSION),
        )
        self.binary_head = None if hyper.no_binary else BinaryHead(
            "binary", self.d_shared, component_rng(seed, SLOT_BINARY)
        )
        if hyper.no_cosine:
            self.class_head = LinearHead(
                "class", self.d_shared, self.num_classes,
                component_rng(seed, SLOT_CLASS),
            )
        else:
            self.class_head = CosineHead(
                "class", self.d_shared, self.num_classes, hyper.gamma,
                component_rng(seed, SLOT_CLASS),
            )
        self.contrast_head = None if hyper.no_contrast else ContrastHead(
            "contrast", self.d_shared,
            hyper.contrast_dim or self.d_shared, hyper.dropout,
            component_rng(seed, SLOT_CONTRAST),
        )
        # One flat value and one flat grad buffer back every Param. Sorting
        # the stage tuples puts the binary head (1,) first, then encoders
        # and fusion (1, 2), then the class and contrast heads (2,), so each
        # stage's parameters are one contiguous slice (see AdamW).
        self.values, self.grads = bind_flat([
            p for c, _ in sorted(self._components(), key=lambda cs: cs[1])
            if c is not None for p in c.params()
        ])

    # -- forward/backward -------------------------------------------------

    def encode_batch(self, seqs: dict[str, Array]):
        xs, caches = {}, {}
        for m in MODALITIES:
            xs[m], caches[m] = self.encoders[m].forward_batch(seqs[m])
        return xs, caches

    def encoders_backward(self, gxs: dict[str, Array], caches) -> None:
        for m in MODALITIES:
            self.encoders[m].backward_batch(gxs[m], caches[m])

    # -- evaluation helpers ------------------------------------------------

    def features_for(self, corpus: Corpus, chunk: int = 256) -> Array:
        """Eval-mode fused features, (N, d_shared)."""
        out = []
        for start in range(0, len(corpus), chunk):
            seqs = {m: corpus.seqs[m][start:start + chunk] for m in MODALITIES}
            xs, _ = self.encode_batch(seqs)
            z, _, _ = self.fusion.forward(xs, False, None)
            out.append(z)
        return np.concatenate(out) if out else np.zeros((0, self.d_shared))

    def logits_for(self, features: Array) -> Array:
        logits, _ = self.class_head.forward(features)
        return logits

    def predict(self, corpus: Corpus) -> np.ndarray:
        feats = self.features_for(corpus)
        return self.logits_for(feats).argmax(axis=1)

    # -- parameter bookkeeping ----------------------------------------------

    def _components(self) -> list[tuple]:
        """(component or None, training stages that update it)."""
        return [(self.encoders[m], (1, 2)) for m in MODALITIES] + [
            (self.fusion, (1, 2)),
            (self.binary_head, (1,)),
            (self.class_head, (2,)),
            (self.contrast_head, (2,)),
        ]

    def _params(self, stage: int | None = None) -> list[Param]:
        """Parameters in checkpoint order; ``stage`` keeps only the
        components that training stage updates."""
        return [p for c, stages in self._components()
                if c is not None and (stage is None or stage in stages)
                for p in c.params()]

    def params(self) -> list[Param]:
        return self._params()

    def named_params(self) -> dict[str, Param]:
        named = {}
        for p in self.params():
            if p.name in named:
                raise ParameterError(f"model: duplicate parameter name {p.name!r}")
            named[p.name] = p
        return named

    def stage1_params(self) -> list[Param]:
        return self._params(1)

    def stage2_params(self) -> list[Param]:
        return self._params(2)
