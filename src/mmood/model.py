"""Full model assembly: three modality encoders, fusion, and heads.

A model is first a description: every Param's name, shape and init. Given
a seed, it allocates its buffers and draws each component's initial values
from that component's fixed seed slot, so ablating one component away never
changes how the remaining ones are initialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MODALITIES, Corpus, CorpusMeta
from .encoders import ModalityEncoder
from .errors import ParameterError, check_fields
from .fusion import FUSION_MODES, FusionNetwork
from .heads import BinaryHead, ContrastHead, CosineHead, LinearHead
from .layers import Param, bind_flat, initialize
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


# ModelHyper field -> rule (see errors.check_fields)
_HYPER_RULES = {
    "attn_heads": ">= 1", "ffn_hidden": ">= 0", "fusion_hidden": ">= 1",
    "contrast_dim": ">= 0", "gamma": "finite and > 0", "tau": "finite and > 0",
    "dropout": "in [0, 1)", "fusion_mode": FUSION_MODES}


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
        check_fields("model", _HYPER_RULES, self)


class FusionModel:
    def __init__(self, meta: CorpusMeta, hyper: ModelHyper,
                 seed: int | None = None):
        """With a seed, bound and initialized: each component draws its
        Params' first values, in params() order, from its own slot's
        stream. Without one, only the description (see ``bind``)."""
        self.meta = meta
        self.hyper = hyper
        self.d_shared = meta.shapes["T"][1]
        self.num_classes = meta.num_classes

        self.encoders: dict[str, ModalityEncoder] = {}
        for m in MODALITIES:
            d_in = meta.shapes[m][1]
            if d_in % hyper.attn_heads != 0:
                raise ParameterError(f"model: attn_heads {hyper.attn_heads} "
                                     f"must divide modality {m} dim {d_in}")
            self.encoders[m] = ModalityEncoder(
                f"encoder.{m}", d_in=d_in, d_out=self.d_shared,
                n_heads=hyper.attn_heads,
                ffn_hidden=hyper.ffn_hidden or d_in,
                use_class_token=(m == "T"),
                positional=hyper.positional_encoding,
            )
        self.fusion = FusionNetwork(
            "fusion", self.d_shared, hyper.fusion_hidden, hyper.dropout,
            hyper.fusion_mode,
        )
        self.binary_head = None if hyper.no_binary else BinaryHead(
            "binary", self.d_shared)
        if hyper.no_cosine:
            self.class_head = LinearHead("class", self.d_shared,
                                         self.num_classes)
        else:
            self.class_head = CosineHead("class", self.d_shared,
                                         self.num_classes, hyper.gamma)
        self.contrast_head = None if hyper.no_contrast else ContrastHead(
            "contrast", self.d_shared,
            hyper.contrast_dim or self.d_shared, hyper.dropout,
        )
        if seed is not None:
            self.bind()
            for c, slot, _ in self._components():
                if c is not None:
                    initialize(c.params(), component_rng(seed, slot))

    def bind(self) -> None:
        """Back every Param with one zeroed flat value and one flat grad
        buffer, in params() order, so each stage's parameters are one
        contiguous slice (see stage_slice)."""
        self.values, self.grads = bind_flat(self.params())

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

    def features_for(self, corpus: Corpus, rows: Array) -> Array:
        """Eval-mode fused features of the records ``rows`` of ``corpus``,
        (len(rows), d_shared), 256 records at a time into one preallocated
        array: each chunk is gathered by row index and widened to float64
        from the corpus's storage precision, so no split of the corpus is
        copied.
        The encoders run one modality at a time and keep no backward cache,
        so one modality's chunk and activations are alive at a time."""
        out, chunk = np.empty((len(rows), self.d_shared)), 256
        for start in range(0, len(rows), chunk):
            idx = rows[start:start + chunk]
            xs = {m: self.encoders[m].forward_batch(
                corpus.seqs[m][idx].astype(np.float64), keep=False)[0]
                for m in MODALITIES}
            out[start:start + chunk] = self.fusion.forward(xs, False, None)[0]
        return out

    def logits_for(self, features: Array) -> Array:
        logits, _ = self.class_head.forward(features)
        return logits

    # -- parameter bookkeeping ----------------------------------------------

    def _components(self) -> list[tuple]:
        """(component or None, its rng slot, training stages that update
        it): stage 1's binary head first, then the encoders and fusion that
        both stages update, then stage 2's class and contrast heads."""
        return [(self.binary_head, SLOT_BINARY, (1,))] + [
            (self.encoders[m], SLOT_ENCODER[m], (1, 2)) for m in MODALITIES
        ] + [
            (self.fusion, SLOT_FUSION, (1, 2)),
            (self.class_head, SLOT_CLASS, (2,)),
            (self.contrast_head, SLOT_CONTRAST, (2,)),
        ]

    def params(self, stage: int | None = None) -> list[Param]:
        """Parameters in buffer order; ``stage`` keeps only the components
        that training stage updates."""
        return [p for c, _, stages in self._components()
                if c is not None and (stage is None or stage in stages)
                for p in c.params()]

    def stage_slice(self, stage: int) -> tuple[Array, Array]:
        """The ``(values, grads)`` views that ``params(stage)`` cover: a
        prefix of the flat buffers for stage 1, a suffix for stage 2."""
        size = sum(p.value.size for p in self.params(stage))
        start = 0 if stage == 1 else self.values.size - size
        return self.values[start:start + size], self.grads[start:start + size]

    def named_params(self) -> dict[str, Param]:
        named = {}
        for p in self.params():
            if p.name in named:
                raise ParameterError(f"model: duplicate parameter name {p.name!r}")
            named[p.name] = p
        return named
