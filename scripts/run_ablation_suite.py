#!/usr/bin/env python3
"""Ablation grid on the signal-asymmetric corpus.

One modality (text) carries the label signal; video and audio means are
nearly collapsed and their noise scale grows with the class index. Runs
every fusion/objective variant over five seeds and writes the per-run rows,
per-variant aggregates, and the directional ordering checks.
"""

import argparse
import sys
from pathlib import Path

from mmood.cli import run_ablation
from mmood.config import RunConfig
from mmood.corpus import ModalitySynth, SynthConfig, synth_corpus
from mmood.errors import PipelineError
from mmood.model import ModelHyper, SLOT_SYNTH
from mmood.numerics import component_rng
from mmood.train import ABLATION_VARIANTS

SIGNAL_ASYMMETRIC = SynthConfig(
    num_classes=3, n_train=200, n_valid=80, n_test_id=80, n_test_ood=60,
    ood_clusters=3,
    modalities={
        "T": ModalitySynth(6, 16, radius=2.0, sigma=0.6),
        "V": ModalitySynth(8, 12, radius=0.3, sigma=1.5,
                           class_sigma_spread=2.0),
        "A": ModalitySynth(10, 8, radius=0.3, sigma=1.5,
                           class_sigma_spread=2.0),
    },
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                        help="comma-separated variant labels")
    args = parser.parse_args()

    corpus = synth_corpus(SIGNAL_ASYMMETRIC, component_rng(0, SLOT_SYNTH))
    cfg = RunConfig()
    cfg.train.batch_size = 32
    cfg.train.stage1_epochs = 3
    cfg.train.stage2_epochs = 12
    cfg.train.learning_rate = 2e-3
    cfg.train.model = ModelHyper(attn_heads=4, fusion_hidden=32)

    seeds = [int(s) for s in args.seeds.split(",")]
    variants = [v.strip() for v in args.variants.split(",")]
    try:
        result = run_ablation(corpus, cfg, variants, seeds, Path(args.out))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for variant, agg in result["aggregate"].items():
        auroc = agg["auroc"]
        print(f"{variant:18s} auroc={auroc['mean']:.4f} +/- {auroc['std']:.4f}")
    print(f"ordering checks: {result['checks']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
