#!/usr/bin/env python3
"""Ablation grid on the signal-asymmetric corpus.

One modality (text) carries the label signal; video and audio means are
nearly collapsed and their noise scale grows with the class index.
Synthesizes that corpus into a temporary directory, runs every
fusion/objective variant over five seeds with `mmood ablate` into --out,
and prints the per-variant AUROC table and the directional ordering checks.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from mmood.cli import main as cli
from mmood.train import ABLATION_VARIANTS

ABLATION_INI = """\
[corpus]
num_classes = 3
n_train = 200
n_valid = 80
n_test_id = 80
n_test_ood = 60
ood_clusters = 3
seq_len_t = 6
dim_t = 16
radius_t = 2.0
sigma_t = 0.6
seq_len_v = 8
dim_v = 12
radius_v = 0.3
sigma_v = 1.5
class_sigma_spread_v = 2.0
seq_len_a = 10
dim_a = 8
radius_a = 0.3
sigma_a = 1.5
class_sigma_spread_a = 2.0

[model]
attn_heads = 4
fusion_hidden = 32

[train]
batch_size = 32
stage1_epochs = 3
stage2_epochs = 12
learning_rate = 0.002
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--seed", default="0,1,2,3,4",
                        help="comma-separated training seeds")
    parser.add_argument("--ablation", default=",".join(
        slug for slug, *_ in ABLATION_VARIANTS.values()),
        help="comma-separated variant slugs")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        cfg, corpus = Path(tmp) / "run.ini", str(Path(tmp) / "corpus")
        cfg.write_text(ABLATION_INI)
        for step in (
            ["synth", "--config", str(cfg), "--out", corpus, "--seed", "0"],
            ["ablate", "--config", str(cfg), "--corpus", corpus, "--out",
             args.out, "--seed", args.seed, "--ablation", args.ablation],
        ):
            code = cli(step)
            if code != 0:
                return code

    summary = json.loads(
        (Path(args.out) / "ablation_summary.json").read_text())
    for variant in ABLATION_VARIANTS:
        if variant in summary["aggregate"]:
            auroc = summary["aggregate"][variant]["auroc"]
            print(f"{variant:18s} auroc={auroc['mean']:.4f} "
                  f"+/- {auroc['std']:.4f}")
    print(f"ordering checks: {summary['ordering_checks']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
