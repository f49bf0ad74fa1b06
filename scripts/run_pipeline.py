#!/usr/bin/env python3
"""End-to-end run on the canonical separable corpus.

Generates the corpus and trains with the default two-stage schedule (or
reuses --checkpoint and its --corpus), evaluates every scorer on the same
test split, emits the plot-ready tables and prints the AUROC/AUPR/FPR95/DER
table, all under --out, with the config of scripts/canonical.ini. Every
file comes from an mmood command, so a failed step leaves nothing of its
own behind.
"""

import argparse
import json
import sys
from pathlib import Path

from mmood.cli import main as cli


CANONICAL_INI = Path(__file__).with_name("canonical.ini")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/pipeline")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--checkpoint", default=None,
                        help="existing checkpoint dir (needs --corpus too)")
    parser.add_argument("--corpus", default=None,
                        help="its corpus dir (needs --checkpoint too)")
    args = parser.parse_args()

    out, cfg = Path(args.out), str(CANONICAL_INI)
    checkpoint, corpus = args.checkpoint, args.corpus
    if (checkpoint is None) != (corpus is None):
        given, needed = ("--checkpoint", "--corpus") if corpus is None \
            else ("--corpus", "--checkpoint")
        print(f"error: {given} needs {needed}", file=sys.stderr)
        return 1
    steps = []
    if checkpoint is None:
        corpus, checkpoint = str(out / "corpus"), str(out / "run")
        steps = [
            ["synth", "--config", cfg, "--out", corpus, "--seed", args.seed],
            ["train", "--config", cfg, "--corpus", corpus,
             "--out", checkpoint, "--seed", args.seed],
        ]
    steps += [
        ["eval", "--config", cfg, "--checkpoint", checkpoint,
         "--corpus", corpus, "--out", str(out / "eval")],
        ["report", str(out / "eval")],
    ]
    for step in steps:
        code = cli(step)
        if code != 0:
            return code
    report = json.loads((out / "eval" / "eval_report.json").read_text())
    print(f"{'scorer':12s} {'auroc':>8s} {'aupr_in':>8s} {'aupr_out':>9s} "
          f"{'fpr95':>7s} {'der':>7s}")
    for scorer, m in sorted(report["ood_metrics"].items()):
        print(f"{scorer:12s} {m['auroc']:8.4f} {m['aupr_in']:8.4f} "
              f"{m['aupr_out']:9.4f} {m['fpr95']:7.4f} {m['der']:7.4f}")
    print(f"pipeline complete; see {out / 'eval'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
