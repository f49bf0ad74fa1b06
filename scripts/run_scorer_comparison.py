#!/usr/bin/env python3
"""Compare the six OOD scoring functions on one trained checkpoint.

Trains once on the canonical separable corpus with scripts/canonical.ini
(or reuses --checkpoint and its --corpus), then evaluates
mahalanobis/energy/msp/maxlogit/residual/vim on the same test split and
prints the AUROC table. Every file comes from an mmood command.
"""

import argparse
import json
import sys
from pathlib import Path

from mmood.cli import main as cli

CANONICAL_INI = Path(__file__).with_name("canonical.ini")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/scorers")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--checkpoint", default=None,
                        help="existing checkpoint dir (needs --corpus too)")
    parser.add_argument("--corpus", default=None)
    args = parser.parse_args()

    out = Path(args.out)
    checkpoint, corpus = args.checkpoint, args.corpus
    if checkpoint is not None and corpus is None:
        print("error: --checkpoint needs --corpus", file=sys.stderr)
        return 1
    if checkpoint is None:
        corpus = str(out / "corpus")
        checkpoint = str(out / "run")
        for step in (
            ["synth", "--config", str(CANONICAL_INI), "--out", corpus,
             "--seed", args.seed],
            ["train", "--config", str(CANONICAL_INI), "--corpus", corpus,
             "--out", checkpoint, "--seed", args.seed],
        ):
            code = cli(step)
            if code != 0:
                return code

    code = cli(["eval", "--checkpoint", checkpoint, "--corpus", corpus,
                "--out", str(out / "eval"), "--scorer", "all"])
    if code != 0:
        return code
    report = json.loads((out / "eval" / "eval_report.json").read_text())
    print(f"{'scorer':12s} {'auroc':>8s} {'aupr_in':>8s} {'aupr_out':>9s} "
          f"{'fpr95':>7s} {'der':>7s}")
    for scorer, m in sorted(report["ood_metrics"].items()):
        print(f"{scorer:12s} {m['auroc']:8.4f} {m['aupr_in']:8.4f} "
              f"{m['aupr_out']:9.4f} {m['fpr95']:7.4f} {m['der']:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
