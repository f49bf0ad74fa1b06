#!/usr/bin/env python3
"""End-to-end run on the canonical separable corpus.

Generates the corpus, trains with the default two-stage schedule, evaluates
every scorer, and emits the plot-ready tables, all under --out, with the
config of scripts/canonical.ini. Every file comes from an mmood command, so
a failed step leaves nothing of its own behind.
"""

import argparse
import sys
from pathlib import Path

from mmood.cli import main as cli


CANONICAL_INI = Path(__file__).with_name("canonical.ini")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/pipeline")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()

    out, cfg = Path(args.out), CANONICAL_INI
    steps = [
        ["synth", "--config", str(cfg), "--out", str(out / "corpus"),
         "--seed", args.seed],
        ["train", "--config", str(cfg), "--corpus", str(out / "corpus"),
         "--out", str(out / "run"), "--seed", args.seed],
        ["eval", "--config", str(cfg), "--checkpoint", str(out / "run"),
         "--corpus", str(out / "corpus"), "--out", str(out / "eval")],
        ["report", str(out / "eval")],
    ]
    for step in steps:
        code = cli(step)
        if code != 0:
            return code
    print(f"pipeline complete; see {out / 'eval'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
