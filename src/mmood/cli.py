"""Command-line harness: synth | train | eval | ablate | report.

Every command takes a config file plus overriding flags and writes only
into its --out directory. Outputs are deterministic for a fixed config and
seed; the single timestamp lives in the training-log header line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .blobio import write_jsonl
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .corpus import MODALITIES, Corpus, load_corpus, save_corpus, synth_corpus
from .errors import FormatError, ParameterError, PipelineError
from .metrics import EvalReport, id_metrics, ood_metrics
from .model import SLOT_SYNTH
from .numerics import component_rng
from .scoring import apply_scorer, fit_scorer, normalize_scores
from .train import ABLATION_VARIANTS, train, variant_config

ABLATION_SLUGS = {slug: name for name, (slug, _) in ABLATION_VARIANTS.items()}

ABLATION_METRICS = ("acc", "wf1", "auroc", "aupr_in", "aupr_out", "fpr95", "der")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mean_std(rows: list[dict], keys) -> dict[str, tuple[float, float]]:
    """Population mean and standard deviation over seeds: ``{key: (mean,
    std)}`` over each key's numeric values; a key with none is left out."""
    stats = {}
    for key in keys:
        values = [row[key] for row in rows
                  if isinstance(row.get(key), (int, float))]
        if values:
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            stats[key] = (float(mean), float(std))
    return stats


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# -- synth ------------------------------------------------------------------


def run_synth(cfg: RunConfig, out_dir, seed: int) -> Path:
    corpus = synth_corpus(cfg.synth, component_rng(seed, SLOT_SYNTH))
    manifest = save_corpus(corpus, out_dir)
    loaded = load_corpus(manifest)  # verification pass: an exact round trip
    same = all(np.array_equal(getattr(loaded, c), getattr(corpus, c))
               for c in ("ids", "splits", "labels")) and \
        all(np.array_equal(loaded.seqs[m], corpus.seqs[m]) for m in MODALITIES)
    if not same:
        raise PipelineError(f"cli: corpus {manifest} does not reload to the "
                            "synthesized corpus")
    return manifest


# -- scoring ----------------------------------------------------------------


def _score(model, stats, train_feats, train_logits, test: Corpus,
           scorers: list[str]):
    """``(ID flags, IdMetrics, {scorer: OOD scores})`` of the test split
    ``test``; every command that reports on a model scores through it."""
    feats = model.features_for(test)
    logits = model.logits_for(feats)
    flags = ~test.is_ood
    idm = id_metrics(logits[flags].argmax(axis=1), test.labels[flags],
                     test.num_classes)
    scores = {}
    for variant in scorers:
        state = fit_scorer(variant, train_feats, train_logits, stats,
                           test.num_classes)
        scores[variant] = apply_scorer(state, feats, logits)
    return flags, idm, scores


def _test_row(trained, corpus: Corpus) -> dict:
    """ID accuracy and WF1 on the test split, plus the Mahalanobis OOD
    metrics when the split holds OOD records."""
    test = corpus.split("test")
    if len(test) == 0:
        return {}
    flags, idm, scores = _score(
        trained.model, trained.class_stats, trained.train_features,
        trained.train_logits, test,
        ["mahalanobis"] if test.is_ood.any() else [])
    row = {"acc": idm.acc, "wf1": idm.wf1}
    for raw in scores.values():
        row.update(ood_metrics(raw, flags).as_dict())
    return row


# -- train ------------------------------------------------------------------


def run_training(corpus: Corpus, cfg: RunConfig, out_dir, seeds: list[int],
                 variant: str = "Full") -> list[dict]:
    """Train once per seed; returns one result row per seed.

    A single seed writes the checkpoint into ``out_dir`` directly; several
    seeds write ``out_dir/seed_<n>/`` each, plus results.csv and a
    mean/std summary.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        train_cfg = variant_config(replace(cfg.train, seed=seed), variant)
        trained = train(corpus, train_cfg, cfg.oodgen)
        target = out_dir if len(seeds) == 1 else out_dir / f"seed_{seed}"
        target.mkdir(parents=True, exist_ok=True)
        save_checkpoint(trained, target)
        header = {"event": "start", "seed": seed, "variant": variant,
                  "time": datetime.now(timezone.utc).isoformat()}
        write_jsonl(target / "train_log.jsonl", chain(
            [header], trained.log, [{"event": "end", "best": trained.best}]))
        row = {"seed": seed, "best_epoch": trained.best.get("epoch"),
               "val_wf1": trained.best.get("wf1")}
        row.update(_test_row(trained, corpus))
        rows.append(row)

    keys = sorted({k for row in rows for k in row} - {"seed"})
    _write_csv(out_dir / "results.csv", ["seed"] + keys,
               [[row["seed"]] + [row.get(k, "") for k in keys] for row in rows])
    _write_csv(out_dir / "results_summary.csv", ["metric", "mean", "std"],
               [[key, *ms] for key, ms in _mean_std(rows, keys).items()])
    return rows


# -- eval -------------------------------------------------------------------


def run_eval(checkpoint_dir, test: Corpus, scorers: list[str],
             out_dir) -> EvalReport:
    """Score the test split ``test`` (``corpus.split("test")``) with a
    checkpoint; the caller need not keep the rest of the corpus. Nothing
    is written until the checkpoint loads and matches the corpus."""
    model, stats, train_feats, train_logits, _ = load_checkpoint(checkpoint_dir)
    if test.num_classes != model.num_classes:
        raise ParameterError(
            f"cli: corpus has {test.num_classes} classes, checkpoint "
            f"{checkpoint_dir} was trained on {model.num_classes}"
        )

    if len(test) == 0:
        raise ParameterError("cli: corpus has no test records to evaluate")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags, idm, scores = _score(model, stats, train_feats, train_logits, test,
                                scorers)
    report = EvalReport(id_metrics=idm, ood_metrics={
        variant: ood_metrics(raw, flags) for variant, raw in scores.items()})
    ids, is_id = test.ids.tolist(), flags.tolist()
    for variant, raw in scores.items():
        write_jsonl(out_dir / f"scores_{variant}.jsonl", (
            {"id": rec_id, "is_id": flag, "raw": value, "norm": norm}
            for rec_id, flag, value, norm in zip(
                ids, is_id, raw.tolist(), normalize_scores(raw).tolist())))

    _write_json(out_dir / "eval_report.json", report.as_dict())
    header = ["scorer", "auroc", "aupr_in", "aupr_out", "fpr95", "der"]
    _write_csv(out_dir / "metrics.csv", header, [
        [v, m.auroc, m.aupr_in, m.aupr_out, m.fpr95, m.der]
        for v, m in sorted(report.ood_metrics.items())
    ])
    return report


# -- ablate -----------------------------------------------------------------


def run_ablation(corpus: Corpus, cfg: RunConfig, variants: list[str],
                 seeds: list[int], out_dir) -> dict:
    """Train/evaluate every (variant, seed) pair and write the comparison.

    Emits ablation.csv (one row per run), aggregate.csv (per-variant mean
    and std), and ablation_summary.json including directional ordering
    checks on mean AUROC. The summary is written even when an expected
    ordering fails; failures are flagged, not hidden.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ParameterError(f"cli: unknown ablation variant {variant!r}")

    rows = []
    for variant in variants:
        for seed in seeds:
            train_cfg = variant_config(replace(cfg.train, seed=seed), variant)
            trained = train(corpus, train_cfg, cfg.oodgen)
            row = {"variant": variant, "seed": seed}
            row.update(_test_row(trained, corpus))
            rows.append(row)

    metric_keys = [k for k in ABLATION_METRICS if all(k in r for r in rows)]
    _write_csv(out_dir / "ablation.csv", ["variant", "seed"] + metric_keys, [
        [r["variant"], r["seed"]] + [r[k] for k in metric_keys] for r in rows
    ])

    aggregate: dict[str, dict[str, dict[str, float]]] = {}
    for variant in variants:
        runs = [r for r in rows if r["variant"] == variant]
        aggregate[variant] = {key: {"mean": mean, "std": std} for key, (mean, std)
                              in _mean_std(runs, metric_keys).items()}
    _write_csv(out_dir / "aggregate.csv", ["variant", "metric", "mean", "std"], [
        [variant, key, ms["mean"], ms["std"]]
        for variant, per_key in aggregate.items() for key, ms in per_key.items()
    ])

    auroc = {variant: per_key["auroc"]["mean"]
             for variant, per_key in aggregate.items() if "auroc" in per_key}
    checks = {label: bool(auroc["Full"] >= auroc[other])
              for label, other in (("weighted_ge_add", "Fusion (Add)"),
                                   ("weighted_ge_concat", "Fusion (Concat)"),
                                   ("full_ge_no_binary", "w / o Binary"))
              if "Full" in auroc and other in auroc}
    summary = {
        "aggregate": aggregate,
        "ordering_checks": checks,
        "ordering_ok": all(checks.values()) if checks else None,
    }
    _write_json(out_dir / "ablation_summary.json", summary)
    return {"rows": rows, "aggregate": aggregate, "checks": checks}


# -- report -----------------------------------------------------------------


def run_report(eval_dir, out_dir=None) -> Path:
    """Re-shape an eval directory into plot-ready CSV tables."""
    eval_dir = Path(eval_dir)
    out_dir = Path(out_dir) if out_dir is not None else eval_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = eval_dir / "eval_report.json"
    if not report_path.exists():
        raise ParameterError(f"cli: {report_path} not found; run eval first")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        per_class = [float(v) for v in report["id_metrics"]["per_class_acc"]]
        id_rows = [[k, float(v)]
                   for k, v in sorted(report["id_metrics"].items())
                   if k not in ("per_class_acc", "confusion")]
        scorers = sorted(report["ood_metrics"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cli: {report_path}: malformed eval report "
                          f"({type(exc).__name__}: {exc})") from exc
    _write_csv(out_dir / "per_class_acc.csv", ["class", "accuracy"],
               [[i, v] for i, v in enumerate(per_class)])

    long_rows = []
    for scorer in scorers:
        scores_path = eval_dir / f"scores_{scorer}.jsonl"
        if not scores_path.exists():
            raise ParameterError(f"cli: {scores_path} not found; the eval "
                                 f"report lists scorer {scorer!r}")
        lines = scores_path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            try:
                row = json.loads(line)
                long_rows.append([scorer, row["id"], int(row["is_id"]),
                                  float(row["raw"]), float(row["norm"])])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(
                    f"cli: {scores_path} line {lineno}: malformed score row "
                    f"({type(exc).__name__}: {exc})") from exc
    _write_csv(out_dir / "scores_long.csv",
               ["scorer", "sample_id", "is_id", "raw", "normalized"], long_rows)

    _write_csv(out_dir / "id_metrics.csv", ["metric", "value"], id_rows)
    return out_dir


# -- argument plumbing --------------------------------------------------------


def _unique(items: list, flag: str, noun: str) -> list:
    """``items`` parsed from ``flag``, which must name at least one and
    none twice."""
    if not items:
        raise ParameterError(f"cli: {flag} names no {noun}")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ParameterError(f"cli: duplicate {noun} {item} in {flag}")
    return items


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"cli: bad --seed list {raw!r}") from exc
    return _unique(seeds, "--seed", "seed")


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "scorer", None):
        cfg.eval = replace(cfg.eval, scorer=args.scorer)
    return cfg


def _resolve_out(args, cfg: RunConfig) -> str:
    out = args.out if args.out is not None else cfg.out_dir
    if out is None:
        raise ParameterError(
            "cli: no output directory; pass --out or set [run] out_dir"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmood",
        description="Multimodal intent classification and OOD detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", default=None)
    run.add_argument("--out", default=None)

    p_synth = sub.add_parser("synth", parents=[run],
                             help="generate a synthetic corpus")
    p_synth.add_argument("--seed", default="0")

    p_train = sub.add_parser("train", parents=[run], help="train on a corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--seed", default=None)
    p_train.add_argument("--ablation", default=None,
                         choices=sorted(ABLATION_SLUGS))

    p_eval = sub.add_parser("eval", parents=[run], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--scorer", default=None)

    p_ablate = sub.add_parser("ablate", parents=[run],
                              help="run the ablation grid")
    p_ablate.add_argument("--corpus", required=True)
    p_ablate.add_argument("--seed", default="0")
    p_ablate.add_argument("--ablation", default=",".join(sorted(ABLATION_SLUGS)),
                          help="comma-separated variant slugs")

    p_report = sub.add_parser("report", help="emit plot-ready CSV tables")
    p_report.add_argument("eval_dir")
    p_report.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            print(f"wrote report tables to {run_report(args.eval_dir, args.out)}")
            return 0
        cfg = _load_run_config(args)
        out = _resolve_out(args, cfg)
        if args.command == "synth":
            seeds = _parse_seeds(args.seed)
            if len(seeds) != 1:
                raise ParameterError("cli: synth takes exactly one seed")
            print(f"wrote corpus manifest {run_synth(cfg, out, seeds[0])}")
        elif args.command == "train":
            seeds = _parse_seeds(args.seed) if args.seed is not None \
                else [cfg.train.seed]
            rows = run_training(load_corpus(Path(args.corpus)), cfg, out, seeds,
                                ABLATION_SLUGS[args.ablation or "full"])
            for row in rows:
                print(json.dumps(row, sort_keys=True))
            print(f"wrote {len(rows)} result row(s) to {out}")
        elif args.command == "eval":
            # only the test split stays alive while scoring
            test = load_corpus(Path(args.corpus)).split("test")
            report = run_eval(args.checkpoint, test, cfg.eval.selected(), out)
            for scorer, m in sorted(report.ood_metrics.items()):
                print(f"{scorer}: auroc={m.auroc:.4f} fpr95={m.fpr95:.4f} "
                      f"der={m.der:.4f}")
            print(f"wrote evaluation report to {out}")
        elif args.command == "ablate":
            seeds = _parse_seeds(args.seed)
            slugs = [s.strip() for s in args.ablation.split(",") if s.strip()]
            unknown = [s for s in slugs if s not in ABLATION_SLUGS]
            if unknown:
                raise ParameterError(f"cli: unknown ablation slug {unknown[0]!r}")
            variants = [ABLATION_SLUGS[s]
                        for s in _unique(slugs, "--ablation", "variant")]
            result = run_ablation(load_corpus(Path(args.corpus)), cfg, variants,
                                  seeds, out)
            print(f"wrote {len(result['rows'])} ablation rows to {out}")
            if result["checks"]:
                print(json.dumps(result["checks"], sort_keys=True))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
