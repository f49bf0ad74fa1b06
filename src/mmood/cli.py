"""Command-line harness: synth | train | eval | ablate | report.

Every command takes a config file plus overriding flags and writes only
into its --out directory. Outputs are deterministic for a fixed config and
seed; the single timestamp lives in the training-log header line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields, replace
from datetime import datetime, timezone
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from .blobio import write_jsonl
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .corpus import (OOD_LABEL, Corpus, load_corpus, rows_crc32, save_corpus,
                     synth_corpus)
from .errors import FormatError, NumericalError, ParameterError, PipelineError
from .metrics import EvalReport, OodMetrics, id_metrics, ood_metrics
from .model import SLOT_SYNTH
from .numerics import component_rng
from .scoring import apply_scorer, fit_scorer, normalize_scores
from .train import ABLATION_VARIANTS, train, variant_config

ABLATION_SLUGS = {slug: name for name, (slug, *_) in ABLATION_VARIANTS.items()}

OOD_METRICS = tuple(f.name for f in fields(OodMetrics))
ABLATION_METRICS = ("acc", "wf1", *OOD_METRICS)

# fixed glibc heap thresholds: left dynamic, steps re-fault after large frees
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 4 << 20
M_TRIM_THRESHOLD, TRIM_THRESHOLD = -1, 64 << 20

SCORE_BLOCK = 1024  # score rows that eval writes and report reads at a time


_CSV_SPECIAL = re.compile('[,"\n\r]').search


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted when it holds a comma, a double
    quote, a newline or a carriage return, with inner quotes doubled."""
    if _CSV_SPECIAL(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join([_csv_field(str(value)) for value in row]) + "\n"
                      for row in chain([header], rows))


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


def _unique(items: list, flag: str, noun: str) -> list:
    """``items`` parsed from ``flag``, which must name at least one and
    none twice."""
    if not items:
        raise ParameterError(f"cli: {flag} names no {noun}")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ParameterError(f"cli: duplicate {noun} {item} in {flag}")
    return items


@contextmanager
def _staged(out):
    """A scratch directory in ``out`` or its nearest existing ancestor, so a
    move is a rename. On normal exit a new ``out`` is the scratch directory
    itself, renamed with one ``os.replace`` (parents created, mode as
    ``os.makedirs`` gives); into an existing ``out`` each file moves with
    ``os.replace`` to its path. On any exception it is deleted."""
    out = Path(out)
    home = next(path for path in (out, *out.parents) if path.exists())
    if not home.is_dir():
        raise ParameterError(f"cli: output {home} is not a directory")
    with TemporaryDirectory(prefix=f"{out.name}.partial-", dir=home) as scratch:
        yield Path(scratch)
        os.makedirs(out.parent, exist_ok=True)
        if not out.exists():
            umask = os.umask(0o077)
            os.umask(umask)
            os.chmod(scratch, 0o777 & ~umask)
            os.replace(scratch, out)
            return
        for path in sorted(p for p in Path(scratch).rglob("*") if p.is_file()):
            target = out / path.relative_to(scratch)
            os.makedirs(target.parent, exist_ok=True)
            os.replace(path, target)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=np.ndarray.tolist) + "\n",
                    encoding="utf-8")


# -- synth ------------------------------------------------------------------


def _columns_and_digests(corpus: Corpus) -> tuple:
    """``(ids, splits, labels, {modality: (shape, sha256 of its bytes)})``,
    enough to tell a corpus bit for bit without keeping its sequences."""
    from hashlib import sha256  # so eval and report never load its 3.5 MiB

    return corpus.ids, corpus.splits, corpus.labels, {
        m: (s.shape, sha256(s).digest()) for m, s in corpus.seqs.items()}


def run_synth(cfg: RunConfig, out_dir, seed: int) -> Path:
    """Synthesize, save and reload a corpus; the reload must match the
    synthesized corpus bit for bit, checked by digest so that only one copy
    of the sequences is alive at a time."""
    with _staged(out_dir) as stage:
        corpus = synth_corpus(cfg.synth, component_rng(seed, SLOT_SYNTH))
        manifest = save_corpus(corpus, stage)
        *columns, digests = _columns_and_digests(corpus)
        del corpus
        *loaded, loaded_digests = _columns_and_digests(load_corpus(manifest))
        same = digests == loaded_digests and all(
            map(np.array_equal, columns, loaded))
        if not same:
            raise PipelineError(f"cli: corpus {out_dir} does not reload to the "
                                "synthesized corpus")
    return Path(out_dir) / manifest.name


# -- scoring ----------------------------------------------------------------


def _score(model, stats, train_feats, feats: np.ndarray, labels: np.ndarray,
           scorers: list[str]):
    """``(ID flags, IdMetrics, {scorer: OOD scores})`` of the test records'
    features ``feats`` and labels ``labels``, so the corpus need not be
    alive while the scorers are fitted; every command that reports on a
    model scores through it."""
    logits = model.logits_for(feats)
    flags = labels != OOD_LABEL
    idm = id_metrics(logits[flags].argmax(axis=1), labels[flags],
                     model.num_classes)
    train_logits, scores = model.logits_for(train_feats), {}
    for variant in scorers:
        state = fit_scorer(variant, train_feats, train_logits, stats,
                           model.num_classes)
        scores[variant] = apply_scorer(state, feats, logits)
    return flags, idm, scores


def _test_row(trained, corpus: Corpus) -> tuple[dict, np.ndarray]:
    """``(row, features)``: ID accuracy and WF1 on the test split, plus the
    Mahalanobis OOD metrics when it holds OOD records, and the split's
    fused features they were scored from; ``({}, (0, D) features)`` when it
    holds no ID record."""
    rows = np.flatnonzero(corpus.splits == "test")
    labels = corpus.labels[rows]
    if (labels == OOD_LABEL).all():
        return {}, np.empty((0, trained.model.d_shared))
    feats = trained.model.features_for(corpus, rows)
    flags, idm, scores = _score(
        trained.model, trained.class_stats, trained.train_features, feats,
        labels, ["mahalanobis"] if (labels == OOD_LABEL).any() else [])
    row = {"acc": idm.acc, "wf1": idm.wf1}
    for raw in scores.values():
        row.update(asdict(ood_metrics(raw, flags)))
    return row, feats


# -- train ------------------------------------------------------------------


def run_training(corpus: Corpus, cfg: RunConfig, out_dir, seeds: list[int],
                 variant: str = "Full") -> list[dict]:
    """Train once per seed; returns one result row per seed.

    A single seed writes the checkpoint into ``out_dir`` directly; several
    seeds write ``out_dir/seed_<n>/`` each, plus results.csv and a
    mean/std summary. ``seeds`` may not be empty or name a seed twice.
    Each checkpoint caches the test features its row was scored from.
    """
    _unique(seeds, "--seed", "seed")
    configs = [variant_config(replace(cfg.train, seed=seed), variant)
               for seed in seeds]
    test_rows = np.flatnonzero(corpus.splits == "test")
    rows = []
    with _staged(out_dir) as stage:
        for seed, train_cfg in zip(seeds, configs):
            trained = train(corpus, train_cfg, cfg.oodgen)
            row = {"seed": seed}
            if trained.best:
                row.update(best_epoch=trained.best["epoch"],
                           val_wf1=trained.best["wf1"])
            metrics, feats = _test_row(trained, corpus)
            row.update(metrics)
            rows.append(row)
            target = stage if len(seeds) == 1 else stage / f"seed_{seed}"
            # with no features cached, the key is that of no records
            save_checkpoint(trained, target,
                            rows_crc32(corpus, test_rows[:len(feats)]), feats)
            header = {"event": "start", "seed": seed, "variant": variant,
                      "time": datetime.now(timezone.utc).isoformat()}
            write_jsonl(target / "train_log.jsonl", chain(
                [header], trained.log, [{"event": "end", "best": trained.best}]))

        keys = sorted({k for row in rows for k in row} - {"seed"})
        _write_csv(stage / "results.csv", ["seed"] + keys, [
            [row["seed"]] + [row.get(k, "") for k in keys] for row in rows])
        _write_csv(stage / "results_summary.csv", ["metric", "mean", "std"],
                   [[key, *ms] for key, ms in _mean_std(rows, keys).items()])
    return rows


# -- eval -------------------------------------------------------------------


def run_eval(checkpoint_dir, corpus: Corpus, scorers: list[str],
             out_dir) -> EvalReport:
    """Score ``corpus``'s test split with a checkpoint, reading its records
    by row index. Their features are the checkpoint's cached test features
    when the split has as many records with the same ``rows_crc32`` key,
    and else a fresh feature pass. Features, ids and labels are taken
    before this function drops its reference to ``corpus``, so a caller
    that keeps none (as ``main`` does) fits the scorers and writes the
    score files with no sequences alive."""
    with _staged(out_dir) as stage:
        model, *fitted, (key, cached), _ = load_checkpoint(checkpoint_dir)
        if corpus.num_classes != model.num_classes:
            raise ParameterError(
                f"cli: corpus has {corpus.num_classes} classes, checkpoint "
                f"{checkpoint_dir} was trained on {model.num_classes}"
            )
        for m, shape in model.meta.shapes.items():
            if corpus.meta.shapes[m] != shape:
                raise ParameterError(
                    f"cli: corpus modality {m} has shape "
                    f"{corpus.meta.shapes[m]}, checkpoint {checkpoint_dir} "
                    f"was trained on {shape}")
        rows = np.flatnonzero(corpus.splits == "test")
        labels = corpus.labels[rows]
        n_ood = int((labels == OOD_LABEL).sum())
        if not 0 < n_ood < len(rows):
            raise ParameterError(
                f"cli: corpus test split holds {len(rows) - n_ood} ID and "
                f"{n_ood} OOD records; eval needs at least one of each")
        hit = len(cached) == len(rows) and rows_crc32(corpus, rows) == key
        feats = cached if hit else model.features_for(corpus, rows)
        ids = corpus.ids[rows].tolist()
        del corpus
        flags, idm, scores = _score(model, *fitted, feats, labels, scorers)
        # json.dumps(row, sort_keys=True) for finite scores, one f-string a row
        heads = [f'{{"id": {encode_basestring_ascii(rec_id)}, "is_id": '
                 f'{"true" if flag else "false"}, "norm": '
                 for rec_id, flag in zip(ids, flags.tolist())]
        for variant, raw in scores.items():
            # an overflowing min-max range warns; the check below names it
            with np.errstate(over="ignore", invalid="ignore"):
                norm = normalize_scores(raw)
            for kind, values in (("raw", raw), ("normalised", norm)):
                bad = ~np.isfinite(values)
                if bad.any():
                    i = int(bad.argmax())
                    raise NumericalError(
                        f"cli: scorer {variant!r} gives record {ids[i]!r} the "
                        f"non-finite {kind} score {float(values[i])!r}")
            with open(stage / f"scores_{variant}.jsonl", "w",
                      encoding="utf-8") as fh:
                for start in range(0, len(heads), SCORE_BLOCK):
                    block = slice(start, start + SCORE_BLOCK)
                    fh.writelines([f'{head}{n!r}, "raw": {r!r}}}\n'
                                   for head, r, n in zip(
                                       heads[block], raw[block].tolist(),
                                       norm[block].tolist())])

        report = EvalReport(records=len(ids), id_metrics=idm, ood_metrics={
            variant: ood_metrics(raw, flags) for variant, raw in scores.items()})
        _write_json(stage / "eval_report.json", asdict(report))
        _write_csv(stage / "metrics.csv", ["scorer", *OOD_METRICS], [
            [v, *astuple(m)] for v, m in sorted(report.ood_metrics.items())])
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
    _unique(seeds, "--seed", "seed")
    grid = [(variant, seed,
             variant_config(replace(cfg.train, seed=seed), variant))
            for variant in variants for seed in seeds]
    _unique([ABLATION_VARIANTS[v][0] for v in variants], "--ablation",
            "variant")

    rows = []
    with _staged(out_dir) as stage:
        for variant, seed, train_cfg in grid:
            row = {"variant": variant, "seed": seed}
            row.update(_test_row(train(corpus, train_cfg, cfg.oodgen),
                                 corpus)[0])
            rows.append(row)

        metric_keys = [k for k in ABLATION_METRICS if all(k in r for r in rows)]
        _write_csv(stage / "ablation.csv", ["variant", "seed"] + metric_keys, [
            [r["variant"], r["seed"]] + [r[k] for k in metric_keys] for r in rows
        ])

        aggregate: dict[str, dict[str, dict[str, float]]] = {}
        for variant in variants:
            runs = [r for r in rows if r["variant"] == variant]
            aggregate[variant] = {key: {"mean": mean, "std": std}
                                  for key, (mean, std)
                                  in _mean_std(runs, metric_keys).items()}
        _write_csv(stage / "aggregate.csv", ["variant", "metric", "mean", "std"],
                   [[variant, key, ms["mean"], ms["std"]]
                    for variant, per_key in aggregate.items()
                    for key, ms in per_key.items()])

        auroc = {variant: per_key["auroc"]["mean"]
                 for variant, per_key in aggregate.items() if "auroc" in per_key}
        checks = {label: bool(auroc["Full"] >= auroc[other])
                  for other, (*_, label) in ABLATION_VARIANTS.items()
                  if label and "Full" in auroc and other in auroc}
        summary = {
            "aggregate": aggregate,
            "ordering_checks": checks,
            "ordering_ok": all(checks.values()) if checks else None,
        }
        _write_json(stage / "ablation_summary.json", summary)
    return {"rows": rows, "aggregate": aggregate, "checks": checks}


# -- report -----------------------------------------------------------------

_NUMBER = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_SCORE_ROW = re.compile(r'^\{"id": "([ !#-\[\]-~]*(?:\\.[ !#-\[\]-~]*)*)", '
                        r'"is_id": (true|false), "norm": %s, "raw": %s\}$'
                        % (_NUMBER, _NUMBER), re.M)


def _finite_float(value) -> float:
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite float")
    return value


def _ood_scorers(ood) -> list[str]:
    """The scorers an eval report's ``ood_metrics`` names, sorted: it must
    be an object of objects, each mapping every ``OodMetrics`` field to a
    finite float (as ``id_metrics`` maps its keys)."""
    if type(ood) is not dict:
        raise TypeError(f"ood_metrics = {ood!r}; expected an object")
    for scorer, metrics in ood.items():
        if type(metrics) is not dict or metrics.keys() != set(OOD_METRICS):
            raise TypeError(f"ood_metrics[{scorer!r}] = {metrics!r}; expected "
                            f"an object of {', '.join(OOD_METRICS)}")
        for value in metrics.values():
            _finite_float(value)
    return sorted(ood)


def _columns(lines: list[str]) -> tuple | None:
    """``(ids, keys, flags, norms, raws)`` of score rows ``lines``, each id as
    JSON decodes it and as eval escapes it (a bytes key); None if a row is
    out of eval's layout, JSON or UTF-8 rejects its id or a score overflows."""
    text = "".join(lines)
    if len(rows := _SCORE_ROW.findall(text)) != len(lines):
        return None
    ids, flags, norms, raws = zip(*rows)
    keys = ids
    try:
        if "\\" in text:
            ids = [json.loads(f'"{i}"') if "\\" in i else i for i in ids]
            "".join(ids).encode("utf-8")  # a lone surrogate raises
            keys = [encode_basestring_ascii(i)[1:-1] for i in ids]
        if not all(map(math.isfinite, map(float, norms + raws))):
            return None
    except ValueError:
        return None
    return ids, np.array(keys, dtype="S"), flags, norms, raws


def _record(block: tuple, k: int) -> str:
    rec_id = json.loads(b'"%s"' % block[0][k])
    return f"record id {rec_id!r} (is_id {str(block[1][k]).lower()})"


def _write_scores(fh, path: Path, name: str, records: int, first=None):
    """Write a score file's ``scores_long.csv`` lines, led by ``name``, to
    ``fh``; returns ``first``, or else ``(path, [(keys, is_id) a block])``."""
    columns = []
    try:
        with open(path, encoding="utf-8", newline="\n") as src:
            while lines := list(islice(src, SCORE_BLOCK)):
                if (block := _columns(lines)) is None:
                    n = len(columns) * SCORE_BLOCK + next(
                        k for k, line in enumerate(lines, 1)
                        if not _columns([line]))
                    raise FormatError(f"cli: {path} line {n}: malformed "
                                      "score row")
                ids, keys, flags, norms, raws = block
                columns.append((keys, np.array(flags) == "true"))
                if _CSV_SPECIAL("".join(ids)):
                    ids = list(map(_csv_field, ids))
                fh.writelines([f"{name},{i},{'01'[f == 'true']},{r},{n}\n"
                               for i, f, r, n in zip(ids, flags, raws, norms)])
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cli: {path}: unreadable score file "
                          f"({type(exc).__name__}: {exc})") from exc
    if (count := sum(len(keys) for keys, _ in columns)) != records:
        raise FormatError(f"cli: {path}: holds {count} score rows, but the "
                          f"eval report scored {records} records")
    for b, (mine, ref) in enumerate(zip(columns, first[1] if first else ())):
        if (bad := (mine[0] != ref[0]) | (mine[1] != ref[1])).any():
            n = b * SCORE_BLOCK + (k := int(bad.argmax())) + 1
            raise FormatError(f"cli: {path} line {n}: {_record(mine, k)} does "
                              f"not match {first[0]}'s {_record(ref, k)}")
    if first is None:
        ordered = np.concatenate([keys for keys, _ in columns])
        ordered.sort()
        if (ordered[1:] == ordered[:-1]).any():
            ids, seen = [i for keys, _ in columns for i in keys.tolist()], {}
            n = next(n for n, i in enumerate(ids) if seen.setdefault(i, n) != n)
            b, k = divmod(n, SCORE_BLOCK)
            raise FormatError(f"cli: {path} line {n + 1}: "
                              f"{_record(columns[b], k)} repeats line "
                              f"{seen[ids[n]] + 1}")
    return first or (path, columns)


def _check_input(path: Path, hint: str) -> None:
    """``path`` is a file; if not, the error says if it is missing."""
    if not path.is_file():
        raise ParameterError(f"cli: {path} is not a file" if path.exists()
                             else f"cli: {path} not found; {hint}")


def run_report(eval_dir, out_dir=None) -> Path:
    """Re-shape an eval directory into plot-ready CSV tables, streaming each
    score file (in eval's row layout, ``records`` rows, the first file's
    distinct ids and flags in order) into ``scores_long.csv`` by blocks."""
    eval_dir = Path(eval_dir)
    out_dir = Path(out_dir) if out_dir is not None else eval_dir
    with _staged(out_dir) as stage:
        report_path = eval_dir / "eval_report.json"
        _check_input(report_path, "run eval first")
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            per_class = list(map(_finite_float,
                                 report["id_metrics"]["per_class_acc"]))
            id_rows = [[k, _finite_float(v)]
                       for k, v in sorted(report["id_metrics"].items())
                       if k not in ("per_class_acc", "confusion")]
            scorers = _ood_scorers(report["ood_metrics"])
            records = report["records"]
            if type(records) is not int or records < 1:
                raise ValueError(f"records = {records!r}; expected an int >= 1")
        except OSError as exc:
            raise FormatError(f"cli: cannot read {report_path} ({exc})") from exc
        except (AttributeError, KeyError, TypeError, ValueError,
                RecursionError) as exc:
            raise FormatError(f"cli: {report_path}: malformed eval report "
                              f"({type(exc).__name__}: {exc})") from exc

        _write_csv(stage / "per_class_acc.csv", ["class", "accuracy"],
                   [[i, v] for i, v in enumerate(per_class)])
        with open(stage / "scores_long.csv", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("scorer,sample_id,is_id,raw,normalized\n")
            first = None
            for scorer in scorers:
                scores_path = eval_dir / f"scores_{scorer}.jsonl"
                _check_input(scores_path, "the eval report lists scorer "
                             f"{scorer!r}")
                first = _write_scores(fh, scores_path, _csv_field(scorer),
                                      records, first)
        _write_csv(stage / "id_metrics.csv", ["metric", "value"], id_rows)
    return out_dir


# -- argument plumbing --------------------------------------------------------


def _parse_seeds(raw: str) -> list[int]:
    """The seeds of a comma-separated ``--seed`` list, each an int >= 0."""
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"cli: bad --seed list {raw!r}") from exc
    if any(seed < 0 for seed in seeds):
        raise ParameterError(f"cli: bad --seed list {raw!r}; seeds must be "
                             ">= 0")
    return seeds


def _resolve_out(out: str | None, default: str | None) -> str:
    """``out``, else ``default``; a blank value counts as missing."""
    out = out if out is not None else default
    if out is None or not out.strip():
        raise ParameterError(
            "cli: no output directory; pass --out or set [run] out_dir"
        )
    return out


def main(argv=None) -> int:
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
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
            out = _resolve_out(args.out, args.eval_dir)
            print(f"wrote report tables to {run_report(args.eval_dir, out)}")
            return 0
        if args.config is not None and not args.config.strip():
            raise ParameterError("cli: --config is blank; pass a config file "
                                 "or leave the flag out")
        cfg = load_config(args.config) if args.config is not None \
            else RunConfig()
        if getattr(args, "scorer", None) is not None:
            cfg.eval = replace(cfg.eval, scorer=args.scorer)
        out = _resolve_out(args.out, cfg.out_dir)
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
            # unnamed here, the corpus dies inside run_eval, before any
            # scorer is fitted
            report = run_eval(args.checkpoint, load_corpus(Path(args.corpus)),
                              cfg.eval.selected(), out)
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
            variants = [ABLATION_SLUGS[s] for s in slugs]
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
