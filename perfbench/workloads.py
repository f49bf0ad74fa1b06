"""The benchmark's workloads, each driven through ``mmood.cli.main`` in process.

A workload has a set-up, which writes the config and builds the inputs the
timed job reads, and a job, the CLI commands whose wall time is measured.
Every repetition of either is checked for correctness and digested, so a
later change that alters an output byte shows as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from mmood import cli

# The canonical run of scripts/run_pipeline.py.
CANONICAL_INI = """\
[model]
fusion_hidden = 32

[train]
batch_size = 32
stage1_epochs = 5
stage2_epochs = 25
learning_rate = 0.002

[eval]
scorer = all
"""

# The canonical corpus and config with a 12,000-record test split.
LARGE_INI = """\
[corpus]
n_test_id = 8000
n_test_ood = 4000

""" + CANONICAL_INI

# The noisy ablation corpus of scripts/run_ablation_suite.py at 4x feature
# dims: text carries the label signal, video and audio are noise-dominated.
WIDE_INI = """\
[corpus]
n_train = 200
n_valid = 80
n_test_id = 80
n_test_ood = 60
ood_clusters = 3
seq_len_t = 6
dim_t = 64
radius_t = 2.0
sigma_t = 0.6
seq_len_v = 8
dim_v = 48
radius_v = 0.3
sigma_v = 1.5
class_sigma_spread_v = 2.0
seq_len_a = 10
dim_a = 32
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

SCORERS = ("energy", "mahalanobis", "maxlogit", "msp", "residual", "vim")
ABLATION_SLUGS = "add,concat,full,no_binary,no_contrast,no_cosine"


@dataclass
class Rep:
    """One timed repetition of a set-up or a job."""
    wall_s: float = 0.0
    steps: dict[str, float] = field(default_factory=dict)
    train_s: float | None = None
    samples: int = 0          # training samples (ID plus pseudo-OOD) drawn
    epochs: int = 0           # training epochs run, both stages
    eval_s: float | None = None
    digest: str = ""
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class CliError(Exception):
    pass


def run_cli(argv: list[str], tracer=None) -> float:
    """Run one ``mmood`` command in process; returns its wall seconds."""
    sink = io.StringIO()
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
    if code != 0:
        raise CliError(f"mmood {argv[0]} exited with code {code}")
    return wall


def digest_tree(directory: Path) -> tuple[str, int]:
    """sha256 over every file under ``directory``, plus their total bytes.

    The ``time`` field of a train log's header line is the one value the
    CLI documents as varying between identical runs, so it is dropped.
    """
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.name == "train_log.jsonl":
            head, _, rest = data.partition(b"\n")
            header = json.loads(head)
            header.pop("time", None)
            data = json.dumps(header, sort_keys=True).encode() + b"\n" + rest
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


def epochs_in_log(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if '"stage"' in line)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


class Workload:
    name = ""
    ini = ""
    n_train = 600
    batch_size = 32

    def samples_per_epoch(self) -> int:
        half = self.batch_size // 2
        return (self.n_train // half) * self.batch_size

    def setup(self, out: Path, seed: int, tracer=None) -> Rep:
        def build(rep):
            (out / "run.ini").write_text(self.ini, encoding="utf-8")
            rep.steps["synth"] = run_cli(
                ["synth", "--config", str(out / "run.ini"),
                 "--out", str(out / "corpus"), "--seed", str(seed)], tracer)
            self.build_extra(out, seed, rep, tracer)

        return self.attempt(out, build, check=None)

    def build_extra(self, out: Path, seed: int, rep: Rep, tracer) -> None:
        """Inputs the job needs beyond the corpus."""

    def job(self, inputs: Path, out: Path, seed: int, tracer=None) -> Rep:
        return self.attempt(
            out, lambda rep: self.run_job(inputs, out, seed, rep, tracer),
            check=self.check)

    @staticmethod
    def attempt(out: Path, body, check) -> Rep:
        """Time ``body(rep)`` writing into ``out``, then digest and check."""
        rep = Rep()
        out.mkdir(parents=True)
        t0 = perf_counter()
        try:
            body(rep)
        except CliError as exc:
            rep.errors.append(str(exc))
        except Exception:  # a crash inside mmood fails this repetition only
            rep.errors.append(traceback.format_exc())
        rep.wall_s = perf_counter() - t0
        if rep.ok:
            try:
                rep.digest, rep.bytes_written = digest_tree(out)
                if check is not None:
                    rep.errors += check(out)
            except (OSError, ValueError, KeyError) as exc:
                rep.errors.append(f"unreadable output: {exc!r}")
        return rep

    def run_job(self, inputs: Path, out: Path, seed: int, rep: Rep,
                tracer) -> None:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    # -- shared steps -------------------------------------------------------------

    def train_step(self, inputs: Path, run_dir: Path, seed: int, rep: Rep,
                   tracer) -> None:
        rep.train_s = rep.steps["train"] = run_cli(
            ["train", "--config", str(inputs / "run.ini"),
             "--corpus", str(inputs / "corpus"), "--out", str(run_dir),
             "--seed", str(seed)], tracer)
        rep.epochs = epochs_in_log(run_dir / "train_log.jsonl")
        rep.samples = rep.epochs * self.samples_per_epoch()

    def eval_report_steps(self, inputs: Path, checkpoint: Path, eval_dir: Path,
                          rep: Rep, tracer) -> None:
        rep.eval_s = rep.steps["eval"] = run_cli(
            ["eval", "--config", str(inputs / "run.ini"),
             "--checkpoint", str(checkpoint), "--corpus", str(inputs / "corpus"),
             "--out", str(eval_dir)], tracer)
        rep.steps["report"] = run_cli(["report", str(eval_dir)], tracer)

    def check_ood_metrics(self, eval_dir: Path) -> tuple[list[str], dict]:
        rows = {r["scorer"]: r for r in read_csv(eval_dir / "metrics.csv")}
        errors = []
        if sorted(rows) != list(SCORERS):
            errors.append(f"metrics.csv scorers {sorted(rows)}, expected six")
        for scorer, row in rows.items():
            bad = [k for k, v in row.items() if k != "scorer" and not finite(v)]
            if bad:
                errors.append(f"metrics.csv {scorer}: non-finite {bad}")
        return errors, rows


class PipelineCanonical(Workload):
    name = "pipeline-canonical"
    ini = CANONICAL_INI

    def run_job(self, inputs, out, seed, rep, tracer):
        self.train_step(inputs, out / "run", seed, rep, tracer)
        self.eval_report_steps(inputs, out / "run", out / "eval", rep, tracer)

    def check(self, out):
        errors, rows = self.check_ood_metrics(out / "eval")
        id_rows = {r["metric"]: r["value"]
                   for r in read_csv(out / "eval" / "id_metrics.csv")}
        acc = float(id_rows["acc"])
        if not acc >= 0.95:
            errors.append(f"ID accuracy {acc} below the 0.95 gate")
        auroc = float(rows["mahalanobis"]["auroc"])
        if not auroc >= 0.90:
            errors.append(f"Mahalanobis AUROC {auroc} below the 0.90 gate")
        return errors


class EvalLarge(Workload):
    name = "eval-large"
    ini = LARGE_INI
    n_test = 12000

    def build_extra(self, out, seed, rep, tracer):
        self.train_step(out, out / "ckpt", seed, rep, tracer)

    def run_job(self, inputs, out, seed, rep, tracer):
        self.eval_report_steps(inputs, inputs / "ckpt", out / "eval", rep,
                               tracer)

    def check(self, out):
        errors, _ = self.check_ood_metrics(out / "eval")
        for scorer in SCORERS:
            with open(out / "eval" / f"scores_{scorer}.jsonl", "rb") as fh:
                rows = sum(1 for _ in fh)
            if rows != self.n_test:
                errors.append(f"scores_{scorer}.jsonl has {rows} rows, "
                              f"expected {self.n_test}")
        return errors


class AblateWide(Workload):
    name = "ablate-wide"
    ini = WIDE_INI
    n_train = 200

    def run_job(self, inputs, out, seed, rep, tracer):
        trainings: list[tuple[float, int]] = []
        original = cli.train

        def timed_train(*args, **kwargs):
            t0 = perf_counter()
            trained = original(*args, **kwargs)
            trainings.append((perf_counter() - t0, len(trained.log)))
            return trained

        cli.train = timed_train
        try:
            rep.steps["ablate"] = run_cli(
                ["ablate", "--config", str(inputs / "run.ini"),
                 "--corpus", str(inputs / "corpus"), "--out", str(out / "ablate"),
                 "--seed", str(seed), "--ablation", ABLATION_SLUGS], tracer)
        finally:
            cli.train = original
        rep.train_s = sum(t for t, _ in trainings)
        rep.epochs = sum(e for _, e in trainings)
        rep.samples = rep.epochs * self.samples_per_epoch()
        # evaluation inside `mmood ablate`: per-variant test features,
        # Mahalanobis fit/apply, metrics, and the CSV/JSON writers
        rep.eval_s = rep.steps["ablate"] - rep.train_s

    def check(self, out):
        rows = read_csv(out / "ablate" / "ablation.csv")
        errors = []
        if len(rows) != 6:
            errors.append(f"ablation.csv has {len(rows)} rows, expected 6")
        for row in rows:
            bad = [k for k, v in row.items()
                   if k not in ("variant", "seed") and not finite(v)]
            if bad:
                errors.append(f"ablation.csv {row['variant']}: non-finite {bad}")
        return errors


WORKLOADS = {w.name: w for w in (PipelineCanonical(), EvalLarge(), AblateWide())}
