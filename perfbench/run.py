#!/usr/bin/env python3
"""mmood benchmark: one workload per process, through the public CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-canonical --seed 0 \\
        --seconds 15 --trace 0

With ``--trace 0`` it sets the workload up several times, then repeats the
timed job until ``--seconds`` have passed, and reports the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` it traces one set-up, then
alternates untraced and traced jobs, and reports the per-layer metrics of
BENCHMARK.json. The last line of standard output is the JSON result; a
fuller record of the run goes to perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench-out"
SETUP_REPS = 3
# The model's matrices are at most 64 wide, so BLAS threads only add
# scheduling noise; one thread also keeps the load at one core of nproc.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def openblas_info() -> dict:
    """OpenBLAS build string and live thread count, read from the loaded lib."""
    import numpy as np

    info = {"config": np.show_config(mode="dicts")["Build Dependencies"]
            ["blas"].get("openblas configuration"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


def machine_info() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def flag_digest_mismatches(reps) -> None:
    """Every repetition of one run must write the same bytes as the first."""
    for rep in reps[1:]:
        if rep.digest != reps[0].digest:
            rep.errors.append(f"output digest {rep.digest[:12]} differs from "
                              f"the first repetition's {reps[0].digest[:12]}")


def timed_reps(run_once, seconds: float) -> list:
    """Repeat ``run_once(i)`` until ``seconds`` have passed, at least once."""
    reps = []
    deadline = perf_counter() + seconds
    while not reps or perf_counter() < deadline:
        reps.append(run_once(len(reps)))
    return reps


def end_to_end(wl, import_s, setups, reps) -> dict:
    good_setups = [r for r in setups if r.ok] or setups
    good = [r for r in reps if r.ok] or reps
    trains = [r for r in (good_setups + good) if r.train_s]
    return {
        "setup_s": import_s + median([r.wall_s for r in good_setups]),
        "job_s": median([r.wall_s for r in good]),
        "train_s": median([r.train_s for r in trains]),
        "train_samples_per_s": median([r.samples / r.train_s for r in trains]),
        "eval_s": median([r.eval_s for r in good if r.eval_s is not None]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_value(name: str, table: dict, extra: dict) -> float:
    """A per-layer metric: a count, or a span family's calls or self time.

    ``<prefix>.calls`` and ``<prefix>.self_s`` sum every span named
    ``<prefix>`` or ``<prefix>.<anything>``, so ``metrics.self_s`` is the
    whole metrics module and ``scoring.fit_scorer.calls`` covers all six
    scorers. A span the run never reached contributes nothing.
    """
    if name in extra:
        return extra[name]
    prefix, _, field = name.rpartition(".")
    if field not in ("calls", "self_s"):
        raise KeyError(f"perfbench: no per-layer metric {name!r}")
    return sum(row[field] for span, row in table.items()
               if span == prefix or span.startswith(prefix + "."))


def merge_tables(*tables) -> dict:
    merged: dict[str, dict] = {}
    for table in tables:
        for span, row in table.items():
            acc = merged.setdefault(span, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return merged


def print_table(title: str, table: dict, wall: float) -> None:
    print(f"{title}: wall {wall:.4f} s")
    print(f"  {'span':40s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s} "
          f"{'self%':>6s}")
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:40s} {row['calls']:8d} {row['self_s']:10.4f} "
              f"{row['total_s']:10.4f} {100 * row['self_s'] / wall:6.2f}")
    modules: dict[str, float] = {}
    for span, row in table.items():
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    shares = ", ".join(f"{m} {100 * s / wall:.1f}%" for m, s in
                       sorted(modules.items(), key=lambda kv: -kv[1]))
    print(f"  module shares of self time: {shares}")


def traced_run(wl, seed, seconds, work, record) -> tuple[dict, list, list]:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup") as setup_root:
        setup = wl.setup(work / "setup0", seed, tracer)
    setup_counts = dict(tracer.counts)
    inputs = work / "setup0"
    plain, traced = [], []

    def pair(i):
        plain.append(wl.job(inputs, work / f"plain{i}", seed))
        shutil.rmtree(work / f"plain{i}")
        before = dict(tracer.counts)
        with tracer.installed(), tracer.span("bench.job") as root:
            rep = wl.job(inputs, work / f"traced{i}", seed, tracer)
        shutil.rmtree(work / f"traced{i}")
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        traced.append((root, rep, counts))
        return rep

    timed_reps(pair, seconds)
    flag_digest_mismatches(plain + [rep for _, rep, _ in traced])

    # report the traced job of median wall time, whole, so its self times
    # still add up to its wall time
    by_wall = sorted(traced, key=lambda t: tracer.duration(t[0]))
    root, rep, counts = by_wall[(len(by_wall) - 1) // 2]
    setup_table = tracer.subtree(setup_root)
    job_table = tracer.subtree(root)
    job_calls = {s: r["calls"] for s, r in job_table.items()}
    for other_root, other, _ in traced:
        if {s: r["calls"] for s, r in tracer.subtree(other_root).items()} \
                != job_calls:
            other.errors.append("span call counts differ between traced jobs")

    job_wall = tracer.duration(root)
    residual = abs(sum(r["self_s"] for r in job_table.values()) - job_wall)
    if residual > 1e-6 * job_wall:
        rep.errors.append(f"span self times miss the job wall by {residual} s")
    untraced_job = median([r.wall_s for r in plain])
    overhead = job_wall / untraced_job
    print_table(f"trace {wl.name} setup", setup_table, tracer.duration(setup_root))
    print_table(f"trace {wl.name} job", job_table, job_wall)
    print(f"trace {wl.name}: traced job {job_wall:.4f} s over untraced "
          f"{untraced_job:.4f} s = overhead {overhead:.3f}x; self-time sum "
          f"misses the traced job wall by {residual:.3g} s")
    if tracer.missing:
        print(f"trace {wl.name}: targets not found: {tracer.missing}")

    extra = {
        "train.epochs_run": setup.epochs + rep.epochs,
        "cli.bytes_written": setup.bytes_written + rep.bytes_written,
        "bench.trace_overhead": overhead,
    }
    for key in set(setup_counts) | set(counts):
        extra[key] = setup_counts.get(key, 0) + counts.get(key, 0)
    table = merge_tables(setup_table, job_table)
    record.update({
        "trace": {"setup": setup_table, "job": job_table,
                  "traced_job_s": job_wall, "untraced_job_s": untraced_job,
                  "overhead": overhead, "self_time_residual_s": residual,
                  "missing_targets": tracer.missing, "counts": extra},
    })
    tracer.dump(record["spans_path"], [setup_root, root])
    return ({"table": table, "extra": extra}, [setup],
            plain + [rep for _, rep, _ in traced])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mmood" / "cli.py").is_file():
        print(f"perfbench: no mmood sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # set before numpy loads OpenBLAS; bytecode stays out of the checkout,
    # so every run pays the same import cost
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    load_start = os.getloadavg()
    t0 = perf_counter()
    import mmood.cli  # noqa: F401  (timed: part of setup_s)
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s,
              "spans_path": str(OUT / "results" / f"{tag}-spans.json.gz")}
    try:
        if args.trace:
            layers, setups, reps = traced_run(wl, args.seed, args.seconds,
                                              work, record)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = {n: layer_value(n, layers["table"], layers["extra"])
                      for n in names}
        else:
            setups = []
            for i in range(SETUP_REPS):
                setups.append(wl.setup(work / f"setup{i}", args.seed))
                if i:
                    shutil.rmtree(work / f"setup{i - 1}")
            inputs = work / f"setup{SETUP_REPS - 1}"

            def job_once(i):
                rep = wl.job(inputs, work / f"rep{i}", args.seed)
                shutil.rmtree(work / f"rep{i}")
                return rep

            reps = timed_reps(job_once, args.seconds)
            flag_digest_mismatches(setups)
            flag_digest_mismatches(reps)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = end_to_end(wl, import_s, setups, reps)
            values = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = setups + reps
    failed = sum(1 for r in ops if not r.ok)
    record["machine"] = machine_info()
    record["machine"]["loadavg_start"] = load_start
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["setups"] = [vars(r) for r in setups]
    record["reps"] = [vars(r) for r in reps]
    record["digest"] = reps[0].digest
    record["metrics"] = values
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n",
        encoding="utf-8")

    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"digest {wl.name} seed {args.seed}: {reps[0].digest}")
    for r in ops:
        for err in r.errors:
            print(f"FAILED {wl.name}: {err}")
    print(f"samples: {len(setups)} set-ups, {len(reps)} jobs; epochs run "
          f"{[r.epochs for r in setups]} per set-up, "
          f"{[r.epochs for r in reps]} per job; bytes written "
          f"{setups[0].bytes_written} per set-up, {reps[0].bytes_written} per job")
    for name in ("wall_s", "train_s", "eval_s"):
        print(f"{name} per job: {[round(getattr(r, name) or 0.0, 4) for r in reps]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
