"""textomp benchmark: one command, three workloads, one traced run.

    python3 perfbench/run.py --workload omp_refit --seed 1 --seconds 35 --trace 0

--trace 0 measures one workload: it repeats set-up and the timed call on
fresh inputs drawn from (seed, sample number) until the next sample would
pass --seconds of timed work, and reports medians of the end-to-end
metrics. --trace 1 ignores --seconds and runs every workload once
untraced and once with span tracing on the same inputs, checks that both
select the same support, and reports the per-layer metrics of every
workload (named <workload>.<layer metric>) with the tracing overhead, so
that each traced run carries the full per-layer set.

Human-readable lines go first; the last line of stdout is the JSON result.
A detailed record (environment, checks, samples and, when traced, every
span) is written to .bench_out/ in the directory the command runs from,
which must be the repository root. Output checks are reported in
"correct", not through the exit code.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: threads change theta's low bits and
# the non-converged refit count (the selected support stays the same).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
if not (ROOT / "src" / "textomp").is_dir():
    sys.exit("src/textomp not found: run from the repository root")
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import textomp  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_SETUPS = 3  # set-up repeats per run, so setup_s is a median

# Per-layer metrics of the traced run, per workload. Units follow from the
# suffix; *_bytes and *_flops are computed from array and file sizes.
LAYERS = {
    "omp_refit": """
        logistic.fit_restricted.calls logistic.fit_restricted.self_s
        logistic.fit_restricted.newton_iters
        logistic.fit_restricted.nonconverged
        logistic.fit_restricted.hessian_flops
        logistic.residual.self_s sparse.densify_columns.self_s
        omp.select_feature.self_s omp.step_ms.p50 omp.step_ms.p95
        sparse.correlations.calls sparse.correlations.self_s
        sparse.correlations.bytes sparse.mat_vec.calls sparse.mat_vec.self_s
        logistic.final_grad_inf trace.overhead_s""",
    "gomp_overlap": """
        gomp.select_group.calls gomp.select_group.self_s
        gomp.remove_overlap.self_s gomp.score_group_orthonormal.self_s
        gomp.groups_live gomp.multi_member_wins gomp.step_ms.p50
        gomp.step_ms.p90 grouping.augment_singletons.self_s
        logistic.fit_restricted.self_s
        sparse.correlations.calls sparse.correlations.self_s
        sparse.correlations.bytes sparse.mat_vec.calls sparse.mat_vec.self_s
        logistic.final_grad_inf trace.overhead_s""",
    "cli_pipeline": """
        sparse.load.self_s sparse.load.bytes sparse.save.self_s
        sparse.save.bytes textpipe.load_raw_corpus.self_s
        textpipe.map_labels.self_s textpipe.Corpus.build.self_s
        textpipe.build_matrix.self_s textpipe.stratified_split.self_s
        grouping.load_embeddings.self_s grouping.kmeans_cluster.self_s
        grouping.expand_overlap.self_s grouping.save_groups.self_s
        grouping.load_groups.self_s grouping.kmeans_cluster.dist_bytes
        baselines.fit_penalized.calls baselines.fit_penalized.self_s
        baselines.fit_penalized.n_iter baselines.fit_penalized.nonconverged
        evaluation.grid_search.self_s evaluation.accuracy.self_s
        evaluation.atoms_curve.self_s
        cli.vectorize.s cli.group.s cli.grid.s cli.train.s cli.eval.s
        cli.top-weights.s cli.vectorize.exit_nonzero cli.group.exit_nonzero
        cli.grid.exit_nonzero cli.train.exit_nonzero cli.eval.exit_nonzero
        cli.top-weights.exit_nonzero gomp.multi_member_wins
        gomp.score_group_orthonormal.self_s trace.overhead_s""",
}
LAYERS = {wl: names.split() for wl, names in LAYERS.items()}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("bytes"):
        return "B_computed"
    if name.endswith("flops"):
        return "flop_computed"
    if ".step_ms." in name:
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("grad_inf"):
        return "norm"
    return "count"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "textomp": textomp.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def sample_rng(seed, sample):
    return np.random.default_rng([seed, sample])


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def no_region(name):
    return contextlib.nullcontext()


# -- trace 0: end-to-end metrics -------------------------------------------------

def measure(wl, seed, seconds):
    """Repeat (set-up, timed call, checks) on fresh inputs per sample until
    the next sample would pass `seconds` of timed work; at least one."""
    samples, setups = [], []
    first_digest = None
    while True:
        workdir = WORK / f"{wl.name}-{len(samples)}"
        inputs, setup_s = timed(wl.setup, sample_rng(seed, len(samples)),
                                workdir)
        setups.append(setup_s)
        if first_digest is None:
            first_digest = wl.digest(inputs)
        raw, wall = timed(wl.run, inputs, no_region)
        outcome = wl.evaluate(inputs, raw)
        outcome.wall_s = wall
        samples.append(outcome)
        if len(samples) == 1:
            # Peak RSS through one whole sample; later samples would make it
            # depend on how many fit into the run.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del inputs, raw
        shutil.rmtree(workdir, ignore_errors=True)
        walls = [s.wall_s for s in samples]
        if sum(walls) + statistics.median(walls) > seconds:
            break
    # Extra set-ups of sample 0's seed: a steadier setup_s median, and a
    # check that one seed always generates the same inputs.
    reproducible = True
    while len(setups) < MIN_SETUPS:
        workdir = WORK / f"{wl.name}-again"
        inputs, setup_s = timed(wl.setup, sample_rng(seed, 0), workdir)
        setups.append(setup_s)
        reproducible &= wl.digest(inputs) == first_digest
        del inputs
        shutil.rmtree(workdir, ignore_errors=True)
    return samples, setups, peak_mb, reproducible


def run_untraced(args, record):
    wl = workloads.WORKLOADS[args.workload]
    samples, setups, peak_mb, reproducible = measure(wl, args.seed,
                                                     args.seconds)
    fits = sum(s.fits for s in samples)
    nonconverged = sum(s.nonconverged for s in samples)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    ok = [s.accuracy for s in samples if s.failed == 0]
    nonconverged_ratio = nonconverged / fits if fits else 1.0
    error_ratio = failed / attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(s.wall_s for s in samples), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "dev_accuracy": (statistics.median(ok) if ok else 0.0, "fraction"),
        # Complements of nonconverged_ratio and error_ratio: those are 0 on
        # a healthy run, so no relative bound can be put on them.
        "converged_ratio": (1.0 - nonconverged_ratio, "fraction"),
        "success_ratio": (1.0 - error_ratio, "fraction"),
    }
    checks = {"same_seed_same_inputs": reproducible}
    for s in samples:
        for name, passed in s.checks.items():
            checks[name] = checks.get(name, True) and bool(passed)

    print(f"{wl.name}: {len(samples)} timed samples, {len(setups)} set-ups")
    for i, s in enumerate(samples):
        print(f"  sample {i}: wall_s={s.wall_s:.4f} s  "
              f"accuracy={s.accuracy:.4f}  nonconverged={s.nonconverged}"
              f"/{s.fits}  failed={s.failed}/{s.attempted}  "
              f"support_sha256={s.support_sha256[:16]}  "
              + "  ".join(f"{k}={v}" for k, v in s.extras.items()))
    shown = {**metrics, "nonconverged_ratio": (nonconverged_ratio, "fraction"),
             "error_ratio": (error_ratio, "fraction")}
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    record["samples"] = [vars(s) for s in samples]
    record["setups_s"] = setups
    return metrics, attempted, failed, checks


# -- trace 1: per-layer metrics ------------------------------------------------

def layer_values(spans, outcome, overhead):
    """Every per-layer value this run can derive, keyed by metric name."""
    values = {}
    for name, t in tracing.layer_totals(spans).items():
        if name.startswith("cli."):
            values[name + ".s"] = t["total_s"]
            continue
        for key, val in t.items():
            if key != "total_s":
                values[f"{name}.{key}"] = val
    for loop, step, label, pct in (
            ("omp.run_omp", "omp.select_feature", "omp", (50, 95)),
            ("gomp.run_gomp", "gomp.select_group", "gomp", (50, 90))):
        steps = tracing.step_times_ms(spans, loop, step)
        if steps:
            for p in pct:
                values[f"{label}.step_ms.p{p}"] = float(np.percentile(steps, p))
    if "gomp.select_group.groups_live" in values:
        values["gomp.groups_live"] = values["gomp.select_group.groups_live"]
    if "multi_member_wins" in outcome.extras:
        values["gomp.multi_member_wins"] = outcome.extras["multi_member_wins"]
    if "final_grad_inf" in outcome.extras:
        values["logistic.final_grad_inf"] = outcome.extras["final_grad_inf"]
    for sub, n in outcome.extras.get("exit_nonzero", {}).items():
        values[f"cli.{sub}.exit_nonzero"] = n
    values["trace.overhead_s"] = overhead
    return values


def run_traced(args, record):
    metrics, checks = {}, {}
    attempted = failed = 0
    record["spans"] = {}
    for wl in workloads.WORKLOADS.values():
        workdir = WORK / f"{wl.name}-traced"
        inputs = wl.setup(sample_rng(args.seed, 0), workdir)
        raw, wall_plain = timed(wl.run, inputs, no_region)
        plain = wl.evaluate(inputs, raw)
        tracer = tracing.Tracer().install()
        try:
            raw, wall_traced = timed(wl.run, inputs, tracer.region)
        finally:
            tracer.remove()
        traced = wl.evaluate(inputs, raw)
        del inputs, raw
        shutil.rmtree(workdir, ignore_errors=True)

        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        for name, ok in {**plain.checks, **traced.checks}.items():
            checks[f"{wl.name}.{name}"] = \
                checks.get(f"{wl.name}.{name}", True) and bool(ok)
        checks[f"{wl.name}.traced_support_matches_untraced"] = \
            bool(plain.support_sha256) \
            and plain.support_sha256 == traced.support_sha256
        checks[f"{wl.name}.traced_model_matches_untraced"] = \
            bool(plain.model_sha256) \
            and plain.model_sha256 == traced.model_sha256

        overhead = wall_traced - wall_plain
        values = layer_values(tracer.spans, traced, overhead)
        missing = [m for m in LAYERS[wl.name] if m not in values]
        checks[f"{wl.name}.every_layer_metric_present"] = not missing
        for m in LAYERS[wl.name]:
            if m in values:
                metrics[f"{wl.name}.{m}"] = (values[m], layer_unit(m))
        print(f"{wl.name}: untraced wall_s={wall_plain:.4f} s, traced "
              f"wall_s={wall_traced:.4f} s, overhead={overhead:+.4f} s, "
              f"{len(tracer.spans)} spans, support_sha256 "
              f"{plain.support_sha256[:16]} / {traced.support_sha256[:16]}")
        if missing:
            print(f"  absent (layer did not run): {' '.join(missing)}")
        for m in LAYERS[wl.name]:
            if m in values:
                print(f"  {m} = {values[m]:.6g} {layer_unit(m)}")
        record["spans"][wl.name] = [s.as_dict() for s in tracer.spans]
    return metrics, attempted, failed, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"args": vars(args), "env": env}
    try:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, checks = run(args, record)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, ok in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["checks"] = checks
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      ".json")
    out_path.write_text(json.dumps(record, default=str) + "\n")
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
