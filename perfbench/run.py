"""Benchmark for csireid: ingest, train and identify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` and written under
``.bench_work/``, which the run removes when it ends. The loop measures
``--seconds`` of timed operations (more if one full pass over the inputs
needs it), checks the outputs between operations, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed. A stage that
raises, or ``MAX_FAILURES`` failed operations, ends the run early with
``correct`` false; figures that could not be measured are ``null``.

With ``--trace 0`` the metrics are the end-to-end ones, shared by every
workload: ``items_per_s`` (captures, training samples or enrolled
signatures per busy second), ``op_p50_ms`` and ``op_tail_ms`` (one capture, training step or
query), ``setup_s`` (median of several set-ups) and ``peak_rss_mb``.
``op_tail_ms`` is the highest percentile with at least ten samples beyond
it; the line before the JSON states that percentile and the sample count.

With ``--trace 1`` every call into the package is a span and the metrics
are per layer: calls, self seconds and counts per public function, the
share of timed wall time per layer, and the tracing cost. Spans are
written to ``.bench_out/`` at the end, with a record of the environment.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread (at most nproc): steadier timings on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {w.name: w for w in (workloads.Ingest, workloads.Train, workloads.Identify)}
PREPROCESS_FNS = (
    "amplitude_from_complex",
    "hampel_filter",
    "phase_from_complex",
    "sanitize_phase",
    "resample_packets",
    "standardize_features",
)
# what the shared end-to-end figures measure on each workload, printed beside them
ALIASES = {
    "ingest": {"items_per_s": "captures_per_s", "op_p50_ms": "capture_p50_ms", "op_tail_ms": "capture_tail_ms"},
    "train": {"items_per_s": "train_samples_per_s", "op_p50_ms": "step_p50_ms", "op_tail_ms": "step_tail_ms"},
    "identify": {"items_per_s": "enroll_sigs_per_s", "op_p50_ms": "query_p50_ms", "op_tail_ms": "query_tail_ms"},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, sizes: workloads.Sizes = workloads.FULL) -> int:
    args = parse_args(argv)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    api = spans.Api(tracer)
    clock = workloads.Clock(tracer)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    wl = WORKLOADS[args.workload](api, tracer, clock, work, args.seed, sizes)
    setup_s = []
    corpus_rss_mb = float("nan")
    try:
        with tracer.span("bench.corpus"):
            wl.make_corpus()
        # the peak the benchmark's own corpus generation reached, for
        # comparison with peak_rss_mb, which the package should set
        corpus_rss_mb = peak_rss_mb()
        for _ in range(sizes.setups):
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
        wl.run(args.seconds)
        wl.finish()
    except Exception:  # a stage that raises is a failed check, reported below
        clock.attempted += 1
        clock.failures.append(f"stage: {traceback.format_exc(limit=3)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = wl.result()

    samples = clock.samples.get(result.op, [])
    tail, pct = tail_latency(samples)
    e2e = {
        "items_per_s": (result.items_per_s, "1/s"),
        "op_p50_ms": (1e3 * float(np.median(samples)) if samples else float("nan"), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (float(np.median(setup_s)) if setup_s else float("nan"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics = per_layer(tracer, wl, e2e["op_p50_ms"][0]) if args.trace else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "warmup_discarded_s": wl.warmup_s,
        "setup_runs_s": setup_s,
        "corpus_peak_rss_mb": corpus_rss_mb,
        "tail": {"percentile": pct, "samples": len(samples)},
        "end_to_end": {ALIASES[args.workload].get(k, k): v[0] for k, v in e2e.items()},
        "extra": result.extra,
        "failures": clock.failures,
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(out_dir, f"{tag}-spans.jsonl"))

    for msg in clock.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"]))
    print(f"warm-up discarded: {len(wl.warmup_s)} ops, {sum(wl.warmup_s):.3f} s")
    for key, (value, unit) in e2e.items():
        print(f"{ALIASES[args.workload].get(key, key)} = {value:.6g} {unit}")
    for key, value in result.extra.items():
        print(f"{key} = {value:.6g}")
    print(f"peak RSS after corpus generation = {corpus_rss_mb:.6g} MB")
    print(f"op_tail_ms is p{pct:.1f} of {len(samples)} samples")
    failed = len(clock.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": clock.attempted,
        "failed": failed,
        "metrics": {k: {"value": finite_or_none(v[0]), "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def finite_or_none(value):
    return value if math.isfinite(value) else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(samples):
    """(seconds, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh largest, or the smallest if n <= 11."""
    ordered = np.sort(samples)
    if ordered.size == 0:
        return float("nan"), float("nan")
    k = max(ordered.size - 11, 0)
    return float(ordered[k]), 100.0 * (k + 1) / ordered.size


def per_layer(tracer, wl, traced_p50_ms) -> dict:
    summary = tracer.summary()
    calls, secs, counts, timed = summary["calls"], summary["s"], tracer.counts, summary["timed"]
    wall = summary["wall"]
    out = {}

    def fn(name, *kinds):
        for kind in kinds:
            if kind == "calls":
                out[f"{name}.calls"] = (calls[name], "count")
            elif kind == "s":
                out[f"{name}.s"] = (secs[name], "s")
            elif kind == "mb":
                out[f"{name}.mb"] = (counts[f"{name}.bytes"] / 1e6, "MB")

    fn("csi_core.read_sample", "calls", "s", "mb")
    fn("csi_core.write_sample", "calls", "s", "mb")
    fn("csi_core.load_manifest", "s")
    out["csi_core.rejected"] = (counts["csi_core.read_sample.rejected"], "count")
    for name in PREPROCESS_FNS:
        fn(f"preprocess.{name}", "calls", "s")
    values = counts["preprocess.hampel_filter.values"]
    out["preprocess.hampel_filter.replaced_frac"] = (
        counts["preprocess.hampel_filter.replaced"] / values if values else 0.0, "ratio")
    fn("augment.apply_policy", "calls", "s")
    n_policy = calls["augment.apply_policy"]
    out["augment.applied_frac"] = (
        counts["augment.apply_policy.changed"] / n_policy if n_policy else 0.0, "ratio")
    for mode in ("train", "eval"):
        name = f"encoders.signatures.{mode}"
        fn(name, "calls")
        out[f"{name}.samples"] = (counts[f"{name}.samples"], "count")
        fn(name, "s")
    fn("encoders.build_model", "s")
    out["autodiff.graph_nodes"] = (wl.graph_nodes, "count")
    fn("autodiff.backward", "calls", "s")
    for name in ("adam_step", "write_tensor_file", "read_tensor_file"):
        fn(f"autodiff.{name}", "s")
    for name in ("corpus", "loss", "retrieval"):
        fn(f"bench.{name}", "s")
    out["bench.unattributed.s"] = (timed["unattributed"], "s")
    out["timed.wall_s"] = (wall, "s")
    for layer in (*spans.LAYERS, "bench", "unattributed"):
        out[f"timed.{layer}.frac"] = (timed[layer] / wall if wall else 0.0, "ratio")
    cost = spans.span_cost()
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_s"] = (cost * len(tracer.spans), "s")
    # op_p50_ms of this traced run; minus that of an untraced run, the overhead
    out["trace.op_p50_ms"] = (traced_p50_ms, "ms")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository.

    ``--git-dir`` keeps git from searching the parent directories.
    """
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
