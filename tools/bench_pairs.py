"""Run the benchmark on two checkouts in alternating pairs and summarize.

From the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload ingest --pairs 10 \
        --first-seed 201 --seconds 30 --out pairs-ingest.json

Pair k runs ``perfbench/run.py --trace 0`` with seed ``first_seed + k`` in
each checkout, the parent first in even pairs and the change first in odd
ones, so a drift in the speed of the machine falls on both sides. Then
``TRACED_RUNS`` traced runs (``--trace 1``) per side follow, with the next
seeds, alternating in the same way. Both checkouts must sit at paths
of equal length, since peak RSS can move with the length of the
checkout's path alone.

The output is the measured part of a ``BENCH_<pr>.json`` file. Per side:
the ``stages`` block, each stage's self seconds per operation as the
median over the traced runs, with ``traced_steps`` (operations counted
per traced run) and ``trace_op_p50_ms``; then each end-to-end metric's
median, its per-run list in pair order and its quartiles, and the
``environment`` its runs printed (machine, libraries and commit). Per
metric, the number of pairs the change won, by the direction
``BENCHMARK.json`` declares; a tie counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ENVIRONMENT_PREFIX = "environment "  # the line perfbench/run.py prints before its verdict
STDERR_TAIL_LINES = 20
TRACED_RUNS = 3
# per workload: the span called once per operation (timed, or a set-up
# warm-up), whose calls count the operations, and the spans reported per
# operation; each stage's total self time over a run is divided by that count
STAGES = {
    "ingest": ("preprocess.hampel_filter", (
        "csi_core.read_sample", "preprocess.amplitude_from_complex", "preprocess.hampel_filter",
        "preprocess.phase_from_complex", "preprocess.sanitize_phase", "csi_core.write_sample",
    )),
    "train": ("autodiff.backward", (
        "augment.apply_policy", "encoders.signatures.train", "bench.loss", "autodiff.backward",
        "autodiff.adam_step",
    )),
    "identify": ("preprocess.hampel_filter", (
        "preprocess.amplitude_from_complex", "preprocess.hampel_filter",
        "preprocess.resample_packets", "preprocess.standardize_features",
    )),
}


def end_to_end_directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, "higher" or "lower"."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run; its last stdout line is the benchmark's JSON verdict.

    The verdict gains an ``environment`` key: the JSON of the run's last
    ``environment {...}`` line, or None if it printed none. A run whose last
    line is not a verdict raises RuntimeError naming the checkout, the seed
    and the end of the run's stderr.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        verdict = None
    if not (isinstance(verdict, dict) and "metrics" in verdict):
        tail = "\n".join(out.stderr.strip().splitlines()[-STDERR_TAIL_LINES:])
        raise RuntimeError(
            f"{checkout}: seed {seed}: no JSON verdict on the last line of {' '.join(cmd)} "
            f"(exit {out.returncode}); stderr ends:\n{tail}"
        )
    env = [line[len(ENVIRONMENT_PREFIX):] for line in lines if line.startswith(ENVIRONMENT_PREFIX)]
    verdict["environment"] = json.loads(env[-1]) if env else None
    return verdict


def environment(runs: list[dict], side: str) -> dict | None:
    """The environment of one side's runs, the first run's; RuntimeError if
    the runs name more than one commit."""
    commits = {(run["environment"] or {}).get("commit") for run in runs}
    if len(commits) > 1:
        raise RuntimeError(f"{side} runs disagree on commit: {sorted(map(str, commits))}")
    return runs[0]["environment"]


def stages(traced: list[dict], workload: str) -> dict:
    """The ``stages`` block of one side from its traced runs' verdicts.

    A stage's figure is its self seconds per operation, the median over the
    runs; ``traced_steps`` lists each run's operation count and
    ``trace_op_p50_ms`` is the median of the runs' traced op_p50.
    """
    counter, names = STAGES[workload]
    steps = [run["metrics"][f"{counter}.calls"]["value"] for run in traced]
    per_op = {
        name: round(float(np.median([
            run["metrics"][f"{name}.s"]["value"] / n for run, n in zip(traced, steps)
        ])), 5)
        for name in names
    }
    p50 = np.median([run["metrics"]["trace.op_p50_ms"]["value"] for run in traced])
    return {"stages": per_op, "traced_steps": steps, "trace_op_p50_ms": round(float(p50), 5)}


def summarize(pairs: list[dict[str, dict]], better: dict[str, str]) -> dict:
    """Per-side medians, quartiles and run lists, and the change's wins.

    ``pairs`` holds one {"parent": verdict, "change": verdict} per pair,
    each verdict as ``perfbench/run.py`` prints it. A metric that a run
    could not measure (``null``) is left out of that side's figures and
    its pair counts for neither side.
    """
    out: dict = {side: {} for side in SIDES}
    out["failed_runs"] = {side: sum(not p[side]["correct"] for p in pairs) for side in SIDES}
    out["change_wins"] = {}
    for name, direction in better.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        for side in SIDES:
            values = [v for v in runs[side] if v is not None]
            block = out[side]
            block[name] = round(float(np.median(values)), 4) if values else None
            block[f"{name}_quartiles"] = (
                [round(float(q), 4) for q in np.percentile(values, [25, 75])] if values else None
            )
            block[f"{name}_runs"] = [None if v is None else round(v, 4) for v in runs[side]]
        sign = 1.0 if direction == "higher" else -1.0
        out["change_wins"][name] = sum(
            1 for a, b in zip(runs["parent"], runs["change"])
            if a is not None and b is not None and sign * (b - a) > 0
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("ingest", "train", "identify"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", help="write the summary here as well as to stdout")
    args = ap.parse_args(argv)
    dirs = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    if len(dirs["parent"]) != len(dirs["change"]):
        ap.error(f"checkout paths differ in length: {dirs['parent']} {dirs['change']}")
    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(dirs[side], args.workload, seed, args.seconds) for side in order}
        pairs.append(pair)
        print(f"pair {k + 1}/{args.pairs} seed {seed}: " + " ".join(
            f"{side} {pair[side]['metrics']['op_p50_ms']['value']} ms" for side in SIDES
        ), file=sys.stderr)
    traced = {side: [] for side in SIDES}
    first_traced = args.first_seed + args.pairs
    for k in range(TRACED_RUNS):
        seed = first_traced + k
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            traced[side].append(run_once(dirs[side], args.workload, seed, args.seconds, trace=1))
        print(f"traced run {k + 1}/{TRACED_RUNS} seed {seed}", file=sys.stderr)
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    method = (
        f"stages: self seconds per operation, the median over {TRACED_RUNS} traced runs per side "
        f"(--trace 1, seeds {first_traced}-{first_traced + TRACED_RUNS - 1}, sides alternating "
        f"which runs first), each stage's total over a run divided by that run's traced_steps, "
        f"its {STAGES[args.workload][0]} calls (timed operations plus set-up warm-ups); "
        f"trace_op_p50_ms is the median of the traced runs' op_p50. End-to-end figures: medians "
        f"of {args.pairs} untraced runs per side, seeds {seeds}, --seconds {args.seconds:g}, "
        f"parent and change alternating which runs first"
    )
    summary = {"workload": args.workload, "method": method, **summarize(pairs, end_to_end_directions())}
    for side in SIDES:
        env = environment([p[side] for p in pairs] + traced[side], side)
        summary[side] = {"environment": env, **stages(traced[side], args.workload), **summary[side]}
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
