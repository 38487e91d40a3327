"""Run the benchmark on two checkouts in alternating pairs and summarize.

From the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload ingest --pairs 10 \
        --first-seed 201 --seconds 30 --out pairs-ingest.json

Pair k runs ``perfbench/run.py --trace 0`` with seed ``first_seed + k`` in
each checkout, the parent first in even pairs and the change first in odd
ones, so a drift in the speed of the machine falls on both sides.
Both checkouts must sit at paths of equal length, since peak RSS can move
with the length of the checkout's path alone.

The output is the end-to-end part of a ``BENCH_<pr>.json`` file: per side,
each metric's median, its per-run list in pair order and its quartiles,
and per metric the number of pairs the change won, by the direction
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


def end_to_end_directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, "higher" or "lower"."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its last stdout line is the benchmark's JSON verdict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output from {' '.join(cmd)}:\n{out.stderr}")
    return json.loads(lines[-1])


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
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    summary = {
        "workload": args.workload,
        "method": (
            f"medians of {args.pairs} untraced runs per side, seeds {seeds}, "
            f"--seconds {args.seconds:g}, parent and change alternating which runs first"
        ),
        **summarize(pairs, end_to_end_directions()),
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
