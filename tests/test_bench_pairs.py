"""The pair-runner's summary and stages block, on fabricated run verdicts,
and its handling of a run that prints no verdict (no benchmark runs)."""

import textwrap

import pytest

from tools.bench_pairs import end_to_end_directions, environment, run_once, stages, summarize


def verdict(correct=True, **values):
    return {"correct": correct, "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def test_summary_medians_quartiles_runs_and_wins():
    better = {"items_per_s": "higher", "op_p50_ms": "lower"}
    parent = [(10.0, 50.0), (12.0, 40.0), (11.0, 45.0), (13.0, 55.0)]
    change = [(14.0, 50.0), (11.0, 30.0), (15.0, None), (13.0, 35.0)]
    pairs = [
        {"parent": verdict(items_per_s=a, op_p50_ms=b), "change": verdict(k != 1, items_per_s=c, op_p50_ms=d)}
        for k, ((a, b), (c, d)) in enumerate(zip(parent, change))
    ]
    out = summarize(pairs, better)
    assert out["parent"]["items_per_s"] == 11.5
    assert out["parent"]["items_per_s_quartiles"] == [10.75, 12.25]
    assert out["parent"]["op_p50_ms_runs"] == [50.0, 40.0, 45.0, 55.0]
    # a metric a run could not measure leaves that run out of the figures
    assert out["change"]["op_p50_ms"] == 35.0
    assert out["change"]["op_p50_ms_runs"] == [50.0, 30.0, None, 35.0]
    # higher is better: pairs 1 and 3 win, pair 4 ties; lower is better:
    # pairs 2 and 4 win, pair 1 ties and pair 3 has no change figure
    assert out["change_wins"] == {"items_per_s": 2, "op_p50_ms": 2}
    assert out["failed_runs"] == {"parent": 0, "change": 1}


def test_directions_cover_the_benchmarks_end_to_end_metrics():
    assert end_to_end_directions() == {
        "items_per_s": "higher", "op_p50_ms": "lower", "op_tail_ms": "lower",
        "peak_rss_mb": "lower", "setup_s": "lower",
    }


def test_stages_are_median_self_seconds_per_operation():
    # three traced train runs: backward's calls count the operations
    runs = [
        {"backward": (100, 5.0), "forward": 4.0, "adam": 1.0, "p50": 90.0},
        {"backward": (80, 4.8), "forward": 4.0, "adam": 0.4, "p50": 80.0},
        {"backward": (50, 2.0), "forward": 3.0, "adam": 0.5, "p50": 85.0},
    ]
    traced = [
        verdict(**{
            "autodiff.backward.calls": r["backward"][0],
            "autodiff.backward.s": r["backward"][1],
            "encoders.signatures.train.s": r["forward"],
            "autodiff.adam_step.s": r["adam"],
            "augment.apply_policy.s": 0.5,
            "bench.loss.s": 0.0,
            "trace.op_p50_ms": r["p50"],
        })
        for r in runs
    ]
    out = stages(traced, "train")
    assert out["traced_steps"] == [100, 80, 50]
    # per run backward 0.05, 0.06, 0.04; forward 0.04, 0.05, 0.06; adam 0.01, 0.005, 0.01
    assert out["stages"] == {
        "augment.apply_policy": 0.00625,
        "encoders.signatures.train": 0.05,
        "bench.loss": 0.0,
        "autodiff.backward": 0.05,
        "autodiff.adam_step": 0.01,
    }
    assert out["trace_op_p50_ms"] == 85.0


def stub_checkout(root, body):
    """A directory whose perfbench/run.py is ``body``."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(body))
    return str(root)


def test_run_without_a_verdict_names_checkout_seed_and_stderr(tmp_path):
    checkout = stub_checkout(tmp_path, """
        import sys
        print("Traceback (most recent call last):", file=sys.stderr)
        print("ValueError: stub failure", file=sys.stderr)
        print("peak RSS after corpus generation = 43 MB")
        sys.exit(1)
    """)
    with pytest.raises(RuntimeError) as err:
        run_once(checkout, "train", 207, 1.0)
    message = str(err.value)
    assert checkout in message and "seed 207" in message and "exit 1" in message
    assert message.endswith("ValueError: stub failure")
    # a JSON last line that is not a verdict is no verdict either
    (tmp_path / "perfbench" / "run.py").write_text('print("[1, 2]")\n')
    with pytest.raises(RuntimeError, match="seed 208"):
        run_once(checkout, "train", 208, 1.0)


def test_run_returns_the_last_line_verdict(tmp_path):
    checkout = stub_checkout(tmp_path, """
        import json, sys
        print("items_per_s = 1")
        print(json.dumps({"correct": True, "metrics": {"argv": {"value": sys.argv[1:], "unit": ""}}}))
    """)
    out = run_once(checkout, "identify", 5, 2.0, trace=1)
    assert out["metrics"]["argv"]["value"] == [
        "--workload", "identify", "--seed", "5", "--seconds", "2.0", "--trace", "1",
    ]
    assert out["environment"] is None  # the stub printed no environment line


def test_run_keeps_the_environment_line(tmp_path):
    checkout = stub_checkout(tmp_path, """
        import json
        print('environment {"nproc": 2, "numpy": "2.4.6", "commit": "abc"}')
        print("warm-up discarded: 3 ops, 0.100 s")
        print(json.dumps({"correct": True, "metrics": {}}))
    """)
    out = run_once(checkout, "ingest", 1, 1.0)
    assert out["environment"] == {"nproc": 2, "numpy": "2.4.6", "commit": "abc"}


def test_environment_is_the_first_runs_and_needs_one_commit():
    env = {"nproc": 2, "commit": "abc"}
    runs = [{**verdict(), "environment": env}, {**verdict(), "environment": {"nproc": 4, "commit": "abc"}}]
    assert environment(runs, "parent") == env
    runs.append({**verdict(), "environment": {"nproc": 2, "commit": "def"}})
    with pytest.raises(RuntimeError, match=r"change runs disagree on commit: \['abc', 'def'\]"):
        environment(runs, "change")
    # a run that printed no environment disagrees with one that did
    with pytest.raises(RuntimeError, match=r"disagree on commit: \['None', 'abc'\]"):
        environment([runs[0], {**verdict(), "environment": None}], "parent")
