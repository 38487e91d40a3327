"""The pair-runner's summary, on fabricated run verdicts (no benchmark runs)."""

from tools.bench_pairs import end_to_end_directions, summarize


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
