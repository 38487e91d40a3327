"""Tests of the benchmark's own parts.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import importlib
import json
import os

import numpy as np
import pytest

import run  # noqa: F401  (puts the package and the repository root on sys.path)
import corpus
import loss
import retrieval
import spans
import workloads
from csireid import autodiff as ad
from csireid import csi_core, encoders
from tests.oracles import retrieval_metrics


def _bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- loss


@pytest.mark.parametrize("labels", [[0, 0, 1, 1, 2, 2], [3, 1, 3, 1, 1]])
def test_loss_grad_check(labels):
    rng = np.random.default_rng(len(labels))
    x = ad.parameter(rng.normal(size=(len(labels), 4)))

    def f(t):
        return loss.in_batch_softmax_loss(ad, ad.l2_normalize_axis(t, axis=1), labels, temperature=0.5)

    assert ad.grad_check(f, x, eps=1e-6) < 1e-6


def test_loss_value_matches_formula():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(4, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    labels = np.array([0, 1, 0, 1])
    got = float(loss.in_batch_softmax_loss(ad, ad.constant(s), labels, temperature=0.5).values)
    logits = s @ s.T / 0.5
    want = 0.0
    for i in range(4):
        others = [j for j in range(4) if j != i]
        p = np.exp(logits[i, others]) / np.exp(logits[i, others]).sum()
        want -= np.log(sum(pj for pj, j in zip(p, others) if labels[j] == labels[i]))
    assert got == pytest.approx(want / 4, rel=1e-12)


def test_loss_rejects_anchor_without_partner():
    with pytest.raises(ValueError):
        loss.in_batch_softmax_loss(ad, ad.constant(np.eye(3)), [0, 0, 1])


# ------------------------------------------------------------ retrieval


@pytest.mark.parametrize("seed", range(6))
def test_leave_one_out_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    sigs = rng.normal(size=(n, 6))
    sigs /= np.linalg.norm(sigs, axis=1, keepdims=True)
    labels = rng.integers(0, 5, n)
    assert retrieval.leave_one_out(sigs, labels) == retrieval_metrics(sigs, labels)


@pytest.mark.parametrize("seed", range(4))
def test_leave_one_out_tie_order_matches_oracle(seed):
    # entries in {-1, 0, 1} make every dot product exact, so ties are real
    rng = np.random.default_rng(seed)
    sigs = rng.integers(-1, 2, size=(16, 3)).astype(np.float64)
    labels = rng.integers(0, 3, 16)
    assert retrieval.leave_one_out(sigs, labels) == retrieval_metrics(sigs, labels)


def test_query_gallery_keeps_gallery_order_on_ties():
    gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    # query 0 ties on the first two entries, so the label-7 one ranks first
    ranks, mean_ap = retrieval.query_gallery(queries, [8, 9], gallery, [7, 8, 9])
    assert ranks == {1: 0.5, 3: 1.0, 5: 1.0}
    assert mean_ap == pytest.approx((0.5 + 1.0) / 2)


# --------------------------------------------------------------- corpus


def test_corpus_is_seeded(tmp_path):
    api = spans.Api(spans.NullTracer())
    items = corpus.plan(2, 1, "train", "x")
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        corpus.write_captures(api, corpus.Population(5, 2), items, str(tmp_path / sub))
    for it in items:
        assert (tmp_path / "a" / it.name).read_bytes() == (tmp_path / "b" / it.name).read_bytes()
    other = corpus.Population(6, 2).capture(items[0])
    assert not np.allclose(other, corpus.Population(5, 2).capture(items[0]))


@pytest.mark.parametrize("kind", corpus.MALFORMED_KINDS)
def test_malformed_files_are_rejected(tmp_path, kind):
    api = spans.Api(spans.NullTracer())
    item = corpus.plan(1, 1, "train", "x")[0]
    corpus.write_features(api, corpus.Population(0, 1), [item], str(tmp_path))
    corpus.corrupt(str(tmp_path / item.name), str(tmp_path / "bad.csb"), kind)
    with pytest.raises(csi_core.CsbFormatError):
        csi_core.read_sample(str(tmp_path / "bad.csb"))


def test_untrained_bilstm_is_clearly_imperfect():
    s = workloads.FULL
    pop = corpus.Population(0, s.subjects)
    items = corpus.plan(s.subjects, s.heldout_per_subject, "test", "te")
    x = np.stack([pop.features(it) for it in items])
    model = encoders.build_model(encoders.EncoderConfig(arch="bilstm"), corpus.N_FEAT, 0)
    sigs = np.concatenate([model.signatures(ad.constant(x[b : b + 24])).values
                           for b in range(0, len(x), 24)])
    ranks, _ = retrieval.leave_one_out(sigs, [it.subject for it in items])
    assert ranks[1] < 0.9


# ----------------------------------------------------------------- smoke


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        sizes=workloads.TINY,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = _bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["attempted"] >= 1
    if workload != "train":
        # a tiny training run is too short for its learning checks
        assert code == 0 and result["correct"] and result["failed"] == 0


BROKEN_CALLS = [
    ("ingest", "preprocess", "hampel_filter"),
    ("train", "autodiff", "backward"),
    ("train", "augment", "apply_policy"),
    ("identify", "preprocess", "hampel_filter"),
    ("identify", "csi_core", "read_sample"),
]


@pytest.mark.parametrize("when", ["setup", "run"])
@pytest.mark.parametrize("workload,module,fn", BROKEN_CALLS)
def test_broken_package_call_reports_failure(workload, module, fn, when, monkeypatch, capsys):
    """A package function that raises, from set-up on or once the timed loop
    starts, ends the run with correct=false and exit code 1."""
    state = {"broken": when == "setup"}
    package = importlib.import_module(f"csireid.{module}")
    target = getattr(package, fn)

    def raising(*args, **kwargs):
        if state["broken"]:
            raise RuntimeError(f"{module}.{fn} is broken")
        return target(*args, **kwargs)

    cls = run.WORKLOADS[workload]
    loop = cls.run

    def run_broken(self, seconds):
        state["broken"] = True
        return loop(self, seconds)

    monkeypatch.setattr(package, fn, raising)
    monkeypatch.setattr(cls, "run", run_broken)
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        sizes=workloads.TINY,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_tail_latency_leaves_ten_samples_beyond():
    value, pct = run.tail_latency(list(range(100)))
    assert value == 89 and pct == 90.0
