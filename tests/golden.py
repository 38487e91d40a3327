"""Golden run: a tiny seeded pass through every stage, pinned to golden.json.

For each encoder architecture, a few training steps run the way the
benchmark runs them: ``apply_policy`` per sample, training-mode signatures,
the in-batch loss of ``perfbench/loss.py``, ``backward``, ``schedule_lr`` and
``adam_step``. Every loss and every parameter gradient is recorded, then the
trained weights, the checkpoint file, the eval signatures and the eval-mode
gradient with respect to the input batch. Two synthetic captures go through
amplitude, Hampel, resampling, standardization, phase and ``sanitize_phase``
at two subcarrier group sizes.

``golden.json`` holds two records of the same run:

- ``values``: per recorded array its sum and l2 norm (a loss is stored as
  itself, signatures row by row), checked on any machine to
  ``RTOL``/``ATOL``. These bound what a change that keeps the arithmetic
  may move: rounding in a different BLAS or SIMD path stays far inside them.
- ``digests``: SHA-256 of the exact float64 bytes of each group, and of the
  checkpoint file. They are checked exactly when this machine's numpy, BLAS
  and CPU features match the recorded ``environment``; otherwise the test
  skips and says which of them differ.

A change that alters numbers on purpose regenerates the file, from the
repository root, and says so with its tolerance check:

    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile

import numpy as np
import pytest

from csireid import augment
from csireid import autodiff as ad
from csireid import preprocess as pre
from csireid.csi_core import ComplexCsiTensor, FeatureSequence
from csireid.encoders import ARCHES, EncoderConfig, build_model
from perfbench.loss import in_batch_softmax_loss

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
RTOL = 1e-7
ATOL = 1e-9

SEED = 12
LABELS = np.array([0, 0, 1, 1, 2, 2])
PACKETS = 10
FEATURES = 6
STEPS = 3
SCHEDULE = ad.StepDecaySchedule(base_lr=1e-3, gamma=0.5, step_epochs=1)
CAPTURE_DIMS = (1, 2, 8, 40)  # rx, tx, subcarriers, packets
RESAMPLE_TO = 24
SANITIZE_GROUPS = (8, 4)


def environment() -> dict:
    """What the exact digests depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
    }


class Recorder:
    """Collects summary values per key and one SHA-256 per group of keys."""

    def __init__(self):
        self.values: dict[str, list[float]] = {}
        self._hashes: dict = {}
        self._current = None

    def group(self, name: str) -> None:
        self._current = self._hashes[name] = hashlib.sha256()

    def array(self, key: str, arr, rows: bool = False) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        self._current.update(arr.tobytes())
        if arr.size == 1:
            self.values[key] = [float(arr.reshape(()))]
        elif rows:
            self.values[key] = arr.reshape(-1).tolist()
        else:
            self.values[key] = [float(arr.sum()), float(np.sqrt((arr * arr).sum()))]

    def raw(self, data: bytes) -> None:
        self._current.update(data)

    @property
    def digests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in self._hashes.items()}


def _batch(rng: np.random.Generator) -> list[FeatureSequence]:
    return [
        FeatureSequence(PACKETS, FEATURES, rng.normal(size=(PACKETS, FEATURES)))
        for _ in LABELS
    ]


def _model_run(rec: Recorder, arch: str, workdir: str) -> None:
    cfg = EncoderConfig(
        arch=arch, layers_l=2, hidden_d=8, heads=2, dropout_pd=0.2, signature_dim_s=8
    )
    model = build_model(cfg, FEATURES, SEED)
    data_rng = np.random.default_rng([SEED, ARCHES.index(arch)])
    seqs = _batch(data_rng)
    policy = augment.AugmentPolicy(rng_seed=SEED)
    adam = ad.AdamState(lr=SCHEDULE.base_lr)

    rec.group(f"{arch}/train")
    for step in range(STEPS):
        batch = [
            augment.apply_policy(s, policy, augment.sample_rng(policy, step * len(LABELS) + j))
            for j, s in enumerate(seqs)
        ]
        x = ad.constant(np.stack([s.data for s in batch]))
        loss = in_batch_softmax_loss(ad, model.signatures(x, training=True, rng=data_rng), LABELS)
        ad.backward(loss)
        rec.array(f"{arch}/step{step}/loss", loss.values)
        for key, p in model.named.items():
            rec.array(f"{arch}/step{step}/grad/{key}", p.grad)
        adam.lr = ad.schedule_lr(SCHEDULE, step)
        ad.adam_step(model.params, adam)

    rec.group(f"{arch}/state")
    for key, values in model.state_dict().items():
        rec.array(f"{arch}/state/{key}", values)

    rec.group(f"{arch}/checkpoint")
    path = os.path.join(workdir, f"{arch}.ckpt")
    ad.write_tensor_file(path, model.state_dict())
    with open(path, "rb") as fh:
        rec.raw(fh.read())

    pool = np.stack([s.data for s in seqs])
    rec.group(f"{arch}/signatures")
    rec.array(f"{arch}/signatures", model.signatures(ad.constant(pool)).values, rows=True)

    rec.group(f"{arch}/input_grad")
    x = ad.parameter(pool)
    ad.backward(in_batch_softmax_loss(ad, model.signatures(x), LABELS))
    rec.array(f"{arch}/input_grad", x.grad)


def _capture(rng: np.random.Generator) -> ComplexCsiTensor:
    """Amplitude with spikes, phase with a per-packet slope and 2*pi wraps."""
    rx, tx, sub, pkt = CAPTURE_DIMS
    amp = 1.0 + 0.2 * rng.normal(size=(rx, tx, sub, pkt))
    amp[rng.random(amp.shape) < 0.05] *= 6.0
    slope = rng.uniform(-2.0, 2.0, size=(1, 1, 1, pkt))
    phase = slope * np.arange(sub)[:, None] + 0.1 * rng.normal(size=amp.shape)
    return ComplexCsiTensor(rx, tx, sub, pkt, amp * np.exp(1j * phase))


def _preprocess_run(rec: Recorder) -> None:
    rng = np.random.default_rng([SEED, 0x50524550])
    for i in range(2):
        csi = _capture(rng)
        rec.group(f"capture{i}")
        amp = pre.amplitude_from_complex(csi)
        clean = pre.hampel_filter(amp)
        short = pre.resample_packets(clean, RESAMPLE_TO)
        phase = pre.phase_from_complex(csi)
        stages = {
            "amplitude": amp,
            "hampel": clean,
            "resample": short,
            "standardize": pre.standardize_features(short),
            "phase": phase,
        }
        for k in SANITIZE_GROUPS:
            stages[f"sanitize{k}"] = pre.sanitize_phase(phase, n_sub=k)
        for name, seq in stages.items():
            rec.array(f"capture{i}/{name}", seq.data)


def golden_run(workdir: str) -> Recorder:
    rec = Recorder()
    for arch in ARCHES:
        _model_run(rec, arch, workdir)
    _preprocess_run(rec)
    return rec


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return golden_run(str(tmp_path_factory.mktemp("golden")))


def test_golden_values(golden, run):
    assert sorted(run.values) == sorted(golden["values"])
    for key, want in golden["values"].items():
        np.testing.assert_allclose(run.values[key], want, rtol=RTOL, atol=ATOL, err_msg=key)


def test_golden_digests(golden, run):
    here = environment()
    differs = [k for k, v in golden["environment"].items() if here.get(k) != v]
    if differs:
        recorded = {k: golden["environment"][k] for k in differs}
        pytest.skip(f"digests recorded under {recorded}, this machine has { {k: here[k] for k in differs} }")
    assert sorted(run.digests) == sorted(golden["digests"])
    changed = [k for k, want in golden["digests"].items() if run.digests[k] != want]
    assert not changed, f"bytes differ from golden.json in {changed}"


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        rec = golden_run(workdir)
    record = {"environment": environment(), "digests": rec.digests, "values": rec.values}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(rec.values)} values, {len(rec.digests)} digests")


if __name__ == "__main__":
    main()
