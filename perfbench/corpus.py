"""Seeded synthetic CSI corpus for the benchmark.

Each subject is a small set of body reflection paths. A path has a delay,
which sets a complex ramp over the subcarriers (the subject's multipath
fingerprint), a per-antenna gain, and a gait tone that modulates its gain
over time. A shared static environment adds its own paths. Each scenario
scales the body paths and adds one extra path of its own. Each capture then
draws a gait phase, a small gait-rate jitter, per-packet phase offset and
slope (sampling and carrier offsets), Gaussian noise and a few impulsive
outliers for the Hampel filter to catch.

Amplitude after per-column standardization keeps only the time variation,
so identity lives in which tones reach which subcarriers. The noise level
makes an untrained encoder clearly imperfect at re-identification.

Files reach the package under test only through ``write_sample`` and
``save_manifest``; malformed files are made by editing the bytes of a valid
one.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

N_RX, N_TX, N_SUB = 3, 1, 114
CAPTURE_PKT = 2000
FEATURE_PKT = 200
N_FEAT = N_RX * N_TX * N_SUB
SCENARIOS = ("TSHIRT", "COAT", "BACKPACK")
MALFORMED_KINDS = ("truncated", "bad_magic", "trailing")

_BODY_PATHS = 3
_ENV_PATHS = 4
_NOISE = 0.06
_OUTLIER_RATE = 2e-3


@dataclass(frozen=True)
class Item:
    """One corpus file: where it goes and what it holds."""

    name: str
    subject: int
    scenario: str
    split: str


class Population:
    """Subjects, environment and scenarios drawn from one seed."""

    def __init__(self, seed: int, n_subjects: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x434F5250]))
        self.seed = seed
        k = np.arange(N_SUB)
        env_delay = rng.uniform(0.2, 4.0, _ENV_PATHS)
        env_gain = _complex_normal(rng, (_ENV_PATHS, N_RX))
        self.env = np.einsum("pr,pk->rk", env_gain, _ramp(env_delay, k))
        delay = rng.uniform(0.5, 6.0, (n_subjects, _BODY_PATHS))
        self.body_ramp = _ramp(delay.reshape(-1), k).reshape(n_subjects, _BODY_PATHS, N_SUB)
        # one dominant path per subject, two weaker ones
        self.body_gain = _complex_normal(rng, (n_subjects, _BODY_PATHS, N_RX)) * np.array([0.8, 0.4, 0.2])[:, None]
        # gait tones in cycles per capture
        self.tone = rng.uniform(3.0, 14.0, (n_subjects, _BODY_PATHS))
        self.depth = rng.uniform(0.3, 0.8, (n_subjects, _BODY_PATHS))
        self.scen_scale = {s: rng.uniform(0.6, 1.1) for s in SCENARIOS}
        scen_delay = rng.uniform(0.5, 6.0, len(SCENARIOS))
        self.scen_path = {
            s: 0.4 * _complex_normal(rng, (N_RX, 1)) * _ramp(scen_delay[i : i + 1], k)
            for i, s in enumerate(SCENARIOS)
        }

    def channel(self, item: Item, n_pkt: int, stride: int, outliers: bool) -> np.ndarray:
        """Complex CFR of shape (rx, tx, sub, pkt) at packets 0, stride, ...

        The nuisance draws depend only on (seed, item), so a feature file
        and a full capture of the same item share their gait phase.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, item.subject, zlib.crc32(item.name.encode())])
        )
        t = np.arange(n_pkt) * stride / CAPTURE_PKT
        s = item.subject
        tone = self.tone[s] * rng.uniform(0.95, 1.05, _BODY_PATHS)
        phase0 = rng.uniform(0.0, 2 * np.pi, _BODY_PATHS)
        mod = 1.0 + self.depth[s][:, None] * np.sin(
            2 * np.pi * tone[:, None] * t[None, :] + phase0[:, None]
        )
        gain = self.body_gain[s] * self.scen_scale[item.scenario]
        static = self.env + self.scen_path[item.scenario]
        body = np.einsum("pr,pk,pt->rkt", gain, self.body_ramp[s], mod)
        h = static[:, :, None] + body
        h = h + _NOISE * _complex_normal(rng, h.shape)
        # per-packet offset and slope over subcarriers, as a receiver adds
        m = np.arange(N_SUB) - (N_SUB - 1) / 2.0
        offset = rng.uniform(-np.pi, np.pi, n_pkt)
        slope = rng.normal(0.0, 0.02, n_pkt)
        h = h * np.exp(1j * (offset[None, None, :] + slope[None, None, :] * m[None, :, None]))
        if outliers:
            spikes = rng.random(h.shape) < _OUTLIER_RATE
            h[spikes] *= rng.uniform(3.0, 6.0, int(spikes.sum()))
        return h.reshape(N_RX, N_TX, N_SUB, n_pkt)

    def capture(self, item: Item) -> np.ndarray:
        return self.channel(item, CAPTURE_PKT, 1, outliers=True)

    def features(self, item: Item) -> np.ndarray:
        """Standardized (packet, feature) amplitude at the resampled rate.

        Samples the same packets that uniform resampling keeps, without
        outlier spikes, as a cleaned capture would be.
        """
        h = self.channel(item, FEATURE_PKT, CAPTURE_PKT // FEATURE_PKT, outliers=False)
        amp = np.moveaxis(np.abs(h), -1, 0).reshape(FEATURE_PKT, N_FEAT)
        std = amp.std(axis=0)
        return (amp - amp.mean(axis=0)) / np.where(std < 1e-8, 1.0, std)


def plan(n_subjects: int, per_subject: int, split: str, prefix: str) -> list[Item]:
    """Round-robin items over subjects and scenarios."""
    items = []
    for i in range(per_subject):
        for s in range(n_subjects):
            scen = SCENARIOS[(i + s) % len(SCENARIOS)]
            items.append(Item(f"{prefix}{s:02d}_{i:02d}.csb", s, scen, split))
    return items


def write_captures(api, pop: Population, items: list[Item], root: str) -> None:
    """Write each item as a complex CSB capture."""
    core = api.core
    for it in items:
        data = pop.capture(it)
        tensor = core.ComplexCsiTensor(N_RX, N_TX, N_SUB, CAPTURE_PKT, data)
        record = core.SampleRecord(
            it.subject, core.Scenario[it.scenario], tensor, core.PayloadKind.COMPLEX
        )
        core.write_sample(record, os.path.join(root, it.name))


def write_features(api, pop: Population, items: list[Item], root: str) -> None:
    """Write each item as an amplitude feature CSB file at FEATURE_PKT."""
    core = api.core
    for it in items:
        seq = core.FeatureSequence(FEATURE_PKT, N_FEAT, pop.features(it))
        record = core.SampleRecord(
            it.subject,
            core.Scenario[it.scenario],
            seq,
            core.PayloadKind.AMPLITUDE,
            dims=(N_RX, N_TX, N_SUB, FEATURE_PKT),
        )
        core.write_sample(record, os.path.join(root, it.name))


def corrupt(src: str, dst: str, kind: str) -> None:
    """Copy a valid CSB file to ``dst`` with one format violation."""
    with open(src, "rb") as fh:
        raw = fh.read()
    if kind == "truncated":
        raw = raw[: len(raw) // 2 + 3]
    elif kind == "bad_magic":
        raw = b"CSX1" + raw[4:]
    elif kind == "trailing":
        raw = raw + b"\x00" * 5
    else:
        raise ValueError(f"unknown malformation {kind!r}")
    with open(dst, "wb") as fh:
        fh.write(raw)


def write_manifest(api, items: list[Item], path: str) -> None:
    core = api.core
    entries = [
        core.ManifestEntry(it.name, it.subject, core.Scenario[it.scenario], it.split)
        for it in items
    ]
    core.save_manifest(core.Manifest(entries), path)


def _ramp(delay: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(-2 pi i d k / K): a path delay as phase cycles across the band."""
    return np.exp(-2j * np.pi * np.outer(delay, k) / N_SUB)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)

