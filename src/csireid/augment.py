"""Seeded training-time augmentations for amplitude sequences.

Each call either applies exactly one of three perturbations (additive
Gaussian noise, global scaling, time shift with mean fill) or passes the
sample through unchanged. The settings are fixed: a sample is perturbed with
probability ``APPLY_PROB``; noise has standard deviation ``NOISE_SIGMA``; the
scale factor is uniform over ``SCALE_RANGE``; the shift is a whole number of
packets in [-SHIFT_RANGE, SHIFT_RANGE]. All randomness flows through explicit
numpy generators so batches rebuild bit-identically from (seed, sample index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csireid.csi_core import FeatureSequence

APPLY_PROB = 0.9
NOISE_SIGMA = 0.02
SCALE_RANGE = (0.9, 1.1)
SHIFT_RANGE = 5


@dataclass(frozen=True)
class AugmentPolicy:
    rng_seed: int = 0


def sample_rng(policy: AugmentPolicy, sample_index: int) -> np.random.Generator:
    """Per-sample generator; independent streams, reproducible across runs."""
    return np.random.default_rng(
        np.random.SeedSequence([policy.rng_seed, 0x41554701, sample_index])
    )


def add_gaussian_noise(
    seq: FeatureSequence, sigma: float, rng: np.random.Generator
) -> FeatureSequence:
    """Independent Normal(0, sigma^2) noise on every entry."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return FeatureSequence(seq.n_pkt, seq.n_feat, seq.data.copy())
    noise = rng.normal(0.0, sigma, size=seq.data.shape)
    return FeatureSequence(seq.n_pkt, seq.n_feat, seq.data + noise)


def scale_amplitude(seq: FeatureSequence, factor: float) -> FeatureSequence:
    """Multiply every entry by one global factor."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return FeatureSequence(seq.n_pkt, seq.n_feat, seq.data * factor)


def time_shift(seq: FeatureSequence, t_shift: int) -> FeatureSequence:
    """Shift each column along the packet axis, filling vacated slots.

    Positive shifts move values later; vacated positions take the column's
    original mean so length stays P.
    """
    if abs(t_shift) > seq.n_pkt:
        raise ValueError(f"|t_shift|={abs(t_shift)} exceeds packet count {seq.n_pkt}")
    out = np.tile(seq.data.mean(axis=0), (seq.n_pkt, 1))
    if t_shift >= 0:
        out[t_shift:] = seq.data[: seq.n_pkt - t_shift]
    else:
        out[: seq.n_pkt + t_shift] = seq.data[-t_shift:]
    return FeatureSequence(seq.n_pkt, seq.n_feat, out)


def apply_policy(
    seq: FeatureSequence, policy: AugmentPolicy, rng: np.random.Generator
) -> FeatureSequence:
    """Gate on APPLY_PROB, then apply one uniformly chosen augmentation."""
    if rng.random() >= APPLY_PROB:
        return FeatureSequence(seq.n_pkt, seq.n_feat, seq.data.copy())
    which = int(rng.integers(3))
    if which == 0:
        return add_gaussian_noise(seq, NOISE_SIGMA, rng)
    if which == 1:
        return scale_amplitude(seq, float(rng.uniform(*SCALE_RANGE)))
    return time_shift(seq, int(rng.integers(-SHIFT_RANGE, SHIFT_RANGE + 1)))
