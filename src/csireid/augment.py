"""Seeded training-time augmentations for amplitude sequences.

Each call either applies exactly one of three perturbations (additive
Gaussian noise, global scaling, time shift with mean fill) or passes the
sample through unchanged. The settings are fixed: a sample is perturbed with
probability ``APPLY_PROB``; noise has standard deviation ``NOISE_SIGMA``; the
scale factor is uniform over ``SCALE_RANGE``; the shift is a whole number of
packets drawn from [-SHIFT_RANGE, SHIFT_RANGE] and then clamped to [-P, P] for
a sequence of P packets, so a shift by the whole length leaves only column
means. All randomness flows through explicit numpy generators so batches
rebuild bit-identically from (seed, sample index).
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


def apply_policy(
    seq: FeatureSequence, policy: AugmentPolicy, rng: np.random.Generator
) -> FeatureSequence:
    """Gate on APPLY_PROB, then apply one uniformly chosen augmentation.

    The time shift moves each column along the packet axis, later for a
    positive shift, and fills the vacated slots with the column's mean.
    """
    if rng.random() >= APPLY_PROB:
        return FeatureSequence(seq.n_pkt, seq.n_feat, seq.data.copy())
    which = int(rng.integers(3))
    if which == 0:
        out = seq.data + rng.normal(0.0, NOISE_SIGMA, size=seq.data.shape)
    elif which == 1:
        out = seq.data * float(rng.uniform(*SCALE_RANGE))
    else:
        p = seq.n_pkt
        t = min(max(int(rng.integers(-SHIFT_RANGE, SHIFT_RANGE + 1)), -p), p)
        out = np.tile(seq.data.mean(axis=0), (p, 1))
        if t >= 0:
            out[t:] = seq.data[: p - t]
        else:
            out[: p + t] = seq.data[-t:]
    return FeatureSequence(seq.n_pkt, seq.n_feat, out)
