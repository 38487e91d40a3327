"""Turn raw CSI into clean model inputs.

Amplitude extraction plus Hampel outlier filtering, phase extraction plus
linear sanitization (slope and offset removal per subcarrier row), uniform
packet resampling, and per-feature standardization. All operations are pure
functions over FeatureSequence / ComplexCsiTensor values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from csireid.csi_core import ComplexCsiTensor, FeatureSequence, flatten_features

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HampelConfig:
    """Sliding-window outlier filter settings.

    A value farther than ``xi`` times the window MAD from the window median
    is replaced by that median.
    """

    window_w: int = 5
    xi: float = 3.0

    def __post_init__(self) -> None:
        if self.window_w < 3 or self.window_w % 2 == 0:
            raise ValueError("window_w must be odd and >= 3")
        if not self.xi > 0:
            raise ValueError("xi must be > 0")


class OffsetSign(Enum):
    """Sign applied to the mean-phase offset during sanitization.

    SUBTRACT_MEAN removes the offset so a purely linear phase maps to zero;
    ADD_MEAN flips the offset term instead, leaving twice the mean behind.
    """

    SUBTRACT_MEAN = "subtract_mean"
    ADD_MEAN = "add_mean"


@dataclass(frozen=True)
class SanitizeConfig:
    """Linear phase-calibration settings.

    ``subcarrier_index`` is the vector of subcarrier positions m_k; when
    None, a centered index m_k = k - (K-1)/2 is derived from the row length
    at call time.
    """

    subcarrier_index: tuple[float, ...] | None = None
    offset_sign: OffsetSign = OffsetSign.SUBTRACT_MEAN
    unwrap: bool = True

    def __post_init__(self) -> None:
        if self.subcarrier_index is not None:
            m = np.asarray(self.subcarrier_index, dtype=np.float64)
            if m.ndim != 1 or m.size < 2:
                raise ValueError("subcarrier_index must be a vector of >= 2 reals")
            if not np.all(np.diff(m) > 0):
                raise ValueError("subcarrier_index must be strictly increasing")
            object.__setattr__(self, "subcarrier_index", tuple(float(v) for v in m))
        if not isinstance(self.offset_sign, OffsetSign):
            object.__setattr__(self, "offset_sign", OffsetSign(self.offset_sign))


def centered_subcarrier_index(n_sub: int) -> np.ndarray:
    """Centered positions m_k = k - (K-1)/2; exact dyadic values, mean 0."""
    if n_sub < 2:
        raise ValueError("need at least 2 subcarriers")
    return np.arange(n_sub, dtype=np.float64) - (n_sub - 1) / 2.0


def amplitude_from_complex(csi: ComplexCsiTensor) -> FeatureSequence:
    """Per-entry magnitude sqrt(re^2 + im^2), flattened to (packet, feature)."""
    amp = flatten_features(np.abs(csi.data))
    return FeatureSequence(csi.n_pkt, csi.n_feat, amp)


def phase_from_complex(csi: ComplexCsiTensor) -> FeatureSequence:
    """Four-quadrant angle in (-pi, pi], flattened to (packet, feature).

    The angle of 0+0j is defined as 0 and logged, since it carries no
    direction information.
    """
    n_zero = int(np.count_nonzero(csi.data == 0))
    if n_zero:
        log.warning("phase of %d zero-valued CSI entries defined as 0", n_zero)
    ang = np.arctan2(csi.data.imag, csi.data.real)
    ang[ang == -np.pi] = np.pi
    return FeatureSequence(csi.n_pkt, csi.n_feat, flatten_features(ang))


def hampel_filter(seq: FeatureSequence, cfg: HampelConfig | None = None) -> FeatureSequence:
    """Replace window outliers with the window median, per feature column.

    Windows are centered on each packet and truncated at the sequence
    boundaries; every window statistic is computed from the original values,
    so earlier replacements never feed later windows.
    """
    cfg = cfg or HampelConfig()
    x = seq.data
    half = cfg.window_w // 2
    med = np.empty_like(x)
    mad = np.empty_like(x)
    p = seq.n_pkt
    if p >= cfg.window_w:
        # interior windows all have the full odd length; one strided pass
        win = sliding_window_view(x, cfg.window_w, axis=0)
        med[half : p - half] = np.median(win, axis=-1)
        mad[half : p - half] = np.median(
            np.abs(win - med[half : p - half, :, None]), axis=-1
        )
        edges = [*range(half), *range(p - half, p)]
    else:
        edges = range(p)
    for i in edges:
        w = x[max(0, i - half) : min(p, i + half + 1)]
        med[i] = np.median(w, axis=0)
        mad[i] = np.median(np.abs(w - med[i]), axis=0)
    outlier = np.abs(x - med) > cfg.xi * mad
    out = np.where(outlier, med, x)
    return FeatureSequence(seq.n_pkt, seq.n_feat, out)


def unwrap_phase(phase_row: np.ndarray) -> np.ndarray:
    """Remove 2*pi jumps so successive differences lie in (-pi, pi].

    Works on the last axis; the first element is unchanged.
    """
    x = np.asarray(phase_row, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 phase values to unwrap")
    d = np.diff(x, axis=-1)
    turns = np.floor((np.pi - d) / (2.0 * np.pi))
    adjust = np.cumsum(turns * (2.0 * np.pi), axis=-1)
    return np.concatenate([x[..., :1], x[..., 1:] + adjust], axis=-1)


def sanitize_phase(
    phase: FeatureSequence,
    cfg: SanitizeConfig | None = None,
    n_sub: int | None = None,
) -> FeatureSequence:
    """Remove the linear-in-subcarrier term from each phase row.

    Rows of length K are formed per packet and antenna pair (``n_sub``
    defaults to the configured index length, else the full feature width).
    Per row: optional unwrap, endpoint slope a = (phi_K - phi_1)/(m_K - m_1),
    offset b = mean(phi), output phi_k - a*m_k -/+ b per ``cfg.offset_sign``.

    The subtraction is arranged so the output's recomputed endpoint slope is
    exactly zero: the line through the endpoints is evaluated in interpolation
    form, making both endpoint residuals identically 0.0 before the constant
    shift.
    """
    cfg = cfg or SanitizeConfig()
    if cfg.subcarrier_index is not None:
        m = np.asarray(cfg.subcarrier_index, dtype=np.float64)
        if n_sub is not None and n_sub != m.size:
            raise ValueError(f"n_sub={n_sub} disagrees with index length {m.size}")
        k = m.size
    else:
        k = n_sub if n_sub is not None else phase.n_feat
        m = centered_subcarrier_index(k)
    if k < 2:
        raise ValueError("need at least 2 subcarriers per row")
    if phase.n_feat % k != 0:
        raise ValueError(f"feature width {phase.n_feat} not divisible by K={k}")

    rows = phase.data.reshape(phase.n_pkt, phase.n_feat // k, k)
    if cfg.unwrap:
        rows = unwrap_phase(rows)
    first = rows[..., :1]
    last = rows[..., -1:]
    span = m[-1] - m[0]
    t = (m - m[0]) / span  # t[0] == 0.0 and t[-1] == 1.0 exactly
    resid = rows - (first * (1.0 - t) + last * t)
    slope = (last - first) / span
    shift = resid.mean(axis=-1, keepdims=True) + slope * m.mean()
    if cfg.offset_sign is OffsetSign.ADD_MEAN:
        shift = shift - 2.0 * rows.mean(axis=-1, keepdims=True)
    out = resid - shift
    return FeatureSequence(phase.n_pkt, phase.n_feat, out.reshape(phase.data.shape))


def resample_packets(seq: FeatureSequence, target_p: int) -> FeatureSequence:
    """Uniform-stride subsample to target_p packets: indices floor(i*P/target_p)."""
    if target_p < 1:
        raise ValueError("target_p must be >= 1")
    if target_p > seq.n_pkt:
        raise ValueError(f"target_p={target_p} exceeds packet count {seq.n_pkt}")
    idx = (np.arange(target_p) * seq.n_pkt) // target_p
    return FeatureSequence(target_p, seq.n_feat, seq.data[idx])


def standardize_features(seq: FeatureSequence) -> FeatureSequence:
    """Center each feature column and scale it to unit standard deviation.

    Columns with std below 1e-8 are centered only, so constant features do
    not explode.
    """
    if seq.n_pkt < 2:
        raise ValueError("need at least 2 packets to standardize")
    mean = seq.data.mean(axis=0)
    std = seq.data.std(axis=0)
    scale = np.where(std < 1e-8, 1.0, std)
    return FeatureSequence(seq.n_pkt, seq.n_feat, (seq.data - mean) / scale)
