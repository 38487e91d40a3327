"""Turn raw CSI into clean model inputs.

Amplitude extraction plus Hampel outlier filtering, phase extraction plus
linear sanitization (slope and offset removal per subcarrier row), uniform
packet resampling, and per-feature standardization. All operations are pure
functions over FeatureSequence / ComplexCsiTensor values, and every
FeatureSequence is packet-major, so each packet is one contiguous row. A
capture's (rx, tx, subcarrier) entries become feature columns antenna-pair
major, subcarrier minor: entry (r, t, s) lands in column
(r * n_tx + t) * n_sub + s. The phase is written in that order directly,
with +0.0 for each zero entry, and sanitized in one subcarrier-major work
array, with exactly zero endpoint residuals. Neither filter has settings:
Hampel filtering runs at ``HAMPEL_WINDOW`` and ``HAMPEL_XI``, and the
sanitization's subcarrier index is the centered m_k = k - (K-1)/2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from csireid.csi_core import ComplexCsiTensor, FeatureSequence

log = logging.getLogger(__name__)

# The Hampel filter's one setting: a window of 5 packets, and outliers
# farther than 3 MADs from the window median.
HAMPEL_WINDOW = 5
HAMPEL_XI = 3.0
# Packets per block of the interior Hampel pass. A block's seven
# (block, n_feat) float64 buffers stay cache-resident.
HAMPEL_BLOCK = 64


@dataclass(frozen=True)
class HampelConfig:
    """The Hampel filter's fixed setting, ``HAMPEL_WINDOW`` and ``HAMPEL_XI``.

    Neither field can be set: ``hampel_filter`` always runs at this one
    setting, and the class only names it for callers that read it.
    """

    window_w: int = field(default=HAMPEL_WINDOW, init=False)
    xi: float = field(default=HAMPEL_XI, init=False)


def amplitude_from_complex(csi: ComplexCsiTensor) -> FeatureSequence:
    """Per-entry magnitude sqrt(re^2 + im^2), flattened to (packet, feature).

    ``abs`` runs in float64, whatever the capture's dtype, over the
    (pkt, rx, tx, sub) view of the data and writes one packet-major buffer,
    which becomes the sequence without a copy.
    """
    data = np.moveaxis(csi.data, -1, 0)
    amp = np.empty(data.shape)
    np.abs(data, out=amp, dtype=np.float64)
    return FeatureSequence(csi.n_pkt, csi.n_feat, amp.reshape(csi.n_pkt, csi.n_feat))


def phase_from_complex(csi: ComplexCsiTensor) -> FeatureSequence:
    """Four-quadrant angle in (-pi, pi], flattened to (packet, feature).

    ``arctan2`` runs in float64, whatever the capture's dtype, over the
    (pkt, rx, tx, sub) view of the data and writes one packet-major buffer,
    which becomes the sequence without a copy. The angle of a zero entry, of
    either sign in either part, is defined as +0.0 and logged, since it
    carries no direction information. Only an angle of 0 or +-pi can come
    from a zero entry, so only those are checked.
    """
    data = np.moveaxis(csi.data, -1, 0)
    ang = np.empty(data.shape)
    np.arctan2(data.imag, data.real, out=ang, dtype=np.float64)
    np.copyto(ang, np.pi, where=ang == -np.pi)
    suspect = np.flatnonzero((ang == 0.0) | (ang == np.pi))
    zero = suspect[data[np.unravel_index(suspect, ang.shape)] == 0]
    if zero.size:
        log.warning("phase of %d zero-valued CSI entries defined as 0", zero.size)
        ang.flat[zero] = 0.0
    return FeatureSequence(csi.n_pkt, csi.n_feat, ang.reshape(csi.n_pkt, csi.n_feat))


def _median5(r0, r1, r2, r3, r4, a, b, c, d):
    """Write the elementwise median of r0..r4 to ``b`` and return it.

    Devillard's opt_med5, "Fast median search: an ANSI C implementation"
    (1998), from Paeth's networks (Graphics Gems, 1990), pruned to the lane
    it returns: 10 np.minimum/np.maximum calls, each pair's maximum before
    its minimum. ``a``, ``c`` and ``d`` are scratch. ``a`` may be ``r0``,
    ``c`` may be ``r3`` and ``d`` may be ``r1``, which are then overwritten;
    ``r2`` is only read. Every call stores the minimum or maximum of two
    values, so each result element is one of the inputs, bit for bit.
    """
    np.maximum(r0, r1, out=b)
    np.minimum(r0, r1, out=a)
    np.maximum(r3, r4, out=d)
    np.minimum(r3, r4, out=c)
    np.maximum(a, c, out=c)
    np.minimum(b, d, out=b)
    np.maximum(b, r2, out=d)
    np.minimum(b, r2, out=b)
    np.minimum(d, c, out=d)
    np.maximum(b, d, out=b)
    return b


def hampel_filter(seq: FeatureSequence) -> FeatureSequence:
    """Replace window outliers with the window median, per feature column.

    Windows of ``HAMPEL_WINDOW`` packets are centered on each packet and
    truncated at the sequence boundaries; every window statistic is computed
    from the original values, so earlier replacements never feed later
    windows. A value farther than ``HAMPEL_XI`` times the window MAD from the
    window median is replaced by that median.

    Full windows hold five values, so their median is one window value and
    their MAD is one of the values |x - median|. Both come from ``_median5``
    over the five shifted rows, a block of ``HAMPEL_BLOCK`` packets at a
    time: the median reads the rows in place, and the MAD overwrites the
    deviations but keeps the centre row's, which the outlier test reads
    next. The network only compare-exchanges, so it moves values without
    rounding any, and the MAD runs on the same |x - median| values a
    sort-based median would see. The result therefore equals ``np.median``
    over each window bit for bit, without window-sized copies of the
    sequence; the one freedom is which of 0.0 and -0.0 a window holding both
    returns, which no sort fixes either. The four truncated boundary windows
    have even or short lengths and use ``np.median``.
    """
    x = seq.data
    half = HAMPEL_WINDOW // 2
    p = seq.n_pkt
    out = x.copy()
    if p >= HAMPEL_WINDOW:
        block = min(HAMPEL_BLOCK, p - 2 * half)
        bufs = [np.empty((block, seq.n_feat)) for _ in range(7)]
        mask = np.empty((block, seq.n_feat), dtype=bool)
        for r0 in range(half, p - half, block):
            nb = min(block, p - half - r0)
            rows = [x[r0 - half + k : r0 - half + k + nb] for k in range(HAMPEL_WINDOW)]
            med, mad, *dev = (b[:nb] for b in bufs)
            # deviations 0, 3 and 1 are the median pass's scratch, and the
            # MAD pass overwrites them in place; deviation 2 stays whole
            _median5(*rows, dev[0], med, dev[3], dev[1])
            for d, row in zip(dev, rows):
                np.subtract(row, med, out=d)
                np.abs(d, out=d)
            _median5(*dev, dev[0], mad, dev[3], dev[1])
            np.multiply(mad, HAMPEL_XI, out=mad)
            np.greater(dev[half], mad, out=mask[:nb])
            np.copyto(out[r0 : r0 + nb], med, where=mask[:nb])
        edges = [*range(half), *range(p - half, p)]
    else:
        edges = range(p)
    for i in edges:
        win = x[max(0, i - half) : min(p, i + half + 1)]
        med = np.median(win, axis=0)
        mad = np.median(np.abs(win - med), axis=0)
        outlier = np.abs(x[i] - med) > HAMPEL_XI * mad
        out[i, outlier] = med[outlier]
    return FeatureSequence(seq.n_pkt, seq.n_feat, out)


def sanitize_phase(phase: FeatureSequence, n_sub: int) -> FeatureSequence:
    """Remove the linear-in-subcarrier term from each phase row.

    Rows of length K = ``n_sub`` are formed per packet and antenna pair. Per
    row, after unwrapping: the endpoint slope a = (phi_K - phi_1)/(m_K - m_1)
    over the centered subcarrier index m_k = k - (K-1)/2, the offset
    b = mean(phi), and the output phi_k - a*m_k - b. Real subcarrier
    positions are not modelled.

    The rows are copied once into a subcarrier-major (K, pkt, groups) work
    array, so unwrap and detrend are long vector operations along axis 0,
    with the output's buffer as scratch until the result is copied back.
    The unwrap's running sum of 2*pi turns is a loop of whole-row adds:
    ``np.cumsum`` along axis 0 accumulates one (packet, group) lane at a
    time, at a stride of a full row, and takes several times as long for
    the same adds in the same order.

    The line through the endpoints is subtracted in interpolation form,
    first*(1 - t) then last*t with t[0] == 0.0 and t[-1] == 1.0 exactly, so
    both endpoint residuals are identically 0.0 before the mean is removed
    and the output's recomputed endpoint slope is exactly zero. Since the
    centered index has mean 0, subtracting the residual's mean leaves
    exactly phi_k - a*m_k - b.
    """
    k = n_sub
    if k < 2:
        raise ValueError("need at least 2 subcarriers per row")
    if phase.n_feat % k != 0:
        raise ValueError(f"feature width {phase.n_feat} not divisible by K={k}")

    p, g = phase.n_pkt, phase.n_feat // k
    work = phase.data.reshape(p, g, k).transpose(2, 0, 1).copy()
    scratch = np.empty((k, p, g))
    turns = scratch[1:]
    np.subtract(work[1:], work[:-1], out=turns)
    np.subtract(np.pi, turns, out=turns)
    np.divide(turns, 2.0 * np.pi, out=turns)
    np.floor(turns, out=turns)
    np.multiply(turns, 2.0 * np.pi, out=turns)
    for r in range(1, k - 1):
        np.add(turns[r - 1], turns[r], out=turns[r])
    work[1:] += turns
    t = (np.arange(k) / (k - 1))[:, None, None]  # t[0] == 0.0 and t[-1] == 1.0 exactly
    work -= np.multiply(work[0], 1.0 - t, out=scratch)
    work -= np.multiply(work[-1], t, out=scratch)
    work -= work.mean(axis=0)
    np.copyto(scratch.reshape(p, g, k), work.transpose(1, 2, 0))
    return FeatureSequence(p, phase.n_feat, scratch.reshape(p, phase.n_feat))


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
