"""Brute-force reference implementations used to pin the fast paths.

Everything here is deliberately slow and obvious: explicit loops, explicit
sorts, no vectorization tricks. Tests compare library output against these.
"""

import numpy as np

from csireid import autodiff as ad

# Elementary ops only the composed oracles use, built on the ``ad._make``
# contract: each backward closure returns fresh arrays, one per parent.


def reshape(a: ad.DiffTensor, shape: tuple[int, ...]) -> ad.DiffTensor:
    return ad._make(a.values.reshape(shape), (a,), lambda g: (np.array(g.reshape(a.values.shape)),))


def tanh(a: ad.DiffTensor) -> ad.DiffTensor:
    vals = np.tanh(a.values)
    return ad._make(vals, (a,), lambda g: (g * (1.0 - vals * vals),))


def sigmoid(a: ad.DiffTensor) -> ad.DiffTensor:
    """Overflow-safe: exp only ever sees -|x|, so no x overflows it."""
    x = a.values
    e = np.exp(-np.abs(x))
    vals = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return ad._make(vals, (a,), lambda g: (g * vals * (1.0 - vals),))


def layer_norm(a: ad.DiffTensor, gain: ad.DiffTensor, bias: ad.DiffTensor) -> ad.DiffTensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x = a.values
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv

    def bw(g):
        dxhat = g * gain.values
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dgain = ad._unbroadcast(g * xhat, gain.values.shape)
        return inv * (dxhat - m1 - xhat * m2), dgain, np.array(ad._unbroadcast(g, bias.values.shape))

    return ad._make(xhat * gain.values + bias.values, (a, gain, bias), bw)


def sum_all(a: ad.DiffTensor) -> ad.DiffTensor:
    """Scalar sum of all entries, composed from reshape/mean/mul."""
    n = a.values.size
    flat = reshape(a, (1, n))
    return ad.mul(ad.mean_axis(flat, axis=1), ad.constant(np.array([float(n)])))


def _lstm_direction(x: ad.DiffTensor, cell: dict, reverse: bool):
    """One LSTM direction, about 16 autodiff nodes per packet.

    Returns the per-packet hidden states in packet order and the state the
    pass ends on.
    """
    b, p, _ = x.values.shape
    hidden = cell["w_h"].values.shape[0]
    xw = ad.add(ad.matmul(x, cell["w_x"]), cell["b"])
    steps = [ad.take_slice(xw, (slice(None), t, slice(None))) for t in range(p)]
    if reverse:
        steps = steps[::-1]
    h = ad.constant(np.zeros((b, hidden)))
    c = ad.constant(np.zeros((b, hidden)))
    hs = []
    for xt in steps:
        gates = ad.add(xt, ad.matmul(h, cell["w_h"]))
        i = sigmoid(ad.take_slice(gates, (slice(None), slice(0, hidden))))
        f = sigmoid(ad.take_slice(gates, (slice(None), slice(hidden, 2 * hidden))))
        g = tanh(ad.take_slice(gates, (slice(None), slice(2 * hidden, 3 * hidden))))
        o = sigmoid(ad.take_slice(gates, (slice(None), slice(3 * hidden, 4 * hidden))))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, tanh(c))
        hs.append(h)
    if reverse:
        hs = hs[::-1]
    return hs, h


def lstm_encode(x: ad.DiffTensor, layers, reverse, keep_prob: float = 1.0, rng=None):
    """Stacked (Bi-)LSTM composed step by step from elementary autodiff ops.

    ``layers`` holds one list of ``{"w_x", "w_h", "b"}`` cells per layer, one
    cell per direction; direction d runs last packet to first when
    ``reverse[d]`` is true. Between layers the (B, P, D*H) sequence goes
    through train-mode dropout drawn from ``rng`` when one is given. Returns
    the last layer's (B, P, D*H) sequence and the (B, D*H) states the
    directions end on.
    """
    for idx, cells in enumerate(layers):
        if idx and rng is not None:
            x = ad.dropout(x, keep_prob, rng, training=True)
        b = x.values.shape[0]
        passes = [_lstm_direction(x, cell, rev) for cell, rev in zip(cells, reverse)]
        per_dir = [
            ad.concat([reshape(h, (b, 1, h.values.shape[1])) for h in hs], axis=1)
            for hs, _ in passes
        ]
        x = ad.concat(per_dir, axis=2)
    return x, ad.concat([final for _, final in passes], axis=1)


def _linear(params: dict, prefix: str, x: ad.DiffTensor) -> ad.DiffTensor:
    return ad.add(ad.matmul(x, params[f"{prefix}.w"]), params[f"{prefix}.b"])


def multi_head_attention(x: ad.DiffTensor, params: dict, prefix: str, heads: int) -> ad.DiffTensor:
    """Self-attention over (B, P, d) composed from about 20 elementary nodes.

    ``params`` holds ``<prefix>.wq``/``wk``/``wv``/``wo`` as ``.w`` and
    ``.b`` entries; head h owns columns h*dh:(h+1)*dh of each. The scores
    are scaled after the q @ k^T product.
    """
    b, p, d = x.values.shape
    dh = d // heads

    def split_heads(t):
        return ad.transpose(reshape(t, (b, p, heads, dh)), (0, 2, 1, 3))

    q = split_heads(_linear(params, f"{prefix}.wq", x))
    k = split_heads(_linear(params, f"{prefix}.wk", x))
    v = split_heads(_linear(params, f"{prefix}.wv", x))
    scores = ad.mul(
        ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
        ad.constant(np.array(1.0 / np.sqrt(dh))),
    )
    mixed = ad.matmul(ad.softmax_axis(scores, axis=3), v)
    merged = reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, p, d))
    return _linear(params, f"{prefix}.wo", merged)


def residual_layer_norm(x, r, params: dict, prefix: str) -> ad.DiffTensor:
    """layer_norm(x + r) as an ``add`` node and a ``layer_norm`` node."""
    return layer_norm(ad.add(x, r), params[f"{prefix}.g"], params[f"{prefix}.b"])


def position_table(p: int, d: int) -> np.ndarray:
    """Sinusoidal positions one entry at a time: packet t gets
    sin(t / 10000^(2i/d)) in column 2i and the cosine in column 2i + 1."""
    table = np.empty((p, d))
    for t in range(p):
        for i in range(d // 2):
            angle = t / 10000.0 ** (2 * i / d)
            table[t, 2 * i], table[t, 2 * i + 1] = np.sin(angle), np.cos(angle)
    return table


def transformer_encode(x: ad.DiffTensor, params: dict, layers: int, heads: int,
                       keep_prob: float = 1.0, rng=None) -> ad.DiffTensor:
    """The post-norm Transformer encoder composed from elementary autodiff ops.

    ``params`` maps the model's state-dict keys (``tf.in.*``, ``tf<i>.*``) to
    tensors. Inputs are projected and the position table is added; each
    block is attention and a 4x wide ReLU feed-forward layer, each followed
    by residual and layer norm. Between blocks the sequence goes through
    train-mode dropout drawn from ``rng`` when one is given. Returns the
    (B, d) mean over packets.
    """
    d = params["tf.in.w"].values.shape[1]
    h = ad.add(_linear(params, "tf.in", x), ad.constant(position_table(x.values.shape[1], d)))
    for i in range(layers):
        if i and rng is not None:
            h = ad.dropout(h, keep_prob, rng, training=True)
        block = f"tf{i}"
        h = residual_layer_norm(h, multi_head_attention(h, params, block, heads), params, f"{block}.ln1")
        ff = _linear(params, f"{block}.ff2", ad.rectifier(_linear(params, f"{block}.ff1", h)))
        h = residual_layer_norm(h, ff, params, f"{block}.ln2")
    return ad.mean_axis(h, axis=1)


def flat_column(rx: int, tx: int, sub: int, n_tx: int, n_sub: int) -> int:
    """Column of the (rx, tx, subcarrier) entry in a flattened sequence."""
    return (rx * n_tx + tx) * n_sub + sub


def attention(x: np.ndarray, weights: dict, heads: int):
    """Self-attention over (B, P, d) one sample, head and query at a time.

    ``weights`` maps wq/wk/wv/wo ``.w``/``.b`` names to arrays. Returns the
    (B, P, d) output and the (B, heads, P, P) softmax weights.
    """
    b, p, d = x.shape
    dh = d // heads
    out = np.empty((b, p, d))
    probs = np.empty((b, heads, p, p))
    for n in range(b):
        q, k, v = (x[n] @ weights[f"{w}.w"] + weights[f"{w}.b"] for w in ("wq", "wk", "wv"))
        merged = np.empty((p, d))
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            for i in range(p):
                scores = [float(q[i, cols] @ k[j, cols]) / np.sqrt(dh) for j in range(p)]
                top = max(scores)
                e = [np.exp(s - top) for s in scores]
                probs[n, h, i] = [ej / sum(e) for ej in e]
                merged[i, cols] = sum(probs[n, h, i, j] * v[j, cols] for j in range(p))
        out[n] = merged @ weights["wo.w"] + weights["wo.b"]
    return out, probs


def sorted_median(values: np.ndarray) -> float:
    """Textbook median: sort, take the middle (average the two middles)."""
    w = np.sort(np.asarray(values, dtype=np.float64))
    n = w.size
    if n % 2:
        return w[n // 2]
    return (w[n // 2 - 1] + w[n // 2]) / 2.0


def hampel_column(col: np.ndarray, window_w: int, xi: float) -> np.ndarray:
    """Per-window median/MAD filter on one column, truncated boundaries."""
    col = np.asarray(col, dtype=np.float64)
    half = window_w // 2
    out = col.copy()
    for i in range(col.size):
        window = col[max(0, i - half) : min(col.size, i + half + 1)]
        med = sorted_median(window)
        mad = sorted_median(np.abs(window - med))
        if np.abs(col[i] - med) > xi * mad:
            out[i] = med
    return out


def sanitize_row(row: np.ndarray) -> np.ndarray:
    """Linear phase sanitization of one subcarrier row, one step at a time.

    Unwrap so each successive difference lies in (-pi, pi], remove the
    endpoint slope over the centered index m_k = k - (K-1)/2, then remove
    the mean.
    """
    row = [float(v) for v in row]
    n = len(row)
    unwrapped = [row[0]]
    for k in range(1, n):
        d = row[k] - row[k - 1]
        while d > np.pi:
            d -= 2.0 * np.pi
        while d <= -np.pi:
            d += 2.0 * np.pi
        unwrapped.append(unwrapped[-1] + d)
    m = [k - (n - 1) / 2.0 for k in range(n)]
    slope = (unwrapped[-1] - unwrapped[0]) / (m[-1] - m[0])
    detrended = [u - slope * mk for u, mk in zip(unwrapped, m)]
    mean = sum(detrended) / n
    return np.array([v - mean for v in detrended])


def retrieval_metrics(signatures: np.ndarray, labels: np.ndarray, ks=(1, 3, 5)):
    """Exhaustive leave-one-out retrieval scorer.

    Every sample queries all others; candidates sort by descending cosine
    similarity with ties kept in candidate order. Returns (rank_at_k dict,
    mean average precision), averaged over queries that have at least one
    same-label candidate.
    """
    n = signatures.shape[0]
    hits = {k: [] for k in ks}
    ap_values = []
    for q in range(n):
        cand = [i for i in range(n) if i != q]
        sims = [float(np.dot(signatures[q], signatures[i])) for i in cand]
        order = sorted(range(len(cand)), key=lambda j: -sims[j])
        ranked_labels = [labels[cand[j]] for j in order]
        relevant = [i for i, lab in enumerate(ranked_labels) if lab == labels[q]]
        if not relevant:
            continue
        first = relevant[0] + 1
        for k in ks:
            hits[k].append(1.0 if first <= k else 0.0)
        precisions = []
        seen = 0
        for pos in relevant:
            seen += 1
            precisions.append(seen / (pos + 1))
        ap_values.append(float(np.mean(precisions)))
    rank_at_k = {k: float(np.mean(hits[k])) for k in ks}
    return rank_at_k, float(np.mean(ap_values))
