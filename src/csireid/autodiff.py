"""Reverse-mode automatic differentiation over dense float64 tensors.

Forward ops build a single-use graph. Each op's output node keeps its
parents and a closure, its vector-Jacobian product, that maps the output's
gradient to one gradient per parent: a fresh array that nothing else holds,
or None for a parent that needs none. Ops never touch ``grad``.
:func:`backward` walks the graph once in reverse topological order and is
the one place that accumulates: it adopts a parent's first gradient and adds
later ones into it in place. So an op whose gradient would be a view of its
incoming gradient (``concat``, ``transpose``, ``reshape``, ``mean_axis``,
and ``add`` without broadcasting) returns a copy.

Most ops are elementary. Three are fused nodes with their backward passes
written by hand: :func:`lstm_sequence` runs a whole (bi-directional) LSTM
layer, so the graph does not grow with sequence length;
:func:`self_attention` runs a Transformer attention sub-layer one sample's
scores at a time; and :func:`residual_layer_norm` runs a residual sum and
its layer norm in one work buffer. Also home to the
Adam optimizer, the step-decay learning-rate schedule, the finite-difference
gradient checker, and the binary parameter checkpoint format shared by all
models, which is read, encoded and written with the codec in
:mod:`csireid.csi_core`.

Ops do not check their outputs for non-finite values. :func:`adam_step`, the
one place that writes weights, rejects a non-finite gradient or learning
rate and names the parameter a bad gradient belongs to before it changes
any state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from csireid.csi_core import BinaryReader, f32_bytes, write_file

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericError(Exception):
    """Raised when a computation produces non-finite values."""


class CheckpointFormatError(Exception):
    """Raised when a parameter checkpoint file is malformed."""


class DiffTensor:
    """A float64 array plus its gradient and graph linkage.

    ``grad`` is written only by :func:`backward`, which owns the array it
    holds; :func:`adam_step` reads and clears it. Graphs are single-use:
    once backward() has consumed a node, building on it or differentiating
    through it again raises.
    """

    __slots__ = ("values", "grad", "requires_grad", "name", "_parents", "_backward", "_consumed")

    def __init__(self, values, requires_grad: bool = False, name: str = ""):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[DiffTensor, ...] = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"DiffTensor(shape={self.values.shape}{tag}, requires_grad={self.requires_grad})"


def parameter(values, name: str = "") -> DiffTensor:
    return DiffTensor(values, requires_grad=True, name=name)


def constant(values, name: str = "") -> DiffTensor:
    return DiffTensor(values, requires_grad=False, name=name)


def _make(values: np.ndarray, parents: tuple[DiffTensor, ...], bw) -> DiffTensor:
    """The output node of an op over ``parents``.

    ``bw`` is the op's vector-Jacobian product, kept only when a parent
    requires grad: ``bw(g)`` maps the output's gradient ``g`` to one
    gradient per parent, in parent order, with None for a parent that needs
    none. Each returned array must be one that nothing else holds, neither
    ``g`` nor another returned array, because :func:`backward` adopts it as
    the parent's ``grad`` and later adds into it in place; an op whose
    gradient would be a view of ``g`` returns a copy. Work that only the
    backward pass needs belongs inside ``bw``, so eval-mode forward passes
    do none of it.
    """
    for p in parents:
        if p._consumed:
            raise RuntimeError("graph already consumed; rebuild from leaf tensors")
    out = DiffTensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = bw
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to ``shape``, undoing numpy broadcasting; g itself when
    the shapes already match."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _unbroadcast_copy(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """:func:`_unbroadcast` as an array that g does not share."""
    out = _unbroadcast(g, shape)
    return np.array(out) if out is g else out


# ------------------------------------------------------------- primitives
#
# matmul, mul, layer_norm and the fused ops skip the gradient of a parent
# that does not require grad, since it costs as much as the others; the
# cheap ops return every parent's gradient and backward drops the unused.


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    av, bv = a.values, b.values

    def bw(g):
        da = db = None
        if a.requires_grad:
            da = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
        if b.requires_grad:
            db = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
        return da, db

    return _make(np.matmul(av, bv), (a, b), bw)


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    def bw(g):
        return _unbroadcast_copy(g, a.values.shape), _unbroadcast_copy(g, b.values.shape)

    return _make(a.values + b.values, (a, b), bw)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    av, bv = a.values, b.values

    def bw(g):
        da = _unbroadcast(g * bv, av.shape) if a.requires_grad else None
        db = _unbroadcast(g * av, bv.shape) if b.requires_grad else None
        return da, db

    return _make(av * bv, (a, b), bw)


def concat(tensors: list[DiffTensor], axis: int) -> DiffTensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")

    def bw(g):
        splits = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
        return [np.array(piece) for piece in np.split(g, splits, axis=axis)]

    return _make(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), bw)


def take_slice(a: DiffTensor, index) -> DiffTensor:
    """Basic indexing (ints and slices); gradient scatters back into place."""

    def bw(g):
        buf = np.zeros(a.values.shape)
        buf[index] = g
        return (buf,)

    return _make(np.ascontiguousarray(a.values[index]), (a,), bw)


def transpose(a: DiffTensor, axes: tuple[int, ...]) -> DiffTensor:
    def bw(g):
        return (np.array(np.transpose(g, tuple(np.argsort(axes)))),)

    return _make(np.ascontiguousarray(np.transpose(a.values, axes)), (a,), bw)


def reshape(a: DiffTensor, shape: tuple[int, ...]) -> DiffTensor:
    def bw(g):
        return (np.array(g.reshape(a.values.shape)),)

    return _make(a.values.reshape(shape), (a,), bw)


def mean_axis(a: DiffTensor, axis: int) -> DiffTensor:
    def bw(g):
        shape = a.values.shape
        return (np.array(np.broadcast_to(np.expand_dims(g, axis) / shape[axis], shape)),)

    return _make(a.values.mean(axis=axis), (a,), bw)


def tanh(a: DiffTensor) -> DiffTensor:
    vals = np.tanh(a.values)

    def bw(g):
        return (g * (1.0 - vals * vals),)

    return _make(vals, (a,), bw)


def sigmoid(a: DiffTensor) -> DiffTensor:
    x = a.values
    e = np.exp(-np.abs(x))
    vals = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        return (g * vals * (1.0 - vals),)

    return _make(vals, (a,), bw)


def rectifier(a: DiffTensor) -> DiffTensor:
    def bw(g):
        return (g * (a.values > 0),)

    return _make(np.maximum(a.values, 0.0), (a,), bw)


def log(a: DiffTensor) -> DiffTensor:
    def bw(g):
        return (g / a.values,)

    return _make(np.log(a.values), (a,), bw)


def softmax_axis(a: DiffTensor, axis: int) -> DiffTensor:
    if a.values.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    z = a.values - a.values.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    vals = ez / ez.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * vals).sum(axis=axis, keepdims=True)
        return (vals * (g - inner),)

    return _make(vals, (a,), bw)


def layer_norm(a: DiffTensor, gain: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    gv = gain.values

    def bw(g):
        da = dgain = dbias = None
        if a.requires_grad:
            dxhat = g * gv
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            da = inv * (dxhat - m1 - xhat * m2)
        if gain.requires_grad:
            dgain = _unbroadcast(g * xhat, gv.shape)
        if bias.requires_grad:
            dbias = _unbroadcast_copy(g, bias.values.shape)
        return da, dgain, dbias

    return _make(xhat * gv + bias.values, (a, gain, bias), bw)


def dropout(
    a: DiffTensor, keep_prob: float, rng: np.random.Generator | None, training: bool
) -> DiffTensor:
    """Inverted dropout: train-time survivors scale by 1/keep_prob.

    Evaluation mode is the exact identity (the same tensor is returned).
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    if not training or keep_prob == 1.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs a generator")
    mask = (rng.random(a.values.shape) < keep_prob) / keep_prob

    def bw(g):
        return (g * mask,)

    return _make(a.values * mask, (a,), bw)


def l2_normalize_axis(a: DiffTensor, axis: int) -> DiffTensor:
    """Scale along ``axis`` to unit l2 norm (zero vectors stay zero-safe)."""
    x = a.values
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, 1e-30)
    vals = x / norm

    def bw(g):
        inner = (g * vals).sum(axis=axis, keepdims=True)
        return ((g - vals * inner) / norm,)

    return _make(vals, (a,), bw)


def lstm_sequence(
    x: DiffTensor,
    w_x: list[DiffTensor],
    w_h: list[DiffTensor],
    b: list[DiffTensor],
    reverse: list[bool],
) -> DiffTensor:
    """D LSTM directions over a (B, P, F) sequence as one graph node.

    Direction d has input weights ``w_x[d]`` (F, 4H), recurrent weights
    ``w_h[d]`` (H, 4H) and bias ``b[d]`` (4H,), gate columns in i, f, g, o
    order and a zero initial state; it visits the packets last to first when
    ``reverse[d]`` is true. Returns the (B, P, D*H) hidden states in packet
    order, direction d in columns d*H:(d+1)*H.

    This is the fused recurrence of "Optimizing Performance of Recurrent
    Neural Networks on GPUs" (Appleyard et al., 2016) in numpy. The input
    projection of every packet and direction is one matmul. Each step runs
    all directions as one stacked (D, B, H) @ (D, H, 4H) matmul and one tanh
    over the four gates, using sigmoid(z) = tanh(z / 2) / 2 + 1 / 2; the
    halving is folded into the i, f, o weight columns, which is exact.
    Backpropagation through time is written by hand: the gate-local
    derivative factors are formed for all steps at once, so the backward
    loop is a few multiplies and one matmul per step.
    """
    if x.values.ndim != 3:
        raise ValueError("lstm_sequence expects a rank-3 (B, P, F) input")
    n_dir = len(reverse)
    if not n_dir or not len(w_x) == len(w_h) == len(b) == n_dir:
        raise ValueError("lstm_sequence needs one w_x, w_h, b and reverse flag per direction")
    n_b, n_p, n_f = x.values.shape
    if n_p < 1:
        raise ValueError("lstm_sequence needs at least one packet")
    hid = w_h[0].values.shape[0]
    want = {"w_x": (n_f, 4 * hid), "w_h": (hid, 4 * hid), "b": (4 * hid,)}
    for d in range(n_dir):
        for name, t in (("w_x", w_x[d]), ("w_h", w_h[d]), ("b", b[d])):
            if t.values.shape != want[name]:
                raise ValueError(
                    f"direction {d}: {name} has shape {t.values.shape}, expected {want[name]}"
                )
    order = [slice(None, None, -1) if r else slice(None) for r in reverse]
    # tanh pre-scale and post-affine that turn the i, f, o columns into sigmoids
    half = np.full((4, hid), 0.5)
    half[2] = 1.0
    half = half.reshape(-1)
    shift = 1.0 - half

    wh = np.stack([w.values for w in w_h]) * half
    proj = x.values.reshape(n_b * n_p, n_f) @ (
        np.concatenate([w.values for w in w_x], axis=1) * np.tile(half, n_dir)
    )
    proj = proj.reshape(n_b, n_p, n_dir, 4 * hid)
    # direction-major, step-major state: [:, s] holds step s of every
    # direction, and step s of direction d reads packet order[d][s]
    gates = np.empty((n_dir, n_p, n_b, 4 * hid))
    for d in range(n_dir):
        np.add(proj[:, order[d], d].transpose(1, 0, 2), b[d].values * half, out=gates[d])
    del proj
    cells = np.zeros((n_dir, n_p + 1, n_b, hid))  # [:, s + 1] after step s
    states = np.zeros((n_dir, n_p + 1, n_b, hid))
    tanh_c = np.empty((n_dir, n_p, n_b, hid))
    rec = np.empty((n_dir, n_b, 4 * hid))
    ig = np.empty((n_dir, n_b, hid))
    for s in range(n_p):
        z = gates[:, s]
        np.matmul(states[:, s], wh, out=rec)
        z += rec
        np.tanh(z, out=z)
        z *= half
        z += shift
        np.multiply(z[..., hid : 2 * hid], cells[:, s], out=cells[:, s + 1])
        np.multiply(z[..., :hid], z[..., 2 * hid : 3 * hid], out=ig)
        cells[:, s + 1] += ig
        np.tanh(cells[:, s + 1], out=tanh_c[:, s])
        np.multiply(z[..., 3 * hid :], tanh_c[:, s], out=states[:, s + 1])

    values = np.empty((n_b, n_p, n_dir * hid))
    for d in range(n_dir):
        values[:, order[d], d * hid : (d + 1) * hid] = states[d, 1:].transpose(1, 0, 2)

    def bw(g):
        act = gates.reshape(n_dir, n_p, n_b, 4, hid)
        i, f, gg, o = (act[:, :, :, k] for k in range(4))
        # dz per unit of dc for i, f, g and per unit of dh for o; the
        # loop scales it in place into the pre-activation gradient
        dz = np.subtract(1.0, act)
        dz *= act
        dz[:, :, :, 0] *= gg
        dz[:, :, :, 1] *= cells[:, :-1]
        np.multiply(gg, gg, out=dz[:, :, :, 2])
        np.subtract(1.0, dz[:, :, :, 2], out=dz[:, :, :, 2])
        dz[:, :, :, 2] *= i
        dz[:, :, :, 3] *= tanh_c
        dc_dh = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        dh_out = np.empty((n_dir, n_p, n_b, hid))
        for d in range(n_dir):
            dh_out[d] = g[:, order[d], d * hid : (d + 1) * hid].transpose(1, 0, 2)
        wh_t = np.stack([w.values for w in w_h]).transpose(0, 2, 1)
        dh = np.zeros((n_dir, n_b, hid))
        dc = np.zeros((n_dir, n_b, hid))
        tmp = np.empty((n_dir, n_b, hid))
        # dh and dc carry the gradient of step s's h and c from later steps
        for s in range(n_p - 1, -1, -1):
            dh += dh_out[:, s]
            np.multiply(dh, dc_dh[:, s], out=tmp)
            dc += tmp
            dz[:, s, :, :3] *= dc[:, :, None]
            dz[:, s, :, 3] *= dh
            dc *= f[:, s]
            np.matmul(dz[:, s].reshape(n_dir, n_b, 4 * hid), wh_t, out=dh)

        dz = dz.reshape(n_dir, n_p * n_b, 4 * hid)
        dx = np.zeros_like(x.values) if x.requires_grad else None
        dw_x, dw_h, db = [None] * n_dir, [None] * n_dir, [None] * n_dir
        for d in range(n_dir):
            if w_x[d].requires_grad:
                xs = x.values[:, order[d]].transpose(1, 0, 2).reshape(n_p * n_b, n_f)
                dw_x[d] = xs.T @ dz[d]
            if w_h[d].requires_grad:
                dw_h[d] = states[d, :-1].reshape(n_p * n_b, hid).T @ dz[d]
            if b[d].requires_grad:
                db[d] = dz[d].sum(axis=0)
            if dx is not None:
                dxs = (dz[d] @ w_x[d].values.T).reshape(n_p, n_b, n_f)
                dx += dxs[order[d]].transpose(1, 0, 2)
        return (dx, *dw_x, *dw_h, *db)

    return _make(values, (x, *w_x, *w_h, *b), bw)


def self_attention(x: DiffTensor, wq_w: DiffTensor, wq_b: DiffTensor, wk_w: DiffTensor, wk_b: DiffTensor,
                   wv_w: DiffTensor, wv_b: DiffTensor, wo_w: DiffTensor, wo_b: DiffTensor,
                   heads: int) -> DiffTensor:
    """Multi-head scaled dot-product self-attention over (B, P, d) as one node.

    The q, k, v and output projections are (d, d) weights with (d,) biases,
    and head h owns columns h*dh:(h+1)*dh of each, dh = d / heads. Q, K and
    V come from one (B*P, d) @ (d, 3d) matmul over the weights concatenated
    as they are read, with 1/sqrt(dh) folded into the q columns and the q
    bias. Unless dh is a power of four that scale is not a power of two, so
    folding it in rounds differently from scaling the scores: the results
    agree to rounding, not bit for bit.

    The scores, softmax and mixing run one sample at a time, so a sample's
    (heads, P, P) scores stay in cache, and the softmax runs in place.
    Without a parent that requires grad one such buffer serves every
    sample; otherwise the probabilities are all the backward pass keeps of
    them, with dS = P * (dP - rowsum(dP * P)) as in FlashAttention (Dao et
    al., arXiv 2205.14135) without the tiling.
    """
    if x.values.ndim != 3:
        raise ValueError("self_attention expects a rank-3 (B, P, d) input")
    n_b, n_p, d = x.values.shape
    if heads < 1 or d % heads:
        raise ValueError(f"model width {d} not divisible by heads {heads}")
    parents = (x, wq_w, wq_b, wk_w, wk_b, wv_w, wv_b, wo_w, wo_b)
    for i, t in enumerate(parents[1:]):
        if t.values.shape != (d, d)[: 2 - i % 2]:
            raise ValueError(f"projection {'qkvo'[i // 2]} has shape {t.values.shape} for width {d}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    keep = any(p.requires_grad for p in parents)

    w_qkv = np.concatenate([wq_w.values * scale, wk_w.values, wv_w.values], axis=1)
    xf = x.values.reshape(n_b * n_p, d)
    qkv = xf @ w_qkv
    qkv += np.concatenate([wq_b.values * scale, wk_b.values, wv_b.values])
    # qkv[n] holds sample n's q, k and v as (heads, P, dh) views
    qkv = qkv.reshape(n_b, n_p, 3, heads, dh).transpose(0, 2, 3, 1, 4)
    probs = np.empty((n_b if keep else 1, heads, n_p, n_p))
    merged = np.empty((n_b, n_p, d))
    for n in range(n_b):
        q, k, v = qkv[n]
        s = probs[n if keep else 0]
        np.matmul(q, k.transpose(0, 2, 1), out=s)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        merged[n].reshape(n_p, heads, dh)[...] = (s @ v).transpose(1, 0, 2)
    mf = merged.reshape(n_b * n_p, d)
    values = (mf @ wo_w.values).reshape(n_b, n_p, d)
    values += wo_b.values

    def bw(g):
        gf = g.reshape(n_b * n_p, d)
        dmerged = (gf @ wo_w.values.T).reshape(n_b, n_p, heads, dh)
        dqkv = np.empty((n_b, n_p, 3, heads, dh))
        for n in range(n_b):
            q, k, v = qkv[n]
            p = probs[n]
            dmixed = dmerged[n].transpose(1, 0, 2)
            dqkv[n, :, 2] = (p.transpose(0, 2, 1) @ dmixed).transpose(1, 0, 2)
            ds = dmixed @ v.transpose(0, 2, 1)
            ds -= np.einsum("hij,hij->hi", ds, p)[..., None]
            ds *= p
            dqkv[n, :, 0] = (ds @ k).transpose(1, 0, 2)
            dqkv[n, :, 1] = (ds.transpose(0, 2, 1) @ q).transpose(1, 0, 2)
        dqkv = dqkv.reshape(n_b * n_p, 3, d)
        grads = [None]
        if x.requires_grad:
            grads[0] = (dqkv.reshape(n_b * n_p, 3 * d) @ w_qkv.T).reshape(n_b, n_p, d)
        dqkv[:, 0] *= scale  # from here on, the gradient of the unscaled q
        outs = (*dqkv.transpose(1, 0, 2), gf)
        for inp, dout, w, b in zip((xf, xf, xf, mf), outs, parents[1::2], parents[2::2]):
            grads.append(inp.T @ dout if w.requires_grad else None)
            grads.append(dout.sum(axis=0) if b.requires_grad else None)
        return grads

    return _make(values, parents, bw)


def residual_layer_norm(x: DiffTensor, r: DiffTensor, gain: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """``layer_norm(add(x, r), gain, bias)`` over the last axis as one node.

    ``x`` and ``r`` have the same shape. The sum is formed, normalized and
    scaled in one work buffer that becomes the output; the backward pass
    keeps only the row means and inverse deviations and recomputes the
    normalized sum from them, bit for bit.
    """
    if x.values.shape != r.values.shape:
        raise ValueError(f"residual shapes differ: {x.values.shape} and {r.values.shape}")
    d = x.values.shape[-1]
    if gain.values.shape != (d,) or bias.values.shape != (d,):
        raise ValueError(f"gain and bias must have shape {(d,)}")
    values = x.values + r.values
    mu = values.mean(axis=-1, keepdims=True)
    values -= mu
    inv = np.einsum("...i,...i->...", values, values)[..., None]
    inv /= d
    inv += 1e-5  # layer_norm's epsilon
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    values *= inv
    values *= gain.values
    values += bias.values

    def bw(g):
        # the same three steps as above, so the same bits
        xhat = x.values + r.values
        xhat -= mu
        xhat *= inv
        gf = g.reshape(-1, d)
        dgain = np.einsum("ni,ni->i", gf, xhat.reshape(-1, d)) if gain.requires_grad else None
        dbias = gf.sum(axis=0) if bias.requires_grad else None
        dx = dr = None
        if x.requires_grad or r.requires_grad:
            dx = g * gain.values
            m2 = np.einsum("...i,...i->...", dx, xhat)[..., None] / d
            dx -= dx.mean(axis=-1, keepdims=True)
            xhat *= m2
            dx -= xhat
            dx *= inv
            if x.requires_grad and r.requires_grad:
                dr = np.array(dx)
            elif r.requires_grad:
                dx, dr = None, dx
        return dx, dr, dgain, dbias

    return _make(values, (x, r, gain, bias), bw)


# --------------------------------------------------------------- backward


def backward(loss: DiffTensor) -> None:
    """Add d(loss)/d(leaf) into the ``grad`` of every reachable requires_grad leaf.

    This is the only code that writes ``grad``. Nodes are visited in reverse
    topological order; each node's closure returns its parents' gradients
    (see :func:`_make`), and for every parent that requires grad the first
    gradient is adopted as its ``grad`` and later ones are added into it in
    place. A leaf that already holds a ``grad`` from an earlier backward
    keeps adding into it until :func:`adam_step` or the caller clears it.

    The graph is consumed: an interior node's closure and ``grad`` are
    dropped as soon as its parents have their share, and a second backward
    through any part of it raises. A loss that no requires_grad tensor feeds
    has no graph to walk, and raises too.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if loss._consumed:
        raise RuntimeError("graph already consumed")
    if not loss.requires_grad:
        raise RuntimeError(
            "backward needs a loss that a requires_grad tensor feeds; this one was "
            "built from constants only (eval-mode signatures read constant weights)"
        )
    order: list[DiffTensor] = []
    seen = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next(parents, None)
        if nxt is None:
            order.append(node)
            stack.pop()
        elif id(nxt) not in seen:
            seen.add(id(nxt))
            stack.append((nxt, iter(nxt._parents)))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # a ufunc over 0-d arrays returns a numpy scalar
                    parent.grad = np.asarray(g)
                else:
                    parent.grad += g
        if node._parents:
            node._consumed = True
            node._parents = ()
            node._backward = None
            node.grad = None
    loss._consumed = True


def grad_check(f, x, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps ``x`` (one DiffTensor or a list) to a scalar DiffTensor and
    must be deterministic across calls. Error per entry is
    |analytic - numeric| / max(1, |analytic|); the max over all entries of
    all tensors is returned.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    tensors = [x] if isinstance(x, DiffTensor) else list(x)
    for t in tensors:
        t.grad = None
    loss = f(x)
    if loss.values.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(loss)
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.values)) for t in tensors]
    for t in tensors:
        t.grad = None

    def loss_value() -> float:
        return float(f(x).values.reshape(()))

    worst = 0.0
    for t, ga in zip(tensors, analytic):
        flat = t.values.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_value()
            flat[i] = keep - eps
            down = loss_value()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            worst = max(worst, err)
    return worst


# ------------------------------------------------------------- optimizer


def _require_rate(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class AdamState:
    """Adam moments and learning rate for one parameter list.

    ``lr`` is the only setting. The decay rates and the denominator epsilon
    are the fixed ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``, the
    defaults recommended in "Adam: A Method for Stochastic Optimization"
    (Kingma & Ba, arXiv 1412.6980).
    """

    lr: float = 1e-4
    step_count: int = field(default=0, init=False)
    first_moment: list = field(default_factory=list, init=False)
    second_moment: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        _require_rate(self.lr, "lr")


def adam_step(params: list[DiffTensor], state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are cleared afterward.

    A missing or non-finite gradient, or a learning rate that is not finite
    and positive, raises before any value, moment or the step count changes.
    ``state.lr`` is checked here because callers assign it between steps.
    """
    _require_rate(state.lr, "lr")
    for p in params:
        if p.grad is None:
            raise ValueError(f"missing gradient for parameter {p.name!r}")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient for parameter {p.name!r}")
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p.values) for p in params]
        state.second_moment = [np.zeros_like(p.values) for p in params]
    if len(state.first_moment) != len(params):
        raise ValueError("optimizer state does not match parameter list")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        g = p.grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.values -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.grad = None


@dataclass(frozen=True)
class StepDecaySchedule:
    base_lr: float = 1e-4
    gamma: float = 0.95
    step_epochs: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.step_epochs < 1:
            raise ValueError("step_epochs must be >= 1")
        _require_rate(self.base_lr, "base_lr")


def schedule_lr(sched: StepDecaySchedule, epoch: int) -> float:
    """base_lr * gamma^floor(epoch / step_epochs)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return sched.base_lr * sched.gamma ** (epoch // sched.step_epochs)


# ------------------------------------------------------------ checkpoints

CHECKPOINT_MAGIC = b"WFCK"


def write_tensor_file(path, named: dict[str, np.ndarray]) -> None:
    """Serialize named arrays: magic, u32 count, then per tensor a u16-length
    UTF-8 name, u8 rank, u32 dims, and f32 little-endian values.

    Values that do not survive the f32 cast finitely are rejected before the
    file is created.
    """
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(named))]
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError("tensor rank exceeds format limit")
        chunks += [
            struct.pack("<H", len(encoded)),
            encoded,
            struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
            f32_bytes(arr, f"tensor {name!r}"),
        ]
    write_file(path, *chunks)


def read_tensor_file(path) -> dict[str, np.ndarray]:
    """Read a tensor file written by :func:`write_tensor_file`.

    Duplicate names, names that are not UTF-8 and non-finite values are
    format errors.
    """
    reader = BinaryReader(path, CheckpointFormatError)
    magic, count = reader.unpack("<4sI", "checkpoint header")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad checkpoint magic")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = reader.unpack("<H", f"tensor {i} name length")
        (encoded,) = reader.unpack(f"<{name_len}s", f"tensor {i} name")
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: tensor {i} name is not valid UTF-8") from exc
        if name in out:
            raise CheckpointFormatError(f"{path}: duplicate tensor {name!r}")
        (rank,) = reader.unpack("<B", f"tensor {name!r} rank")
        dims = reader.unpack(f"<{rank}I", f"tensor {name!r} dims")
        values = reader.array("<f4", math.prod(dims), f"tensor {name!r} values")
        if not np.all(np.isfinite(values)):
            raise CheckpointFormatError(f"{path}: tensor {name!r} has non-finite values")
        out[name] = values.reshape(dims)
    reader.finish()
    return out
