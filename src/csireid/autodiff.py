"""Reverse-mode automatic differentiation over dense float64 tensors.

Forward ops build a single-use graph of closures; backward walks it once in
topological order and accumulates gradients into every requires_grad leaf.
Most ops are elementary; :func:`lstm_sequence` is one fused node for a whole
(bi-directional) LSTM layer, with backpropagation through time written by
hand, so the graph does not grow with sequence length. Also home to the
Adam optimizer, the step-decay learning-rate schedule, the finite-difference
gradient checker, and the binary parameter checkpoint format shared by all
models, which is read, encoded and written with the codec in
:mod:`csireid.csi_core`.

Ops do not check their outputs for non-finite values. :func:`adam_step`, the
one place that writes weights, rejects a non-finite gradient and names the
parameter it belongs to before it changes any state.
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
    """A float64 array plus gradient accumulator and graph linkage.

    Graphs are single-use: once backward() has consumed a node, building on
    it or differentiating through it again raises.
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


def _make(values: np.ndarray, parents: tuple[DiffTensor, ...]) -> DiffTensor:
    for p in parents:
        if p._consumed:
            raise RuntimeError("graph already consumed; rebuild from leaf tensors")
    out = DiffTensor(values)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
    return out


def _accum(t: DiffTensor, g: np.ndarray, owned: bool) -> None:
    """Add g into t.grad; ``owned`` means g is fresh and safe to adopt."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned and isinstance(g, np.ndarray) and g.base is None else np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ------------------------------------------------------------- primitives


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    out = _make(np.matmul(a.values, b.values), (a, b))
    if out.requires_grad:
        av, bv = a.values, b.values

        def bw(g):
            if a.requires_grad:
                da = np.matmul(g, np.swapaxes(bv, -1, -2))
                _accum(a, _unbroadcast(da, av.shape), owned=True)
            if b.requires_grad:
                db = np.matmul(np.swapaxes(av, -1, -2), g)
                _accum(b, _unbroadcast(db, bv.shape), owned=True)

        out._backward = bw
    return out


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    out = _make(a.values + b.values, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                ga = _unbroadcast(g, a.values.shape)
                _accum(a, ga, owned=ga is not g)
            if b.requires_grad:
                gb = _unbroadcast(g, b.values.shape)
                _accum(b, gb, owned=gb is not g)

        out._backward = bw
    return out


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    out = _make(a.values * b.values, (a, b))
    if out.requires_grad:
        av, bv = a.values, b.values

        def bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * bv, av.shape), owned=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(g * av, bv.shape), owned=True)

        out._backward = bw
    return out


def concat(tensors: list[DiffTensor], axis: int) -> DiffTensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out = _make(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.values.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def bw(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                _accum(t, piece, owned=False)

        out._backward = bw
    return out


def take_slice(a: DiffTensor, index) -> DiffTensor:
    """Basic indexing (ints and slices); gradient scatters back into place."""
    out = _make(np.ascontiguousarray(a.values[index]), (a,))
    if out.requires_grad:
        shape = a.values.shape

        def bw(g):
            buf = np.zeros(shape)
            buf[index] = g
            _accum(a, buf, owned=True)

        out._backward = bw
    return out


def transpose(a: DiffTensor, axes: tuple[int, ...]) -> DiffTensor:
    out = _make(np.ascontiguousarray(np.transpose(a.values, axes)), (a,))
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))

        def bw(g):
            _accum(a, np.transpose(g, inverse), owned=False)

        out._backward = bw
    return out


def reshape(a: DiffTensor, shape: tuple[int, ...]) -> DiffTensor:
    out = _make(a.values.reshape(shape), (a,))
    if out.requires_grad:
        orig = a.values.shape

        def bw(g):
            _accum(a, g.reshape(orig), owned=False)

        out._backward = bw
    return out


def mean_axis(a: DiffTensor, axis: int) -> DiffTensor:
    out = _make(a.values.mean(axis=axis), (a,))
    if out.requires_grad:
        count = a.values.shape[axis]
        shape = a.values.shape

        def bw(g):
            _accum(a, np.broadcast_to(np.expand_dims(g, axis) / count, shape), owned=False)

        out._backward = bw
    return out


def tanh(a: DiffTensor) -> DiffTensor:
    vals = np.tanh(a.values)
    out = _make(vals, (a,))
    if out.requires_grad:

        def bw(g):
            _accum(a, g * (1.0 - vals * vals), owned=True)

        out._backward = bw
    return out


def sigmoid(a: DiffTensor) -> DiffTensor:
    x = a.values
    e = np.exp(-np.abs(x))
    vals = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _make(vals, (a,))
    if out.requires_grad:

        def bw(g):
            _accum(a, g * vals * (1.0 - vals), owned=True)

        out._backward = bw
    return out


def rectifier(a: DiffTensor) -> DiffTensor:
    out = _make(np.maximum(a.values, 0.0), (a,))
    if out.requires_grad:
        pos = a.values > 0

        def bw(g):
            _accum(a, g * pos, owned=True)

        out._backward = bw
    return out


def log(a: DiffTensor) -> DiffTensor:
    out = _make(np.log(a.values), (a,))
    if out.requires_grad:
        av = a.values

        def bw(g):
            _accum(a, g / av, owned=True)

        out._backward = bw
    return out


def softmax_axis(a: DiffTensor, axis: int) -> DiffTensor:
    if a.values.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    z = a.values - a.values.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    vals = ez / ez.sum(axis=axis, keepdims=True)
    out = _make(vals, (a,))
    if out.requires_grad:

        def bw(g):
            inner = (g * vals).sum(axis=axis, keepdims=True)
            _accum(a, vals * (g - inner), owned=True)

        out._backward = bw
    return out


def layer_norm(a: DiffTensor, gain: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    out = _make(xhat * gain.values + bias.values, (a, gain, bias))
    if out.requires_grad:
        n = x.shape[-1]
        gv = gain.values

        def bw(g):
            if a.requires_grad:
                dxhat = g * gv
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                _accum(a, inv * (dxhat - m1 - xhat * m2), owned=True)
            if gain.requires_grad:
                _accum(gain, _unbroadcast(g * xhat, gv.shape), owned=True)
            if bias.requires_grad:
                gb = _unbroadcast(g, bias.values.shape)
                _accum(bias, gb, owned=gb is not g)

        out._backward = bw
    return out


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
    out = _make(a.values * mask, (a,))
    if out.requires_grad:

        def bw(g):
            _accum(a, g * mask, owned=True)

        out._backward = bw
    return out


def l2_normalize_axis(a: DiffTensor, axis: int) -> DiffTensor:
    """Scale along ``axis`` to unit l2 norm (zero vectors stay zero-safe)."""
    x = a.values
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, 1e-30)
    vals = x / norm
    out = _make(vals, (a,))
    if out.requires_grad:

        def bw(g):
            inner = (g * vals).sum(axis=axis, keepdims=True)
            _accum(a, (g - vals * inner) / norm, owned=True)

        out._backward = bw
    return out


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
    out = _make(values, (x, *w_x, *w_h, *b))
    if out.requires_grad:

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
            for d in range(n_dir):
                if w_x[d].requires_grad:
                    xs = x.values[:, order[d]].transpose(1, 0, 2).reshape(n_p * n_b, n_f)
                    _accum(w_x[d], xs.T @ dz[d], owned=True)
                if w_h[d].requires_grad:
                    _accum(w_h[d], states[d, :-1].reshape(n_p * n_b, hid).T @ dz[d], owned=True)
                if b[d].requires_grad:
                    _accum(b[d], dz[d].sum(axis=0), owned=True)
                if dx is not None:
                    dxs = (dz[d] @ w_x[d].values.T).reshape(n_p, n_b, n_f)
                    dx += dxs[order[d]].transpose(1, 0, 2)
            if dx is not None:
                _accum(x, dx, owned=True)

        out._backward = bw
    return out


# --------------------------------------------------------------- backward


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    The graph is consumed: interior closures are dropped to free memory and
    a second backward through any part of it raises. A loss that no
    requires_grad tensor feeds has no graph to walk, and raises too.
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
            node._backward(node.grad)
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
        if not self.lr > 0:
            raise ValueError("lr must be > 0")


def adam_step(params: list[DiffTensor], state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are cleared afterward.

    A missing or non-finite gradient raises before any value, moment or the
    step count changes.
    """
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
        if not self.base_lr > 0:
            raise ValueError("base_lr must be > 0")


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
