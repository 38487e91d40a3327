"""Reverse-mode automatic differentiation over dense float64 tensors.

Forward ops build a single-use graph of closures; backward walks it once in
topological order and accumulates gradients into every requires_grad leaf.
Also home to the Adam optimizer, the step-decay learning-rate schedule, the
finite-difference gradient checker, and the binary parameter checkpoint
format shared by all models.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

_DEBUG_FINITE = False


class NumericError(Exception):
    """Raised when a computation produces non-finite values."""


class CheckpointFormatError(Exception):
    """Raised when a parameter checkpoint file is malformed."""


def set_debug(enabled: bool) -> None:
    """Toggle per-op finiteness checks (slow; for debugging training blowups)."""
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


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
    if _DEBUG_FINITE and not np.all(np.isfinite(values)):
        raise NumericError("non-finite values in forward op")
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


def mean_axis(a: DiffTensor, axis: int, keepdims: bool = False) -> DiffTensor:
    out = _make(a.values.mean(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        count = a.values.shape[axis]
        shape = a.values.shape

        def bw(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g / count, shape), owned=False)

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


def exp(a: DiffTensor) -> DiffTensor:
    vals = np.exp(a.values)
    out = _make(vals, (a,))
    if out.requires_grad:

        def bw(g):
            _accum(a, g * vals, owned=True)

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


def layer_norm(a: DiffTensor, gain: DiffTensor, bias: DiffTensor, eps: float = 1e-5) -> DiffTensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def unstack_axis1(a: DiffTensor) -> list[DiffTensor]:
    """Split a (B, P, d) tensor into P tensors of shape (B, d).

    Equivalent to P take_slice calls, but each step's gradient lands
    directly in its slice of the parent's accumulator instead of routing
    through a freshly zeroed full-size buffer per step; recurrent loops
    over long sequences depend on this.
    """
    if a.values.ndim != 3:
        raise ValueError("unstack_axis1 expects a rank-3 tensor")
    steps = a.values.shape[1]
    outs = []
    for t in range(steps):
        out = _make(np.ascontiguousarray(a.values[:, t, :]), (a,))
        if out.requires_grad:

            def bw(g, t=t):
                if a.grad is None:
                    a.grad = np.zeros_like(a.values)
                a.grad[:, t, :] += g

            out._backward = bw
        outs.append(out)
    return outs


def sum_all(a: DiffTensor) -> DiffTensor:
    """Scalar sum of all entries, composed from reshape/mean/mul."""
    n = a.values.size
    flat = reshape(a, (1, n))
    return mul(mean_axis(flat, axis=1), constant(np.array([float(n)])))


# --------------------------------------------------------------- backward


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    The graph is consumed: interior closures are dropped to free memory and
    a second backward through any part of it raises.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if loss._consumed:
        raise RuntimeError("graph already consumed")
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
    """Adam moments and hyperparameters for one parameter list."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError("lr must be > 0")


def adam_step(params: list[DiffTensor], state: AdamState) -> None:
    """One bias-corrected Adam update; gradients are cleared afterward."""
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p.values) for p in params]
        state.second_moment = [np.zeros_like(p.values) for p in params]
    if len(state.first_moment) != len(params):
        raise ValueError("optimizer state does not match parameter list")
    for p in params:
        if p.grad is None:
            raise ValueError(f"missing gradient for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.values -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
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
    file is opened.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(named))
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError("tensor rank exceeds format limit")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        with np.errstate(over="ignore"):
            values = np.ascontiguousarray(arr, dtype="<f4")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"tensor {name!r} not representable as finite f32")
        blob += values.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def read_tensor_file(path) -> dict[str, np.ndarray]:
    """Read a tensor file written by :func:`write_tensor_file`.

    Duplicate names and non-finite values are format errors.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad checkpoint magic")
    (count,) = struct.unpack_from("<I", raw, 4)
    offset = 8
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            n = int(np.prod(dims)) if rank else 1
            values = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
            offset += 4 * n
            if name in out:
                raise CheckpointFormatError(f"{path}: duplicate tensor {name!r}")
            if not np.all(np.isfinite(values)):
                raise CheckpointFormatError(f"{path}: tensor {name!r} has non-finite values")
            out[name] = values.astype(np.float64).reshape(dims)
    except (struct.error, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: truncated checkpoint") from exc
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: trailing bytes in checkpoint")
    return out
