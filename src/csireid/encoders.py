"""Sequence encoders and the unit-norm signature head, as one model class.

A :class:`SignatureModel` maps a rank-3 (B, P, F) batch of (packet,
feature) sequences to unit-norm signatures whose dot products are cosine
similarities. Its encoder is interchangeable: a stacked LSTM run forward
only (``"lstm"``) or forward and backward (``"bilstm"``), each layer a
single ``ad.lstm_sequence`` graph node, or a post-norm Transformer, whose
attention is one ``ad.self_attention`` node and whose residual sums and
layer norms are ``ad.residual_layer_norm`` nodes. A linear head plus l2
normalization follows. Every parameter lives in one flat dict keyed by its
checkpoint name, and the forward pass reads it by key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csireid import autodiff as ad

ARCHES = ("lstm", "bilstm", "transformer")


@dataclass(frozen=True)
class EncoderConfig:
    arch: str = "transformer"
    layers_l: int = 1
    hidden_d: int = 128
    heads: int = 4
    dropout_pd: float = 0.1
    signature_dim_s: int = 128

    def __post_init__(self) -> None:
        if self.arch not in ARCHES:
            raise ValueError(f"arch must be one of {ARCHES}")
        if self.layers_l < 1:
            raise ValueError("layers_l must be >= 1")
        if self.hidden_d < 1 or self.signature_dim_s < 1:
            raise ValueError("hidden_d and signature_dim_s must be >= 1")
        if not 0.0 <= self.dropout_pd < 1.0:
            raise ValueError("dropout_pd must be in [0, 1)")
        if self.arch == "transformer":
            if self.heads < 1 or self.hidden_d % self.heads != 0:
                raise ValueError("hidden_d must be divisible by heads")
            if self.hidden_d % 2 != 0:
                raise ValueError("transformer hidden_d must be even")

    @property
    def encoder_out_dim(self) -> int:
        return 2 * self.hidden_d if self.arch == "bilstm" else self.hidden_d


def positional_encoding(p: int, d: int) -> np.ndarray:
    """Sinusoidal position table: sin on even columns, cos on odd ones."""
    if d % 2 != 0:
        raise ValueError("positional encoding width must be even")
    if p < 1 or d < 2:
        raise ValueError("need p >= 1 and d >= 2")
    pos = np.arange(p, dtype=np.float64)[:, None]
    rate = 10000.0 ** (np.arange(0, d, 2, dtype=np.float64) / d)
    table = np.empty((p, d))
    table[:, 0::2] = np.sin(pos / rate)
    table[:, 1::2] = np.cos(pos / rate)
    return table


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _linear(params: dict, prefix: str, x: ad.DiffTensor) -> ad.DiffTensor:
    return ad.add(ad.matmul(x, params[f"{prefix}.w"]), params[f"{prefix}.b"])


def _require_batch(x) -> ad.DiffTensor:
    if not (isinstance(x, ad.DiffTensor) and x.values.ndim == 3):
        raise ValueError("input must be a rank-3 (B, P, F) DiffTensor")
    return x


# ----------------------------------------------------------- signature head


def signature_tensor(h: ad.DiffTensor, params: dict) -> ad.DiffTensor:
    """Differentiable (B, s) signatures from (B, enc_dim) encoder output."""
    pre = _linear(params, "head", h)
    bad = np.flatnonzero(~np.isfinite(pre.values).all(axis=1))
    if bad.size:
        raise ad.NumericError(f"non-finite vector reached the signature head (rows {bad.tolist()})")
    bad = np.flatnonzero(np.linalg.norm(pre.values, axis=1) < 1e-12)
    if bad.size:
        raise ad.NumericError(f"zero-norm vector reached the signature head (rows {bad.tolist()})")
    return ad.l2_normalize_axis(pre, axis=1)


# -------------------------------------------------------------------- model


def _lstm_cells(arch: str, layer: int) -> list[str]:
    """Key prefix of each direction's cell in one (Bi-)LSTM layer."""
    if arch == "bilstm":
        return [f"bilstm{layer}.fwd", f"bilstm{layer}.bwd"]
    return [f"lstm{layer}"]


class SignatureModel:
    """Encoder plus signature head over one flat dict of parameters.

    ``named`` maps each state-dict key to its parameter, in state-dict
    order, and each parameter's ``name`` is its key:
    ``lstm<i>.{w_x,w_h,b}`` or ``bilstm<i>.{fwd,bwd}.{w_x,w_h,b}`` for the
    recurrent encoders, ``tf.in.{w,b}`` and ``tf<i>.<sub-layer>.<w|b|g>``
    for the Transformer, then ``head.{w,b}``. The fused ops read these
    per-projection tensors as they are and concatenate what they need, so
    the checkpoint layout does not depend on how the forward pass groups
    its work.

    Training mode reads the parameters themselves. Evaluation mode reads
    them as constants that share their arrays, so no backward graph is built
    through the weights; a batch that requires grad still gets its input
    gradient.
    """

    def __init__(self, cfg: EncoderConfig, n_feat: int, rng: np.random.Generator):
        if n_feat < 1:
            raise ValueError("n_feat must be >= 1")
        self.cfg = cfg
        self.n_feat = n_feat
        self.named: dict[str, ad.DiffTensor] = {}
        d = cfg.hidden_d
        if cfg.arch == "transformer":
            self._linear_params(rng, "tf.in", n_feat, d)
            for i in range(cfg.layers_l):
                for proj in ("wq", "wk", "wv", "wo"):
                    self._linear_params(rng, f"tf{i}.{proj}", d, d)
                self._linear_params(rng, f"tf{i}.ff1", d, 4 * d)
                self._linear_params(rng, f"tf{i}.ff2", 4 * d, d)
                for norm in ("ln1", "ln2"):
                    self._add(f"tf{i}.{norm}.g", np.ones(d))
                    self._add(f"tf{i}.{norm}.b", np.zeros(d))
        else:
            bias = np.zeros(4 * d)
            bias[d : 2 * d] = 1.0  # forget gate opens at init
            in_dim = n_feat
            for i in range(cfg.layers_l):
                for cell in _lstm_cells(cfg.arch, i):
                    self._add(f"{cell}.w_x", _uniform(rng, in_dim, (in_dim, 4 * d)))
                    self._add(f"{cell}.w_h", _uniform(rng, d, (d, 4 * d)))
                    self._add(f"{cell}.b", bias.copy())
                in_dim = cfg.encoder_out_dim
        self._linear_params(rng, "head", cfg.encoder_out_dim, cfg.signature_dim_s)

    def _add(self, key: str, values: np.ndarray) -> None:
        self.named[key] = ad.parameter(values, key)

    def _linear_params(self, rng, prefix: str, fan_in: int, fan_out: int) -> None:
        self._add(f"{prefix}.w", _uniform(rng, fan_in, (fan_in, fan_out)))
        self._add(f"{prefix}.b", np.zeros(fan_out))

    @property
    def params(self) -> list[ad.DiffTensor]:
        return list(self.named.values())

    def _read(self, training: bool) -> dict[str, ad.DiffTensor]:
        if training:
            return self.named
        return {key: ad.constant(t.values, key) for key, t in self.named.items()}

    def encode(self, x, training: bool = False, rng=None) -> ad.DiffTensor:
        """(B, enc_dim) encoder output for a (B, P, F) batch."""
        return self._encode(self._read(training), x, training, rng)

    def signatures(self, x, training: bool = False, rng=None) -> ad.DiffTensor:
        """(B, s) unit-norm signatures for a (B, P, F) batch."""
        params = self._read(training)
        return signature_tensor(self._encode(params, x, training, rng), params)

    def _encode(self, params: dict, x, training: bool, rng) -> ad.DiffTensor:
        cfg = self.cfg
        h = _require_batch(x)
        keep = 1.0 - cfg.dropout_pd
        if cfg.arch == "transformer":
            # post-norm blocks over projected inputs plus the position
            # table, with 4 * hidden_d wide feed-forward layers, mean-pooled
            pos = ad.constant(positional_encoding(h.values.shape[1], cfg.hidden_d))
            h = ad.add(_linear(params, "tf.in", h), pos)
            for i in range(cfg.layers_l):
                if i:
                    h = ad.dropout(h, keep, rng, training)
                block = f"tf{i}"
                proj = [params[f"{block}.{w}.{k}"] for w in ("wq", "wk", "wv", "wo") for k in "wb"]
                attn = ad.self_attention(h, *proj, cfg.heads)
                h = ad.residual_layer_norm(h, attn, params[f"{block}.ln1.g"], params[f"{block}.ln1.b"])
                ff = _linear(params, f"{block}.ff2", ad.rectifier(_linear(params, f"{block}.ff1", h)))
                h = ad.residual_layer_norm(h, ff, params[f"{block}.ln2.g"], params[f"{block}.ln2.b"])
            return ad.mean_axis(h, axis=1)
        # each layer runs all its directions as one lstm_sequence node and
        # the next reads its (B, P, D*H) output through dropout; a forward
        # pass ends at the last packet and a backward pass at packet 0
        for i in range(cfg.layers_l):
            if i:
                h = ad.dropout(h, keep, rng, training)
            cells = _lstm_cells(cfg.arch, i)
            reverse = [c.endswith(".bwd") for c in cells]
            h = ad.lstm_sequence(
                h,
                [params[f"{c}.w_x"] for c in cells],
                [params[f"{c}.w_h"] for c in cells],
                [params[f"{c}.b"] for c in cells],
                reverse,
            )
        hid = cfg.hidden_d
        finals = [
            ad.take_slice(h, (slice(None), 0 if rev else -1, slice(k * hid, (k + 1) * hid)))
            for k, rev in enumerate(reverse)
        ]
        return ad.concat(finals, axis=1)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {key: t.values.copy() for key, t in self.named.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = self.named
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        arrays = {}
        for name, tensor in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != tensor.values.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {tensor.values.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
            arrays[name] = arr
        # nothing is written until every array has passed
        for name, tensor in own.items():
            tensor.values[...] = arrays[name]


def build_model(cfg: EncoderConfig, n_feat: int, seed: int) -> SignatureModel:
    """Deterministically initialized model for the given architecture."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x454E4301]))
    return SignatureModel(cfg, n_feat, rng)
