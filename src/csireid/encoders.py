"""Sequence encoders and the unit-norm signature head.

Two interchangeable encoders map a (packet, feature) sequence to a
fixed-width vector: one stacked LSTM, run forward only (``"lstm"``) or
forward and backward (``"bilstm"``) with each layer a single
``ad.lstm_sequence`` graph node, and a Transformer. A linear head plus l2
normalization turns that vector into a signature whose dot products are
cosine similarities. Every forward pass takes a rank-3 (B, P, F) tensor.
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


# ---------------------------------------------------------------- attention


def multi_head_attention(x, weights: dict, heads: int) -> ad.DiffTensor:
    """Scaled dot-product self-attention over the packet axis of (B, P, d).

    ``weights`` holds the fused projections wq/wk/wv/wo with biases; heads
    are blocks of the fused matrices. Dropout is applied between encoder
    layers, not inside the sub-layer. Residual and layer norm are the
    caller's responsibility.
    """
    xb = _require_batch(x)
    b, p, d = xb.values.shape
    if d % heads != 0:
        raise ValueError(f"model width {d} not divisible by heads {heads}")
    dh = d // heads

    def split_heads(t):
        return ad.transpose(ad.reshape(t, (b, p, heads, dh)), (0, 2, 1, 3))

    q = split_heads(_linear(weights, "wq", xb))
    k = split_heads(_linear(weights, "wk", xb))
    v = split_heads(_linear(weights, "wv", xb))
    scores = ad.mul(
        ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
        ad.constant(np.array(1.0 / np.sqrt(dh))),
    )
    attn = ad.softmax_axis(scores, axis=3)
    mixed = ad.matmul(attn, v)
    merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, p, d))
    return _linear(weights, "wo", merged)


def attention_params(rng: np.random.Generator, d: int) -> dict:
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params[f"{name}.w"] = ad.parameter(_uniform(rng, d, (d, d)), name + ".w")
        params[f"{name}.b"] = ad.parameter(np.zeros(d), name + ".b")
    return params


# -------------------------------------------------------------------- LSTM


def _lstm_cell_params(rng: np.random.Generator, in_dim: int, hidden: int) -> dict:
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0  # forget gate opens at init
    return {
        "w_x": ad.parameter(_uniform(rng, in_dim, (in_dim, 4 * hidden)), "w_x"),
        "w_h": ad.parameter(_uniform(rng, hidden, (hidden, 4 * hidden)), "w_h"),
        "b": ad.parameter(bias, "b"),
    }


class LstmEncoder:
    """Stacked LSTM; encodes to the end-of-pass state of each direction.

    ``cfg.arch`` sets the directions: ``"lstm"`` runs forward only,
    ``"bilstm"`` runs forward and backward and concatenates both states.
    Each layer runs all its directions as one ``ad.lstm_sequence`` node;
    layers after the first read the previous layer's (B, P, D*H) sequence
    through dropout. The forward state is read at the last packet and the
    backward state at packet 0, where each pass ends.
    """

    def __init__(self, cfg: EncoderConfig, n_feat: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n_feat = n_feat
        self.directions = ("fwd", "bwd") if cfg.arch == "bilstm" else ("fwd",)
        self.layers = []
        in_dim = n_feat
        for _ in range(cfg.layers_l):
            self.layers.append(
                {d: _lstm_cell_params(rng, in_dim, cfg.hidden_d) for d in self.directions}
            )
            in_dim = len(self.directions) * cfg.hidden_d

    def named_params(self) -> dict[str, ad.DiffTensor]:
        bidirectional = len(self.directions) == 2
        return {
            f"bilstm{i}.{d}.{k}" if bidirectional else f"lstm{i}.{k}": v
            for i, layer in enumerate(self.layers)
            for d, cell in layer.items()
            for k, v in cell.items()
        }

    def encode(self, x, training: bool = False, rng=None) -> ad.DiffTensor:
        seq = _require_batch(x)
        reverse = [d == "bwd" for d in self.directions]
        for idx, layer in enumerate(self.layers):
            if idx:
                seq = ad.dropout(seq, 1.0 - self.cfg.dropout_pd, rng, training)
            cells = [layer[d] for d in self.directions]
            seq = ad.lstm_sequence(
                seq,
                [c["w_x"] for c in cells],
                [c["w_h"] for c in cells],
                [c["b"] for c in cells],
                reverse,
            )
        hid = self.cfg.hidden_d
        finals = [
            ad.take_slice(seq, (slice(None), 0 if rev else -1, slice(k * hid, (k + 1) * hid)))
            for k, rev in enumerate(reverse)
        ]
        return ad.concat(finals, axis=1)


# ------------------------------------------------------------- transformer


def _transformer_block_params(rng: np.random.Generator, d: int, ff: int) -> dict:
    params = attention_params(rng, d)
    params["ff1.w"] = ad.parameter(_uniform(rng, d, (d, ff)), "ff1.w")
    params["ff1.b"] = ad.parameter(np.zeros(ff), "ff1.b")
    params["ff2.w"] = ad.parameter(_uniform(rng, ff, (ff, d)), "ff2.w")
    params["ff2.b"] = ad.parameter(np.zeros(d), "ff2.b")
    params["ln1.g"] = ad.parameter(np.ones(d), "ln1.g")
    params["ln1.b"] = ad.parameter(np.zeros(d), "ln1.b")
    params["ln2.g"] = ad.parameter(np.ones(d), "ln2.g")
    params["ln2.b"] = ad.parameter(np.zeros(d), "ln2.b")
    return params


class TransformerEncoder:
    """Post-norm encoder stack over projected inputs plus position table, with
    ``4 * hidden_d`` wide feed-forward layers and mean pooling over packets."""

    def __init__(self, cfg: EncoderConfig, n_feat: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n_feat = n_feat
        d = cfg.hidden_d
        self.proj = {
            "in.w": ad.parameter(_uniform(rng, n_feat, (n_feat, d)), "in.w"),
            "in.b": ad.parameter(np.zeros(d), "in.b"),
        }
        self.blocks = [
            _transformer_block_params(rng, d, 4 * d) for _ in range(cfg.layers_l)
        ]

    def named_params(self) -> dict[str, ad.DiffTensor]:
        out = {f"tf.{k}": v for k, v in self.proj.items()}
        for i, block in enumerate(self.blocks):
            for k, v in block.items():
                out[f"tf{i}.{k}"] = v
        return out

    def encode(self, x, training: bool = False, rng=None) -> ad.DiffTensor:
        xb = _require_batch(x)
        _, p, _ = xb.values.shape
        h = ad.add(
            ad.add(ad.matmul(xb, self.proj["in.w"]), self.proj["in.b"]),
            ad.constant(positional_encoding(p, self.cfg.hidden_d)),
        )
        for idx, block in enumerate(self.blocks):
            attn = multi_head_attention(h, block, self.cfg.heads)
            h = ad.layer_norm(ad.add(h, attn), block["ln1.g"], block["ln1.b"])
            ff = _linear(block, "ff2", ad.rectifier(_linear(block, "ff1", h)))
            h = ad.layer_norm(ad.add(h, ff), block["ln2.g"], block["ln2.b"])
            if idx != len(self.blocks) - 1:
                h = ad.dropout(h, 1.0 - self.cfg.dropout_pd, rng, training)
        return ad.mean_axis(h, axis=1)


# ----------------------------------------------------------- signature head


def signature_tensor(h: ad.DiffTensor, params: dict) -> ad.DiffTensor:
    """Differentiable (B, s) signatures from (B, enc_dim) encoder output."""
    pre = ad.add(ad.matmul(h, params["head.w"]), params["head.b"])
    bad = np.flatnonzero(~np.isfinite(pre.values).all(axis=1))
    if bad.size:
        raise ad.NumericError(f"non-finite vector reached the signature head (rows {bad.tolist()})")
    bad = np.flatnonzero(np.linalg.norm(pre.values, axis=1) < 1e-12)
    if bad.size:
        raise ad.NumericError(f"zero-norm vector reached the signature head (rows {bad.tolist()})")
    return ad.l2_normalize_axis(pre, axis=1)


_ENCODERS = {
    "lstm": LstmEncoder,
    "bilstm": LstmEncoder,
    "transformer": TransformerEncoder,
}


class SignatureModel:
    """An encoder plus signature head with one flat parameter namespace."""

    def __init__(self, cfg: EncoderConfig, n_feat: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n_feat = n_feat
        self.encoder = _ENCODERS[cfg.arch](cfg, n_feat, rng)
        enc_dim = cfg.encoder_out_dim
        self.head = {
            "head.w": ad.parameter(
                _uniform(rng, enc_dim, (enc_dim, cfg.signature_dim_s)), "head.w"
            ),
            "head.b": ad.parameter(np.zeros(cfg.signature_dim_s), "head.b"),
        }

    def named_params(self) -> dict[str, ad.DiffTensor]:
        out = dict(self.encoder.named_params())
        out.update(self.head)
        return out

    @property
    def params(self) -> list[ad.DiffTensor]:
        return list(self.named_params().values())

    def signatures(self, x, training: bool = False, rng=None) -> ad.DiffTensor:
        """(B, s) unit-norm signatures for a (B, P, F) batch."""
        enc = self.encoder.encode(x, training=training, rng=rng)
        return signature_tensor(enc, self.head)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.named_params().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = self.named_params()
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
