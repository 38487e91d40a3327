"""Encoder forward semantics, gradient checks, and signature properties."""

import numpy as np
import pytest

from csireid import autodiff as ad
from csireid.csi_core import FeatureSequence
from csireid.encoders import (
    ARCHES,
    EncoderConfig,
    LstmEncoder,
    TransformerEncoder,
    attention_params,
    build_model,
    multi_head_attention,
    positional_encoding,
    signature_tensor,
)
from tests.oracles import attention, sum_all

TINY = dict(layers_l=1, hidden_d=4, heads=2, signature_dim_s=3, dropout_pd=0.0)


def tiny_cfg(arch, **over):
    merged = {**TINY, **over}
    return EncoderConfig(arch=arch, **merged)


def rand_seq(p=4, f=5, seed=0):
    return FeatureSequence(p, f, np.random.default_rng(seed).normal(size=(p, f)))


def batch(seq):
    """A one-sample (1, P, F) batch."""
    return ad.constant(seq.data[None])


# ------------------------------------------------------ positional encoding


def test_positional_encoding_row_zero():
    table = positional_encoding(3, 6)
    np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1])


def test_positional_encoding_reference_entry():
    table = positional_encoding(2, 4)
    assert abs(table[1, 0] - np.sin(1.0)) < 1e-15
    assert abs(table[1, 1] - np.cos(1.0)) < 1e-15
    assert abs(table[1, 2] - np.sin(1.0 / 100.0)) < 1e-15


def test_positional_encoding_rows_distinct():
    table = positional_encoding(64, 8)
    diffs = np.linalg.norm(table[:, None, :] - table[None, :, :], axis=2)
    diffs[np.diag_indices(64)] = 1.0
    assert diffs.min() > 1e-6


def test_positional_encoding_odd_width_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 5)


# ----------------------------------------------------------------- attention


def test_attention_uniform_when_queries_vanish():
    rng = np.random.default_rng(1)
    d = 4
    weights = attention_params(rng, d)
    weights["wq.w"].values[:] = 0.0
    weights["wo.w"].values[:] = np.eye(d)
    x = ad.constant(rng.normal(size=(1, 3, d)))
    out = multi_head_attention(x, weights, heads=2)
    v = x.values[0] @ weights["wv.w"].values + weights["wv.b"].values
    np.testing.assert_allclose(out.values[0], np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_matches_oracle():
    rng = np.random.default_rng(2)
    weights = attention_params(rng, 6)
    for name, t in weights.items():
        if name.endswith(".b"):
            t.values[:] = rng.normal(size=t.values.shape)
    x = ad.constant(rng.normal(size=(2, 5, 6)))
    out = multi_head_attention(x, weights, heads=3)
    want, probs = attention(x.values, {k: t.values for k, t in weights.items()}, heads=3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_attention_grad_check():
    rng = np.random.default_rng(3)
    weights = attention_params(rng, 4)
    x = ad.constant(rng.normal(size=(1, 3, 4)))
    tensors = list(weights.values())

    def f(ts):
        out = multi_head_attention(x, weights, heads=2)
        w = ad.constant(np.random.default_rng(9).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, tensors) < 1e-5


# ---------------------------------------------------------------------- LSTM


def test_lstm_zero_params_zero_output():
    cfg = tiny_cfg("lstm")
    enc = LstmEncoder(cfg, 5, np.random.default_rng(4))
    for p in enc.named_params().values():
        p.values[:] = 0.0
    out = enc.encode(batch(rand_seq()))
    np.testing.assert_array_equal(out.values, np.zeros((1, 4)))


def test_lstm_single_step_matches_cell_arithmetic():
    cfg = tiny_cfg("lstm")
    enc = LstmEncoder(cfg, 5, np.random.default_rng(5))
    seq = rand_seq(p=1, seed=6)
    out = enc.encode(batch(seq))
    cell = enc.layers[0]["fwd"]
    pre = seq.data @ cell["w_x"].values + cell["b"].values
    h = cfg.hidden_d

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    i, f, g, o = pre[0, :h], pre[0, h : 2 * h], pre[0, 2 * h : 3 * h], pre[0, 3 * h :]
    c = sig(i) * np.tanh(g)
    want = sig(o) * np.tanh(c)
    np.testing.assert_allclose(out.values[0], want, atol=1e-12)


def test_lstm_grad_through_time():
    cfg = tiny_cfg("lstm")
    enc = LstmEncoder(cfg, 3, np.random.default_rng(7))
    x = ad.parameter(np.random.default_rng(8).normal(size=(1, 10, 3)))
    tensors = [x, *enc.named_params().values()]

    def f(ts):
        out = enc.encode(x)
        w = ad.constant(np.random.default_rng(10).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, tensors) < 1e-5


def test_lstm_stacked_shapes():
    cfg = tiny_cfg("lstm", layers_l=2)
    enc = LstmEncoder(cfg, 5, np.random.default_rng(11))
    out = enc.encode(batch(rand_seq()), training=True, rng=np.random.default_rng(0))
    assert out.values.shape == (1, 4)


# -------------------------------------------------------------------- BiLSTM


def test_bilstm_zero_params_zero_output():
    cfg = tiny_cfg("bilstm")
    enc = LstmEncoder(cfg, 5, np.random.default_rng(12))
    for p in enc.named_params().values():
        p.values[:] = 0.0
    out = enc.encode(batch(rand_seq()))
    np.testing.assert_array_equal(out.values, np.zeros((1, 8)))


def test_bilstm_output_width():
    cfg = tiny_cfg("bilstm")
    enc = LstmEncoder(cfg, 5, np.random.default_rng(13))
    assert enc.encode(batch(rand_seq())).values.shape == (1, 8)


def test_bilstm_palindrome_with_tied_weights():
    cfg = tiny_cfg("bilstm")
    enc = LstmEncoder(cfg, 5, np.random.default_rng(14))
    layer = enc.layers[0]
    for key in ("w_x", "w_h", "b"):
        layer["bwd"][key].values[...] = layer["fwd"][key].values
    rng = np.random.default_rng(15)
    half = rng.normal(size=(3, 5))
    data = np.vstack([half, half[::-1]])
    out = enc.encode(batch(FeatureSequence(6, 5, data))).values[0]
    np.testing.assert_array_equal(out[:4], out[4:])


def test_bilstm_grad_check():
    cfg = tiny_cfg("bilstm")
    enc = LstmEncoder(cfg, 3, np.random.default_rng(16))
    x = ad.parameter(np.random.default_rng(17).normal(size=(1, 5, 3)))

    def f(ts):
        out = enc.encode(x)
        w = ad.constant(np.random.default_rng(18).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, [x, *enc.named_params().values()]) < 1e-5


# --------------------------------------------------------------- transformer


def test_transformer_packet_order_matters():
    cfg = tiny_cfg("transformer")
    enc = TransformerEncoder(cfg, 5, np.random.default_rng(21))
    seq = rand_seq(p=6, seed=22)
    base = enc.encode(batch(seq)).values
    permuted = FeatureSequence(6, 5, seq.data[::-1].copy())
    swapped = enc.encode(batch(permuted)).values
    assert np.abs(base - swapped).max() > 1e-6


def test_transformer_grad_check():
    cfg = tiny_cfg("transformer")
    enc = TransformerEncoder(cfg, 3, np.random.default_rng(23))
    x = ad.parameter(np.random.default_rng(24).normal(size=(1, 4, 3)))

    def f(ts):
        out = enc.encode(x)
        w = ad.constant(np.random.default_rng(25).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, [x, *enc.named_params().values()]) < 1e-4


def test_transformer_two_layer_train_mode_runs():
    cfg = tiny_cfg("transformer", layers_l=2, dropout_pd=0.2)
    enc = TransformerEncoder(cfg, 5, np.random.default_rng(26))
    out = enc.encode(batch(rand_seq()), training=True, rng=np.random.default_rng(1))
    assert out.values.shape == (1, 4)


@pytest.mark.parametrize("arch", ARCHES)
def test_encoders_reject_non_batch_input(arch):
    enc = build_model(tiny_cfg(arch), n_feat=5, seed=0).encoder
    seq = rand_seq()
    for x in (seq, ad.constant(seq.data), ad.constant(seq.data[None, None])):
        with pytest.raises(ValueError, match="rank-3"):
            enc.encode(x)


# ----------------------------------------------------------- signature head


def test_signature_identity_map_normalizes():
    params = {
        "head.w": ad.parameter(np.eye(2)),
        "head.b": ad.parameter(np.zeros(2)),
    }
    sig = signature_tensor(ad.constant(np.array([[3.0, 4.0]])), params)
    np.testing.assert_allclose(sig.values, [[0.6, 0.8]], atol=1e-12)


def test_signature_scale_invariance():
    rng = np.random.default_rng(27)
    params = {
        "head.w": ad.parameter(rng.normal(size=(6, 4))),
        "head.b": ad.parameter(np.zeros(4)),
    }
    h = rng.normal(size=(1, 6))
    base = signature_tensor(ad.constant(h), params).values
    for c in (1e-3, 0.5, 7.0, 1e3):
        scaled = signature_tensor(ad.constant(c * h), params).values
        np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_signature_zero_norm_rejected():
    params = {
        "head.w": ad.parameter(np.zeros((3, 2))),
        "head.b": ad.parameter(np.zeros(2)),
    }
    with pytest.raises(ad.NumericError, match=r"zero-norm .*rows \[0\]"):
        signature_tensor(ad.constant(np.ones((1, 3))), params)


def test_signature_nonfinite_rejected():
    params = {
        "head.w": ad.parameter(np.ones((3, 2))),
        "head.b": ad.parameter(np.zeros(2)),
    }
    h = np.ones((2, 3))
    h[1, 0] = np.nan
    with pytest.raises(ad.NumericError, match=r"non-finite .*rows \[1\]"):
        signature_tensor(ad.constant(h), params)


# -------------------------------------------------------------------- models


def test_all_archs_same_signature_dim():
    for arch in ARCHES:
        model = build_model(tiny_cfg(arch), n_feat=5, seed=3)
        sig = model.signatures(ad.constant(np.random.default_rng(28).normal(size=(2, 4, 5))))
        assert sig.values.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(sig.values, axis=1), 1.0, atol=1e-6)


def test_eval_forward_bitwise_deterministic():
    model = build_model(tiny_cfg("transformer"), n_feat=5, seed=4)
    x = ad.constant(np.random.default_rng(29).normal(size=(2, 4, 5)))
    a = model.signatures(x).values
    b = model.signatures(x).values
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("arch", ARCHES)
def test_build_model_seed_determinism(arch):
    a = build_model(tiny_cfg(arch), n_feat=5, seed=11)
    b = build_model(tiny_cfg(arch), n_feat=5, seed=11)
    c = build_model(tiny_cfg(arch), n_feat=5, seed=12)
    for (ka, va), (kb, vb) in zip(a.named_params().items(), b.named_params().items()):
        assert ka == kb
        np.testing.assert_array_equal(va.values, vb.values)
    assert any(
        not np.array_equal(va.values, vc.values)
        for va, vc in zip(a.params, c.params)
    )


_TF_BLOCK_KEYS = (
    "wq.w", "wq.b", "wk.w", "wk.b", "wv.w", "wv.b", "wo.w", "wo.b",
    "ff1.w", "ff1.b", "ff2.w", "ff2.b", "ln1.g", "ln1.b", "ln2.g", "ln2.b",
)
STATE_KEYS = {
    "lstm": [
        "lstm0.w_x", "lstm0.w_h", "lstm0.b",
        "lstm1.w_x", "lstm1.w_h", "lstm1.b",
        "head.w", "head.b",
    ],
    "bilstm": [
        "bilstm0.fwd.w_x", "bilstm0.fwd.w_h", "bilstm0.fwd.b",
        "bilstm0.bwd.w_x", "bilstm0.bwd.w_h", "bilstm0.bwd.b",
        "bilstm1.fwd.w_x", "bilstm1.fwd.w_h", "bilstm1.fwd.b",
        "bilstm1.bwd.w_x", "bilstm1.bwd.w_h", "bilstm1.bwd.b",
        "head.w", "head.b",
    ],
    "transformer": [
        "tf.in.w", "tf.in.b",
        *(f"tf0.{k}" for k in _TF_BLOCK_KEYS),
        *(f"tf1.{k}" for k in _TF_BLOCK_KEYS),
        "head.w", "head.b",
    ],
}


@pytest.mark.parametrize("arch", ARCHES)
def test_state_dict_keys_pinned(arch):
    # checkpoints are keyed by these names; renaming one orphans saved weights
    model = build_model(tiny_cfg(arch, layers_l=2), n_feat=5, seed=0)
    assert list(model.state_dict()) == STATE_KEYS[arch]


def test_state_dict_round_trip():
    cfg = tiny_cfg("bilstm")
    a = build_model(cfg, n_feat=5, seed=5)
    b = build_model(cfg, n_feat=5, seed=6)
    b.load_state_dict(a.state_dict())
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.values, pb.values)
    with pytest.raises(ValueError):
        state = a.state_dict()
        state.pop(next(iter(state)))
        b.load_state_dict(state)


def test_load_state_dict_rejects_nonfinite():
    cfg = tiny_cfg("transformer")
    a = build_model(cfg, n_feat=5, seed=5)
    b = build_model(cfg, n_feat=5, seed=6)
    before = b.state_dict()
    state = a.state_dict()
    state["head.b"][0] = np.nan
    with pytest.raises(ValueError, match="head.b"):
        b.load_state_dict(state)
    # a rejected state dict leaves every parameter as it was
    for name, values in b.state_dict().items():
        np.testing.assert_array_equal(values, before[name])


def test_end_to_end_input_gradient_all_archs():
    for arch in ARCHES:
        model = build_model(tiny_cfg(arch), n_feat=3, seed=7)
        x = ad.parameter(np.random.default_rng(30).normal(size=(2, 3, 3)))

        def f(t):
            out = model.signatures(t)
            w = ad.constant(np.random.default_rng(31).normal(size=out.values.shape))
            return sum_all(ad.mul(out, w))

        assert ad.grad_check(f, x) < 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(arch="gru")
    with pytest.raises(ValueError):
        EncoderConfig(arch="transformer", hidden_d=10, heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(layers_l=0)
    with pytest.raises(ValueError):
        EncoderConfig(dropout_pd=1.0)
