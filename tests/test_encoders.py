"""Encoder forward semantics, gradient checks, and signature properties."""

import tracemalloc

import numpy as np
import pytest

from csireid import autodiff as ad
from csireid.csi_core import FeatureSequence
from csireid.encoders import (
    ARCHES,
    EncoderConfig,
    SignatureModel,
    build_model,
    positional_encoding,
    signature_tensor,
)
from tests import oracles
from tests.oracles import attention, lstm_encode, sum_all, transformer_encode

TINY = dict(layers_l=1, hidden_d=4, heads=2, signature_dim_s=3, dropout_pd=0.0)


def tiny_cfg(arch, **over):
    merged = {**TINY, **over}
    return EncoderConfig(arch=arch, **merged)


def rand_seq(p=4, f=5, seed=0):
    return FeatureSequence(p, f, np.random.default_rng(seed).normal(size=(p, f)))


def batch(seq):
    """A one-sample (1, P, F) batch."""
    return ad.constant(seq.data[None])


def make_model(cfg, n_feat, seed):
    """A model whose encoder weights are the first draws of ``seed``'s generator."""
    return SignatureModel(cfg, n_feat, np.random.default_rng(seed))


def encode(model, x, training=False, rng=None):
    """(B, enc_dim) encoder output, the signature head's input."""
    return model._encode(model._read(training), x, training, rng)


def signatures64(model, x):
    """Eval ``model.signatures`` with the encoder run in float64, not float32."""
    params = model._read(False)
    return signature_tensor(model._encode(params, x, False, None), params)


def encoder_params(model):
    """Every parameter except the signature head's."""
    return [t for key, t in model.named.items() if not key.startswith("head.")]


def cell_prefixes(arch, layer):
    """Key prefix of each direction's LSTM cell in one layer."""
    return [f"bilstm{layer}.fwd", f"bilstm{layer}.bwd"] if arch == "bilstm" else [f"lstm{layer}"]


def attention_model(d, heads, seed):
    """A one-block Transformer; its ``tf0.w*`` entries are attention weights."""
    return make_model(tiny_cfg("transformer", hidden_d=d, heads=heads), d, seed)


ATTENTION_KEYS = [f"{w}.{k}" for w in ("wq", "wk", "wv", "wo") for k in "wb"]


def attend(x, named, heads, prefix="tf0"):
    """``ad.self_attention`` over the projections ``named`` holds under ``prefix``."""
    return ad.self_attention(x, *(named[f"{prefix}.{k}"] for k in ATTENTION_KEYS), heads)


# ------------------------------------------------------ positional encoding


def test_positional_encoding_row_zero():
    table = positional_encoding(3, 6)
    np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1])


def test_positional_encoding_reference_entry():
    table = positional_encoding(2, 4)
    assert abs(table[1, 0] - np.sin(1.0)) < 1e-15
    assert abs(table[1, 1] - np.cos(1.0)) < 1e-15
    assert abs(table[1, 2] - np.sin(1.0 / 100.0)) < 1e-15


def test_positional_encoding_matches_oracle():
    want = oracles.position_table(64, 8)
    np.testing.assert_allclose(positional_encoding(64, 8), want, rtol=0, atol=1e-13)


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
    weights = attention_model(d, 2, seed=1).named
    weights["tf0.wq.w"].values[:] = 0.0
    weights["tf0.wo.w"].values[:] = np.eye(d)
    x = ad.constant(rng.normal(size=(1, 3, d)))
    out = attend(x, weights, heads=2)
    v = x.values[0] @ weights["tf0.wv.w"].values + weights["tf0.wv.b"].values
    np.testing.assert_allclose(out.values[0], np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_matches_oracle():
    rng = np.random.default_rng(2)
    named = attention_model(6, 3, seed=2).named
    weights = {k.removeprefix("tf0."): t for k, t in named.items() if k.startswith("tf0.w")}
    for name, t in weights.items():
        if name.endswith(".b"):
            t.values[:] = rng.normal(size=t.values.shape)
    x = ad.constant(rng.normal(size=(2, 5, 6)))
    out = attend(x, named, heads=3)
    want, probs = attention(x.values, {k: t.values for k, t in weights.items()}, heads=3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_attention_grad_check():
    rng = np.random.default_rng(3)
    weights = attention_model(4, 2, seed=3).named
    for key in ATTENTION_KEYS:
        if key.endswith(".b"):
            weights[f"tf0.{key}"].values[:] = rng.normal(size=4)
    x = ad.parameter(rng.normal(size=(2, 3, 4)))
    tensors = [x, *(weights[f"tf0.{k}"] for k in ATTENTION_KEYS)]

    def f(ts):
        out = attend(x, weights, heads=2)
        w = ad.constant(np.random.default_rng(9).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, tensors) < 1e-5


def test_attention_rejects_bad_shapes():
    named = attention_model(4, 2, seed=3).named
    with pytest.raises(ValueError, match="rank-3"):
        attend(ad.constant(np.zeros((3, 4))), named, heads=2)
    with pytest.raises(ValueError, match="divisible"):
        attend(ad.constant(np.zeros((1, 3, 4))), named, heads=3)
    named["tf0.wk.w"] = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="projection k"):
        attend(ad.constant(np.zeros((1, 3, 4))), named, heads=2)


def run_with_grads(build, tensors, seed):
    """Values of ``build()`` and the gradients it sends into ``tensors``
    under a random linear loss; a tensor that gets none reads None."""
    for t in tensors:
        t.grad = None
    out = build()
    w = ad.constant(np.random.default_rng(seed).normal(size=out.values.shape))
    ad.backward(sum_all(ad.mul(out, w)))
    grads = [None if t.grad is None else t.grad.copy() for t in tensors]
    return out.values, grads


def assert_same_run(got, want):
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    for g, w in zip(got[1], want[1]):
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("b, p", [(3, 5), (1, 1)])
def test_self_attention_matches_composed(b, p):
    rng = np.random.default_rng(44)
    named = attention_model(6, 3, seed=45).named
    for key in ATTENTION_KEYS:
        if key.endswith(".b"):
            named[f"tf0.{key}"].values[:] = rng.normal(size=6)
    x = ad.parameter(rng.normal(size=(b, p, 6)))
    tensors = [x, *(named[f"tf0.{k}"] for k in ATTENTION_KEYS)]
    got = run_with_grads(lambda: attend(x, named, heads=3), tensors, 46)
    want = run_with_grads(lambda: oracles.multi_head_attention(x, named, "tf0", 3), tensors, 46)
    assert_same_run(got, want)
    # with constant weights only the input gradient flows
    frozen = {k: ad.constant(t.values) for k, t in named.items()}
    got = run_with_grads(lambda: attend(x, frozen, heads=3), [x], 46)
    assert_same_run(got, (want[0], want[1][:1]))


@pytest.mark.parametrize("needs", ["x", "r", "gain", "bias", "all"])
def test_residual_layer_norm_matches_composed(needs):
    rng = np.random.default_rng(47)
    parts = {
        "x": rng.normal(size=(2, 3, 5)),
        "r": rng.normal(size=(2, 3, 5)),
        "gain": rng.normal(size=5),
        "bias": rng.normal(size=5),
    }
    tensors = {k: ad.DiffTensor(v, requires_grad=needs in (k, "all")) for k, v in parts.items()}
    leaves = list(tensors.values())
    params = {"ln.g": tensors["gain"], "ln.b": tensors["bias"]}
    got = run_with_grads(lambda: ad.residual_layer_norm(*leaves), leaves, 48)
    want = run_with_grads(
        lambda: oracles.residual_layer_norm(tensors["x"], tensors["r"], params, "ln"), leaves, 48
    )
    assert_same_run(got, want)


def test_residual_layer_norm_rejects_bad_shapes():
    a = ad.constant(np.zeros((2, 4)))
    ones, zeros = ad.constant(np.ones(4)), ad.constant(np.zeros(4))
    with pytest.raises(ValueError, match="residual shapes"):
        ad.residual_layer_norm(a, ad.constant(np.zeros((1, 4))), ones, zeros)
    with pytest.raises(ValueError, match="gain and bias"):
        ad.residual_layer_norm(a, a, ad.constant(np.ones(3)), zeros)


# ---------------------------------------------------------------------- LSTM


def test_lstm_zero_params_zero_output():
    cfg = tiny_cfg("lstm")
    model = make_model(cfg, 5, 4)
    for p in encoder_params(model):
        p.values[:] = 0.0
    out = encode(model, batch(rand_seq()))
    np.testing.assert_array_equal(out.values, np.zeros((1, 4)))


def test_lstm_single_step_matches_cell_arithmetic():
    cfg = tiny_cfg("lstm")
    model = make_model(cfg, 5, 5)
    seq = rand_seq(p=1, seed=6)
    out = encode(model, batch(seq))
    pre = seq.data @ model.named["lstm0.w_x"].values + model.named["lstm0.b"].values
    h = cfg.hidden_d

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    i, f, g, o = pre[0, :h], pre[0, h : 2 * h], pre[0, 2 * h : 3 * h], pre[0, 3 * h :]
    c = sig(i) * np.tanh(g)
    want = sig(o) * np.tanh(c)
    np.testing.assert_allclose(out.values[0], want, atol=1e-12)


def test_lstm_grad_through_time():
    cfg = tiny_cfg("lstm")
    model = make_model(cfg, 3, 7)
    x = ad.parameter(np.random.default_rng(8).normal(size=(1, 10, 3)))
    tensors = [x, *encoder_params(model)]

    def f(ts):
        out = encode(model, x, training=True)
        w = ad.constant(np.random.default_rng(10).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, tensors) < 1e-5


def test_lstm_stacked_shapes():
    cfg = tiny_cfg("lstm", layers_l=2)
    model = make_model(cfg, 5, 11)
    out = encode(model, batch(rand_seq()), training=True, rng=np.random.default_rng(0))
    assert out.values.shape == (1, 4)


# -------------------------------------------------------------------- BiLSTM


def test_bilstm_zero_params_zero_output():
    cfg = tiny_cfg("bilstm")
    model = make_model(cfg, 5, 12)
    for p in encoder_params(model):
        p.values[:] = 0.0
    out = encode(model, batch(rand_seq()))
    np.testing.assert_array_equal(out.values, np.zeros((1, 8)))


def test_bilstm_output_width():
    cfg = tiny_cfg("bilstm")
    model = make_model(cfg, 5, 13)
    assert encode(model, batch(rand_seq())).values.shape == (1, 8)


def test_bilstm_palindrome_with_tied_weights():
    cfg = tiny_cfg("bilstm")
    model = make_model(cfg, 5, 14)
    for key in ("w_x", "w_h", "b"):
        model.named[f"bilstm0.bwd.{key}"].values[...] = model.named[f"bilstm0.fwd.{key}"].values
    rng = np.random.default_rng(15)
    half = rng.normal(size=(3, 5))
    data = np.vstack([half, half[::-1]])
    out = encode(model, batch(FeatureSequence(6, 5, data))).values[0]
    np.testing.assert_array_equal(out[:4], out[4:])


def test_bilstm_grad_check():
    cfg = tiny_cfg("bilstm")
    model = make_model(cfg, 3, 16)
    x = ad.parameter(np.random.default_rng(17).normal(size=(1, 5, 3)))

    def f(ts):
        out = encode(model, x, training=True)
        w = ad.constant(np.random.default_rng(18).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, [x, *encoder_params(model)]) < 1e-5


@pytest.mark.parametrize("b, p", [(3, 5), (1, 5), (3, 1)])
@pytest.mark.parametrize("layers_l", [1, 2])
@pytest.mark.parametrize("arch", ["lstm", "bilstm"])
def test_lstm_sequence_matches_oracle(arch, layers_l, b, p):
    cfg = tiny_cfg(arch, layers_l=layers_l, dropout_pd=0.25)
    model = make_model(cfg, 3, 40)
    x = ad.parameter(np.random.default_rng(41).normal(size=(b, p, 3)))
    tensors = [x, *encoder_params(model)]
    cells = [
        [{k: model.named[f"{c}.{k}"] for k in ("w_x", "w_h", "b")} for c in cell_prefixes(arch, i)]
        for i in range(layers_l)
    ]
    reverse = [c.endswith(".bwd") for c in cell_prefixes(arch, 0)]
    got = run_with_grads(
        lambda: encode(model, x, training=True, rng=np.random.default_rng(42)), tensors, 43
    )
    want = run_with_grads(
        lambda: lstm_encode(x, cells, reverse, 0.75, np.random.default_rng(42))[1], tensors, 43
    )
    assert_same_run(got, want)


def graph_of(root: ad.DiffTensor) -> list[ad.DiffTensor]:
    """Every node reachable from ``root`` through the autodiff parent links."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def in_batch_loss(sigs: ad.DiffTensor, labels: np.ndarray) -> ad.DiffTensor:
    """-mean log softmax mass on same-label candidates, self excluded."""
    b = labels.size
    eye = np.eye(b, dtype=bool)
    positive = (labels[:, None] == labels[None, :]) & ~eye
    logits = ad.add(
        ad.mul(ad.matmul(sigs, ad.transpose(sigs, (1, 0))), ad.constant(np.array(10.0))),
        ad.constant(np.where(eye, -1e9, 0.0)),
    )
    prob = ad.softmax_axis(logits, axis=1)
    mass = ad.mean_axis(ad.mul(prob, ad.constant(positive.astype(np.float64))), axis=1)
    return ad.mul(ad.mean_axis(ad.log(mass), axis=0), ad.constant(np.array(-1.0)))


def test_bilstm_graph_size_independent_of_packets():
    model = build_model(tiny_cfg("bilstm"), n_feat=3, seed=5)
    labels = np.array([0, 0, 1, 1])
    counts = []
    for p in (5, 50):
        x = ad.constant(np.random.default_rng(p).normal(size=(4, p, 3)))
        counts.append(len(graph_of(in_batch_loss(model.signatures(x, training=True), labels))))
    assert counts[0] == counts[1] < 40


# --------------------------------------------------------------- transformer


def test_transformer_packet_order_matters():
    cfg = tiny_cfg("transformer")
    model = make_model(cfg, 5, 21)
    seq = rand_seq(p=6, seed=22)
    base = encode(model, batch(seq)).values
    permuted = FeatureSequence(6, 5, seq.data[::-1].copy())
    swapped = encode(model, batch(permuted)).values
    assert np.abs(base - swapped).max() > 1e-6


def test_transformer_grad_check():
    cfg = tiny_cfg("transformer")
    model = make_model(cfg, 3, 23)
    x = ad.parameter(np.random.default_rng(24).normal(size=(1, 4, 3)))

    def f(ts):
        out = encode(model, x, training=True)
        w = ad.constant(np.random.default_rng(25).normal(size=out.values.shape))
        return sum_all(ad.mul(out, w))

    assert ad.grad_check(f, [x, *encoder_params(model)]) < 1e-4


@pytest.mark.parametrize("b, p", [(3, 5), (1, 1)])
@pytest.mark.parametrize("layers_l", [1, 2])
def test_transformer_matches_composed_in_training(layers_l, b, p):
    cfg = tiny_cfg("transformer", layers_l=layers_l, hidden_d=6, heads=3, dropout_pd=0.25)
    model = make_model(cfg, 3, 50)
    x = ad.parameter(np.random.default_rng(51).normal(size=(b, p, 3)))
    tensors = [x, *encoder_params(model)]
    got = run_with_grads(
        lambda: encode(model, x, training=True, rng=np.random.default_rng(52)), tensors, 53
    )
    want = run_with_grads(
        lambda: transformer_encode(x, model.named, layers_l, 3, 0.75, np.random.default_rng(52)),
        tensors,
        53,
    )
    assert_same_run(got, want)


def test_transformer_matches_composed_in_eval_with_input_grad():
    cfg = tiny_cfg("transformer", layers_l=2, hidden_d=6, heads=3, dropout_pd=0.25)
    model = make_model(cfg, 3, 54)
    x = ad.parameter(np.random.default_rng(55).normal(size=(3, 5, 3)))
    frozen = {k: ad.constant(t.values) for k, t in model.named.items()}
    got = run_with_grads(lambda: encode(model, x), [x], 56)
    want = run_with_grads(lambda: transformer_encode(x, frozen, 2, 3), [x], 56)
    assert_same_run(got, want)
    assert all(t.grad is None for t in model.params)


def test_transformer_eval_memory_bounded():
    # batch-sized (B, heads, P, P) score temporaries would need about 11x
    # the input; attention runs one sample's scores at a time instead
    model = build_model(EncoderConfig(), n_feat=342, seed=0)
    x = ad.constant(np.random.default_rng(57).normal(size=(16, 200, 342)))
    tracemalloc.start()
    try:
        sig = model.signatures(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sig.values.shape == (16, 128)
    assert peak <= 5 * x.values.nbytes


def test_transformer_checkpoint_layout_unchanged(tmp_path):
    # a checkpoint in the per-projection layout (wq, wk, wv and wo each
    # with its own .w and .b) loads without a renamed, added or dropped key
    cfg = tiny_cfg("transformer", layers_l=2, hidden_d=6, heads=3)
    path = tmp_path / "tf.ckpt"
    ad.write_tensor_file(path, make_model(cfg, 3, 58).state_dict())
    state = ad.read_tensor_file(path)
    assert list(state) == STATE_KEYS["transformer"]
    model = make_model(cfg, 3, 59)
    model.load_state_dict(state)
    x = ad.constant(np.random.default_rng(60).normal(size=(3, 5, 3)))
    frozen = {k: ad.constant(v) for k, v in state.items()}
    want = signature_tensor(transformer_encode(x, frozen, 2, 3), frozen)
    np.testing.assert_allclose(signatures64(model, x).values, want.values, rtol=0, atol=1e-12)


def test_transformer_two_layer_train_mode_runs():
    cfg = tiny_cfg("transformer", layers_l=2, dropout_pd=0.2)
    model = make_model(cfg, 5, 26)
    out = encode(model, batch(rand_seq()), training=True, rng=np.random.default_rng(1))
    assert out.values.shape == (1, 4)


@pytest.mark.parametrize("arch", ARCHES)
def test_encoders_reject_non_batch_input(arch):
    # signatures is the one checked entry; a wrong width once failed deep in
    # an op, blaming w_x (LSTMs) or in numpy's matmul (Transformer)
    model = build_model(tiny_cfg(arch), n_feat=5, seed=0)
    seq = rand_seq()
    cases = [
        (seq, r"got FeatureSequence$"),
        (ad.constant(seq.data), r"got \(4, 5\)$"),
        (ad.constant(seq.data[None, None]), r"got \(1, 1, 4, 5\)$"),
        (ad.constant(rand_seq(f=6).data[None]), r"got \(1, 4, 6\)$"),
    ]
    for x, got in cases:
        for training in (False, True):
            with pytest.raises(ValueError, match=r"^input must be a rank-3 \(B, P, 5\) DiffTensor, " + got):
                model.signatures(x, training=training, rng=np.random.default_rng(0))


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
    for (ka, va), (kb, vb) in zip(a.named.items(), b.named.items()):
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
    # a parameter's name is its key, so errors that name it name the key
    assert list(model.named) == STATE_KEYS[arch]
    for key, tensor in model.named.items():
        assert tensor.name == key


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
            out = signatures64(model, t)
            w = ad.constant(np.random.default_rng(31).normal(size=out.values.shape))
            return sum_all(ad.mul(out, w))

        assert ad.grad_check(f, x) < 1e-3


@pytest.mark.parametrize("arch", ARCHES)
def test_eval_signatures_build_no_graph(arch):
    model = build_model(tiny_cfg(arch, layers_l=2, dropout_pd=0.2), n_feat=3, seed=8)
    x = ad.constant(np.random.default_rng(32).normal(size=(2, 4, 3)))
    sig = model.signatures(x)
    assert not sig.requires_grad and sig._parents == ()
    assert not encode(model, x).requires_grad
    # the constants share the parameters' arrays: a weight update shows at once
    model.named["head.b"].values += 1.0
    moved = model.signatures(x).values
    assert not np.array_equal(moved, sig.values)
    model.named["head.b"].values -= 1.0
    np.testing.assert_array_equal(model.signatures(x).values, sig.values)
    # training mode reads the parameters themselves and builds a graph
    train = model.signatures(x, training=True, rng=np.random.default_rng(0))
    assert train.requires_grad and train._parents
    for p in model.params:
        assert p.grad is None


@pytest.mark.parametrize("arch", ARCHES)
def test_eval_input_gradient_matches_training_mode(arch):
    # at dropout 0 both modes compute the same function; eval mode must
    # still carry the input gradient while leaving the parameters alone
    model = build_model(tiny_cfg(arch, layers_l=2), n_feat=3, seed=9)
    data = np.random.default_rng(33).normal(size=(2, 4, 3))
    w = ad.constant(np.random.default_rng(34).normal(size=(2, 3)))
    grads = []
    for training in (False, True):
        x = ad.parameter(data)
        sig = model.signatures(x, training=training)
        ad.backward(sum_all(ad.mul(sig, w)))
        grads.append(x.grad)
        if not training:
            assert all(p.grad is None for p in model.params)
    np.testing.assert_array_equal(grads[0], grads[1])
    assert np.abs(grads[0]).max() > 0


# ---------------------------------------------------------- mixed precision


@pytest.mark.parametrize("arch", ARCHES)
def test_signatures_encoder_graph_is_float32(arch):
    # between the input and parameter casts and the head's cast back, every
    # node is float32: no float64 constant or buffer promotes the encoder
    model = build_model(tiny_cfg(arch, layers_l=2, dropout_pd=0.2), n_feat=3, seed=61)
    x = ad.constant(np.random.default_rng(62).normal(size=(4, 5, 3)))
    sig = model.signatures(x, training=True, rng=np.random.default_rng(63))
    head_add = sig._parents[0]
    head_matmul = head_add._parents[0]
    to64 = head_matmul._parents[0]
    head = {id(sig), id(head_add), id(head_matmul), id(to64)}
    params = {id(p) for p in model.params}
    nodes = graph_of(sig)
    for node in nodes:
        want = np.float64 if id(node) in head | params else np.float32
        assert node.values.dtype == want, node
        # an encoder parameter is read only through its own cast node
        for parent in node._parents:
            if id(parent) in params and not parent.name.startswith("head."):
                assert node._parents == (parent,) and node.values.dtype == np.float32
    assert params <= {id(n) for n in nodes}
    ad.backward(in_batch_loss(sig, np.array([0, 0, 1, 1])))
    for p in model.params:
        assert p.grad is not None and p.grad.dtype == np.float64, p.name


@pytest.mark.parametrize("arch", ARCHES)
def test_checkpoint_reload_reproduces_signatures_exactly(arch, tmp_path):
    # the encoder reads f32(w) before a checkpoint and f32(f64(f32(w))) ==
    # f32(w) after it, so only the float64 head's rounding can move a
    # reloaded model's signatures; with a head already in f32 nothing does
    cfg = tiny_cfg(arch, layers_l=2)
    model = build_model(cfg, n_feat=3, seed=64)
    for key in ("head.w", "head.b"):
        values = model.named[key].values
        values[...] = values.astype(np.float32)
    assert any(
        not np.array_equal(t.values, t.values.astype(np.float32)) for t in encoder_params(model)
    )
    path = tmp_path / f"{arch}.ckpt"
    ad.write_tensor_file(path, model.state_dict())
    reloaded = build_model(cfg, n_feat=3, seed=65)
    reloaded.load_state_dict(ad.read_tensor_file(path))
    x = ad.constant(np.random.default_rng(66).normal(size=(3, 5, 3)))
    gap = np.abs(model.signatures(x).values - reloaded.signatures(x).values).max()
    assert gap == 0.0


# over 20 seeds at this size the float32 path stayed within 5.2e-7 of the
# float64 one in signatures and 1.6e-6, relative to the largest entry, in
# the input gradient; float32 rounds at 6e-8
F32_SIGNATURE_TOL = 1e-5


@pytest.mark.parametrize("arch", ARCHES)
def test_float32_signatures_track_float64(arch):
    model = build_model(tiny_cfg(arch, layers_l=2), n_feat=3, seed=67)
    data = np.random.default_rng(68).normal(size=(3, 6, 3))
    w = ad.constant(np.random.default_rng(69).normal(size=(3, 3)))
    got, grads = [], []
    for fn in (model.signatures, lambda t: signatures64(model, t)):
        x = ad.parameter(data)
        sig = fn(x)
        ad.backward(sum_all(ad.mul(sig, w)))
        got.append(sig.values)
        grads.append(x.grad)
    assert got[0].dtype == grads[0].dtype == np.float64
    np.testing.assert_allclose(got[0], got[1], rtol=0, atol=F32_SIGNATURE_TOL)
    scale = np.abs(grads[1]).max()
    np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=F32_SIGNATURE_TOL * scale)


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(arch="gru")
    with pytest.raises(ValueError):
        EncoderConfig(arch="transformer", hidden_d=10, heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(layers_l=0)
    with pytest.raises(ValueError):
        EncoderConfig(dropout_pd=1.0)


@pytest.mark.parametrize("arch", ARCHES)
def test_zero_features_rejected_before_drawing(arch):
    with pytest.raises(ValueError, match=r"n_feat must be >= 1"):
        build_model(tiny_cfg(arch), n_feat=0, seed=0)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"n_feat must be >= 1"):
        SignatureModel(tiny_cfg(arch), -1, rng)
    assert rng.bit_generator.state == before
