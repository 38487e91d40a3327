"""Gradient-checker, optimizer, schedule, and checkpoint tests."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csireid import autodiff as ad
from csireid.encoders import EncoderConfig, build_model
from tests.oracles import lstm_encode, sum_all

TOL = 1e-6


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def weighted_sum(out, seed=100):
    """Scalar loss with a fixed random weighting so gradients are generic."""
    w = ad.constant(rand(out.values.shape, seed))
    return sum_all(ad.mul(out, w))


# ---------------------------------------------------------------- forward


def test_matmul_identity():
    x = ad.constant(rand((3, 5), 0))
    out = ad.matmul(ad.constant(np.eye(3)), x)
    np.testing.assert_array_equal(out.values, x.values)


def test_softmax_uniform_on_zeros():
    out = ad.softmax_axis(ad.constant(np.zeros((1, 3))), axis=1)
    np.testing.assert_allclose(out.values, 1 / 3, atol=1e-15)


def test_layer_norm_reference_values():
    a = ad.constant(np.array([[1.0, 2.0, 3.0]]))
    out = ad.layer_norm(a, ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
    np.testing.assert_allclose(out.values[0], [-1.2247, 0.0, 1.2247], atol=1e-3)


def test_softmax_rows_sum_to_one():
    out = ad.softmax_axis(ad.constant(rand((6, 9), 1, -5, 5)), axis=1)
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=30)
@given(st.floats(-100, 100))
def test_softmax_shift_invariant(shift):
    x = rand((2, 7), 2, -3, 3)
    base = ad.softmax_axis(ad.constant(x), axis=1).values
    moved = ad.softmax_axis(ad.constant(x + shift), axis=1).values
    np.testing.assert_allclose(moved, base, atol=1e-12)


def test_softmax_empty_axis_rejected():
    with pytest.raises(ValueError):
        ad.softmax_axis(ad.constant(np.zeros((2, 0))), axis=1)


# --------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = ad.parameter(rand((4, 3), 3))
    ad.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_backward_sum_of_squares():
    x = ad.parameter(rand((1, 5), 4))
    ad.backward(sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.values, atol=1e-12)


def test_backward_rejects_nonscalar():
    x = ad.parameter(rand((2, 2), 5))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_backward_rejects_loss_without_graph():
    # a loss built from constants only has nothing to differentiate; saying
    # so beats returning with no gradient accumulated anywhere
    x = ad.constant(rand((2, 2), 5))
    with pytest.raises(RuntimeError, match="requires_grad"):
        ad.backward(sum_all(ad.mul(x, x)))


def test_backward_graph_single_use():
    x = ad.parameter(rand((2, 2), 6))
    mid = ad.tanh(x)
    loss = sum_all(mid)
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)
    with pytest.raises(RuntimeError):
        sum_all(mid)


def test_gradient_accumulation_linear():
    x = ad.parameter(rand((3, 3), 7))
    alpha, beta = 0.7, -1.3

    def l1():
        return sum_all(ad.tanh(x))

    def l2():
        return sum_all(ad.mul(x, x))

    ad.backward(l1())
    g1 = x.grad.copy()
    x.grad = None
    ad.backward(l2())
    g2 = x.grad.copy()
    x.grad = None
    combined = ad.add(
        ad.mul(l1(), ad.constant(np.array([alpha]))),
        ad.mul(l2(), ad.constant(np.array([beta]))),
    )
    ad.backward(combined)
    np.testing.assert_allclose(x.grad, alpha * g1 + beta * g2, atol=1e-10)


def test_shared_subexpression_fan_out():
    # h feeds two consumers; its upstream must receive both contributions
    x = ad.parameter(np.array([[0.3, -0.7]]))
    h = ad.tanh(x)
    loss = sum_all(ad.add(ad.mul(h, h), h))
    ad.backward(loss)
    t = np.tanh(x.values)
    want = (2 * t + 1) * (1 - t**2)
    np.testing.assert_allclose(x.grad, want, atol=1e-12)


# Each case feeds two same-shape (2, 3) leaves into one output. A variant of
# an op that handed the incoming gradient, or a view of it, to both leaves
# would let the second backward below write into both of their grads.
OWNERSHIP_CASES = {
    "add": lambda a, b: ad.add(a, b),
    "concat": lambda a, b: ad.concat([a, b], axis=0),
    "transpose": lambda a, b: ad.add(ad.transpose(a, (1, 0)), ad.transpose(b, (1, 0))),
    "reshape": lambda a, b: ad.add(ad.reshape(a, (6,)), ad.reshape(b, (6,))),
    "mean_axis": lambda a, b: ad.add(ad.mean_axis(a, axis=0), ad.mean_axis(b, axis=0)),
    "residual_layer_norm": lambda a, b: ad.residual_layer_norm(
        a, b, ad.constant(rand((3,), 12)), ad.constant(rand((3,), 13))
    ),
}


@pytest.mark.parametrize("op", sorted(OWNERSHIP_CASES))
def test_leaf_grads_share_no_memory(op):
    a = ad.parameter(rand((2, 3), 8))
    b = ad.parameter(rand((2, 3), 9))
    ad.backward(weighted_sum(OWNERSHIP_CASES[op](a, b)))
    first_a, first_b = a.grad.copy(), b.grad.copy()
    # a second backward adds into a's grad only
    ad.backward(weighted_sum(ad.mul(a, ad.constant(rand((2, 3), 10))), seed=11))
    np.testing.assert_array_equal(b.grad, first_b)
    np.testing.assert_allclose(a.grad, first_a + rand((2, 3), 10) * rand((2, 3), 11), atol=1e-15)


def test_self_attention_grads_share_no_memory():
    # the q, k and v weight and bias gradients come from one fused product;
    # a view of it handed to two parents would let backward add across them
    d = 4
    leaves = [ad.parameter(rand((2, 3, d), 14))]
    for i in range(4):
        leaves += [ad.parameter(rand((d, d), 15 + i)), ad.parameter(rand((d,), 19 + i))]
    ad.backward(weighted_sum(ad.self_attention(*leaves, heads=2)))
    grads = [t.grad for t in leaves]
    assert all(g is not None for g in grads)
    for i, a in enumerate(grads):
        for b in grads[:i]:
            assert not np.may_share_memory(a, b)


# ------------------------------------------- per-primitive gradient checks


def test_grad_check_sum_exact():
    # zeros keep x +/- eps and the sum exactly representable, so the
    # central difference is exactly 1 and the reported error exactly 0
    x = ad.parameter(np.zeros((3, 4)))
    assert ad.grad_check(lambda t: sum_all(t), x) == 0.0
    y = ad.parameter(rand((3, 4), 8))
    assert ad.grad_check(lambda t: sum_all(t), y) < 1e-12


def test_grad_check_tanh():
    x = ad.parameter(rand((4, 5), 9))
    assert ad.grad_check(lambda t: sum_all(ad.tanh(t)), x) < TOL


def check_unary(build, x):
    return ad.grad_check(lambda t: weighted_sum(build(t)), x)


def test_grad_matmul_2d():
    a = ad.parameter(rand((3, 4), 10))
    b = ad.parameter(rand((4, 2), 11))
    err = ad.grad_check(lambda ts: weighted_sum(ad.matmul(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_grad_matmul_batched_against_2d():
    a = ad.parameter(rand((2, 3, 4), 12))
    b = ad.parameter(rand((4, 5), 13))
    err = ad.grad_check(lambda ts: weighted_sum(ad.matmul(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_grad_matmul_batched_both():
    a = ad.parameter(rand((2, 2, 3), 14))
    b = ad.parameter(rand((2, 3, 2), 15))
    err = ad.grad_check(lambda ts: weighted_sum(ad.matmul(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_grad_add_broadcast_bias():
    a = ad.parameter(rand((4, 6), 16))
    b = ad.parameter(rand((6,), 17))
    err = ad.grad_check(lambda ts: weighted_sum(ad.add(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_grad_mul_broadcast():
    a = ad.parameter(rand((3, 1, 5), 18))
    b = ad.parameter(rand((4, 5), 19))
    err = ad.grad_check(lambda ts: weighted_sum(ad.mul(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_grad_concat():
    a = ad.parameter(rand((2, 3), 20))
    b = ad.parameter(rand((2, 2), 21))
    err = ad.grad_check(lambda ts: weighted_sum(ad.concat([ts[0], ts[1]], axis=1)), [a, b])
    assert err < TOL


def test_grad_slice():
    x = ad.parameter(rand((4, 6), 22))
    err = check_unary(lambda t: ad.take_slice(t, (slice(1, 3), slice(2, 6))), x)
    assert err < TOL


def test_grad_slice_with_int_index():
    x = ad.parameter(rand((4, 6), 23))
    err = check_unary(lambda t: ad.take_slice(t, (2, slice(None))), x)
    assert err < TOL


def test_grad_transpose():
    x = ad.parameter(rand((2, 3, 4), 24))
    err = check_unary(lambda t: ad.transpose(t, (2, 0, 1)), x)
    assert err < TOL


def test_grad_reshape():
    x = ad.parameter(rand((3, 8), 25))
    err = check_unary(lambda t: ad.reshape(t, (2, 3, 4)), x)
    assert err < TOL


def test_grad_mean_axis():
    x = ad.parameter(rand((3, 5), 26))
    assert check_unary(lambda t: ad.mean_axis(t, axis=0), x) < TOL
    assert check_unary(lambda t: ad.mean_axis(t, axis=1), x) < TOL


def test_grad_sigmoid():
    x = ad.parameter(rand((4, 4), 27, -3, 3))
    assert check_unary(ad.sigmoid, x) < TOL


def test_grad_rectifier():
    # keep inputs away from the kink at zero
    vals = rand((4, 4), 28)
    vals = np.where(np.abs(vals) < 0.05, 0.2, vals)
    x = ad.parameter(vals)
    assert check_unary(ad.rectifier, x) < TOL


def test_grad_log():
    x = ad.parameter(rand((3, 3), 30, 0.5, 2.0))
    assert check_unary(ad.log, x) < TOL


def test_grad_softmax():
    x = ad.parameter(rand((3, 6), 31, -2, 2))
    assert check_unary(lambda t: ad.softmax_axis(t, axis=1), x) < TOL


def test_grad_layer_norm():
    a = ad.parameter(rand((3, 7), 32))
    gain = ad.parameter(rand((7,), 33, 0.5, 1.5))
    bias = ad.parameter(rand((7,), 34))
    err = ad.grad_check(
        lambda ts: weighted_sum(ad.layer_norm(ts[0], ts[1], ts[2])), [a, gain, bias]
    )
    assert err < TOL


def test_grad_residual_layer_norm():
    a = ad.parameter(rand((2, 3, 7), 36))
    r = ad.parameter(rand((2, 3, 7), 37))
    gain = ad.parameter(rand((7,), 38, 0.5, 1.5))
    bias = ad.parameter(rand((7,), 39))
    err = ad.grad_check(
        lambda ts: weighted_sum(ad.residual_layer_norm(*ts)), [a, r, gain, bias]
    )
    assert err < TOL


def test_grad_dropout():
    x = ad.parameter(rand((5, 5), 35))

    def f(t):
        rng = np.random.default_rng(77)  # same mask on every call
        return weighted_sum(ad.dropout(t, keep_prob=0.8, rng=rng, training=True))

    assert ad.grad_check(f, x) < TOL


def test_grad_l2_normalize():
    x = ad.parameter(rand((4, 6), 36, 0.2, 1.0))
    assert check_unary(lambda t: ad.l2_normalize_axis(t, axis=1), x) < TOL


def lstm_cells(reverse, n_in, hidden, seed):
    """One random {w_x, w_h, b} cell per direction."""
    rng = np.random.default_rng(seed)
    return [
        {
            "w_x": ad.parameter(rng.uniform(-0.8, 0.8, (n_in, 4 * hidden))),
            "w_h": ad.parameter(rng.uniform(-0.8, 0.8, (hidden, 4 * hidden))),
            "b": ad.parameter(rng.uniform(-0.5, 0.5, 4 * hidden)),
        }
        for _ in reverse
    ]


def fused_lstm(x, cells, reverse):
    return ad.lstm_sequence(
        x, [c["w_x"] for c in cells], [c["w_h"] for c in cells], [c["b"] for c in cells], reverse
    )


def read_packets(seq, packets, seed=61):
    """Weighted sum over the listed packets of a (B, P, d) sequence only."""
    b, _, d = seq.shape
    return sum_all(
        ad.concat(
            [
                ad.mul(
                    ad.take_slice(seq, (slice(None), t, slice(None))),
                    ad.constant(rand((b, d), seed + k)),
                )
                for k, t in enumerate(packets)
            ],
            axis=1,
        )
    )


def lstm_grads(build, x, cells):
    """Output values and the gradients of x and every cell parameter."""
    tensors = [x, *(t for c in cells for t in c.values())]
    for t in tensors:
        t.grad = None
    seq, loss = build()
    ad.backward(loss)
    return seq.values, [t.grad.copy() for t in tensors]


@pytest.mark.parametrize("reverse", [[False], [True], [False, True]], ids=["fwd", "bwd", "bi"])
@pytest.mark.parametrize("packets", [range(5), [1, 3]], ids=["all", "some"])
def test_lstm_sequence_partial_read_matches_oracle(reverse, packets):
    # reading all packets or only some gives the per-step composition's
    # values and input and parameter gradients
    x = ad.parameter(rand((2, 5, 3), 50))
    cells = lstm_cells(reverse, 3, 4, 52)

    def fused():
        seq = fused_lstm(x, cells, reverse)
        return seq, read_packets(seq, packets)

    def oracle():
        seq, _ = lstm_encode(x, [cells], reverse)
        return seq, read_packets(seq, packets)

    got, got_grads = lstm_grads(fused, x, cells)
    want, want_grads = lstm_grads(oracle, x, cells)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
def test_lstm_sequence_partial_consumption(reverse):
    # a loss that reads only packet 2 gets exactly nothing from the packets
    # the direction visits after it, and the same gradients as a run over
    # the packets that it visits up to and including packet 2
    x = ad.parameter(rand((2, 6, 3), 51))
    cells = lstm_cells([reverse], 3, 4, 53)
    ad.backward(read_packets(fused_lstm(x, cells, [reverse]), [2]))
    unread = slice(0, 2) if reverse else slice(3, None)
    assert np.all(x.grad[:, unread] == 0.0)
    assert np.any(x.grad[:, 2] != 0.0)
    full = [x.grad.copy(), *(c.grad.copy() for c in cells[0].values())]

    kept = slice(2, None) if reverse else slice(0, 3)
    x_kept = ad.parameter(x.values[:, kept].copy())
    for c in cells[0].values():
        c.grad = None
    ad.backward(read_packets(fused_lstm(x_kept, cells, [reverse]), [0 if reverse else 2]))
    np.testing.assert_allclose(full[0][:, kept], x_kept.grad, rtol=0, atol=1e-14)
    for g, c in zip(full[1:], cells[0].values()):
        np.testing.assert_allclose(g, c.grad, rtol=0, atol=1e-14)


def test_lstm_sequence_grad_check():
    x = ad.parameter(rand((2, 3, 2), 54))
    cells = lstm_cells([False, True], 2, 2, 55)
    tensors = [x, *(t for c in cells for t in c.values())]

    def loss(_):
        return weighted_sum(fused_lstm(x, cells, [False, True]))

    assert ad.grad_check(loss, tensors) < 1e-5


def test_lstm_sequence_second_backward_raises():
    x = ad.constant(rand((1, 3, 2), 56))
    cells = lstm_cells([False, True], 2, 2, 57)
    seq = fused_lstm(x, cells, [False, True])
    ad.backward(weighted_sum(seq))
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(weighted_sum(seq))


def test_lstm_sequence_rejects_bad_shapes():
    x = ad.constant(rand((1, 3, 2), 58))
    cells = lstm_cells([False], 2, 2, 59)
    with pytest.raises(ValueError, match="per direction"):
        ad.lstm_sequence(x, [cells[0]["w_x"]], [cells[0]["w_h"]], [cells[0]["b"]], [False, True])
    with pytest.raises(ValueError, match="w_x has shape"):
        fused_lstm(ad.constant(rand((1, 3, 5), 60)), cells, [False])
    with pytest.raises(ValueError, match="at least one packet"):
        fused_lstm(ad.constant(np.zeros((1, 0, 2))), cells, [False])


# ---------------------------------------------------------------- dropout


def test_dropout_eval_exact_identity():
    x = ad.parameter(rand((3, 3), 38))
    out = ad.dropout(x, keep_prob=0.5, rng=None, training=False)
    assert out is x


def test_dropout_train_preserves_expectation():
    x = ad.constant(np.ones((500, 200)))
    out = ad.dropout(x, keep_prob=0.7, rng=np.random.default_rng(39), training=True)
    kept = out.values != 0
    assert abs(out.values.mean() - 1.0) < 0.01
    np.testing.assert_allclose(out.values[kept], 1 / 0.7)


def test_dropout_bad_keep_prob():
    x = ad.constant(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.dropout(x, keep_prob=0.0, rng=np.random.default_rng(0), training=True)


# ------------------------------------------------------------------- adam


def test_adam_zero_grad_no_move():
    p = ad.parameter(rand((3, 2), 40))
    before = p.values.copy()
    p.grad = np.zeros_like(p.values)
    state = ad.AdamState()
    ad.adam_step([p], state)
    np.testing.assert_array_equal(p.values, before)
    assert state.step_count == 1
    assert p.grad is None


def test_adam_first_step_is_signed_lr():
    for g in (0.5, -2.0, 1e-3):
        p = ad.parameter(np.array([[1.0]]))
        p.grad = np.array([[g]])
        ad.adam_step([p], ad.AdamState(lr=1e-4))
        assert abs(p.values.item() - (1.0 - 1e-4 * np.sign(g))) < 1e-6


def test_adam_missing_grad_rejected():
    p = ad.parameter(rand((2, 2), 41))
    with pytest.raises(ValueError):
        ad.adam_step([p], ad.AdamState())
    # the error names the parameter by its checkpoint key
    cfg = EncoderConfig(arch="bilstm", hidden_d=3, signature_dim_s=2, dropout_pd=0.0)
    model = build_model(cfg, n_feat=2, seed=0)
    ad.backward(weighted_sum(model.signatures(ad.constant(rand((2, 3, 2), 42)), training=True)))
    model.named["bilstm0.bwd.w_h"].grad = None
    with pytest.raises(ValueError, match=r"missing gradient for parameter 'bilstm0\.bwd\.w_h'"):
        ad.adam_step(model.params, ad.AdamState())


def test_adam_rejects_nonfinite_gradient():
    cfg = EncoderConfig(arch="bilstm", hidden_d=3, signature_dim_s=2, dropout_pd=0.0)
    model = build_model(cfg, n_feat=2, seed=0)
    x = rand((2, 3, 2), 43)
    state = ad.AdamState(lr=1e-3)

    def snapshot():
        arrays = [p.values for p in model.params] + state.first_moment + state.second_moment
        return state.step_count, [a.copy() for a in arrays]

    def step_with(bad=None):
        ad.backward(weighted_sum(model.signatures(ad.constant(x), training=True)))
        if bad is not None:
            model.named["bilstm0.bwd.w_h"].grad[1, 2] = bad
        ad.adam_step(model.params, state)

    def assert_rejected(bad):
        count, arrays = snapshot()
        with pytest.raises(ad.NumericError, match=r"non-finite gradient for parameter 'bilstm0\.bwd\.w_h'"):
            step_with(bad)
        after_count, after = snapshot()
        assert after_count == count
        assert len(after) == len(arrays)
        for a, b in zip(after, arrays):
            np.testing.assert_array_equal(a, b)
        for p in model.params:
            p.grad = None

    assert_rejected(np.nan)  # fresh state: no moments are made
    step_with()
    assert_rejected(np.nan)
    assert_rejected(np.inf)
    assert state.step_count == 1


def test_adam_matches_reference_trace():
    # straight transcription of the update equations, run for several steps
    rng = np.random.default_rng(42)
    p = ad.parameter(rng.normal(size=(4,)).reshape(1, 4))
    ref = p.values.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    state = ad.AdamState(lr=0.01)
    for t in range(1, 6):
        g = rng.normal(size=ref.shape)
        p.grad = g.copy()
        ad.adam_step([p], state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.values, ref, atol=1e-12)


def test_adam_lr_validation():
    for lr in (0.0, -1e-3, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            ad.AdamState(lr=lr)


@pytest.mark.parametrize("lr", [np.inf, np.nan, 0.0, -1e-3])
def test_adam_step_rejects_assigned_lr(lr):
    # callers assign lr between steps, after __post_init__ has run
    p = ad.parameter(np.zeros(3))
    p.grad = np.ones(3)
    state = ad.AdamState(lr=1e-3)
    state.lr = lr
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        ad.adam_step([p], state)
    np.testing.assert_array_equal(p.values, np.zeros(3))
    assert state.step_count == 0 and not state.first_moment
    np.testing.assert_array_equal(p.grad, np.ones(3))


# --------------------------------------------------------------- schedule


def test_schedule_values():
    sched = ad.StepDecaySchedule()
    assert ad.schedule_lr(sched, 0) == 1e-4
    assert ad.schedule_lr(sched, 49) == 1e-4
    assert abs(ad.schedule_lr(sched, 100) - 9.025e-5) < 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        ad.StepDecaySchedule(gamma=0.0)
    with pytest.raises(ValueError):
        ad.StepDecaySchedule(gamma=1.5)
    with pytest.raises(ValueError):
        ad.StepDecaySchedule(step_epochs=0)
    for base_lr in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="base_lr must be finite and > 0"):
            ad.StepDecaySchedule(base_lr=base_lr)
    with pytest.raises(ValueError):
        ad.schedule_lr(ad.StepDecaySchedule(), -1)


@given(st.integers(0, 10_000))
def test_schedule_piecewise_constant(epoch):
    sched = ad.StepDecaySchedule(base_lr=2e-3, gamma=0.5, step_epochs=7)
    assert ad.schedule_lr(sched, epoch) == 2e-3 * 0.5 ** (epoch // 7)


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip(tmp_path):
    named = {
        "enc.w": rand((3, 4), 43).astype(np.float32).astype(np.float64),
        "enc.b": rand((4,), 44).astype(np.float32).astype(np.float64),
        "scalar": np.float64(0.5),
    }
    path = tmp_path / "model.ckpt"
    ad.write_tensor_file(path, named)
    back = ad.read_tensor_file(path)
    assert list(back) == list(named)
    for key in named:
        np.testing.assert_array_equal(back[key], np.asarray(named[key]))
        assert back[key].dtype == np.float64


def test_checkpoint_layout_bytes(tmp_path):
    path = tmp_path / "one.ckpt"
    ad.write_tensor_file(path, {"ab": np.zeros((2, 3))})
    raw = path.read_bytes()
    assert raw[:4] == b"WFCK"
    # u32 count, u16 name len, name, u8 rank, 2 x u32 dims, 6 f32 values
    assert len(raw) == 4 + 4 + 2 + 2 + 1 + 8 + 24


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 10)
    with pytest.raises(ad.CheckpointFormatError):
        ad.read_tensor_file(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.write_tensor_file(path, {"w": rand((4, 4), 45)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ad.CheckpointFormatError):
        ad.read_tensor_file(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.write_tensor_file(path, {"w": rand((2, 2), 46)})
    path.write_bytes(path.read_bytes() + b"\x01")
    with pytest.raises(ad.CheckpointFormatError):
        ad.read_tensor_file(path)


@pytest.mark.parametrize("value", [1e39, np.nan, -np.inf])
def test_checkpoint_write_rejects_nonfinite_f32(tmp_path, value):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="'w'"):
        ad.write_tensor_file(path, {"ok": np.ones(2), "w": np.array([value, 1.0])})
    assert not path.exists()


def _duplicate_tensor(raw: bytes) -> bytes:
    # header count 2, then the single stored tensor twice
    return raw[:4] + (2).to_bytes(4, "little") + raw[8:] + raw[8:]


def _non_utf8_name(raw: bytes) -> bytes:
    # the first name byte follows the magic, the count and the u16 length
    return raw[:10] + b"\xff" + raw[11:]


def _nonfinite_last_value(value):
    def corrupt(raw: bytes) -> bytes:
        return raw[:-4] + np.array([value], dtype="<f4").tobytes()

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_duplicate_tensor, "duplicate tensor 'w'"),
        (_nonfinite_last_value(np.nan), "'w' has non-finite"),
        (_nonfinite_last_value(np.inf), "'w' has non-finite"),
        (_non_utf8_name, "tensor 0 name is not valid UTF-8"),
    ],
    ids=["duplicate", "nan", "inf", "non-utf8-name"],
)
def test_checkpoint_read_rejects_bad_tensors(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    ad.write_tensor_file(path, {"w": rand((2, 2), 47)})
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ad.CheckpointFormatError, match=message):
        ad.read_tensor_file(path)


def test_checkpoint_interrupted_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    ad.write_tensor_file(path, {"w": rand((2, 2), 48)})
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        ad.write_tensor_file(path, {"w": rand((3, 3), 49)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
