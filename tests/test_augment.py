"""Augmentation determinism, statistics, and hand-checked shift tests."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from csireid.augment import (
    APPLY_PROB,
    NOISE_SIGMA,
    SHIFT_RANGE,
    AugmentPolicy,
    apply_policy,
    sample_rng,
)
from csireid.csi_core import FeatureSequence

POLICY = AugmentPolicy()


def make_seq(p=6, f=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSequence(p, f, rng.normal(size=(p, f)))


class ScriptedRng:
    """Generator stand-in that steers :func:`apply_policy`: the gate passes,
    ``integers`` returns the branch and then ``value`` as the shift,
    ``uniform`` returns ``value`` as the factor, and ``normal`` draws from
    ``noise``."""

    def __init__(self, branch, value=None, noise=None):
        self._ints = [branch, value]
        self._value = value
        self._noise = noise

    def random(self):
        return 0.0

    def integers(self, *args):
        return self._ints.pop(0)

    def uniform(self, *args):
        return self._value

    def normal(self, loc, scale, size):
        return self._noise.normal(loc, scale, size)


def add_gaussian_noise(seq, rng):
    return apply_policy(seq, POLICY, ScriptedRng(0, noise=rng))


def scale_amplitude(seq, factor):
    return apply_policy(seq, POLICY, ScriptedRng(1, factor))


def time_shift(seq, t_shift):
    return apply_policy(seq, POLICY, ScriptedRng(2, t_shift))


def shifted(data, t):
    """Row i of the result is input row i - t, or the column mean where
    that row does not exist."""
    mean = data.mean(axis=0)
    return np.array([data[i - t] if 0 <= i - t < len(data) else mean for i in range(len(data))])


def test_noise_statistics():
    seq = FeatureSequence(1000, 100, np.zeros((1000, 100)))
    out = add_gaussian_noise(seq, np.random.default_rng(2))
    delta = out.data - seq.data
    n = delta.size
    assert abs(delta.mean()) < 3 * NOISE_SIGMA / np.sqrt(n)
    assert abs(delta.var() - NOISE_SIGMA**2) < 0.05 * NOISE_SIGMA**2


def test_scale_identity_and_example():
    seq = FeatureSequence(3, 1, np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_array_equal(scale_amplitude(seq, 1.0).data, seq.data)
    np.testing.assert_allclose(
        scale_amplitude(seq, 1.1).data[:, 0], [1.1, 2.2, 3.3], rtol=1e-15
    )


def test_scale_ratio_constant():
    seq = make_seq(seed=7)
    out = scale_amplitude(seq, 0.93)
    ratios = out.data / seq.data
    np.testing.assert_allclose(ratios, 0.93, rtol=1e-12)


def test_time_shift_zero_identity():
    seq = make_seq()
    np.testing.assert_array_equal(time_shift(seq, 0).data, seq.data)


def test_time_shift_forward_fills_front_with_mean():
    seq = FeatureSequence(5, 1, np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    out = time_shift(seq, 2)
    np.testing.assert_array_equal(out.data[:, 0], [3.0, 3.0, 1.0, 2.0, 3.0])


def test_time_shift_backward_fills_back_with_mean():
    seq = FeatureSequence(5, 1, np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    out = time_shift(seq, -2)
    np.testing.assert_array_equal(out.data[:, 0], [3.0, 4.0, 5.0, 3.0, 3.0])


def test_time_shift_per_column_mean():
    data = np.stack([np.arange(5.0), 10 + np.arange(5.0)], axis=1)
    out = time_shift(FeatureSequence(5, 2, data), 3)
    np.testing.assert_array_equal(out.data[:3, 0], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(out.data[:3, 1], [12.0, 12.0, 12.0])


@given(st.integers(-6, 6))
def test_time_shift_unvacated_entries_bitwise(t):
    seq = make_seq(p=6, f=2, seed=11)
    out = time_shift(seq, t)
    assert out.data.shape == seq.data.shape
    if t >= 0:
        np.testing.assert_array_equal(out.data[t:], seq.data[: 6 - t])
    else:
        np.testing.assert_array_equal(out.data[: 6 + t], seq.data[-t:])


def test_time_shift_past_the_length_is_clamped():
    # a shift by the whole length or more leaves only the column means
    seq = make_seq(p=4)
    for t in (4, 5, -5, 7):
        out = time_shift(seq, t)
        np.testing.assert_array_equal(out.data, np.tile(seq.data.mean(axis=0), (4, 1)))


def test_apply_policy_short_sequence_clamps_drawn_shift():
    # with fewer packets than SHIFT_RANGE, about one draw in nine is a shift
    # longer than the sequence; each is clamped to the length, never raised
    seq = make_seq(p=3, f=2, seed=17)
    policy = AugmentPolicy(rng_seed=5)
    clamped = 0
    for i in range(1000):
        out = apply_policy(seq, policy, sample_rng(policy, i)).data
        replay = sample_rng(policy, i)
        if replay_choice(replay) == "shift":
            t = int(replay.integers(-SHIFT_RANGE, SHIFT_RANGE + 1))
            np.testing.assert_array_equal(out, shifted(seq.data, max(-3, min(3, t))))
            clamped += abs(t) > 3
    assert clamped > 0


def test_apply_policy_deterministic():
    seq = make_seq(seed=13)
    policy = AugmentPolicy(rng_seed=99)
    a = apply_policy(seq, policy, sample_rng(policy, 4)).data
    b = apply_policy(seq, policy, sample_rng(policy, 4)).data
    np.testing.assert_array_equal(a, b)
    c = apply_policy(seq, policy, sample_rng(policy, 5)).data
    assert not np.array_equal(a, c)


def replay_choice(rng):
    """Mirror of the policy's frozen draw order: gate first, then branch."""
    if rng.random() >= APPLY_PROB:
        return "identity"
    return ("noise", "scale", "shift")[int(rng.integers(3))]


def test_apply_policy_frequencies():
    policy = AugmentPolicy()
    trials = 10_000
    counts = {"identity": 0, "noise": 0, "scale": 0, "shift": 0}
    for i in range(trials):
        counts[replay_choice(sample_rng(policy, i))] += 1
    applied = trials - counts["identity"]
    assert abs(applied / trials - 0.9) <= 0.01
    for name in ("noise", "scale", "shift"):
        assert abs(counts[name] / trials - 0.3) <= 0.02


def test_apply_policy_branch_footprints():
    # the replayed choice must match the observable effect on a ramp
    data = np.arange(1.0, 41.0).reshape(20, 2)
    seq = FeatureSequence(20, 2, data)
    policy = AugmentPolicy(rng_seed=3)
    seen = set()
    for i in range(300):
        choice = replay_choice(sample_rng(policy, i))
        out = apply_policy(seq, policy, sample_rng(policy, i)).data
        seen.add(choice)
        if choice == "identity":
            np.testing.assert_array_equal(out, data)
        elif choice == "scale":
            ratio = out / data
            np.testing.assert_allclose(ratio, ratio[0, 0], rtol=1e-12)
        elif choice == "noise":
            delta = out - data
            assert 0 < np.abs(delta).max() < 0.2
        else:
            matches = [t for t in range(-5, 6) if np.array_equal(shifted(data, t), out)]
            assert matches, "shift output matches no legal shift"
    assert seen == {"identity", "noise", "scale", "shift"}


def test_shapes_preserved():
    seq = make_seq(p=9, f=4)
    policy = AugmentPolicy()
    for i in range(30):
        out = apply_policy(seq, policy, sample_rng(policy, i))
        assert out.data.shape == (9, 4)
