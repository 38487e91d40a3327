"""Preprocessing oracle and property tests."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csireid.csi_core import ComplexCsiTensor, FeatureSequence
from csireid.preprocess import (
    HAMPEL_BLOCK,
    HAMPEL_WINDOW,
    HAMPEL_XI,
    HampelConfig,
    _median5,
    amplitude_from_complex,
    hampel_filter,
    phase_from_complex,
    resample_packets,
    sanitize_phase,
    standardize_features,
)
from tests.oracles import flat_column, hampel_column, sanitize_row


def seq_from_columns(*cols):
    data = np.stack([np.asarray(c, dtype=np.float64) for c in cols], axis=1)
    return FeatureSequence(data.shape[0], data.shape[1], data)


# ---------------------------------------------------------------- amplitude


def test_amplitude_pythagorean_triple():
    t = ComplexCsiTensor(1, 1, 1, 2, np.array([3 + 4j, 0 + 0j]).reshape(1, 1, 1, 2))
    out = amplitude_from_complex(t)
    np.testing.assert_array_equal(out.data, [[5.0], [0.0]])


def test_amplitude_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2, 1, 3, 5)) + 1j * rng.normal(size=(2, 1, 3, 5))
    t = ComplexCsiTensor(2, 1, 3, 5, data)
    out = amplitude_from_complex(t)
    for r in range(2):
        for s in range(3):
            for p in range(5):
                z = data[r, 0, s, p]
                want = math.sqrt(z.real**2 + z.imag**2)
                got = out.data[p, r * 3 + s]
                assert abs(got - want) <= 1e-12 * max(1.0, want)


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False))
def test_amplitude_absolute_homogeneity(c):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(1, 1, 2, 3)) + 1j * rng.normal(size=(1, 1, 2, 3))
    base = amplitude_from_complex(ComplexCsiTensor(1, 1, 2, 3, data)).data
    scaled = amplitude_from_complex(ComplexCsiTensor(1, 1, 2, 3, c * data)).data
    np.testing.assert_allclose(scaled, abs(c) * base, rtol=1e-12)


def test_complex64_capture_matches_its_complex128_widening(caplog):
    # a stored capture stays complex64; amplitude and phase widen it exactly
    rng = np.random.default_rng(23)
    dims = (3, 1, 114, 40)
    c64 = (rng.normal(size=dims) + 1j * rng.normal(size=dims)).astype(np.complex64)
    signed = np.array([0.0, -0.0, 1.5, -1.5], dtype=np.float32)
    parts = np.stack(np.meshgrid(signed, signed), -1).reshape(-1, 2)
    c64.real.flat[: len(parts)], c64.imag.flat[: len(parts)] = parts.T
    wide = c64.astype(np.complex128)
    narrow = ComplexCsiTensor(*dims, c64)
    assert narrow.data.dtype == np.complex64
    for stage in (amplitude_from_complex, phase_from_complex):
        got, want = stage(narrow).data, stage(ComplexCsiTensor(*dims, wide)).data
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    zeros = np.flatnonzero(np.moveaxis(c64, -1, 0).reshape(-1) == 0)
    assert zeros.size == 4
    assert phase_from_complex(narrow).data.flat[zeros].tobytes() == np.zeros(4).tobytes()


# ------------------------------------------------------------------- hampel


def test_hampel_constant_column_unchanged():
    seq = seq_from_columns([1.0] * 7)
    out = hampel_filter(seq)
    np.testing.assert_array_equal(out.data, seq.data)


def test_hampel_spike_replaced_by_window_median():
    seq = seq_from_columns([1.0, 1.0, 10.0, 1.0, 1.0])
    out = hampel_filter(seq)
    np.testing.assert_array_equal(out.data[:, 0], [1.0, 1.0, 1.0, 1.0, 1.0])


def test_hampel_matches_bruteforce_oracle_exactly():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5, 6, 7, 20, 101, 200):
        cols = rng.normal(size=(n, 6))
        cols[rng.random(size=cols.shape) < 0.1] += 25.0
        out = hampel_filter(FeatureSequence(n, 6, cols))
        for j in range(6):
            want = hampel_column(cols[:, j], HAMPEL_WINDOW, HAMPEL_XI)
            np.testing.assert_array_equal(out.data[:, j], want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hampel_matches_oracle_property(data):
    w = HAMPEL_WINDOW
    # P - (w - 1) windows are full; k * HAMPEL_BLOCK + d of them leave the
    # last block one row short (d = -1), exactly full, or with one row
    edges = [k * HAMPEL_BLOCK + w - 1 + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    p = data.draw(
        st.one_of(
            st.integers(1, w - 1),
            st.just(w),
            st.sampled_from(edges),
            st.integers(1, 3 * HAMPEL_BLOCK + w),
        ),
        label="n_pkt",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # few distinct integers make tied window values; spikes stay integers
    cols = rng.integers(-2, 3, size=(p, 3)).astype(np.float64)
    cols[rng.random(size=cols.shape) < 0.05] *= 40.0
    cols[rng.random(size=cols.shape) < 0.1] = -0.0  # signed zeros in one window
    # a constant run gives windows with MAD = 0
    start = int(rng.integers(0, p))
    cols[start : start + int(rng.integers(1, 3 * w)), 0] = 5.0
    out = hampel_filter(FeatureSequence(p, 3, cols))
    for j in range(3):
        assert np.array_equal(out.data[:, j], hampel_column(cols[:, j], w, HAMPEL_XI))


def test_hampel_matches_oracle_on_every_column_of_a_capture():
    # a full capture's shape: many blocks, a short last block, w = 5
    rng = np.random.default_rng(29)
    x = rng.integers(0, 4, size=(2000, 342)).astype(np.float64)  # ties
    x[rng.random(size=x.shape) < 0.2] = 0.0
    x[rng.random(size=x.shape) < 0.1] = -0.0  # signed zeros in one window
    x[rng.random(size=x.shape) < 0.02] *= 40.0  # spikes
    out = hampel_filter(FeatureSequence(*x.shape, x))
    for j in range(x.shape[1]):
        assert np.array_equal(out.data[:, j], hampel_column(x[:, j], HAMPEL_WINDOW, HAMPEL_XI))


def test_median5_matches_np_median_exhaustively():
    # a min/max network that selects the median of every 0/1 input selects
    # it for every input (the 0-1 principle); the 120 orderings of distinct
    # values check that no lane but the median's reaches the result
    vecs = np.array(
        [*itertools.product((0.0, 1.0), repeat=5), *itertools.permutations(range(5))],
        dtype=np.float64,
    )
    want = np.median(vecs, axis=1)
    # fresh buffers: the median pass reads the rows in place
    rows = [vecs[:, k].copy() for k in range(5)]
    a, b, c, d = (np.full(len(vecs), np.nan) for _ in range(4))
    assert _median5(*rows, a, b, c, d) is b
    np.testing.assert_array_equal(b, want)
    for k in range(5):
        np.testing.assert_array_equal(rows[k], vecs[:, k])
    # the MAD pass: scratch aliases rows 0, 3 and 1, row 2 is only read
    rows = [vecs[:, k].copy() for k in range(5)]
    b = np.full(len(vecs), np.nan)
    assert _median5(*rows, rows[0], b, rows[3], rows[1]) is b
    np.testing.assert_array_equal(b, want)
    np.testing.assert_array_equal(rows[2], vecs[:, 2])


def test_hampel_allocation_bounded():
    # whole-sequence window copies would need about w times the input
    rng = np.random.default_rng(21)
    seq = FeatureSequence(2000, 342, np.abs(rng.normal(size=(2000, 342))))
    before = seq.data.copy()
    tracemalloc.start()
    try:
        hampel_filter(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * seq.data.nbytes
    np.testing.assert_array_equal(seq.data, before)


def test_hampel_idempotent_on_clean_output():
    # a linear ramp is never flagged (each center equals its window median),
    # so one pass removes the spike and a second pass must be a no-op
    cols = np.tile(np.linspace(0.0, 1.0, 60)[:, None], (1, 4))
    cols[30, 0] += 50.0
    cols[12, 2] -= 9.0
    once = hampel_filter(FeatureSequence(60, 4, cols))
    assert once.data[30, 0] < 2.0
    twice = hampel_filter(once)
    np.testing.assert_array_equal(twice.data, once.data)


def test_hampel_clean_ramp_passes_through():
    cols = np.linspace(-2.0, 3.0, 25)[:, None]
    out = hampel_filter(FeatureSequence(25, 1, cols))
    np.testing.assert_array_equal(out.data, cols)


def test_hampel_config_validation():
    # the one setting is fixed; the class only names it
    with pytest.raises(TypeError):
        HampelConfig(window_w=7)
    cfg = HampelConfig()
    assert (cfg.window_w, cfg.xi) == (HAMPEL_WINDOW, HAMPEL_XI) == (5, 3.0)


# -------------------------------------------------------------------- phase


def test_phase_quadrants():
    vals = np.array([1 + 1j, -1 + 0j, 0 + 0j, 1 - 1j]).reshape(1, 1, 1, 4)
    out = phase_from_complex(ComplexCsiTensor(1, 1, 1, 4, vals))
    np.testing.assert_allclose(
        out.data[:, 0], [np.pi / 4, np.pi, 0.0, -np.pi / 4], atol=1e-15
    )


def test_phase_range_excludes_minus_pi():
    vals = np.array([complex(-1.0, -0.0), -2 + 0j]).reshape(1, 1, 1, 2)
    out = phase_from_complex(ComplexCsiTensor(1, 1, 1, 2, vals))
    assert np.all(out.data > -np.pi)
    assert np.all(out.data <= np.pi)


def test_phase_matches_scalar_oracle():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(1, 2, 3, 4)) + 1j * rng.normal(size=(1, 2, 3, 4))
    out = phase_from_complex(ComplexCsiTensor(1, 2, 3, 4, data))
    for t in range(2):
        for s in range(3):
            for p in range(4):
                z = data[0, t, s, p]
                assert abs(out.data[p, t * 3 + s] - math.atan2(z.imag, z.real)) <= 1e-12


def test_phase_packet_major_every_axis():
    # distinct sizes on all four axes, so a wrong axis order cannot line up
    dims = (2, 2, 5, 7)
    rng = np.random.default_rng(19)
    data = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    out = phase_from_complex(ComplexCsiTensor(*dims, data))
    assert out.data.shape == (7, 20)
    for r in range(2):
        for t in range(2):
            for s in range(5):
                for p in range(7):
                    z = data[r, t, s, p]
                    got = out.data[p, flat_column(r, t, s, 2, 5)]
                    assert abs(got - math.atan2(z.imag, z.real)) <= 1e-12


def test_phase_of_signed_zeros_is_positive_zero(caplog):
    zeros = [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)]
    vals = np.array(zeros + [complex(-1.0, -0.0)]).reshape(1, 1, 1, 5)
    out = phase_from_complex(ComplexCsiTensor(1, 1, 1, 5, vals)).data[:, 0]
    assert out[:4].tobytes() == np.zeros(4).tobytes()
    assert out[4] == np.pi
    assert "phase of 4 zero-valued CSI entries defined as 0" in caplog.text


def test_phase_allocation_bounded():
    # an angle array plus a transposed copy would need about 2x the output
    rng = np.random.default_rng(53)
    dims = (3, 1, 114, 2000)
    csi = ComplexCsiTensor(*dims, rng.normal(size=dims) + 1j * rng.normal(size=dims))
    before = csi.data.copy()
    tracemalloc.start()
    try:
        out = phase_from_complex(csi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.data.nbytes
    np.testing.assert_array_equal(csi.data, before)


# ------------------------------------------------------------------- unwrap


def _near_odd_pi(d: np.ndarray) -> bool:
    """True when some difference is within 1e-9 of an odd multiple of pi."""
    turns = (np.abs(d) - np.pi) / (2.0 * np.pi)
    return bool(np.any(np.abs(turns - np.round(turns)) * 2.0 * np.pi < 1e-9))


def _sanitize_rows(rows: np.ndarray) -> np.ndarray:
    """sanitize_phase over (packets, K) rows, one antenna pair."""
    p, k = rows.shape
    return sanitize_phase(FeatureSequence(p, k, rows), n_sub=k).data


def test_unwrap_smooth_row_unchanged():
    # steps below pi are not unwrapped, so the row is only detrended
    row = np.array([0.0, 0.1, 0.3, 0.2])
    resid = row - (row[0] + (row[-1] - row[0]) * np.arange(4) / 3)
    out = _sanitize_rows(row[None])
    np.testing.assert_allclose(out[0], resid - resid.mean(), rtol=0, atol=1e-15)


def test_unwrap_single_jump():
    # 3.0 -> -3.0 crosses the branch cut: a step of 2*pi - 6, not -6
    wrapped = np.array([[3.0, -3.0, -2.9]])
    unwrapped = wrapped + [[0.0, 2 * np.pi, 2 * np.pi]]
    out = _sanitize_rows(wrapped)
    np.testing.assert_allclose(out, _sanitize_rows(unwrapped), rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[0], sanitize_row(wrapped[0]), rtol=0, atol=1e-15)


def test_unwrap_recovers_steep_ramp():
    true = 2.9 * np.arange(20) + 0.4
    wrapped = np.arctan2(np.sin(true), np.cos(true))
    np.testing.assert_allclose(_sanitize_rows(wrapped[None]), 0.0, atol=1e-9)


@settings(max_examples=50)
@given(st.randoms(use_true_random=False))
def test_unwrap_preserves_values_mod_two_pi(rnd):
    # unwrapping keeps each value mod 2*pi: whole turns added anywhere move nothing
    rng = np.random.default_rng(rnd.getrandbits(32))
    x = rng.uniform(-10, 10, size=(3, 12))
    assume(not _near_odd_pi(np.diff(x, axis=-1)))
    shifted = x + 2 * np.pi * rng.integers(-3, 4, size=x.shape)
    np.testing.assert_allclose(_sanitize_rows(shifted), _sanitize_rows(x), rtol=0, atol=1e-9)


# ----------------------------------------------------------------- sanitize


def test_sanitize_removes_pure_linear_phase():
    m = np.arange(9) - 4.0
    rows = np.tile(0.7 * m + 0.2, (4, 1))
    out = sanitize_phase(FeatureSequence(4, 9, rows), n_sub=9)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_sanitize_constant_row_to_zeros():
    rows = np.full((3, 7), 1.3)
    out = sanitize_phase(FeatureSequence(3, 7, rows), n_sub=7)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_sanitize_output_slope_exactly_zero_offset_tiny():
    rng = np.random.default_rng(23)
    k = 11
    rows = rng.uniform(-np.pi, np.pi, size=(50, 3 * k))
    out = sanitize_phase(FeatureSequence(50, 3 * k, rows), n_sub=k)
    grouped = out.data.reshape(50, 3, k)
    slope = (grouped[..., -1] - grouped[..., 0]) / (k - 1)
    assert np.all(slope == 0.0)
    assert np.max(np.abs(grouped.mean(axis=-1))) < 1e-12


def test_sanitize_groups_independent():
    # differences below pi: unwrapping leaves these rows unchanged
    rng = np.random.default_rng(31)
    k = 6
    rows = rng.uniform(-1, 1, size=(4, 2 * k))
    both = sanitize_phase(FeatureSequence(4, 2 * k, rows), n_sub=k)
    left = sanitize_phase(FeatureSequence(4, k, rows[:, :k]), n_sub=k)
    np.testing.assert_array_equal(both.data[:, :k], left.data)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sanitize_matches_oracle_property(data):
    k = data.draw(st.integers(2, 16), label="K")
    groups = data.draw(st.integers(1, 4), label="groups")
    p = data.draw(st.integers(1, 5), label="n_pkt")
    values = data.draw(
        st.lists(
            st.floats(-3 * np.pi, 3 * np.pi, allow_nan=False),
            min_size=p * groups * k,
            max_size=p * groups * k,
        ),
        label="values",
    )
    rows = np.array(values).reshape(p, groups, k)
    # near an odd multiple of pi the two unwraps may round to different turns
    assume(not _near_odd_pi(np.diff(rows, axis=-1)))
    out = sanitize_phase(FeatureSequence(p, groups * k, rows.reshape(p, -1)), n_sub=k)
    got = out.data.reshape(p, groups, k)
    for i in range(p):
        for g in range(groups):
            np.testing.assert_allclose(got[i, g], sanitize_row(rows[i, g]), rtol=0, atol=1e-9)
    assert np.array_equal(got[..., 0], got[..., -1])


def test_sanitize_matches_oracle_at_capture_shape():
    # the benchmark's shape: K = 114 subcarriers, 3 antenna pairs, 2000 packets
    rng = np.random.default_rng(59)
    dims = (3, 1, 114, 2000)
    slope = rng.uniform(-2.5, 2.5, size=(3, 1, 1, 2000))
    angle = slope * np.arange(114)[:, None] + 0.1 * rng.normal(size=dims)
    csi = ComplexCsiTensor(*dims, (1.0 + 0.2 * rng.normal(size=dims)) * np.exp(1j * angle))
    rows = phase_from_complex(csi).data.reshape(2000, 3, 114)
    assert not _near_odd_pi(np.diff(rows, axis=-1))
    out = sanitize_phase(FeatureSequence(2000, 342, rows.reshape(2000, 342)), n_sub=114)
    got = out.data.reshape(2000, 3, 114)
    want = np.array([[sanitize_row(r) for r in pkt] for pkt in rows])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert np.array_equal(got[..., 0], got[..., -1])


def test_sanitize_allocation_bounded():
    # unwrap and detrend temporaries of the whole capture would need about 5x
    rng = np.random.default_rng(61)
    seq = FeatureSequence(2000, 342, rng.uniform(-np.pi, np.pi, size=(2000, 342)))
    before = seq.data.copy()
    tracemalloc.start()
    try:
        sanitize_phase(seq, n_sub=114)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * seq.data.nbytes
    np.testing.assert_array_equal(seq.data, before)


def test_sanitize_validation():
    with pytest.raises(ValueError):
        sanitize_phase(FeatureSequence(2, 7, np.zeros((2, 7))), n_sub=3)
    with pytest.raises(ValueError):
        sanitize_phase(FeatureSequence(2, 1, np.zeros((2, 1))), n_sub=1)


# ------------------------------------------------------------------- layout


def test_outputs_packet_major():
    rng = np.random.default_rng(47)
    data = rng.normal(size=(2, 1, 5, 30)) + 1j * rng.normal(size=(2, 1, 5, 30))
    csi = ComplexCsiTensor(2, 1, 5, 30, data)
    amp = amplitude_from_complex(csi)
    phase = phase_from_complex(csi)
    outputs = [
        amp,
        phase,
        hampel_filter(amp),
        sanitize_phase(phase, n_sub=5),
        resample_packets(amp, 12),
        standardize_features(amp),
    ]
    for seq in outputs:
        assert seq.data.flags.c_contiguous


# ----------------------------------------------------------------- resample


def test_resample_identity():
    rng = np.random.default_rng(37)
    seq = FeatureSequence(10, 3, rng.normal(size=(10, 3)))
    out = resample_packets(seq, 10)
    np.testing.assert_array_equal(out.data, seq.data)


def test_resample_stride_indices():
    seq = FeatureSequence(2000, 1, np.arange(2000.0).reshape(-1, 1))
    out = resample_packets(seq, 100)
    np.testing.assert_array_equal(out.data[:, 0], np.arange(0, 2000, 20.0))


def test_resample_rows_bitwise():
    rng = np.random.default_rng(41)
    seq = FeatureSequence(17, 4, rng.normal(size=(17, 4)))
    out = resample_packets(seq, 5)
    idx = (np.arange(5) * 17) // 5
    np.testing.assert_array_equal(out.data, seq.data[idx])


def test_resample_ablation_grid():
    seq = FeatureSequence(2000, 2, np.zeros((2000, 2)))
    for p in (100, 200, 500, 1000, 2000):
        assert resample_packets(seq, p).n_pkt == p


def test_resample_validation():
    seq = FeatureSequence(5, 1, np.zeros((5, 1)))
    with pytest.raises(ValueError):
        resample_packets(seq, 0)
    with pytest.raises(ValueError):
        resample_packets(seq, 6)


# -------------------------------------------------------------- standardize


def test_standardize_two_point_column():
    out = standardize_features(seq_from_columns([1.0, 3.0]))
    np.testing.assert_array_equal(out.data[:, 0], [-1.0, 1.0])


def test_standardize_constant_column_zeros():
    out = standardize_features(seq_from_columns([4.0, 4.0, 4.0]))
    np.testing.assert_array_equal(out.data[:, 0], [0.0, 0.0, 0.0])


def test_standardize_moments():
    rng = np.random.default_rng(43)
    seq = FeatureSequence(200, 5, rng.normal(2.0, 3.0, size=(200, 5)))
    out = standardize_features(seq)
    np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-8)


def test_standardize_needs_two_packets():
    with pytest.raises(ValueError):
        standardize_features(FeatureSequence(1, 2, np.zeros((1, 2))))
