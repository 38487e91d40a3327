"""Container format and manifest round-trip tests."""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csireid import autodiff as ad
from csireid.csi_core import (
    ComplexCsiTensor,
    CsbFormatError,
    FeatureSequence,
    Manifest,
    ManifestEntry,
    PayloadKind,
    SampleRecord,
    Scenario,
    flatten_features,
    load_manifest,
    read_sample,
    save_manifest,
    write_sample,
)
from tests.oracles import flat_column

HEADER_BYTES = 26


def small_complex_record(subject=7, scenario=Scenario.TSHIRT):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1, 1, 4, 3)) + 1j * rng.normal(size=(1, 1, 4, 3))
    # keep values exactly f32-representable so the (dis)assembly is bit-exact
    data = data.astype(np.complex64).astype(np.complex128)
    return SampleRecord(subject, scenario, ComplexCsiTensor(1, 1, 4, 3, data), PayloadKind.COMPLEX)


def test_complex_file_size(tmp_path):
    path = tmp_path / "s.csb"
    write_sample(small_complex_record(), path)
    # 12 complex values at 8 bytes each behind the 26-byte header
    assert path.stat().st_size == HEADER_BYTES + 12 * 8


def test_complex_round_trip(tmp_path):
    rec = small_complex_record(subject=42, scenario=Scenario.COAT)
    path = tmp_path / "s.csb"
    write_sample(rec, path)
    back = read_sample(path)
    assert back.subject_id == 42
    assert back.scenario == Scenario.COAT
    assert back.payload_kind == PayloadKind.COMPLEX
    assert back.dims == (1, 1, 4, 3)
    np.testing.assert_array_equal(back.payload.data, rec.payload.data)


def test_feature_round_trip(tmp_path):
    data = np.arange(10.0).reshape(5, 2).astype(np.float32).astype(np.float64)
    rec = SampleRecord(3, Scenario.SYNTHETIC, FeatureSequence(5, 2, data), PayloadKind.AMPLITUDE)
    path = tmp_path / "f.csb"
    write_sample(rec, path)
    back = read_sample(path)
    assert back.payload_kind == PayloadKind.AMPLITUDE
    assert back.dims == (1, 1, 2, 5)
    np.testing.assert_array_equal(back.payload.data, data)


def test_full_size_payload_bytes(tmp_path):
    # 3x1x114x2000 complex capture: 684000 values, 8 bytes each
    rng = np.random.default_rng(1)
    data = (rng.normal(size=(3, 1, 114, 2000)) + 1j * rng.normal(size=(3, 1, 114, 2000)))
    rec = SampleRecord(0, Scenario.TSHIRT, ComplexCsiTensor(3, 1, 114, 2000, data), PayloadKind.COMPLEX)
    path = tmp_path / "big.csb"
    write_sample(rec, path)
    assert path.stat().st_size == HEADER_BYTES + 5_472_000


def test_read_sample_peak_memory_bounded(tmp_path):
    # the raw file bytes plus the complex128 payload are 3x the file; a copy
    # of the payload bytes before decoding would add another 1x
    rng = np.random.default_rng(2)
    data = rng.normal(size=(3, 1, 114, 2000)) + 1j * rng.normal(size=(3, 1, 114, 2000))
    rec = SampleRecord(0, Scenario.TSHIRT, ComplexCsiTensor(3, 1, 114, 2000, data), PayloadKind.COMPLEX)
    path = tmp_path / "big.csb"
    write_sample(rec, path)
    del rec, data
    tracemalloc.start()
    try:
        back = read_sample(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.dims == (3, 1, 114, 2000)
    assert peak <= 3.5 * path.stat().st_size


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "s.csb"
    write_sample(small_complex_record(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CsbFormatError, match="magic"):
        read_sample(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "s.csb"
    write_sample(small_complex_record(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CsbFormatError, match="truncated"):
        read_sample(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "s.csb"
    write_sample(small_complex_record(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CsbFormatError, match="trailing"):
        read_sample(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "s.csb"
    path.write_bytes(b"CSI1\x01")
    with pytest.raises(CsbFormatError, match="header"):
        read_sample(path)


def test_nonfinite_payload_rejected(tmp_path):
    data = np.ones((2, 3))
    data[0, 0] = 1e300  # overflows f32
    rec = SampleRecord(0, Scenario.TSHIRT, FeatureSequence(2, 3, data), PayloadKind.AMPLITUDE)
    with pytest.raises(ValueError, match="f32"):
        write_sample(rec, tmp_path / "bad.csb")


def small_amplitude_record():
    return SampleRecord(
        0, Scenario.TSHIRT, FeatureSequence(2, 2, np.ones((2, 2))), PayloadKind.AMPLITUDE
    )


@pytest.mark.parametrize(
    "make_record, bits",
    [
        (small_amplitude_record, 0x7FC00000),
        (small_complex_record, 0x7F800000),
        # a signaling NaN warns when cast to float64; the warning must not escape
        (small_amplitude_record, 0x7F800001),
        (small_complex_record, 0x7F800001),
    ],
    ids=["nan-amplitude", "inf-complex", "snan-amplitude", "snan-complex"],
)
def test_nonfinite_payload_read_rejected(tmp_path, make_record, bits):
    path = tmp_path / "s.csb"
    write_sample(make_record(), path)
    # overwrite the last f32 of the payload
    path.write_bytes(path.read_bytes()[:-4] + bits.to_bytes(4, "little"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsbFormatError, match=f"{path.name}.*non-finite"):
            read_sample(path)


def _mutants(raw: bytes):
    """Every truncation and every single-bit flip of ``raw``."""
    for n in range(len(raw)):
        yield raw[:n]
    for i in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            yield bytes(flipped)


def _exact(shape, seed):
    values = np.random.default_rng(seed).normal(size=shape)
    return values.astype(np.float32).astype(np.float64)


@pytest.mark.parametrize("kind", ["complex", "amplitude", "checkpoint"])
def test_mutants_rejected_or_round_trip_exactly(tmp_path, kind):
    # each mutant either raises the format's declared error or reads back
    # to a value that writes the very same bytes
    src, dst = tmp_path / "mutant", tmp_path / "back"
    if kind == "checkpoint":
        tensors = {"w": _exact((2, 3), 1), "b": _exact((3,), 2), "s": _exact((), 3)}
        ad.write_tensor_file(src, tensors)
        error = ad.CheckpointFormatError

        def round_trip():
            ad.write_tensor_file(dst, ad.read_tensor_file(src))

    else:
        rec = small_complex_record() if kind == "complex" else small_amplitude_record()
        write_sample(rec, src)
        error = CsbFormatError

        def round_trip():
            write_sample(read_sample(src), dst)

    accepted = 0
    for mutant in _mutants(src.read_bytes()):
        src.write_bytes(mutant)
        try:
            round_trip()
        except error:
            continue
        accepted += 1
        assert dst.read_bytes() == mutant
    assert accepted > 0


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a/0.csb", 0, Scenario.TSHIRT, "train"),
        ManifestEntry("a/1.csb", 0, Scenario.COAT, "test"),
        ManifestEntry("b/0.csb", 1, Scenario.BACKPACK, "train"),
        ManifestEntry("b/1.csb", 1, Scenario.SYNTHETIC, "test"),
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(Manifest(entries), path)
    text = path.read_bytes()
    assert b"\r" not in text
    back = load_manifest(path)
    assert back.entries == entries
    assert Counter(e.split for e in back.entries) == {"train": 2, "test": 2}
    assert [e.path for e in back.entries if e.split == "train"] == ["a/0.csb", "b/0.csb"]


def test_manifest_large_split(tmp_path):
    entries = [
        ManifestEntry(f"s{i}.csb", i % 14, Scenario.TSHIRT, "train" if i < 546 else "test")
        for i in range(840)
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(Manifest(entries), path)
    back = load_manifest(path)
    assert Counter(e.split for e in back.entries) == {"train": 546, "test": 294}


def test_manifest_unknown_split_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\na.csb,0,tshirt,validation\n")
    with pytest.raises(CsbFormatError, match="split"):
        load_manifest(path)


def test_manifest_duplicate_path_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "path,subject_id,scenario,split\na.csb,0,tshirt,train\na.csb,1,coat,test\n"
    )
    with pytest.raises(CsbFormatError, match="duplicate"):
        load_manifest(path)


def test_manifest_empty_path_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\na.csb,0,tshirt,train\n,1,coat,train\n")
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: empty path"):
        load_manifest(path)


def test_manifest_extra_fields_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\nb.csb,2,coat,test,EXTRA\n")
    with pytest.raises(CsbFormatError, match=r"manifest.csv:2: extra fields \['EXTRA'\]"):
        load_manifest(path)


@pytest.mark.parametrize(
    "subject", ["1_2", " 7 ", "+3", "\u0663", "4294967296", "9" * 5000, "-1"]
)
def test_manifest_bad_subject_id_rejected(tmp_path, subject):
    path = tmp_path / "manifest.csv"
    path.write_text(
        f"path,subject_id,scenario,split\na.csb,0,tshirt,train\nb.csb,{subject},coat,test\n",
        encoding="utf-8",
    )
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: bad subject_id$"):
        load_manifest(path)


def test_manifest_largest_subject_id(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\na.csb,04294967295,coat,test\n")
    assert load_manifest(path).entries[0].subject_id == 2**32 - 1


def test_manifest_bad_header_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("file,subject,scenario,split\n")
    with pytest.raises(CsbFormatError, match="header"):
        load_manifest(path)


def test_flatten_column_order():
    rx, tx, sub, pkt = 2, 1, 3, 4
    values = np.arange(rx * tx * sub * pkt, dtype=float).reshape(rx, tx, sub, pkt)
    seq = flatten_features(values)
    assert seq.shape == (pkt, rx * tx * sub)
    for r in range(rx):
        for t in range(tx):
            for s in range(sub):
                col = flat_column(r, t, s, tx, sub)
                np.testing.assert_array_equal(seq[:, col], values[r, t, s, :])


@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 5),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_flatten_unflatten_round_trip(rx, tx, sub, pkt, rnd):
    # rebuild the entries from the flat matrix through the column map; every
    # column is read exactly once, so nothing is lost or mixed
    rng = np.random.default_rng(rnd.getrandbits(32))
    values = rng.normal(size=(rx, tx, sub, pkt))
    seq = flatten_features(values)
    assert seq.shape == (pkt, rx * tx * sub)
    back = np.empty_like(values)
    cols = []
    for r in range(rx):
        for t in range(tx):
            for s in range(sub):
                col = flat_column(r, t, s, tx, sub)
                cols.append(col)
                back[r, t, s, :] = seq[:, col]
    assert sorted(cols) == list(range(rx * tx * sub))
    np.testing.assert_array_equal(back, values)


def test_flatten_full_dims_shape():
    values = np.zeros((3, 1, 114, 2000))
    assert flatten_features(values).shape == (2000, 342)


def test_record_dims_mismatch_rejected():
    seq = FeatureSequence(4, 6, np.zeros((4, 6)))
    with pytest.raises(ValueError, match="dims"):
        SampleRecord(0, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE, dims=(1, 1, 5, 4))


def test_sample_record_rejects_subject_id_over_u32(tmp_path):
    seq = FeatureSequence(2, 2, np.zeros((2, 2)))
    largest = SampleRecord(2**32 - 1, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE)
    write_sample(largest, tmp_path / "max.csb")
    assert read_sample(tmp_path / "max.csb").subject_id == 2**32 - 1
    with pytest.raises(ValueError, match=r"subject_id must be < 2\*\*32"):
        SampleRecord(2**32, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE)


def test_sample_record_subject_id_must_be_integer(tmp_path):
    seq = FeatureSequence(2, 2, np.zeros((2, 2)))
    for bad in (1.5, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="subject_id must be an integer"):
            SampleRecord(bad, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE)
    write_sample(SampleRecord(np.int64(7), Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE), tmp_path / "a.csb")
    assert read_sample(tmp_path / "a.csb").subject_id == 7


def test_record_feature_dims_accepted():
    seq = FeatureSequence(4, 6, np.zeros((4, 6)))
    rec = SampleRecord(0, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE, dims=(3, 1, 2, 4))
    assert rec.dims == (3, 1, 2, 4)


def test_feature_sequence_rejects_transposed():
    with pytest.raises(ValueError, match=r"shape \(2, 3\), expected \(3, 2\)"):
        FeatureSequence(3, 2, np.arange(6.0).reshape(2, 3))


def test_complex_tensor_rejects_transposed():
    data = np.arange(6.0).reshape(1, 1, 3, 2) + 0j
    with pytest.raises(ValueError, match=r"shape \(1, 1, 3, 2\), expected \(1, 1, 2, 3\)"):
        ComplexCsiTensor(1, 1, 2, 3, data)


def test_feature_sequence_fortran_input_c_copy():
    # flatten_features returns this feature-major layout for every capture
    data = np.asarray(np.arange(12.0).reshape(4, 3), order="F")
    seq = FeatureSequence(4, 3, data)
    assert seq.data.flags.c_contiguous
    assert not np.shares_memory(seq.data, data)
    np.testing.assert_array_equal(seq.data, data)
