"""Container format and manifest round-trip tests."""

import tempfile
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
    SPLITS,
    SampleRecord,
    Scenario,
    load_manifest,
    read_sample,
    save_manifest,
    write_sample,
)
from csireid.preprocess import amplitude_from_complex
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


def test_read_sample_keeps_complex64(tmp_path):
    path = tmp_path / "s.csb"
    write_sample(small_complex_record(), path)
    back = read_sample(path).payload.data
    stored = np.frombuffer(path.read_bytes(), "<c8", offset=HEADER_BYTES).reshape(1, 1, 4, 3)
    assert back.dtype == np.complex64
    assert back.tobytes() == stored.astype(np.complex64).tobytes()


@pytest.mark.parametrize(
    "values",
    [np.ones((1, 1, 2, 3)), np.ones((1, 1, 2, 3), dtype=np.int32),
     np.ones((1, 1, 2, 3), dtype=np.complex128), [[[[1j, 2, 3], [4, 5, 6]]]]],
    ids=["float64", "int32", "complex128", "list"],
)
def test_complex_tensor_widens_all_but_complex64(values):
    assert ComplexCsiTensor(1, 1, 2, 3, values).data.dtype == np.complex128
    c64 = np.asarray(values, dtype=np.complex64)
    assert ComplexCsiTensor(1, 1, 2, 3, c64).data is c64


def test_read_sample_peak_memory_bounded(tmp_path):
    # the raw file bytes plus the complex64 payload are 2x the file; a
    # complex128 payload would make it 3x, and a copy of the payload bytes
    # before decoding would add another 1x
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
    assert peak <= 2.5 * path.stat().st_size


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_manifest_non_utf8_rejected_with_its_line(tmp_path, newline):
    path = tmp_path / "manifest.csv"
    rows = ["path,subject_id,scenario,split", "a.csb,0,tshirt,train", "b.csb,1,coat,test"]
    path.write_bytes(newline.join(rows).encode() + newline.encode())
    assert len(load_manifest(path).entries) == 2
    path.write_bytes(path.read_bytes().replace(b"b.csb", b"b\xff.csb"))
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: not valid UTF-8"):
        load_manifest(path)


def test_manifest_field_over_csv_limit_rejected(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "path,subject_id,scenario,split\na.csb,0,tshirt,train\n" + "x" * 200_000 + ",1,coat,test\n"
    )
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: field larger than field limit"):
        load_manifest(path)


def test_manifest_nul_in_path_rejected(tmp_path):
    # no file can be opened by such a path, so read_sample would fail later
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\na.csb,0,tshirt,train\nb\0.csb,1,coat,test\n")
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: NUL in path"):
        load_manifest(path)


@pytest.mark.parametrize(
    "text, line",
    [
        # blank lines are skipped but still counted
        ("a.csb,0,tshirt,train\n\n\nb.csb,1,coat,validation\n", 5),
        # a quoted field may span lines: the record's first line counts
        ('a.csb,0,tshirt,train\n\nb.csb,1,coat,"vali\ndation"\n', 4),
    ],
    ids=["blank-lines", "multi-line-record"],
)
def test_manifest_error_names_the_records_first_line(tmp_path, text, line):
    path = tmp_path / "manifest.csv"
    path.write_text("path,subject_id,scenario,split\n" + text)
    with pytest.raises(CsbFormatError, match=rf"manifest.csv:{line}: unknown split"):
        load_manifest(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_manifest_line_break_in_path_rejected(tmp_path, newline):
    path = tmp_path / "manifest.csv"
    path.write_bytes(
        f'path,subject_id,scenario,split\na.csb,0,tshirt,train\n"b{newline}c.csb",1,coat,test\n'.encode()
    )
    with pytest.raises(CsbFormatError, match=r"manifest.csv:3: line break in path"):
        load_manifest(path)


GOOD_ENTRY = ManifestEntry("a.csb", 0, Scenario.TSHIRT, "train")


@pytest.mark.parametrize(
    "bad, message",
    [
        (ManifestEntry("", 1, Scenario.COAT, "test"), "empty path"),
        (ManifestEntry("b\0.csb", 1, Scenario.COAT, "test"), "NUL in path"),
        (ManifestEntry("b\nc.csb", 1, Scenario.COAT, "test"), "line break in path"),
        (ManifestEntry("b\rc.csb", 1, Scenario.COAT, "test"), "line break in path"),
        (ManifestEntry("a.csb", 1, Scenario.COAT, "test"), "duplicate path 'a.csb'"),
        (ManifestEntry("b.csb", -1, Scenario.COAT, "test"), "bad subject_id"),
        (ManifestEntry("b.csb", 2**32, Scenario.COAT, "test"), "bad subject_id"),
        (ManifestEntry("b.csb", 1.0, Scenario.COAT, "test"), "bad subject_id"),
        (ManifestEntry("b.csb", True, Scenario.COAT, "test"), "bad subject_id"),
        (ManifestEntry("b.csb", 1, 1, "test"), "unknown scenario 1"),
        (ManifestEntry("b.csb", 1, Scenario.COAT, "val"), "unknown split 'val'"),
    ],
    ids=["empty", "nul", "lf", "cr", "duplicate", "negative-subject", "subject-over-u32",
         "float-subject", "bool-subject", "int-scenario", "unknown-split"],
)
def test_save_manifest_rejects_what_load_manifest_rejects(tmp_path, bad, message):
    # each of these was once written, and load_manifest then refused the file
    path = tmp_path / "manifest.csv"
    with pytest.raises(ValueError, match=rf"^manifest entry 1: {message}$"):
        save_manifest(Manifest([GOOD_ENTRY, bad]), path)
    assert list(tmp_path.iterdir()) == []  # raised before the file was opened


def test_save_manifest_unencodable_path_writes_nothing(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        save_manifest(Manifest([ManifestEntry("\ud800.csb", 0, Scenario.COAT, "test")]), tmp_path / "m.csv")
    assert list(tmp_path.iterdir()) == []


@given(st.lists(st.builds(
    ManifestEntry,
    st.text(max_size=6),
    st.one_of(st.integers(-2, 2**32 + 1), st.sampled_from([2**32 - 1, 1.0, True])),
    st.sampled_from([*Scenario, 0]),
    st.sampled_from([*SPLITS, "val", ""]),
), max_size=5))
def test_manifest_save_accepts_only_what_load_reads_back_equal(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/manifest.csv"
        try:
            save_manifest(Manifest(entries), path)
        except ValueError:  # UnicodeEncodeError included
            return
        assert load_manifest(path).entries == entries


def flatten_features(values):
    """A capture's (rx, tx, sub, pkt) non-negative values as amplitude
    flattens them, each magnitude being the value itself."""
    return amplitude_from_complex(ComplexCsiTensor(*values.shape, values + 0j)).data


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
    values = rng.uniform(0.0, 2.0, size=(rx, tx, sub, pkt))
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


def test_record_dims_must_be_positive_integers():
    # both products match the payload's 4 features, so only the entry check
    # stops them: -1 used to fail at write time with a bare struct.error, and
    # 0.5 was truncated to 0 and written as a file read_sample rejects
    seq = FeatureSequence(2, 4, np.zeros((2, 4)))
    for bad in ((-1, -1, 4, 2), (1, 1, 4, 2**32), (1, 4, 2)):
        with pytest.raises(ValueError, match=r"dims must be 4 integers in \[1, 2\*\*32\)"):
            SampleRecord(0, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE, dims=bad)


def test_record_dims_must_be_integers():
    seq = FeatureSequence(2, 4, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dims must be integers"):
        SampleRecord(0, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE, dims=(0.5, 2, 4, 2))
    rec = SampleRecord(0, Scenario.TSHIRT, seq, PayloadKind.AMPLITUDE, dims=np.array([1, 1, 4, 2]))
    assert rec.dims == (1, 1, 4, 2) and all(type(d) is int for d in rec.dims)


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


def test_complex_tensor_counts_must_be_integers():
    # a float count was accepted, and amplitude_from_complex then raised a
    # bare TypeError; a numpy integer becomes a Python int
    data = np.ones((1, 1, 4, 8), dtype=np.complex64)
    with pytest.raises(ValueError, match=r"^n_rx must be an integer, got 1\.0$"):
        ComplexCsiTensor(1.0, 1, 4, 8, data)
    with pytest.raises(ValueError, match="n_pkt must be >= 1"):
        ComplexCsiTensor(1, 1, 4, 0, data[..., :0])
    tensor = ComplexCsiTensor(np.int64(1), 1, np.int32(4), 8, data)
    assert tensor.n_feat == 4 and type(tensor.n_feat) is int and type(tensor.n_rx) is int


def test_feature_sequence_counts_must_be_integers():
    # a float count was accepted, and hampel_filter then raised a bare TypeError
    data = np.ones((8, 4))
    with pytest.raises(ValueError, match=r"^n_pkt must be an integer, got 8\.0$"):
        FeatureSequence(8.0, 4, data)
    with pytest.raises(ValueError, match=r"^n_feat must be an integer, got '4'$"):
        FeatureSequence(8, "4", data)
    with pytest.raises(ValueError, match="n_pkt and n_feat must be >= 1"):
        FeatureSequence(8, 0, data[:, :0])
    seq = FeatureSequence(np.int64(8), np.uint8(4), data)
    assert (type(seq.n_pkt), type(seq.n_feat)) == (int, int)


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
    # amplitude_from_complex flattens every capture to this feature-major layout
    data = np.asarray(np.arange(12.0).reshape(4, 3), order="F")
    seq = FeatureSequence(4, 3, data)
    assert seq.data.flags.c_contiguous
    assert not np.shares_memory(seq.data, data)
    np.testing.assert_array_equal(seq.data, data)
