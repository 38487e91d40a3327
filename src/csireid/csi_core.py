"""Core CSI sample types, the portable CSB on-disk format and its codec.

A capture is either a complex CFR tensor over (rx, tx, subcarrier, packet)
or an already-extracted real feature sequence over (packet, feature).
Samples are stored in CSB files (binary, little-endian, f32 payload) and
indexed by a plain CSV manifest, so fixtures are bit-exact and language
neutral.

CSB files here and the checkpoints of :mod:`csireid.autodiff` share one
codec: :class:`BinaryReader`, :func:`f32_bytes` and :func:`write_file`.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

CSB_MAGIC = b"CSI1"
_HEADER = "<4sBBIIIII"  # magic, kind, scenario, subject, 4 dims

MANIFEST_COLUMNS = ("path", "subject_id", "scenario", "split")
SPLITS = ("train", "test")


class CsbFormatError(Exception):
    """Raised when a CSB file or manifest violates the format contract."""


class PayloadKind(IntEnum):
    COMPLEX = 1
    AMPLITUDE = 2
    PHASE = 3


class Scenario(IntEnum):
    TSHIRT = 0
    COAT = 1
    BACKPACK = 2
    SYNTHETIC = 3


def _require_shape(data: np.ndarray, shape: tuple[int, ...]) -> None:
    if data.shape != shape:
        raise ValueError(f"data has shape {data.shape}, expected {shape}")


def _require_finite(data: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{what} contains non-finite values")


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class ComplexCsiTensor:
    """Complex CFR samples, row-major over (rx, tx, subcarrier, packet).

    ``data`` keeps complex64 input as it is, which is how captures are
    stored, and widens any other input to complex128. Preprocessing computes
    in float64 from either, and widening complex64 is exact, so a capture
    gives the same features as its complex128 widening, bit for bit.
    """

    n_rx: int
    n_tx: int
    n_sub: int
    n_pkt: int
    data: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n_rx", "n_tx", "n_sub", "n_pkt"):
            setattr(self, name, _integer(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.data = np.asarray(self.data)
        if self.data.dtype != np.complex64:
            self.data = self.data.astype(np.complex128, copy=False)
        _require_shape(self.data, (self.n_rx, self.n_tx, self.n_sub, self.n_pkt))
        _require_finite(self.data, "CSI tensor")

    @property
    def n_feat(self) -> int:
        return self.n_rx * self.n_tx * self.n_sub


@dataclass
class FeatureSequence:
    """Real-valued (packet, feature) matrix fed to the encoders.

    ``data`` is always a C-contiguous float64 array of shape exactly
    (n_pkt, n_feat), so each packet is one contiguous row; other layouts,
    such as a feature-major view, are copied once here.
    """

    n_pkt: int
    n_feat: int
    data: np.ndarray

    def __post_init__(self) -> None:
        self.n_pkt, self.n_feat = _integer(self.n_pkt, "n_pkt"), _integer(self.n_feat, "n_feat")
        if self.n_pkt < 1 or self.n_feat < 1:
            raise ValueError("n_pkt and n_feat must be >= 1")
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        _require_shape(self.data, (self.n_pkt, self.n_feat))
        _require_finite(self.data, "feature sequence")


@dataclass
class SampleRecord:
    """One labeled capture: payload plus identity and scenario metadata.

    ``dims`` keeps the originating (rx, tx, subcarrier, packet) counts even
    for flattened feature payloads, so subcarrier grouping stays
    reconstructible after preprocessing. When omitted it is derived from the
    payload (feature payloads default to a single antenna pair). Each entry
    must be an integer in [1, 2**32), since the file header stores it as a
    u32 and a zero count cannot describe a payload.
    """

    subject_id: int
    scenario: Scenario
    payload: ComplexCsiTensor | FeatureSequence
    payload_kind: PayloadKind
    dims: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        self.subject_id = _integer(self.subject_id, "subject_id")
        if self.subject_id < 0:
            raise ValueError("subject_id must be >= 0")
        if self.subject_id >= 2**32:
            raise ValueError("subject_id must be < 2**32")
        if self.dims is not None:
            try:
                self.dims = tuple(operator.index(d) for d in self.dims)
            except TypeError:
                raise ValueError(f"dims must be integers, got {self.dims!r}") from None
            if len(self.dims) != 4 or not all(1 <= d < 2**32 for d in self.dims):
                raise ValueError(f"dims must be 4 integers in [1, 2**32), got {self.dims!r}")
        self.scenario = Scenario(self.scenario)
        self.payload_kind = PayloadKind(self.payload_kind)
        if self.payload_kind == PayloadKind.COMPLEX:
            if not isinstance(self.payload, ComplexCsiTensor):
                raise ValueError("complex payload_kind requires a ComplexCsiTensor")
            p = self.payload
            derived = (p.n_rx, p.n_tx, p.n_sub, p.n_pkt)
            if self.dims is None:
                self.dims = derived
            elif tuple(self.dims) != derived:
                raise ValueError("dims inconsistent with complex payload")
        else:
            if not isinstance(self.payload, FeatureSequence):
                raise ValueError("feature payload_kind requires a FeatureSequence")
            if self.dims is None:
                self.dims = (1, 1, self.payload.n_feat, self.payload.n_pkt)
            rx, tx, sub, pkt = self.dims
            if rx * tx * sub != self.payload.n_feat or pkt != self.payload.n_pkt:
                raise ValueError("dims inconsistent with feature payload")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    subject_id: int
    scenario: Scenario
    split: str


@dataclass
class Manifest:
    """Ordered index over sample files with train/test split labels."""

    entries: list[ManifestEntry] = field(default_factory=list)


class BinaryReader:
    """Reads one file front to back; every fault raises the caller's ``error``
    type naming the path: a field that runs past the end, or trailing bytes.
    """

    def __init__(self, path: str | Path, error: type[Exception]):
        self.path = path
        self._error = error
        with open(path, "rb") as fh:
            self.raw = fh.read()
        self.offset = 0

    def _advance(self, size: int, what: str) -> int:
        start = self.offset
        left = len(self.raw) - start
        if size > left:
            raise self._error(f"{self.path}: {what} truncated ({left} bytes left, needs {size})")
        self.offset = start + size
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._advance(struct.calcsize(fmt), what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """``count`` "<f4" values widened to float64, or "<c8" values copied as
        complex64, which every consumer widens exactly where it computes; the
        caller checks them for non-finite values, once per payload."""
        start = self._advance(count * np.dtype(dtype).itemsize, what)
        values = np.frombuffer(self.raw, dtype, count=count, offset=start)
        with np.errstate(invalid="ignore"):  # a signaling NaN warns in the cast
            return values.astype(np.complex64 if values.dtype.kind == "c" else np.float64)

    def finish(self) -> None:
        if self.offset != len(self.raw):
            raise self._error(f"{self.path}: {len(self.raw) - self.offset} trailing bytes")


def f32_bytes(values: np.ndarray, what: str) -> bytes:
    """Little-endian f32 bytes of ``values`` (complex as real/imag pairs);
    ValueError naming ``what`` if a value is not finite after the cast."""
    dtype = "<c8" if np.iscomplexobj(values) else "<f4"
    with np.errstate(over="ignore"):
        cast = np.ascontiguousarray(values, dtype=dtype)
    if not np.all(np.isfinite(cast)):
        raise ValueError(f"{what} not representable as finite f32")
    return cast.tobytes()


def write_file(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``<path>.tmp`` and rename it over ``path``, so an
    interrupted write keeps the old file whole (no fsync: not power-safe)."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_sample(record: SampleRecord, path: str | Path) -> None:
    """Write one record as a CSB file.

    Payload values are stored as little-endian f32 (complex payloads store
    interleaved real/imag pairs). Values that do not survive the f32 cast
    finitely are rejected before the file is created.
    """
    payload = f32_bytes(record.payload.data, "payload")
    header = struct.pack(
        _HEADER, CSB_MAGIC, record.payload_kind, record.scenario, record.subject_id, *record.dims
    )
    write_file(path, header, payload)


def read_sample(path: str | Path) -> SampleRecord:
    """Read a CSB file back into a SampleRecord, validating the header.

    An unknown kind or scenario, a zero dim and a NaN or inf value are format errors.
    """
    reader = BinaryReader(path, CsbFormatError)
    magic, kind_b, scen_b, subject, rx, tx, sub, pkt = reader.unpack(_HEADER, "header")
    if magic != CSB_MAGIC:
        raise CsbFormatError(f"{path}: bad magic {magic!r}")
    try:
        kind, scenario = PayloadKind(kind_b), Scenario(scen_b)
        is_complex = kind == PayloadKind.COMPLEX
        values = reader.array("<c8" if is_complex else "<f4", rx * tx * sub * pkt, "payload")
        reader.finish()
        if is_complex:
            payload: ComplexCsiTensor | FeatureSequence = ComplexCsiTensor(
                rx, tx, sub, pkt, values.reshape(rx, tx, sub, pkt)
            )
        else:
            payload = FeatureSequence(pkt, rx * tx * sub, values.reshape(pkt, rx * tx * sub))
    except ValueError as exc:
        raise CsbFormatError(f"{path}: {exc}") from exc
    return SampleRecord(subject, scenario, payload, kind, dims=(rx, tx, sub, pkt))


def _entry_fault(e: ManifestEntry, seen: set[str]) -> str | None:
    """The first per-entry rule of save_manifest and load_manifest that ``e``
    breaks after the paths in ``seen``, or None; its path joins ``seen``."""
    if not e.path or "\0" in e.path:
        return f"{'NUL in' if e.path else 'empty'} path"
    if "\r" in e.path or "\n" in e.path:
        return "line break in path"
    if e.path in seen:
        return f"duplicate path {e.path!r}"
    seen.add(e.path)
    integer = isinstance(e.subject_id, (int, np.integer)) and not isinstance(e.subject_id, bool)
    if not (integer and 0 <= e.subject_id < 2**32):  # a CSB header's u32
        return "bad subject_id"
    if not isinstance(e.scenario, Scenario):
        return f"unknown scenario {e.scenario!r}"
    return None if e.split in SPLITS else f"unknown split {e.split!r}"


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest CSV, rejecting duplicates and unknown tokens.

    Every format fault raises CsbFormatError naming the path and, for a
    fault past the header, the physical line its record starts on (blank
    lines are skipped, and a quoted field may span lines): also bytes that
    are not UTF-8, a field over csv's size limit, and a NUL or a line break
    in a path.
    """
    raw = Path(path).read_bytes()
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(raw[: exc.start + 1].splitlines())
        raise CsbFormatError(f"{path}:{line}: not valid UTF-8") from exc
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    width = len(MANIFEST_COLUMNS)
    reader = csv.reader(io.StringIO(content, newline=""))
    try:
        if tuple(next(reader, ())) != MANIFEST_COLUMNS:
            raise CsbFormatError(f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}")
        end = reader.line_num
        for fields in reader:
            i, end = end + 1, reader.line_num
            if not fields:  # a blank line
                continue
            if len(fields) > width:
                raise CsbFormatError(f"{path}:{i}: extra fields {fields[width:]!r}")
            rel, text, scen_raw, split = fields + [None] * (width - len(fields))
            # ASCII digits only: int() also takes signs, spaces, underscores
            # and non-ASCII digits
            text = text or ""
            digits = text.isascii() and text.isdigit() and len(text.lstrip("0")) <= 10
            scenario = Scenario.__members__.get((scen_raw or "").upper(), scen_raw)
            entry = ManifestEntry(rel, int(text) if digits else None, scenario, split)
            if fault := _entry_fault(entry, seen):
                raise CsbFormatError(f"{path}:{i}: {fault}")
            entries.append(entry)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise CsbFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return Manifest(entries)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest CSV (UTF-8, LF line endings) with :func:`write_file`.
    Before anything is written, an entry that load_manifest would reject raises
    ValueError naming its index, and a path UTF-8 cannot encode UnicodeEncodeError."""
    seen: set[str] = set()
    for k, e in enumerate(manifest.entries):
        if fault := _entry_fault(e, seen):
            raise ValueError(f"manifest entry {k}: {fault}")
    rows = [[e.path, e.subject_id, e.scenario.name.lower(), e.split] for e in manifest.entries]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([MANIFEST_COLUMNS, *rows])
    write_file(path, text.getvalue().encode("utf-8"))

