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


@dataclass
class ComplexCsiTensor:
    """Complex CFR samples, row-major over (rx, tx, subcarrier, packet)."""

    n_rx: int
    n_tx: int
    n_sub: int
    n_pkt: int
    data: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n_rx", "n_tx", "n_sub", "n_pkt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.data = np.asarray(self.data, dtype=np.complex128)
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
    such as the feature-major view :func:`flatten_features` returns, are
    copied once here.
    """

    n_pkt: int
    n_feat: int
    data: np.ndarray

    def __post_init__(self) -> None:
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
    payload (feature payloads default to a single antenna pair).
    """

    subject_id: int
    scenario: Scenario
    payload: ComplexCsiTensor | FeatureSequence
    payload_kind: PayloadKind
    dims: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        try:
            self.subject_id = operator.index(self.subject_id)
        except TypeError:
            raise ValueError(f"subject_id must be an integer, got {self.subject_id!r}") from None
        if self.subject_id < 0:
            raise ValueError("subject_id must be >= 0")
        if self.subject_id >= 2**32:
            raise ValueError("subject_id must be < 2**32")
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
        self.dims = tuple(int(d) for d in self.dims)


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
        """``count`` "<f4" or "<c8" values widened to float64 or complex128;
        the caller checks them for non-finite values, once per payload."""
        start = self._advance(count * np.dtype(dtype).itemsize, what)
        values = np.frombuffer(self.raw, dtype, count=count, offset=start)
        with np.errstate(invalid="ignore"):  # a signaling NaN warns in the cast
            return values.astype(np.promote_types(dtype, np.float64))

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

    A payload holding NaN or inf is a format error.
    """
    reader = BinaryReader(path, CsbFormatError)
    magic, kind_b, scen_b, subject, rx, tx, sub, pkt = reader.unpack(_HEADER, "header")
    if magic != CSB_MAGIC:
        raise CsbFormatError(f"{path}: bad magic {magic!r}")
    try:
        kind = PayloadKind(kind_b)
        scenario = Scenario(scen_b)
    except ValueError as exc:
        raise CsbFormatError(f"{path}: {exc}") from exc
    is_complex = kind == PayloadKind.COMPLEX
    values = reader.array("<c8" if is_complex else "<f4", rx * tx * sub * pkt, "payload")
    reader.finish()
    try:
        if is_complex:
            payload: ComplexCsiTensor | FeatureSequence = ComplexCsiTensor(
                rx, tx, sub, pkt, values.reshape(rx, tx, sub, pkt)
            )
        else:
            payload = FeatureSequence(pkt, rx * tx * sub, values.reshape(pkt, rx * tx * sub))
    except ValueError as exc:  # the payload constructors reject zero dims and non-finite values
        raise CsbFormatError(f"{path}: {exc}") from exc
    return SampleRecord(subject, scenario, payload, kind, dims=(rx, tx, sub, pkt))


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest CSV, rejecting duplicates and unknown tokens."""
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise CsbFormatError(
                f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}"
            )
        for i, row in enumerate(reader, start=2):
            if None in row:
                raise CsbFormatError(f"{path}:{i}: extra fields {row[None]!r}")
            rel = row["path"]
            if not rel:
                raise CsbFormatError(f"{path}:{i}: empty path")
            if rel in seen:
                raise CsbFormatError(f"{path}:{i}: duplicate path {rel!r}")
            seen.add(rel)
            # ASCII digits only: int() also takes signs, spaces, underscores
            # and non-ASCII digits; a CSB header holds at most 2**32 - 1
            text = row["subject_id"] or ""
            digits = text.isascii() and text.isdigit() and len(text.lstrip("0")) <= 10
            if not digits or int(text) >= 2**32:
                raise CsbFormatError(f"{path}:{i}: bad subject_id")
            subject = int(text)
            scen_name = (row["scenario"] or "").upper()
            if scen_name not in Scenario.__members__:
                raise CsbFormatError(f"{path}:{i}: unknown scenario {row['scenario']!r}")
            split = row["split"]
            if split not in SPLITS:
                raise CsbFormatError(f"{path}:{i}: unknown split {split!r}")
            entries.append(ManifestEntry(rel, subject, Scenario[scen_name], split))
    return Manifest(entries)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest CSV (UTF-8, LF line endings)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            writer.writerow([e.path, e.subject_id, e.scenario.name.lower(), e.split])


def flatten_features(values: np.ndarray) -> np.ndarray:
    """Flatten per-entry values (rx, tx, sub, pkt) to a (pkt, feature) matrix.

    Column order is antenna-pair major, subcarrier minor: entry
    (r, t, s) lands in column ``(r * n_tx + t) * n_sub + s``.
    """
    values = np.asarray(values)
    if values.ndim != 4:
        raise ValueError(f"expected a 4-d array, got shape {values.shape}")
    rx, tx, sub, pkt = values.shape
    return np.moveaxis(values, -1, 0).reshape(pkt, rx * tx * sub)
