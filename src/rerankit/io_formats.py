"""Bit-exact readers and writers for the toolkit's on-disk formats.

Three formats are supported:

* NPY v1.0 for matrices (features, distances): magic ``\\x93NUMPY``,
  version bytes ``\\x01\\x00``, 2-byte little-endian header length, an
  ASCII dict header with keys descr/fortran_order/shape, space padding,
  newline termination. Only rank-2, C-order, little-endian float32 or
  float64 payloads are accepted. There is one writer and one reader.
  `NpyRowWriter` pads the header so the data section starts at a
  64-byte-aligned offset, then writes the payload one row stripe at a
  time, in any order, each at its rows' offset in a seekable file,
  checking each stripe at the precision it is written in.
  `NpyRows` validates the header and payload size, tolerating any valid
  v1.0 header length, and reads row stripes. So a matrix file never has
  to fit in memory. `write_npy` and `read_npy` are their in-memory forms.
* CSV for sample labels: UTF-8, header ``pid,camid``, one integer pair
  per line, LF or CRLF.
* JSON for reports and manifests, written in a canonical form (sorted
  keys) so identical content produces identical bytes, and strict (RFC
  8259): a NaN or infinite float is a ValueError, never `NaN` or `Infinity`.

Every malformed input raises a typed error carrying a byte offset (NPY)
or line number (CSV); parsing never crashes with an untyped exception.
"""

import ast
import io
import json
import os
import re
import struct

import numpy as np

from .matrix_ops import _STRIPE_ELEMS
from .metrics import SampleLabels

NPY_MAGIC = b"\x93NUMPY"
_DESCR_TO_DTYPE = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
_PRECISION_TO_DESCR = {
    "float32": "<f4",
    "float64": "<f8",
}
_DATA_ALIGN = 64
# magic(6) + version(2) + length field(2) + the longest header a v1.0 file can declare
_MAX_PREAMBLE = 10 + 0xFFFF


class NpyFormatError(ValueError):
    """Malformed or unsupported NPY input; `offset` is the byte position."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class LabelFormatError(ValueError):
    """Malformed label CSV; `line` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


def parse_npy_header(data: bytes) -> tuple[str, tuple[int, int], int]:
    """Parse and validate the NPY preamble; returns (descr, shape, data offset)."""
    if len(data) < len(NPY_MAGIC):
        raise NpyFormatError("not an NPY file: too short for magic", offset=len(data))
    if data[: len(NPY_MAGIC)] != NPY_MAGIC:
        raise NpyFormatError("not an NPY file: bad magic", offset=0)
    if len(data) < 10:
        raise NpyFormatError("truncated NPY preamble", offset=len(data))
    major, minor = data[6], data[7]
    if (major, minor) != (1, 0):
        raise NpyFormatError(
            f"unsupported NPY version {major}.{minor}, only 1.0 is accepted", offset=6
        )
    (header_len,) = struct.unpack("<H", data[8:10])
    header_end = 10 + header_len
    if len(data) < header_end:
        raise NpyFormatError("truncated NPY header", offset=len(data))
    raw_header = data[10:header_end]
    try:
        header_text = raw_header.decode("ascii")
    except UnicodeDecodeError as exc:
        raise NpyFormatError(f"NPY header is not ASCII: {exc}", offset=10) from None
    if not header_text.endswith("\n"):
        raise NpyFormatError("NPY header is not newline-terminated", offset=header_end - 1)
    try:
        parsed = ast.literal_eval(header_text)
    except (ValueError, SyntaxError):
        raise NpyFormatError("NPY header is not a valid dict literal", offset=10) from None
    if not isinstance(parsed, dict) or set(parsed) != {"descr", "fortran_order", "shape"}:
        raise NpyFormatError(
            "NPY header must be a dict with keys descr/fortran_order/shape", offset=10
        )
    descr = parsed["descr"]
    if not isinstance(descr, str) or descr not in _DESCR_TO_DTYPE:
        raise NpyFormatError(
            f"unsupported dtype descr {descr!r}, expected '<f4' or '<f8'", offset=10
        )
    fortran = parsed["fortran_order"]
    if fortran is not False:
        if fortran is True:
            raise NpyFormatError("fortran_order arrays are not supported", offset=10)
        raise NpyFormatError("fortran_order must be a boolean", offset=10)
    shape = parsed["shape"]
    if (
        not isinstance(shape, tuple)
        or len(shape) != 2
        or not all(type(s) is int and s >= 0 for s in shape)
    ):
        raise NpyFormatError(
            f"only rank-2 arrays are supported, got shape {shape!r}", offset=10
        )
    return descr, shape, header_end


def read_npy(data: bytes) -> np.ndarray:
    """Decode NPY v1.0 bytes into a float64 matrix, validated by `NpyRows`.

    A float64 payload is not copied: the result is a read-only view of
    `data`. A float32 payload is converted into a new, writable array.

    Raises:
        NpyFormatError: bad magic, unsupported version/dtype/rank/order,
            malformed header, or a payload whose size does not match the
            declared shape.
    """
    rows = NpyRows(io.BytesIO(data))
    arr = np.frombuffer(memoryview(data)[rows._offset :], dtype=rows._dtype)
    return arr.reshape(rows.shape).astype(np.float64, copy=False)


def write_npy(matrix, precision: str = "float32") -> bytes:
    """Encode a matrix as NPY v1.0 bytes, streamed through `NpyRowWriter`.

    One stripe of about _STRIPE_ELEMS entries is converted at a time.

    Args:
        matrix: (N, M) array-like whose values are finite at `precision`.
        precision: "float32" (default, interchange) or "float64".
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"only rank-2 matrices are written, got ndim={arr.ndim}")
    buf = io.BytesIO()
    writer = NpyRowWriter(buf, arr.shape, precision)
    rows = max(1, _STRIPE_ELEMS // max(arr.shape[1], 1))
    for start in range(0, arr.shape[0], rows):
        writer(start, arr[start : start + rows])
    writer.finish()
    return buf.getvalue()


def npy_header(shape: tuple[int, int], descr: str = "<f8") -> bytes:
    """The NPY v1.0 preamble of a C-ordered matrix, padded to 64 bytes."""
    header_text = (
        f"{{'descr': '{descr}', 'fortran_order': False, "
        f"'shape': ({shape[0]}, {shape[1]}), }}"
    )
    # magic(6) + version(2) + length field(2) + header + padding + '\n'
    unpadded = len(NPY_MAGIC) + 2 + 2 + len(header_text) + 1
    pad = (-unpadded) % _DATA_ALIGN
    header_bytes = (header_text + " " * pad + "\n").encode("ascii")
    return NPY_MAGIC + bytes([1, 0]) + struct.pack("<H", len(header_bytes)) + header_bytes


class NpyRowWriter:
    """Writes a (rows, cols) NPY file one row stripe at a time, in any order.

    The header goes out on construction. Each call `writer(start, stripe)`
    converts the stripe to `precision`, checks that it fits within the
    rows, overlaps no row written before, has `cols` columns and is
    finite after the conversion, then writes it at the data offset plus
    `start` rows (without a copy when it is C-ordered float64 written as
    float64). The file holds `write_npy(matrix, precision)`'s bytes once
    `finish()` has confirmed every row was written.

    Args:
        fh: seekable binary file object open for writing.
        shape: (rows, cols) of the whole matrix.
        precision: "float64" (default) or "float32".
    """

    def __init__(self, fh, shape: tuple[int, int], precision: str = "float64"):
        if precision not in _PRECISION_TO_DESCR:
            raise ValueError(f"unsupported precision {precision!r}")
        descr = _PRECISION_TO_DESCR[precision]
        self._fh = fh
        self._dtype = _DESCR_TO_DTYPE[descr]
        self.shape = (int(shape[0]), int(shape[1]))
        self._written = np.zeros(self.shape[0], dtype=bool)
        fh.write(npy_header(self.shape, descr))
        self._offset = fh.tell()

    def __call__(self, start: int, stripe) -> None:
        with np.errstate(over="ignore"):  # an overflowing cast is caught as non-finite below
            arr = np.ascontiguousarray(stripe, dtype=self._dtype)
        end = start + len(arr)
        if not 0 <= start <= end <= self.shape[0] or arr.shape[1:] != self.shape[1:]:
            raise ValueError(
                f"a stripe of shape {arr.shape} at row {start} does not fit a {self.shape} matrix"
            )
        if self._written[start:end].any():
            raise ValueError(f"rows {start} to {end - 1} overlap rows already written")
        if not np.isfinite(arr).all():
            raise ValueError(f"matrix contains non-finite values in rows from {start}")
        self._fh.seek(self._offset + start * self.shape[1] * self._dtype.itemsize)
        self._fh.write(arr.data)
        self._written[start:end] = True

    def finish(self) -> None:
        missing = np.flatnonzero(~self._written)
        if missing.size:
            raise ValueError(f"rows never written: {missing.size}, from row {missing[0]}")


class NpyRows:
    """An NPY matrix file read as float64 row stripes, never whole.

    The header and the file size are validated on construction; this is
    the one place a truncated or overlong payload is detected. `rows[i0:i1]`
    reads those rows with `readinto` into one buffer that is reused by
    every read, so the returned array is valid only until the next read;
    a float32 payload is converted per stripe. `shape` is (rows, cols).

    Args:
        fh: binary file object open for reading, with `seek`.
    """

    def __init__(self, fh):
        self._fh = fh
        prefix = fh.read(_MAX_PREAMBLE)
        descr, self.shape, self._offset = parse_npy_header(prefix)
        self._dtype = _DESCR_TO_DTYPE[descr]
        size = fh.seek(0, os.SEEK_END)
        expected = self.shape[0] * self.shape[1] * self._dtype.itemsize
        payload = size - self._offset
        if payload < expected:
            raise NpyFormatError(
                f"truncated payload: expected {expected} bytes, got {payload}", offset=size
            )
        if payload > expected:
            raise NpyFormatError(
                f"trailing data after payload: expected {expected} bytes, got {payload}",
                offset=self._offset + expected,
            )
        self._buf = np.empty(0, dtype=self._dtype)

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("NPY rows are read by contiguous row slices only")
        start, stop, _ = key.indices(self.shape[0])
        stop = max(start, stop)
        cols = self.shape[1]
        count = (stop - start) * cols
        if self._buf.size < count:
            self._buf = np.empty(count, dtype=self._dtype)
        rows = self._buf[:count]
        view = memoryview(rows).cast("B")
        pos = self._offset + start * cols * self._dtype.itemsize
        self._fh.seek(pos)
        filled = 0
        while filled < len(view):
            got = self._fh.readinto(view[filled:])
            if not got:
                raise NpyFormatError("file ended inside the payload", offset=pos + filled)
            filled += got
        return rows.reshape(stop - start, cols).astype(np.float64, copy=False)


_LABEL_ROW = re.compile(r"\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*")


def read_labels(text) -> SampleLabels:
    """Parse a label CSV into SampleLabels.

    The header must contain exactly the columns pid and camid (either
    order); each data row holds two integers in [0, 2**63), written as
    ASCII decimal digits with surrounding spaces allowed (no sign but a
    minus, which the range then refuses, and no underscores).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LabelFormatError(f"labels are not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LabelFormatError("empty label file", line=1)
    header = [f.strip() for f in lines[0].rstrip("\r").split(",")]
    for col in ("pid", "camid"):
        if col not in header:
            raise LabelFormatError(f"missing column {col!r} in header {header}", line=1)
    if len(header) != 2:
        raise LabelFormatError(f"expected exactly columns pid,camid, got {header}", line=1)
    pid_col = header.index("pid")
    cam_col = header.index("camid")
    pids = []
    camids = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\r")
        row = _LABEL_ROW.fullmatch(line)
        if row is None:
            fields = line.split(",")
            raise LabelFormatError(
                f"expected 2 fields, got {len(fields)}" if len(fields) != 2
                else f"non-integer field in row {fields}", line=lineno
            )
        pid, cam = int(row[pid_col + 1]), int(row[cam_col + 1])
        if not (0 <= pid < 2**63 and 0 <= cam < 2**63):
            raise LabelFormatError(
                "pid and camid must be non-negative and below 2**63", line=lineno
            )
        pids.append(pid)
        camids.append(cam)
    return SampleLabels(
        pids=np.asarray(pids, dtype=np.int64), camids=np.asarray(camids, dtype=np.int64)
    )


def write_labels(labels: SampleLabels) -> str:
    """Serialize labels as CSV with a pid,camid header (LF endings)."""
    rows = [f"{int(p)},{int(c)}" for p, c in zip(labels.pids, labels.camids)]
    return "pid,camid\n" + "".join(r + "\n" for r in rows)


def write_json(obj) -> str:
    """Canonical, strict JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
