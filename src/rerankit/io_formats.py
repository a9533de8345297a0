"""Bit-exact readers and writers for the toolkit's on-disk formats.

Three formats are supported:

* NPY v1.0 for matrices (features, distances): magic ``\\x93NUMPY``,
  version bytes ``\\x01\\x00``, 2-byte little-endian header length, an
  ASCII dict header with keys descr/fortran_order/shape, space padding,
  newline termination. Only rank-2, C-order, little-endian float32 or
  float64 payloads are accepted. The writer pads the header so the data
  section starts at a 64-byte-aligned offset, and streams the payload
  into a file object by row stripes (a float64 matrix without a copy);
  the reader tolerates any valid v1.0 header length. `NpyRowWriter` and
  `NpyRows` write and read a float64 matrix file one row stripe at a
  time, so the matrix never has to fit in memory.
* CSV for sample labels: UTF-8, header ``pid,camid``, one integer pair
  per line, LF or CRLF.
* JSON for reports and manifests, written in a canonical form (sorted
  keys) so identical content produces identical bytes.

Every malformed input raises a typed error carrying a byte offset (NPY)
or line number (CSV); parsing never crashes with an untyped exception.
"""

import ast
import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .matrix_ops import _STRIPE_ELEMS
from .metrics import SampleLabels

NPY_MAGIC = b"\x93NUMPY"
_DESCR_TO_DTYPE = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
_PRECISION_TO_DESCR = {
    "float32": "<f4",
    "float64": "<f8",
    "<f4": "<f4",
    "<f8": "<f8",
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


@dataclass(frozen=True)
class NpyHeader:
    descr: str
    fortran_order: bool
    shape: tuple[int, int]


def parse_npy_header(data: bytes) -> tuple[NpyHeader, int]:
    """Parse and validate the NPY preamble; returns (header, data offset)."""
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
    if descr not in _DESCR_TO_DTYPE:
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
        or not all(isinstance(s, int) and s >= 0 for s in shape)
    ):
        raise NpyFormatError(
            f"only rank-2 arrays are supported, got shape {shape!r}", offset=10
        )
    return NpyHeader(descr=descr, fortran_order=False, shape=shape), header_end


def read_npy(data: bytes) -> np.ndarray:
    """Decode NPY v1.0 bytes into a float64 matrix.

    A float64 payload is not copied: the result is a read-only view of
    `data`. A float32 payload is converted into a new, writable array.

    Raises:
        NpyFormatError: bad magic, unsupported version/dtype/rank/order,
            malformed header, or a payload whose size does not match the
            declared shape.
    """
    header, offset = parse_npy_header(data)
    dtype = _DESCR_TO_DTYPE[header.descr]
    rows, cols = header.shape
    expected = rows * cols * dtype.itemsize
    payload = memoryview(data)[offset:]
    if len(payload) < expected:
        raise NpyFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            offset=len(data),
        )
    if len(payload) > expected:
        raise NpyFormatError(
            f"trailing data after payload: expected {expected} bytes, got {len(payload)}",
            offset=offset + expected,
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(rows, cols)
    return arr.astype(np.float64, copy=False)


def write_npy(matrix, precision: str = "float32") -> bytes:
    """Encode a matrix as NPY v1.0 bytes (`write_npy_to` into memory).

    Args:
        matrix: (N, M) array-like of finite values.
        precision: "float32" (default, interchange) or "float64".
    """
    buf = io.BytesIO()
    write_npy_to(buf, matrix, precision)
    return buf.getvalue()


def write_npy_to(fh, matrix, precision: str = "float32") -> None:
    """Encode a matrix as NPY v1.0 into a binary file object, by row stripes.

    The bytes are those of `write_npy`. A C-ordered float64 matrix
    written as float64 goes out without a copy; otherwise one stripe of
    about _STRIPE_ELEMS entries is converted at a time. Every value is
    checked before the first byte is written.

    Args:
        fh: binary file object with a `write` method.
        matrix: (N, M) array-like of finite values.
        precision: "float32" (default, interchange) or "float64".
    """
    if precision not in _PRECISION_TO_DESCR:
        raise ValueError(f"unsupported precision {precision!r}")
    descr = _PRECISION_TO_DESCR[precision]
    dtype = _DESCR_TO_DTYPE[descr]
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"only rank-2 matrices are written, got ndim={arr.ndim}")
    rows = max(1, _STRIPE_ELEMS // max(arr.shape[1], 1))
    stripes = range(0, arr.shape[0], rows)
    if not all(np.isfinite(arr[i : i + rows]).all() for i in stripes):
        raise ValueError("matrix contains non-finite values")
    fh.write(npy_header(arr.shape, descr))
    for i in stripes:
        fh.write(np.ascontiguousarray(arr[i : i + rows], dtype=dtype).data)


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
    """Writes a (rows, cols) float64 NPY file one row stripe at a time.

    The header goes out on construction. Each call `writer(start, stripe)`
    checks that the stripe continues the rows written so far, has `cols`
    columns and is finite, then appends it (without a copy when it is
    C-ordered float64). The file holds `write_npy(matrix, "float64")`'s
    bytes once `finish()` has confirmed every row was written.
    """

    def __init__(self, fh, shape: tuple[int, int]):
        self._fh = fh
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows_written = 0
        fh.write(npy_header(self.shape, "<f8"))

    def __call__(self, start: int, stripe) -> None:
        arr = np.ascontiguousarray(stripe, dtype=np.float64)
        end = start + len(arr)
        if start != self.rows_written or end > self.shape[0] or arr.shape[1:] != self.shape[1:]:
            raise ValueError(
                f"a stripe of shape {arr.shape} at row {start} does not continue "
                f"a {self.shape} matrix after {self.rows_written} rows"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"matrix contains non-finite values in rows from {start}")
        self._fh.write(arr.data)
        self.rows_written += arr.shape[0]

    def finish(self) -> None:
        if self.rows_written != self.shape[0]:
            raise ValueError(f"only {self.rows_written} of {self.shape[0]} rows were written")


class NpyRows:
    """An NPY matrix file read as float64 row stripes, never whole.

    The header and the file size are validated on construction and raise
    the `NpyFormatError`s `read_npy` raises for the same bytes. `rows[i0:i1]`
    reads those rows with `readinto` into one buffer that is reused by
    every read, so the returned array is valid only until the next read;
    a float32 payload is converted per stripe. `shape` is (rows, cols).

    Args:
        fh: binary file object open for reading, with `seek`.
    """

    def __init__(self, fh):
        self._fh = fh
        prefix = fh.read(_MAX_PREAMBLE)
        header, self._offset = parse_npy_header(prefix)
        self._dtype = _DESCR_TO_DTYPE[header.descr]
        self.shape = header.shape
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


def read_labels(text) -> SampleLabels:
    """Parse a label CSV into SampleLabels.

    The header must contain exactly the columns pid and camid (either
    order); each data row holds two non-negative integers.
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
        fields = line.rstrip("\r").split(",")
        if len(fields) != 2:
            raise LabelFormatError(
                f"expected 2 fields, got {len(fields)}", line=lineno
            )
        try:
            pid = int(fields[pid_col])
            cam = int(fields[cam_col])
        except ValueError:
            raise LabelFormatError(
                f"non-integer field in row {fields}", line=lineno
            ) from None
        if pid < 0 or cam < 0:
            raise LabelFormatError("pid and camid must be non-negative", line=lineno)
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
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return json.loads(text)
