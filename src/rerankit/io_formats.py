"""Bit-exact readers and writers for the toolkit's on-disk formats.

Three formats are supported:

* NPY v1.0 for matrices (features, distances): magic ``\\x93NUMPY``,
  version bytes ``\\x01\\x00``, 2-byte little-endian header length, an
  ASCII dict header with keys descr/fortran_order/shape, space padding,
  newline termination. Only rank-2, C-order, little-endian float32 or
  float64 payloads are accepted. The writer pads the header so the data
  section starts at a 64-byte-aligned offset; the reader tolerates any
  valid v1.0 header length.
* CSV for sample labels: UTF-8, header ``pid,camid``, one integer pair
  per line, LF or CRLF.
* JSON for reports and manifests, written in a canonical form (sorted
  keys) so identical content produces identical bytes.

Every malformed input raises a typed error carrying a byte offset (NPY)
or line number (CSV); parsing never crashes with an untyped exception.
"""

import ast
import json
import struct
from dataclasses import dataclass

import numpy as np

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
    """Encode a matrix as NPY v1.0 bytes.

    Args:
        matrix: (N, M) array-like of finite values.
        precision: "float32" (default, interchange) or "float64".
    """
    if precision not in _PRECISION_TO_DESCR:
        raise ValueError(f"unsupported precision {precision!r}")
    descr = _PRECISION_TO_DESCR[precision]
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"only rank-2 matrices are written, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite values")
    header_text = (
        f"{{'descr': '{descr}', 'fortran_order': False, "
        f"'shape': ({arr.shape[0]}, {arr.shape[1]}), }}"
    )
    # magic(6) + version(2) + length field(2) + header + padding + '\n'
    unpadded = len(NPY_MAGIC) + 2 + 2 + len(header_text) + 1
    pad = (-unpadded) % _DATA_ALIGN
    header_bytes = (header_text + " " * pad + "\n").encode("ascii")
    preamble = NPY_MAGIC + bytes([1, 0]) + struct.pack("<H", len(header_bytes))
    payload = np.ascontiguousarray(arr.astype(_DESCR_TO_DTYPE[descr])).tobytes()
    return preamble + header_bytes + payload


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
