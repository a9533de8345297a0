import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from rerankit import io_formats
from rerankit.io_formats import (
    LabelFormatError,
    NpyFormatError,
    NpyRows,
    NpyRowWriter,
    parse_npy_header,
    read_labels,
    read_npy,
    write_json,
    write_labels,
    write_npy,
)
from rerankit.metrics import SampleLabels


def build_npy_bytes(header_text: str, payload: bytes, version=(1, 0)) -> bytes:
    """Assemble NPY bytes field by field, independent of the writer."""
    header = header_text.encode("ascii")
    return (
        b"\x93NUMPY"
        + bytes(version)
        + struct.pack("<H", len(header))
        + header
        + payload
    )


class TestReadNpy:
    def test_minimal_float32_file(self):
        # 1x2 float32 [1.0, 2.0], laid out by hand
        payload = struct.pack("<ff", 1.0, 2.0)
        data = build_npy_bytes(
            "{'descr': '<f4', 'fortran_order': False, 'shape': (1, 2), }\n", payload
        )
        assert_array_equal(read_npy(data), np.array([[1.0, 2.0]]))

    def test_float64_file(self):
        payload = struct.pack("<dd", -1.5, 0.25)
        data = build_npy_bytes(
            "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 1), }\n", payload
        )
        assert_array_equal(read_npy(data), np.array([[-1.5], [0.25]]))

    def test_bad_magic(self):
        with pytest.raises(NpyFormatError, match="bad magic"):
            read_npy(b"\x93NUMPZ" + bytes(64))

    def test_unsupported_version(self):
        data = build_npy_bytes(
            "{'descr': '<f4', 'fortran_order': False, 'shape': (0, 0), }\n",
            b"",
            version=(2, 0),
        )
        with pytest.raises(NpyFormatError, match="version 2.0"):
            read_npy(data)

    def test_fortran_order_rejected(self):
        data = build_npy_bytes(
            "{'descr': '<f4', 'fortran_order': True, 'shape': (1, 1), }\n",
            struct.pack("<f", 1.0),
        )
        with pytest.raises(NpyFormatError, match="fortran_order"):
            read_npy(data)

    @pytest.mark.parametrize("descr", ["'<i4'", "[('x', '<f4')]"])
    def test_unsupported_dtype(self, descr):
        data = build_npy_bytes(
            f"{{'descr': {descr}, 'fortran_order': False, 'shape': (1, 1), }}\n",
            struct.pack("<i", 1),
        )
        with pytest.raises(NpyFormatError, match="dtype") as info:
            read_npy(data)
        assert info.value.offset == 10

    @pytest.mark.parametrize("shape", ["(3,)", "(1, 2, 3)", "(-1, 2)", "'x'", "(True, 2)"])
    def test_bad_rank_or_shape(self, shape):
        data = build_npy_bytes(
            f"{{'descr': '<f4', 'fortran_order': False, 'shape': {shape}, }}\n", bytes(96)
        )
        with pytest.raises(NpyFormatError, match="rank-2") as info:
            read_npy(data)
        assert info.value.offset == 10

    def test_truncated_payload(self):
        data = build_npy_bytes(
            "{'descr': '<f4', 'fortran_order': False, 'shape': (2, 2), }\n",
            struct.pack("<fff", 1, 2, 3),
        )
        with pytest.raises(NpyFormatError, match="truncated payload"):
            read_npy(data)

    def test_trailing_data(self):
        data = build_npy_bytes(
            "{'descr': '<f4', 'fortran_order': False, 'shape': (1, 1), }\n",
            struct.pack("<ff", 1, 2),
        )
        with pytest.raises(NpyFormatError, match="trailing data"):
            read_npy(data)

    def test_truncated_preamble(self):
        with pytest.raises(NpyFormatError):
            read_npy(b"\x93NUM")
        with pytest.raises(NpyFormatError):
            read_npy(b"\x93NUMPY\x01\x00")

    def test_header_not_dict(self):
        data = build_npy_bytes("[1, 2, 3]\n", b"")
        with pytest.raises(NpyFormatError, match="dict"):
            read_npy(data)

    def test_header_bad_literal(self):
        data = build_npy_bytes("{'descr': <f4}\n", b"")
        with pytest.raises(NpyFormatError, match="dict literal"):
            read_npy(data)

    def test_header_not_ascii(self):
        header = "{'descr': '<f4', 'fortran_order': False, 'shape': (0, 0), }\n".encode()
        data = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header) + 1) + header + b"\xff"
        with pytest.raises(NpyFormatError):
            read_npy(data)

    def test_reads_numpy_own_output(self):
        import io

        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf = io.BytesIO()
        np.save(buf, arr)
        assert_array_equal(read_npy(buf.getvalue()), arr.astype(np.float64))


class TestWriteNpy:
    def test_round_trip_float32(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 7)).astype(np.float32).astype(np.float64)
        data = write_npy(m, precision="float32")
        assert_array_equal(read_npy(data), m)
        assert write_npy(read_npy(data), precision="float32") == data

    def test_round_trip_float64(self):
        rng = np.random.default_rng(29)
        m = rng.standard_normal((3, 5))
        data = write_npy(m, precision="float64")
        assert_array_equal(read_npy(data), m)
        assert write_npy(read_npy(data), precision="float64") == data

    def test_float64_read_is_read_only_view(self):
        m = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert not read_npy(write_npy(m, precision="float64")).flags.writeable
        assert read_npy(write_npy(m, precision="float32")).flags.writeable

    def test_descr_strings(self):
        descr, _, _ = parse_npy_header(write_npy(np.zeros((1, 1)), precision="float32"))
        assert descr == "<f4"
        descr, _, _ = parse_npy_header(write_npy(np.zeros((1, 1)), precision="float64"))
        assert descr == "<f8"

    def test_data_start_64_aligned(self):
        for shape in [(1, 1), (3, 17), (10, 1000), (0, 0)]:
            _, _, offset = parse_npy_header(write_npy(np.zeros(shape)))
            assert offset % 64 == 0

    def test_empty_matrix(self):
        data = write_npy(np.zeros((0, 0)))
        out = read_npy(data)
        assert out.shape == (0, 0)

    def test_numpy_can_read_back(self):
        m = np.array([[1.25, -2.5]])
        loaded = np.load(io.BytesIO(write_npy(m, precision="float64")))
        assert_array_equal(loaded, m)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            write_npy(np.array([[np.nan]]))

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            write_npy(np.zeros((1, 1)), precision="float16")

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            elements=st.floats(-1e12, 1e12, allow_nan=False),
        ),
        st.sampled_from(["float32", "float64"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, m, precision):
        data = write_npy(m, precision=precision)
        again = write_npy(read_npy(data), precision=precision)
        assert data == again


class TestStripedWrite:
    """`write_npy` and `NpyRowWriter` write and check one stripe at a time."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(13, 5), (1, 1), (0, 3), (0, 0), (4, 0)])
    def test_stripes_join_into_numpy_bytes(self, monkeypatch, precision, shape):
        """Stripes of one to a few rows join into the bytes of one encoding."""
        monkeypatch.setattr(io_formats, "_STRIPE_ELEMS", 6)
        m = np.random.default_rng(31).standard_normal(shape)
        buf = io.BytesIO()
        np.save(buf, m.astype(precision))
        assert write_npy(m, precision=precision) == buf.getvalue()

    def test_non_finite_in_a_later_stripe_returns_nothing(self, monkeypatch):
        monkeypatch.setattr(io_formats, "_STRIPE_ELEMS", 6)
        m = np.zeros((20, 3))
        m[17, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite values in rows from 16"):
            write_npy(m, precision="float64")

    def test_float32_overflow_is_non_finite(self):
        """1e300 is finite in float64 but inf once written as float32."""
        m = np.array([[1.0], [1e300]])
        with pytest.raises(ValueError, match="non-finite"):
            write_npy(m, precision="float32")
        assert read_npy(write_npy(m, precision="float64"))[1, 0] == 1e300

    def test_peak_memory_below_quarter_of_matrix(self, tmp_path):
        """A float64 matrix goes to the file without a full-size copy."""
        m = np.random.default_rng(37).random((2000, 8000))
        rows = io_formats._STRIPE_ELEMS // m.shape[1]
        tracemalloc.start()
        try:
            with open(tmp_path / "m.npy", "wb") as fh:
                writer = NpyRowWriter(fh, m.shape)
                for start in range(0, m.shape[0], rows):
                    writer(start, m[start : start + rows])
                writer.finish()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes / 4, f"peak {peak / 2**20:.1f} MiB"


class TestNpyRowWriter:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(13, 5), (1, 1), (0, 3), (4, 0)])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_stripes_join_into_write_npy_bytes(self, shape, rows, precision):
        m = np.random.default_rng(47).standard_normal(shape)
        buf = io.BytesIO()
        writer = NpyRowWriter(buf, shape, precision)
        for i in range(0, shape[0], rows):
            writer(i, m[i : i + rows])
        writer.finish()
        assert buf.getvalue() == write_npy(m, precision=precision)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_stripes_in_any_order_give_write_npy_bytes(self, tmp_path, rows, precision):
        """Each stripe lands at its rows' offset, in a file or in memory,
        whatever order the stripes come in."""
        m = np.random.default_rng(43).standard_normal((13, 5))
        starts = np.random.default_rng(rows).permutation(np.arange(0, 13, rows))
        buf = io.BytesIO()
        with open(tmp_path / "m.npy", "wb") as fh:
            for target in (fh, buf):
                writer = NpyRowWriter(target, m.shape, precision)
                for start in starts:
                    writer(int(start), m[start : start + rows])
                writer.finish()
        expected = write_npy(m, precision=precision)
        assert buf.getvalue() == expected
        assert (tmp_path / "m.npy").read_bytes() == expected

    def test_rejects_gaps_overruns_and_wrong_width(self):
        """Stripes may come in any order. One that overlaps written rows,
        runs past the end or has the wrong width is rejected at the call,
        before anything is written; `finish()` reports rows never written."""
        buf = io.BytesIO()
        writer = NpyRowWriter(buf, (5, 2))
        writer(3, np.ones((1, 2)))
        writer(0, np.zeros((1, 2)))
        written = buf.getvalue()
        for start, stripe, match in [
            (3, np.zeros((1, 2)), "rows 3 to 3 overlap"),
            (2, np.zeros((2, 2)), "rows 2 to 3 overlap"),
            (0, np.zeros((2, 2)), "rows 0 to 1 overlap"),
            (4, np.zeros((2, 2)), "does not fit"),
            (-1, np.zeros((1, 2)), "does not fit"),
            (1, np.zeros((1, 3)), "does not fit"),
        ]:
            with pytest.raises(ValueError, match=match):
                writer(start, stripe)
        assert buf.getvalue() == written
        with pytest.raises(ValueError, match="rows never written: 3, from row 1"):
            writer.finish()
        writer(1, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rows never written: 1, from row 4"):
            writer.finish()

    def test_non_finite_stripe_is_not_written(self):
        buf = io.BytesIO()
        writer = NpyRowWriter(buf, (2, 2))
        header = buf.getvalue()
        with pytest.raises(ValueError, match="non-finite"):
            writer(0, np.array([[0.0, np.inf]]))
        assert buf.getvalue() == header


class TestNpyRows:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_slices_equal_read_npy(self, tmp_path, precision):
        m = np.random.default_rng(53).standard_normal((11, 4))
        data = write_npy(m, precision=precision)
        (tmp_path / "m.npy").write_bytes(data)
        whole = read_npy(data)
        with open(tmp_path / "m.npy", "rb") as fh:
            rows = NpyRows(fh)
            assert rows.shape == (11, 4)
            for i0, i1 in [(0, 3), (3, 5), (10, 11), (9, 20), (5, 5), (7, 2)]:
                part = rows[i0:i1]
                assert part.dtype == np.float64
                assert_array_equal(part, whole[i0:i1])
            assert_array_equal(rows[:], whole)

    def test_buffer_reused_between_reads(self):
        rows = NpyRows(io.BytesIO(write_npy(np.arange(12.0).reshape(6, 2), "float64")))
        first = rows[0:3]
        assert first.base is not None
        second = rows[3:6]
        assert np.shares_memory(first, second)
        assert_array_equal(second, [[6.0, 7.0], [8.0, 9.0], [10.0, 11.0]])

    def test_only_contiguous_row_slices(self):
        rows = NpyRows(io.BytesIO(write_npy(np.zeros((3, 2)), "float64")))
        for key in (1, slice(0, 3, 2), (slice(0, 1), 0)):
            with pytest.raises(TypeError):
                rows[key]

    def test_file_shrunk_after_open(self, tmp_path):
        path = tmp_path / "m.npy"
        path.write_bytes(write_npy(np.ones((4, 2)), "float64"))
        with open(path, "rb") as fh:
            rows = NpyRows(fh)
            with open(path, "r+b") as again:
                again.truncate(path.stat().st_size - 8)
            with pytest.raises(NpyFormatError, match="ended inside the payload"):
                rows[0:4]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 400), st.integers(0, 255)),
                    min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_same_errors_as_read_npy(self, edits):
        """Any corruption raises the NpyFormatError read_npy raises, with its
        offset; anything read_npy accepts reads back equal."""
        data = bytearray(write_npy(np.arange(12.0).reshape(3, 4), precision="float32"))
        for op, pos, value in edits:
            pos = min(pos, len(data))
            if op == 0 and pos < len(data):
                data[pos] = value
            elif op == 1:
                data = data[:pos]
            elif op == 2:
                data += bytes([value])
            else:
                data = data[:10] + bytes([value]) * (pos % 7) + data[10:]
        data = bytes(data)
        try:
            expected = read_npy(data)
        except NpyFormatError as exc:
            with pytest.raises(NpyFormatError) as got:
                NpyRows(io.BytesIO(data))
            assert str(got.value) == str(exc)
            assert got.value.offset == exc.offset
            return
        assert_array_equal(NpyRows(io.BytesIO(data))[:], expected)


class TestLabels:
    def test_literal_parse(self):
        labels = read_labels("pid,camid\n3,0\n3,1\n")
        assert_array_equal(labels.pids, [3, 3])
        assert_array_equal(labels.camids, [0, 1])

    def test_swapped_header(self):
        labels = read_labels("camid,pid\n0,3\n")
        assert labels.pids[0] == 3 and labels.camids[0] == 0

    def test_missing_column(self):
        with pytest.raises(LabelFormatError, match="camid"):
            read_labels("pid\n3\n")

    def test_extra_column(self):
        with pytest.raises(LabelFormatError, match="exactly"):
            read_labels("pid,camid,extra\n1,2,3\n")

    def test_non_integer_field(self):
        with pytest.raises(LabelFormatError, match="line 3"):
            read_labels("pid,camid\n1,2\n1,x\n")

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "+3", "3.0", ""])
    def test_only_plain_decimal_integers(self, field):
        """A field is ASCII digits with an optional minus sign and surrounding
        spaces; `int` would read "1_0" as 10, and Arabic-Indic three and "+3" as 3."""
        assert_array_equal(read_labels("pid,camid\n 3 ,\t2\n").pids, [3])
        with pytest.raises(LabelFormatError, match=r"non-integer field .*\(line 3\)"):
            read_labels(f"pid,camid\n1,2\n{field},2\n")

    def test_negative_rejected(self):
        with pytest.raises(LabelFormatError, match="non-negative"):
            read_labels("pid,camid\n-1,0\n")

    def test_int64_range(self):
        top = 2**63 - 1
        assert read_labels(f"pid,camid\n{top},{top}\n").pids[0] == top
        with pytest.raises(LabelFormatError, match=r"below 2\*\*63 \(line 2\)"):
            read_labels(f"pid,camid\n0,{top + 1}\n")

    def test_empty_file(self):
        with pytest.raises(LabelFormatError, match="empty"):
            read_labels("")

    def test_crlf(self):
        labels = read_labels("pid,camid\r\n7,2\r\n")
        assert labels.pids[0] == 7 and labels.camids[0] == 2

    def test_round_trip_large(self):
        rng = np.random.default_rng(31)
        labels = SampleLabels(
            rng.integers(0, 5000, size=10_000), rng.integers(0, 16, size=10_000)
        )
        again = read_labels(write_labels(labels))
        assert_array_equal(again.pids, labels.pids)
        assert_array_equal(again.camids, labels.camids)
        assert write_labels(again) == write_labels(labels)


class TestJson:
    def test_round_trip(self):
        doc = {"cmc": [0.5, 1.0], "mAP": 0.75, "valid_queries": 9, "config": {"k": 2}}
        text = write_json(doc)
        assert json.loads(text) == doc
        assert write_json(json.loads(text)) == text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_is_refused(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json({"params": {"sigma": value}})
