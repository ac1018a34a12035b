"""Binary frame protocol: codec round-trips, header validation, fuzz."""

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.service import frames
from repro.service.protocol import PROTOCOL_VERSION, error_response, ok_response


def _round_trip_value(value):
    buf = bytearray()
    frames.encode_value(buf, value)
    parsed, offset = frames.parse_value(memoryview(bytes(buf)))
    assert offset == len(buf)
    return parsed


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            (1 << 63) - 1,
            -(1 << 63),
            1.5,
            float("inf"),
            "",
            "wheel w1:abc",
            "snowman ☃",
            b"",
            b"\x00\xff",
            [],
            [1, "two", None, [3.0]],
            {},
            {"a": 1, "b": [True, {"c": None}]},
        ],
    )
    def test_scalar_and_container_round_trip(self, value):
        assert _round_trip_value(value) == value

    def test_ndarray_round_trip_zero_copy(self):
        arr = np.arange(-4, 4, dtype=np.int64)
        out = _round_trip_value(arr)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, arr)
        # Parsed arrays are views over the wire buffer, not copies.
        assert not out.flags.writeable

    def test_ndarray_dtypes(self):
        for dtype in (np.float64, np.int64, np.uint64):
            arr = np.array([1, 2, 3], dtype=dtype)
            out = _round_trip_value(arr)
            assert out.dtype == np.dtype(dtype).newbyteorder("<")
            np.testing.assert_array_equal(out, arr)

    def test_rejects_unwirable(self):
        buf = bytearray()
        with pytest.raises(ProtocolError):
            frames.encode_value(buf, object())
        with pytest.raises(ProtocolError):
            frames.encode_value(buf, 1 << 64)
        with pytest.raises(ProtocolError):
            frames.encode_value(buf, np.zeros((2, 2)))
        with pytest.raises(ProtocolError):
            frames.encode_value(buf, {1: "non-str key"})

    def test_canonical_reencode_identity(self):
        value = {"draws": np.arange(16, dtype=np.int64), "n": 16, "tag": "x"}
        buf1 = bytearray()
        frames.encode_value(buf1, value)
        parsed, _ = frames.parse_value(memoryview(bytes(buf1)))
        buf2 = bytearray()
        frames.encode_value(buf2, parsed)
        assert bytes(buf1) == bytes(buf2)

    def test_truncation_detected(self):
        buf = bytearray()
        frames.encode_value(buf, {"k": [1, 2, 3]})
        for cut in range(1, len(buf)):
            with pytest.raises(ProtocolError):
                frames.parse_value(memoryview(bytes(buf[:cut])))


class TestHeader:
    def test_header_layout(self):
        frame = frames.encode_frame(frames.FT_PING, b"", 7)
        assert len(frame) == frames.HEADER_SIZE
        assert frame[0] == frames.MAGIC
        ftype, body_len, request_id = frames.parse_header(frame)
        assert (ftype, body_len, request_id) == (frames.FT_PING, 0, 7)

    def test_optional_request_id(self):
        frame = frames.encode_frame(frames.FT_PING, b"")
        _, _, request_id = frames.parse_header(frame)
        assert request_id is None

    def test_rejects_bad_magic_version_type(self):
        good = frames.encode_frame(frames.FT_PING, b"", 1)
        bad_magic = bytes([0x7B]) + good[1:]
        with pytest.raises(ProtocolError, match="magic"):
            frames.parse_header(bad_magic)
        bad_version = good[:1] + bytes([99]) + good[2:]
        with pytest.raises(ProtocolError, match="version"):
            frames.parse_header(bad_version)
        bad_type = good[:2] + bytes([0x7F]) + good[3:]
        with pytest.raises(ProtocolError, match="frame type"):
            frames.parse_header(bad_type)
        with pytest.raises(ProtocolError, match="16 bytes"):
            frames.parse_header(good[:10])

    def test_rejects_bad_request_id(self):
        with pytest.raises(ProtocolError):
            frames.encode_frame(frames.FT_PING, b"", -1)
        with pytest.raises(ProtocolError):
            frames.encode_frame(frames.FT_PING, b"", "seven")


class TestRequestFrames:
    @pytest.mark.parametrize(
        "req",
        [
            {"op": "ping"},
            {"op": "metrics", "id": 3},
            {"op": "stats"},
            {"op": "draw", "wheel": "w1:ab12", "n": 16},
            {"op": "draw", "wheel": "w1:ab12", "n": 1, "seed": -5, "id": 9},
            {"op": "draw", "wheel": "w1:ab12", "n": 2, "deadline_us": 1500.0},
        ],
    )
    def test_request_round_trip(self, req):
        frame = frames.request_to_frame(req)
        ftype, body_len, request_id = frames.parse_header(
            frame[: frames.HEADER_SIZE]
        )
        decoded = frames.frame_to_request(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )
        assert decoded == req

    def test_register_round_trip(self):
        fitness = np.array([1.0, 2.5, 3.0])
        frame = frames.request_to_frame(
            {"op": "register", "fitness": fitness, "method": "gumbel", "id": 1}
        )
        ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
        decoded = frames.frame_to_request(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )
        assert decoded["op"] == "register" and decoded["method"] == "gumbel"
        np.testing.assert_array_equal(decoded["fitness"], fitness)

    def test_draw_body_rejects_malformed(self):
        good = frames.request_to_frame({"op": "draw", "wheel": "w1:ab", "n": 4})
        body = good[frames.HEADER_SIZE :]
        with pytest.raises(ProtocolError):
            frames.frame_to_request(frames.FT_DRAW, body[:-1], None)
        with pytest.raises(ProtocolError):
            frames.frame_to_request(frames.FT_DRAW, body + b"\x00", None)
        # A wheel id, or any wire string, that is not UTF-8.
        with pytest.raises(ProtocolError):
            frames.frame_to_request(frames.FT_DRAW, b"\x00\x05w1:a\xff" + body[7:], None)
        with pytest.raises(ProtocolError):
            frames.parse_value(memoryview(b"\x05\x00\x00\x00\x01\xff"))
        with pytest.raises(ProtocolError):
            frames.request_to_frame({"op": "draw", "wheel": "w1:ab", "n": 0})
        with pytest.raises(ProtocolError):
            frames.request_to_frame({"op": "draw", "wheel": 7, "n": 1})

    def test_empty_op_frames_reject_bodies(self):
        with pytest.raises(ProtocolError, match="no body"):
            frames.frame_to_request(frames.FT_PING, b"x", None)

    def test_response_types_are_not_requests(self):
        with pytest.raises(ProtocolError, match="not a request"):
            frames.frame_to_request(frames.FT_DRAWS, b"", None)


class TestResponseFrames:
    def test_draw_response_is_zero_copy_draws_frame(self):
        draws = np.arange(1024, dtype=np.int64)
        frame = frames.response_to_frame(ok_response(5, draws=draws))
        ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
        assert ftype == frames.FT_DRAWS and request_id == 5
        decoded = frames.frame_to_response(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )
        assert decoded["status"] == "ok" and decoded["id"] == 5
        np.testing.assert_array_equal(decoded["draws"], draws)

    def test_generic_ok_and_error_round_trip(self):
        ok = ok_response(2, wheel="w1:ab", cached=True)
        frame = frames.response_to_frame(ok)
        decoded = frames.frame_to_response(
            *frames.parse_header(frame[: frames.HEADER_SIZE])[:1],
            frame[frames.HEADER_SIZE :],
            2,
        )
        assert decoded == ok
        err = error_response(ProtocolError("boom"), 3)
        frame = frames.response_to_frame(err)
        ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
        decoded = frames.frame_to_response(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )
        assert decoded["status"] == "error"
        assert decoded["error"] == "ProtocolError"
        assert decoded["id"] == 3

    def test_draws_body_length_checked(self):
        frame = frames.response_to_frame(ok_response(None, draws=np.arange(4)))
        body = frame[frames.HEADER_SIZE :]
        with pytest.raises(ProtocolError):
            frames.frame_to_response(frames.FT_DRAWS, body[:-8], None)

    def test_hello_frame(self):
        frame = frames.hello_frame(PROTOCOL_VERSION, 1)
        ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
        assert ftype == frames.FT_HELLO
        decoded = frames.frame_to_response(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )
        assert decoded["protocol"] == PROTOCOL_VERSION
        assert decoded["frames"] == frames.FRAMES_VERSION
        assert "draws-ndarray" in decoded["features"]


class TestReadFrame:
    def _read(self, payload: bytes, first_byte: bytes = b""):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await frames.read_frame(
                reader, max_body_bytes=1 << 20, first_byte=first_byte
            )

        return asyncio.run(go())

    def test_reads_whole_frame(self):
        frame = frames.request_to_frame({"op": "draw", "wheel": "w1:ab", "n": 4})
        ftype, body, request_id = self._read(frame)
        assert ftype == frames.FT_DRAW and request_id is None
        assert frames.frame_to_request(ftype, body, None)["n"] == 4

    def test_first_byte_handoff(self):
        frame = frames.request_to_frame({"op": "ping"})
        assert self._read(frame[1:], first_byte=frame[:1])[0] == frames.FT_PING

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_mid_header_and_mid_body_raise(self):
        frame = frames.request_to_frame({"op": "draw", "wheel": "w1:ab", "n": 4})
        with pytest.raises(ProtocolError, match="mid-header"):
            self._read(frame[:7])
        with pytest.raises(ProtocolError, match="mid-body"):
            self._read(frame[:-3])

    def test_body_size_limit(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                struct.Struct("!BBBBIQ").pack(
                    frames.MAGIC, frames.FRAMES_VERSION, frames.FT_OK, 0, 1 << 30, 0
                )
            )
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="exceeds limit"):
                await frames.read_frame(reader, max_body_bytes=1 << 20)

        asyncio.run(go())


class TestFrameFuzz:
    def test_parse_reencode_identity_fuzz(self):
        """Canonical encoding: parse -> re-encode is the identity.

        Deterministically-seeded random kvmap payloads (the CI protocol
        round-trip fuzz leg); any non-canonical encoding or parser drift
        breaks the byte-equality and fails loudly.
        """
        rng = np.random.default_rng(0xF4A3)

        def random_value(depth: int):
            kinds = ["int", "float", "str", "bytes", "bool", "none", "ndarray"]
            if depth < 3:
                kinds += ["list", "dict", "list", "dict"]
            kind = kinds[rng.integers(len(kinds))]
            if kind == "int":
                return int(rng.integers(-(1 << 62), 1 << 62))
            if kind == "float":
                return float(rng.standard_normal())
            if kind == "str":
                return "".join(
                    chr(int(c)) for c in rng.integers(32, 0x2600, rng.integers(0, 12))
                )
            if kind == "bytes":
                return bytes(rng.integers(0, 256, rng.integers(0, 16), dtype=np.uint8))
            if kind == "bool":
                return bool(rng.integers(2))
            if kind == "none":
                return None
            if kind == "ndarray":
                dtype = ["<f8", "<i8", "<u8"][rng.integers(3)]
                return rng.integers(0, 1 << 30, rng.integers(0, 32)).astype(dtype)
            if kind == "list":
                return [random_value(depth + 1) for _ in range(rng.integers(0, 5))]
            return {
                f"k{i}": random_value(depth + 1) for i in range(rng.integers(0, 5))
            }

        for trial in range(200):
            payload = {f"k{i}": random_value(0) for i in range(int(rng.integers(1, 6)))}
            buf1 = bytearray()
            frames.encode_value(buf1, payload)
            parsed, offset = frames.parse_value(memoryview(bytes(buf1)))
            assert offset == len(buf1)
            buf2 = bytearray()
            frames.encode_value(buf2, parsed)
            assert bytes(buf1) == bytes(buf2), f"trial {trial} not canonical"

    def test_random_garbage_never_crashes_parser(self):
        """Arbitrary bytes must raise ProtocolError, never anything else."""
        rng = np.random.default_rng(0xBEEF)
        survived = 0
        for _ in range(300):
            blob = bytes(
                rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8)
            )
            try:
                value, offset = frames.parse_value(memoryview(blob))
                if offset == len(blob):
                    survived += 1
            except ProtocolError:
                pass
        # A few short blobs legitimately decode (e.g. single-tag values);
        # the point is that nothing else ever escapes.
        assert survived >= 0
