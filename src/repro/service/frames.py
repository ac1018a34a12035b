"""Length-prefixed binary frame protocol for the selection service.

The JSON-lines protocol (:mod:`repro.service.protocol`) stays the
lingua franca for scripting and stdio embedding, but on the hot path its
encode cost dominates once draw payloads grow: serializing a 1024-draw
response is a Python-level loop over every integer.  This module defines
the binary framing that replaces it on TCP connections that opt in —
draw results travel as raw little-endian ``int64`` ndarray bytes
(zero-copy on both ends via ``np.frombuffer``), and requests parse with
one ``struct.unpack``.

Wire layout (all integers big-endian)::

    frame   := header body
    header  := magic:u8 version:u8 ftype:u8 flags:u8 body_len:u32 request_id:u64
    body    := ftype-specific, body_len bytes

``magic`` is ``0xA5`` — deliberately distinct from ``{`` (0x7B), so a
server can sniff the first byte of a connection and fall back to
JSON-lines for old clients with no negotiation round-trip.  ``flags``
bit 0 records whether ``request_id`` is meaningful (ids are optional in
the JSON protocol and stay optional here).  ``body_len`` bounds
allocation before any body byte is read.

Frame types::

    0x01 HELLO     kvmap   version/feature negotiation (both directions)
    0x02 PING      empty
    0x03 METRICS   empty
    0x04 STATS     empty
    0x10 REGISTER  kvmap   {"fitness": f8-ndarray, "method": str, "policy": ...}
    0x11 DRAW      fixed   wheel_len:u16 wheel:bytes n:u32 opts:u8 seed:i64 deadline:f64
    0x12 UPDATE    fixed   wheel_len:u16 wheel:bytes k:u32 indices:i64[k] values:f64[k]
    0x80 OK        kvmap   generic success payload
    0x81 DRAWS     raw     dtype:u8 count:u32 raw ndarray bytes
    0x82 ERROR     kvmap   {"status": ..., "error": ..., "message": ...}

The *kvmap* bodies use a tiny canonical typed-value encoding (see
:func:`encode_value`) — a deliberate msgpack subset implemented locally
so the wire format has zero dependencies.  Canonical means re-encoding a
parsed frame reproduces the identical bytes, the property the protocol
fuzz test asserts (``tests/service/test_frames.py``).

The full header/negotiation/error specification lives in
``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "MAGIC",
    "FRAMES_VERSION",
    "HEADER_SIZE",
    "FRAME_FEATURES",
    "FT_HELLO",
    "FT_PING",
    "FT_METRICS",
    "FT_STATS",
    "FT_REGISTER",
    "FT_DRAW",
    "FT_UPDATE",
    "FT_OK",
    "FT_DRAWS",
    "FT_ERROR",
    "required_feature",
    "encode_value",
    "parse_value",
    "encode_frame",
    "parse_header",
    "request_to_frame",
    "frame_to_request",
    "response_to_frame",
    "frame_to_response",
    "hello_frame",
    "read_frame",
]

#: First byte of every binary frame; never the first byte of JSON-lines.
MAGIC = 0xA5

#: Bumped on any incompatible header or body-layout change.
FRAMES_VERSION = 1

#: Feature tokens advertised in HELLO negotiation.  ``update`` gates the
#: UPDATE frame: a client that pinned its features with a HELLO lacking
#: the token is answered with an ERROR if it sends one anyway.
FRAME_FEATURES = ("draws-ndarray", "stats", "draining", "update")

_HEADER = struct.Struct("!BBBBIQ")
HEADER_SIZE = _HEADER.size  # 16 bytes

_FLAG_HAS_ID = 0x01

FT_HELLO = 0x01
FT_PING = 0x02
FT_METRICS = 0x03
FT_STATS = 0x04
FT_REGISTER = 0x10
FT_DRAW = 0x11
FT_UPDATE = 0x12
FT_OK = 0x80
FT_DRAWS = 0x81
FT_ERROR = 0x82

_FTYPE_NAMES = {
    FT_HELLO: "HELLO",
    FT_PING: "PING",
    FT_METRICS: "METRICS",
    FT_STATS: "STATS",
    FT_REGISTER: "REGISTER",
    FT_DRAW: "DRAW",
    FT_UPDATE: "UPDATE",
    FT_OK: "OK",
    FT_DRAWS: "DRAWS",
    FT_ERROR: "ERROR",
}

#: Frame types gated behind a HELLO feature token (negotiation contract:
#: a client that pinned an explicit feature list must not send these).
_FEATURE_GATED = {FT_UPDATE: "update"}


def required_feature(ftype: int) -> Optional[str]:
    """The HELLO feature token ``ftype`` requires, or ``None``."""
    return _FEATURE_GATED.get(ftype)

# ----------------------------------------------------------------------
# Typed-value (kvmap) codec
# ----------------------------------------------------------------------

_T_NULL = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_DICT = 8
_T_NDARRAY = 9

_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")

#: ndarray dtype codes; arrays always travel contiguous little-endian.
_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "<u8"}
_DTYPE_TO_CODE = {np.dtype(v): k for k, v in _DTYPE_CODES.items()}

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def encode_value(buf: bytearray, value: Any) -> None:
    """Append one value to ``buf`` in the canonical typed encoding.

    Canonical: a given Python value has exactly one byte encoding (dict
    order is preserved, arrays are canonicalized to little-endian
    contiguous), so parse-then-re-encode is the identity on frames.
    """
    if value is None:
        buf.append(_T_NULL)
    elif value is False:
        buf.append(_T_FALSE)
    elif value is True:
        buf.append(_T_TRUE)
    elif isinstance(value, int) and not isinstance(value, bool):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ProtocolError(f"integer {value} exceeds the wire's i64 range")
        buf.append(_T_INT)
        buf += _I64.pack(value)
    elif isinstance(value, float):
        buf.append(_T_FLOAT)
        buf += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        buf.append(_T_BYTES)
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        if arr.ndim != 1:
            raise ProtocolError(
                f"only 1-d ndarrays travel on the wire, got shape {arr.shape}"
            )
        code = _DTYPE_TO_CODE.get(np.dtype(arr.dtype.newbyteorder("<")))
        if code is None:
            raise ProtocolError(f"unsupported wire ndarray dtype {arr.dtype}")
        arr = arr.astype(_DTYPE_CODES[code], copy=False)
        buf.append(_T_NDARRAY)
        buf.append(code)
        buf += _U32.pack(arr.size)
        buf += arr.tobytes()
    elif isinstance(value, (list, tuple)):
        buf.append(_T_LIST)
        buf += _U32.pack(len(value))
        for item in value:
            encode_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        buf += _U32.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"wire dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            buf += _U16.pack(len(raw))
            buf += raw
            encode_value(buf, item)
    elif isinstance(value, (np.integer,)):
        encode_value(buf, int(value))
    elif isinstance(value, (np.floating,)):
        encode_value(buf, float(value))
    else:
        raise ProtocolError(f"value of type {type(value).__name__} is not wireable")


def _utf8(raw) -> str:
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"wire string is not UTF-8: {exc}") from None


def _need(mv: memoryview, offset: int, count: int) -> None:
    if offset + count > len(mv):
        raise ProtocolError(
            f"truncated frame body: need {count} bytes at offset {offset}, "
            f"have {len(mv) - offset}"
        )


def parse_value(mv: memoryview, offset: int = 0) -> Tuple[Any, int]:
    """Parse one typed value; returns ``(value, next_offset)``.

    ndarray payloads are returned as read-only zero-copy views over
    ``mv`` — callers that outlive the buffer must copy.
    """
    _need(mv, offset, 1)
    tag = mv[offset]
    offset += 1
    if tag == _T_NULL:
        return None, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_INT:
        _need(mv, offset, 8)
        return _I64.unpack_from(mv, offset)[0], offset + 8
    if tag == _T_FLOAT:
        _need(mv, offset, 8)
        return _F64.unpack_from(mv, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES):
        _need(mv, offset, 4)
        length = _U32.unpack_from(mv, offset)[0]
        offset += 4
        _need(mv, offset, length)
        raw = bytes(mv[offset : offset + length])
        offset += length
        return (_utf8(raw) if tag == _T_STR else raw), offset
    if tag == _T_NDARRAY:
        _need(mv, offset, 5)
        code = mv[offset]
        if code not in _DTYPE_CODES:
            raise ProtocolError(f"unknown wire ndarray dtype code {code}")
        count = _U32.unpack_from(mv, offset + 1)[0]
        offset += 5
        nbytes = count * 8
        _need(mv, offset, nbytes)
        arr = np.frombuffer(mv[offset : offset + nbytes], dtype=_DTYPE_CODES[code])
        return arr, offset + nbytes
    if tag == _T_LIST:
        _need(mv, offset, 4)
        count = _U32.unpack_from(mv, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = parse_value(mv, offset)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        _need(mv, offset, 4)
        count = _U32.unpack_from(mv, offset)[0]
        offset += 4
        out: Dict[str, Any] = {}
        for _ in range(count):
            _need(mv, offset, 2)
            klen = _U16.unpack_from(mv, offset)[0]
            offset += 2
            _need(mv, offset, klen)
            key = _utf8(mv[offset : offset + klen])
            offset += klen
            out[key], offset = parse_value(mv, offset)
        return out, offset
    raise ProtocolError(f"unknown wire value tag {tag}")


def _kvmap_bytes(payload: Dict[str, Any]) -> bytes:
    buf = bytearray()
    encode_value(buf, payload)
    return bytes(buf)


def _parse_kvmap(body: bytes) -> Dict[str, Any]:
    value, offset = parse_value(memoryview(body))
    if offset != len(body):
        raise ProtocolError(
            f"{len(body) - offset} trailing bytes after frame payload"
        )
    if not isinstance(value, dict):
        raise ProtocolError(
            f"frame payload must be a map, got {type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# Frame assembly / header parsing
# ----------------------------------------------------------------------


def encode_frame(
    ftype: int, body: bytes = b"", request_id: Optional[int] = None
) -> bytes:
    """Assemble one complete frame (header + body)."""
    flags = 0
    rid = 0
    if request_id is not None:
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise ProtocolError(
                f"frame request id must be an integer, got {request_id!r}"
            )
        if not 0 <= request_id < (1 << 64):
            raise ProtocolError(f"frame request id {request_id} out of u64 range")
        flags |= _FLAG_HAS_ID
        rid = request_id
    return _HEADER.pack(MAGIC, FRAMES_VERSION, ftype, flags, len(body), rid) + body


def parse_header(header: bytes) -> Tuple[int, int, Optional[int]]:
    """Validate a 16-byte header; returns ``(ftype, body_len, request_id)``."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(
            f"frame header must be {HEADER_SIZE} bytes, got {len(header)}"
        )
    magic, version, ftype, flags, body_len, rid = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:02x} (expected 0x{MAGIC:02x})")
    if version != FRAMES_VERSION:
        raise ProtocolError(
            f"unsupported frame version {version} (this end speaks "
            f"{FRAMES_VERSION}); renegotiate with HELLO"
        )
    if ftype not in _FTYPE_NAMES:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    request_id = rid if flags & _FLAG_HAS_ID else None
    return ftype, body_len, request_id


# DRAW body: wheel_len:u16 wheel:bytes then n:u32 opts:u8 seed:i64 deadline:f64.
_DRAW_TAIL = struct.Struct("!IBqd")
_OPT_HAS_SEED = 0x01
_OPT_HAS_DEADLINE = 0x02


def _encode_draw_body(request: Dict[str, Any]) -> bytes:
    wheel = request["wheel"]
    if not isinstance(wheel, str):
        raise ProtocolError(f"draw 'wheel' must be a string, got {wheel!r}")
    raw = wheel.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"wheel id of {len(raw)} bytes exceeds the wire limit")
    n = request.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0 or n >= (1 << 32):
        raise ProtocolError(f"draw 'n' must be a positive u32, got {n!r}")
    opts = 0
    seed = request.get("seed")
    if seed is not None:
        if (
            not isinstance(seed, int)
            or isinstance(seed, bool)
            or not _INT64_MIN <= seed <= _INT64_MAX
        ):
            raise ProtocolError(f"draw 'seed' must be an i64, got {seed!r}")
        opts |= _OPT_HAS_SEED
    deadline_us = request.get("deadline_us")
    if deadline_us is not None:
        if not isinstance(deadline_us, (int, float)) or isinstance(deadline_us, bool):
            raise ProtocolError(
                f"draw 'deadline_us' must be a number, got {deadline_us!r}"
            )
        opts |= _OPT_HAS_DEADLINE
    return (
        _U16.pack(len(raw))
        + raw
        + _DRAW_TAIL.pack(
            n, opts, seed if seed is not None else 0,
            float(deadline_us) if deadline_us is not None else 0.0,
        )
    )


def _parse_draw_body(body: bytes) -> Dict[str, Any]:
    mv = memoryview(body)
    _need(mv, 0, 2)
    wlen = _U16.unpack_from(mv, 0)[0]
    _need(mv, 2, wlen + _DRAW_TAIL.size)
    if 2 + wlen + _DRAW_TAIL.size != len(body):
        raise ProtocolError(
            f"{len(body) - 2 - wlen - _DRAW_TAIL.size} trailing bytes in DRAW body"
        )
    wheel = _utf8(mv[2 : 2 + wlen])
    n, opts, seed, deadline = _DRAW_TAIL.unpack_from(mv, 2 + wlen)
    if n <= 0:
        raise ProtocolError(f"draw 'n' must be positive, got {n}")
    request: Dict[str, Any] = {"op": "draw", "wheel": wheel, "n": n}
    if opts & _OPT_HAS_SEED:
        request["seed"] = seed
    if opts & _OPT_HAS_DEADLINE:
        request["deadline_us"] = deadline
    return request


# UPDATE body: wheel_len:u16 wheel:bytes k:u32 indices:i64[k] values:f64[k].
# Fixed layout like DRAW — the mutation hot path never touches the kvmap
# codec; both arrays are raw little-endian and cross the boundary through
# np.frombuffer / tobytes with no Python-level loop.


def _encode_update_body(request: Dict[str, Any]) -> bytes:
    wheel = request["wheel"]
    if not isinstance(wheel, str):
        raise ProtocolError(f"update 'wheel' must be a string, got {wheel!r}")
    raw = wheel.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"wheel id of {len(raw)} bytes exceeds the wire limit")
    try:
        indices = np.ascontiguousarray(np.asarray(request["indices"], dtype="<i8"))
        values = np.ascontiguousarray(np.asarray(request["values"], dtype="<f8"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"update delta is not numeric: {exc}") from None
    if indices.ndim != 1 or values.ndim != 1:
        raise ProtocolError("update 'indices' and 'values' must be 1-d")
    if indices.size != values.size:
        raise ProtocolError(
            f"update 'indices' and 'values' must match, "
            f"got {indices.size} vs {values.size}"
        )
    if indices.size == 0:
        raise ProtocolError("update requires a non-empty delta")
    if indices.size >= (1 << 32):
        raise ProtocolError(f"update delta of {indices.size} entries exceeds u32")
    return (
        _U16.pack(len(raw))
        + raw
        + _U32.pack(indices.size)
        + indices.tobytes()
        + values.tobytes()
    )


def _parse_update_body(body: bytes) -> Dict[str, Any]:
    mv = memoryview(body)
    _need(mv, 0, 2)
    wlen = _U16.unpack_from(mv, 0)[0]
    _need(mv, 2, wlen + 4)
    wheel = _utf8(mv[2 : 2 + wlen])
    count = _U32.unpack_from(mv, 2 + wlen)[0]
    if count == 0:
        raise ProtocolError("UPDATE delta is empty")
    offset = 2 + wlen + 4
    nbytes = count * 8
    if offset + 2 * nbytes != len(body):
        raise ProtocolError(
            f"UPDATE body length {len(body)} inconsistent with count {count}"
        )
    indices = np.frombuffer(mv[offset : offset + nbytes], dtype="<i8")
    values = np.frombuffer(mv[offset + nbytes : offset + 2 * nbytes], dtype="<f8")
    return {"op": "update", "wheel": wheel, "indices": indices, "values": values}


# DRAWS body: dtype:u8 count:u32 raw bytes.
def _encode_draws_body(draws: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(draws, dtype="<i8")
    return bytes((1,)) + _U32.pack(arr.size) + arr.tobytes()


def _parse_draws_body(body: bytes) -> np.ndarray:
    mv = memoryview(body)
    _need(mv, 0, 5)
    code = mv[0]
    if code not in _DTYPE_CODES:
        raise ProtocolError(f"unknown DRAWS dtype code {code}")
    count = _U32.unpack_from(mv, 1)[0]
    if 5 + count * 8 != len(body):
        raise ProtocolError(
            f"DRAWS body length {len(body)} inconsistent with count {count}"
        )
    return np.frombuffer(mv[5 : 5 + count * 8], dtype=_DTYPE_CODES[code])


# ----------------------------------------------------------------------
# Request/response dict <-> frame mapping
# ----------------------------------------------------------------------

_OP_TO_EMPTY_FTYPE = {"ping": FT_PING, "metrics": FT_METRICS, "stats": FT_STATS}
_FTYPE_TO_OP = {v: k for k, v in _OP_TO_EMPTY_FTYPE.items()}


def request_to_frame(request: Dict[str, Any]) -> bytes:
    """Encode a protocol request dict (client side)."""
    op = request.get("op")
    request_id = request.get("id")
    if op in _OP_TO_EMPTY_FTYPE:
        return encode_frame(_OP_TO_EMPTY_FTYPE[op], b"", request_id)
    if op == "draw":
        return encode_frame(FT_DRAW, _encode_draw_body(request), request_id)
    if op == "update":
        return encode_frame(FT_UPDATE, _encode_update_body(request), request_id)
    if op == "register":
        fitness = np.ascontiguousarray(
            np.asarray(request["fitness"], dtype=np.float64)
        )
        payload: Dict[str, Any] = {"fitness": fitness}
        if request.get("method") is not None:
            payload["method"] = str(request["method"])
        if request.get("policy") is not None:
            payload["policy"] = str(request["policy"])
        if request.get("backend") is not None:
            payload["backend"] = str(request["backend"])
        return encode_frame(FT_REGISTER, _kvmap_bytes(payload), request_id)
    raise ProtocolError(f"op {op!r} has no frame encoding")


def frame_to_request(
    ftype: int, body: bytes, request_id: Optional[int]
) -> Dict[str, Any]:
    """Decode a request frame into the dict the service handler expects."""
    if ftype in _FTYPE_TO_OP:
        if body:
            raise ProtocolError(
                f"{_FTYPE_NAMES[ftype]} frames carry no body, got {len(body)} bytes"
            )
        request: Dict[str, Any] = {"op": _FTYPE_TO_OP[ftype]}
    elif ftype == FT_DRAW:
        request = _parse_draw_body(body)
    elif ftype == FT_UPDATE:
        request = _parse_update_body(body)
    elif ftype == FT_REGISTER:
        payload = _parse_kvmap(body)
        fitness = payload.get("fitness")
        if not isinstance(fitness, np.ndarray) or fitness.size == 0:
            raise ProtocolError("REGISTER requires a non-empty 'fitness' array")
        request = {"op": "register", "fitness": np.asarray(fitness, dtype=np.float64)}
        if "method" in payload:
            request["method"] = payload["method"]
        if "policy" in payload:
            request["policy"] = payload["policy"]
        if "backend" in payload:
            request["backend"] = payload["backend"]
    else:
        raise ProtocolError(
            f"frame type {_FTYPE_NAMES.get(ftype, hex(ftype))} is not a request"
        )
    if request_id is not None:
        request["id"] = request_id
    return request


def response_to_frame(response: Dict[str, Any]) -> bytes:
    """Encode a protocol response dict (server side).

    Successful draw responses become zero-copy DRAWS frames; every other
    success is a generic OK kvmap; failures become ERROR frames carrying
    the same ``status``/``error``/``message`` triple as the JSON wire.
    """
    request_id = response.get("id")
    status = response.get("status")
    if status == "ok":
        draws = response.get("draws")
        if draws is not None and len(response) - ("id" in response) == 2:
            return encode_frame(
                FT_DRAWS, _encode_draws_body(np.asarray(draws)), request_id
            )
        payload = {k: v for k, v in response.items() if k not in ("status", "id")}
        return encode_frame(FT_OK, _kvmap_bytes(payload), request_id)
    payload = {
        "status": str(status),
        "error": str(response.get("error", "")),
        "message": str(response.get("message", "")),
    }
    return encode_frame(FT_ERROR, _kvmap_bytes(payload), request_id)


def frame_to_response(
    ftype: int, body: bytes, request_id: Optional[int]
) -> Dict[str, Any]:
    """Decode a response frame back into the protocol response dict."""
    if ftype == FT_DRAWS:
        response: Dict[str, Any] = {"status": "ok", "draws": _parse_draws_body(body)}
    elif ftype == FT_OK:
        response = {"status": "ok", **_parse_kvmap(body)}
    elif ftype == FT_ERROR:
        payload = _parse_kvmap(body)
        response = {
            "status": payload.get("status", "error"),
            "error": payload.get("error", ""),
            "message": payload.get("message", ""),
        }
    elif ftype == FT_HELLO:
        response = {"status": "ok", **_parse_kvmap(body)}
    else:
        raise ProtocolError(
            f"frame type {_FTYPE_NAMES.get(ftype, hex(ftype))} is not a response"
        )
    if request_id is not None:
        response["id"] = request_id
    return response


def hello_frame(
    protocol_version: str,
    request_id: Optional[int] = None,
    features: Optional[Sequence[str]] = None,
) -> bytes:
    """The negotiation frame either end opens with.

    Carries the JSON-protocol version string, the frame-format version,
    and the feature tokens this end understands; the peer intersects
    features and may downgrade.  A client HELLO with an explicit
    ``features`` list *pins* the connection: the server answers
    feature-gated frame types outside the list with ERROR frames (see
    :func:`required_feature`).  The default advertises everything this
    build speaks.
    """
    return encode_frame(
        FT_HELLO,
        _kvmap_bytes(
            {
                "protocol": protocol_version,
                "frames": FRAMES_VERSION,
                "features": list(
                    FRAME_FEATURES if features is None else features
                ),
            }
        ),
        request_id,
    )


async def read_frame(reader, *, max_body_bytes: int, first_byte: bytes = b""):
    """Read one complete frame from an ``asyncio.StreamReader``.

    Returns ``(ftype, body, request_id)`` or ``None`` on clean EOF at a
    frame boundary.  ``first_byte`` lets the caller hand over the sniffed
    magic byte from protocol detection.
    """
    import asyncio

    try:
        header = first_byte + await reader.readexactly(HEADER_SIZE - len(first_byte))
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not first_byte:
            return None
        raise ProtocolError("connection closed mid-header") from None
    ftype, body_len, request_id = parse_header(header)
    if body_len > max_body_bytes:
        raise ProtocolError(
            f"frame body of {body_len} bytes exceeds limit {max_body_bytes}"
        )
    try:
        body = await reader.readexactly(body_len) if body_len else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-body") from None
    return ftype, body, request_id
