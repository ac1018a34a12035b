"""JSON-lines wire protocol for the selection service.

One request per line, one response per line, UTF-8, no framing beyond
``\\n`` — trivially scriptable (``echo '{"op": "ping"}' | python -m
repro serve --stdio``) and language-neutral.

Requests::

    {"op": "register", "fitness": [..], "method": "log_bidding",
     "policy": "auto", "backend": "compiled", "id": 7}
    {"op": "draw", "wheel": "w1:<hex>", "n": 16, "seed": 123,
     "deadline_us": 5000, "id": 8}
    {"op": "update", "wheel": "w1:<hex>", "indices": [3, 17],
     "values": [0.5, 2.0], "id": 12}
    {"op": "metrics", "id": 9}
    {"op": "stats", "id": 10}
    {"op": "ping", "id": 11}

Responses always echo ``id`` (when given) and carry a ``status``:

* ``{"status": "ok", ...}`` — op-specific payload (``wheel``/``cached``
  for register, ``draws`` for draw, ``wheel``/``version``/``parent``/
  ``cached`` for update — the new *versioned* id to draw against —
  the snapshot for metrics, the per-shard breakdown for stats);
* ``{"status": "overloaded", "error": ..., "message": ...}`` — the
  request was shed by admission control or expired in queue; safe to
  retry after backoff;
* ``{"status": "draining", "error": "ServiceDrainingError",
   "message": ...}`` — the service is shutting down gracefully;
  requests accepted earlier on this connection still complete, new ones
  should be retried against another replica;
* ``{"status": "error", "error": "DegenerateFitnessError",
   "message": ...}`` — structured failure; ``error`` is the repro
  exception class name so clients can re-raise the contract exception
  (see :func:`raise_structured`).

The same request/response dicts also travel as length-prefixed binary
frames on the hot path (:mod:`repro.service.frames`); this JSON-lines
form remains the negotiated fallback for old clients and stdio mode.

The service **never** answers a malformed line with silence or a closed
socket: undecodable input yields a ``ProtocolError`` response so a
confused client fails fast instead of hanging.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DegenerateFitnessError,
    FitnessError,
    ProtocolError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
    UnknownMethodError,
    UnknownWheelError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "decode_request",
    "encode_response",
    "error_response",
    "ok_response",
    "raise_structured",
    "STRUCTURED_ERRORS",
]

#: Bumped on any wire-visible change; reported by the ``ping`` op.
#: v2 adds the ``stats`` op, the ``draining`` status, and binary-frame
#: negotiation (requests and responses are unchanged otherwise, so v1
#: clients interoperate).
PROTOCOL_VERSION = "repro/serve/v2"

#: Exception classes a response's ``error`` field may name, i.e. the
#: errors clients can round-trip back into typed exceptions.
STRUCTURED_ERRORS = {
    exc.__name__: exc
    for exc in (
        DeadlineExceededError,
        DegenerateFitnessError,
        FitnessError,
        ProtocolError,
        ReproError,
        ServiceDrainingError,
        ServiceError,
        ServiceOverloadedError,
        UnknownMethodError,
        UnknownWheelError,
        ValueError,
    )
}

_VALID_OPS = ("register", "draw", "update", "metrics", "stats", "ping")


def decode_request(line: str) -> Dict[str, Any]:
    """Parse one request line into a validated dict.

    Raises
    ------
    ProtocolError
        Not JSON, not an object, missing/unknown ``op``, or op-specific
        required fields absent or of the wrong shape.  The message is
        specific enough to debug from the client side alone.
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if op not in _VALID_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(_VALID_OPS)}"
        )
    if op == "register":
        fitness = request.get("fitness")
        if not isinstance(fitness, list) or not fitness:
            raise ProtocolError("register requires a non-empty 'fitness' array")
        backend = request.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ProtocolError(
                f"register 'backend' must be a string, got {backend!r}"
            )
    elif op == "update":
        if not isinstance(request.get("wheel"), str):
            raise ProtocolError("update requires a string 'wheel' id")
        indices = request.get("indices")
        values = request.get("values")
        if not isinstance(indices, list) or not indices:
            raise ProtocolError("update requires a non-empty 'indices' array")
        if not isinstance(values, list) or not values:
            raise ProtocolError("update requires a non-empty 'values' array")
        if len(indices) != len(values):
            raise ProtocolError(
                f"update 'indices' and 'values' must match, "
                f"got {len(indices)} vs {len(values)}"
            )
        if not all(_is_int(i) for i in indices):
            raise ProtocolError(f"update 'indices' must be integers, got {indices!r}")
        if not all(_is_number(v) for v in values):
            raise ProtocolError(f"update 'values' must be numbers, got {values!r}")
    elif op == "draw":
        if not isinstance(request.get("wheel"), str):
            raise ProtocolError("draw requires a string 'wheel' id")
        n = request.get("n", 1)
        if not _is_int(n) or n <= 0:
            raise ProtocolError(f"draw 'n' must be a positive integer, got {n!r}")
        seed = request.get("seed")
        if seed is not None and not _is_int(seed):
            raise ProtocolError(f"draw 'seed' must be an integer, got {seed!r}")
        deadline_us = request.get("deadline_us")
        if deadline_us is not None and not _is_number(deadline_us):
            raise ProtocolError(
                f"draw 'deadline_us' must be a number, got {deadline_us!r}"
            )
    return request


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_default(value: Any):
    """JSON fallback for the numpy payloads response dicts may carry.

    Response dicts keep draws as ndarrays so the binary-frame transport
    can write them zero-copy; the conversion cost is paid only here, on
    the JSON-lines fallback path.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_response(response: Dict[str, Any]) -> bytes:
    """Serialize one response dict to a wire line (with trailing newline)."""
    return (
        json.dumps(response, separators=(",", ":"), default=_json_default) + "\n"
    ).encode("utf-8")


def ok_response(request_id: Optional[Any] = None, **payload: Any) -> Dict[str, Any]:
    """Build a success response, echoing the request id when present.

    ndarray payloads (draw results) are kept as arrays — the frame
    transport writes them zero-copy and :func:`encode_response` converts
    them only when the response actually leaves as JSON.
    """
    response: Dict[str, Any] = {"status": "ok"}
    if request_id is not None:
        response["id"] = request_id
    response.update(payload)
    return response


def error_response(
    exc: BaseException, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """Map an exception to its structured wire form.

    Shedding and expiry get ``status: "overloaded"`` (retryable), a
    graceful shutdown gets ``status: "draining"`` (retry elsewhere);
    everything else is ``status: "error"``.  The concrete class name
    rides in ``error`` either way, so clients keep full fidelity.  A
    one-argument ``KeyError`` (unknown wheel or method) sends its
    argument, not ``str(exc)``, which would be its quoted repr.
    """
    if isinstance(exc, ServiceDrainingError):
        status = "draining"
    elif isinstance(exc, (ServiceOverloadedError, DeadlineExceededError)):
        status = "overloaded"
    else:
        status = "error"
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        message = str(exc.args[0])
    else:
        message = str(exc)
    response: Dict[str, Any] = {
        "status": status,
        "error": type(exc).__name__,
        "message": message,
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def raise_structured(response: Dict[str, Any]) -> Dict[str, Any]:
    """Re-raise a structured error response as its typed exception.

    Returns the response unchanged when ``status`` is ``"ok"`` — so
    clients can pipe every response through this one call.  Unknown
    error names degrade to :class:`ServiceError` rather than being
    swallowed.
    """
    status = response.get("status")
    if status == "ok":
        return response
    name = response.get("error", "")
    message = response.get("message", f"service returned status {status!r}")
    exc_type = STRUCTURED_ERRORS.get(name, ServiceError)
    raise exc_type(message)
