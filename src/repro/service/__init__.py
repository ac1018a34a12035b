"""Async selection service: micro-batching, wheel cache, backpressure.

The serving layer over :mod:`repro.engine`: a content-addressed
:class:`WheelRegistry` caches compiled wheels, a
:class:`MicroBatchScheduler` coalesces concurrent ``draw`` requests into
single batched kernel calls without changing any response bit (each
request draws from its own derived substream), and
:class:`SelectionService` fronts both with a dual-protocol wire —
length-prefixed binary frames (:mod:`repro.service.frames`) on the hot
path, JSON-lines as the negotiated fallback and the stdio scripting
interface (``python -m repro serve``).

``python -m repro serve --workers N`` swaps in the
:class:`ClusterService`: N shard processes each running the kernel
executor, wheels routed by consistent hash (:class:`HashRing`), compiled
artifacts deduped through the shared-memory
:class:`~repro.service.shm.SharedWheelStore` — with byte-identical
responses at any pool size.  ``python -m repro bench serve`` records the
batched-vs-naive throughput gate, the frames-vs-JSON protocol gate, the
cluster scaling sweep, and the coalescing + per-shard determinism
certificates.
"""

from repro.service.cluster import DEFAULT_VNODES, ClusterService, HashRing
from repro.service.frames import FRAMES_VERSION, hello_frame, read_frame
from repro.service.loadgen import run_closed_loop, run_open_loop, run_tcp_load
from repro.service.metrics import BatchSizeHistogram, LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_request,
    encode_response,
    error_response,
    ok_response,
    raise_structured,
)
from repro.service.registry import (
    DEFAULT_MAX_WHEELS,
    WheelRegistry,
    digest_key,
    wheel_digest,
)
from repro.service.scheduler import BatchConfig, MicroBatchScheduler, NaiveScheduler
from repro.service.server import (
    SelectionService,
    serve_stdio,
    serve_tcp,
    start_tcp_server,
)
from repro.service.shm import SharedWheelStore

__all__ = [
    "BatchConfig",
    "BatchSizeHistogram",
    "ClusterService",
    "DEFAULT_MAX_WHEELS",
    "DEFAULT_VNODES",
    "FRAMES_VERSION",
    "HashRing",
    "LatencyHistogram",
    "MicroBatchScheduler",
    "NaiveScheduler",
    "PROTOCOL_VERSION",
    "SelectionService",
    "ServiceMetrics",
    "SharedWheelStore",
    "WheelRegistry",
    "decode_request",
    "digest_key",
    "encode_response",
    "error_response",
    "hello_frame",
    "ok_response",
    "raise_structured",
    "read_frame",
    "run_closed_loop",
    "run_open_loop",
    "run_tcp_load",
    "serve_stdio",
    "serve_tcp",
    "start_tcp_server",
    "wheel_digest",
]
