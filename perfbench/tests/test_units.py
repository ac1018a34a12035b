"""Span arithmetic and load-generator accounting, against hand-built inputs."""

import gc
import os
import socket
import struct
import threading
import time

import pytest

from perfbench import loadgen, spans, speed

HEADER = struct.Struct("!BBBBIQ")


def _frame(ftype: int, rid: int, body: bytes) -> bytes:
    return HEADER.pack(0xA5, 1, ftype, 1, len(body), rid) + body


def _draws(rid: int, n: int) -> bytes:
    return _frame(loadgen.FT_DRAWS, rid, bytes((1,)) + struct.pack("!I", n) + bytes(8 * n))


def _request(rid: int, n: int, conn: int = 0) -> loadgen.Req:
    return loadgen.Req(rid, conn, _frame(0x11, rid, b"x"), n)


def test_self_time_subtracts_the_union_of_children():
    parents = [(0, 100), (200, 300)]
    # Overlapping children count once; a child reaching past the parent
    # counts only inside it; children of other parents do not count.
    children = [(10, 30), (20, 50), (90, 120), (250, 260)]
    assert spans.covered(0, 100, children) == 50
    assert spans.self_times(parents, children) == [50, 90]


def test_flush_of_picks_the_first_flush_on_the_same_wheel():
    flushes = spans.StartIndex([(5, 8, "a"), (12, 20, "b"), (14, 18, "a"), (30, 40, "a")], 2)
    assert spans.flush_of((10, 25, "a"), flushes) == (14, 18, "a")
    # A flush ending after the request returned did not serve it.
    assert spans.flush_of((10, 35, "b"), flushes) == (12, 20, "b")
    assert spans.flush_of((21, 35, "a"), flushes) is None


def test_slowdown_factors_per_interval_and_per_run():
    probes = [{"py": 1.0}, {"py": 3.0}, {"py": 1.2}, {"py": 0.9}]
    assert speed.between(probes, "py") == [2.0, 2.1, pytest.approx(1.05)]
    assert speed.run_slowdown(probes, "py") == pytest.approx(1.525)


def test_probe_leaves_affinity_and_collector_as_found():
    own = os.sched_getaffinity(0)
    gc.disable()
    try:
        factors = speed.slowdown_on(own)
        assert not gc.isenabled()
    finally:
        gc.enable()
    factors_gc_on = speed.slowdown_on(None)
    assert gc.isenabled()
    assert os.sched_getaffinity(0) == own
    for f in (factors, factors_gc_on):
        assert set(f) == {"py", "np"} and all(0.05 < v < 50 for v in f.values())
    assert sorted(speed.cpus_by_speed(own)) == sorted(own)


def _serve(sock, replies, hold_until=None):
    """Fake server: read request frames, answer with ``replies(rid)``."""

    def main():
        buf = b""
        pending = []
        while True:
            data = sock.recv(4096)
            if not data:
                return
            buf += data
            while len(buf) >= 16:
                *_, blen, rid = HEADER.unpack_from(buf)
                pending.append(rid)
                buf = buf[16 + blen:]
            if hold_until is not None:
                if len(pending) < hold_until[0]:
                    continue
                time.sleep(max(0.0, hold_until[1] - time.perf_counter()))
            for rid in pending:
                reply = replies(rid)
                if reply:
                    sock.sendall(reply)
            pending = []

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread


def test_open_loop_times_latency_from_the_due_time():
    client, server = socket.socketpair()
    try:
        # The server stalls until all three requests are in, then answers
        # at once: each latency must include the stall it sat through.
        stall_until = time.perf_counter() + 0.080
        _serve(server, lambda rid: _draws(rid, 2), hold_until=(3, stall_until))
        schedule = [(0.0, _request(1, 2)), (0.010, _request(2, 2)), (0.020, _request(3, 2))]
        log = loadgen.open_loop([client], schedule)
    finally:
        client.close()
        server.close()
    assert log.failed == 0 and log.attempted == 3
    assert len(log.draw_ms) == 3
    # Replies arrive together, so latencies differ by the due-time gaps.
    assert log.draw_ms[0] - log.draw_ms[2] == pytest.approx(20.0, abs=5.0)
    assert min(log.draw_ms) >= 50.0
    assert max(log.late_ms) < 5.0


def test_error_and_missing_replies_count_as_failed():
    client, server = socket.socketpair()
    try:

        def replies(rid):
            if rid == 2:
                return _frame(0x82, rid, b"")  # ERROR
            if rid == 3:
                return None  # never answered
            return _draws(rid, 1)

        _serve(server, replies)
        schedule = [(0.0, _request(1, 1)), (0.001, _request(2, 1)), (0.002, _request(3, 1))]
        log = loadgen.open_loop([client], schedule, drain_s=0.2)
    finally:
        client.close()
        server.close()
    assert log.attempted == 3
    assert log.failed == 2
    assert len(log.draw_ms) == 1


def test_closed_loop_keeps_each_connection_busy_and_keeps_asked_replies():
    client, server = socket.socketpair()
    try:
        _serve(server, lambda rid: _draws(rid, 3))
        sequence = [_request(rid, 3) for rid in range(1, 2001)]
        log = loadgen.closed_loop([client], [sequence], depth=4, seconds=0.2, keep={1})
    finally:
        client.close()
        server.close()
    assert log.failed == 0
    assert log.attempted == len(log.done_at) > 4
    assert log.kept[1][5:] == bytes(24)


def test_segments_merge_into_one_phase_log():
    a = loadgen.PhaseLog(attempted=3, failed=1, draw_ms=[1.0], sent=[2, 1], kept={1: b"x"})
    b = loadgen.PhaseLog(attempted=2, draw_ms=[2.0], late_ms=[0.1], sent=[0, 2], kept={7: b"y"})
    merged = loadgen.PhaseLog.merge([a, b])
    assert (merged.attempted, merged.failed, merged.sent) == (5, 1, [2, 3])
    assert merged.draw_ms == [1.0, 2.0] and merged.late_ms == [0.1]
    assert merged.kept == {1: b"x", 7: b"y"}
