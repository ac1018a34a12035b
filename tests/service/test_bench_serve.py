"""The serving benchmark: report shape, certificates, CLI recording."""

import json

import numpy as np
import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.service.bench import render_bench_serve, run_bench_serve


@pytest.fixture(scope="module")
def tiny_report(serve_record):
    return serve_record


def _gate(report, name):
    return next(g for g in report["gates"] if g["name"] == name)


class TestBenchServe:
    def test_schema_and_sections(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA
        validate(tiny_report)
        legs = tiny_report["results"]["legs"]
        assert set(legs) == {"naive", "cached_naive", "batched"}
        for leg in legs.values():
            assert leg["requests"] == 16
            assert leg["requests_per_s"] > 0

    def test_determinism_certificate_holds(self, tiny_report):
        determinism = tiny_report["results"]["determinism"]
        assert determinism["ok"]
        assert set(determinism["methods"]) == {"log_bidding", "gumbel", "alias"}
        for entry in determinism["methods"].values():
            assert entry["bitwise_identical"]

    def test_overload_probe_shape(self, tiny_report):
        overload = tiny_report["results"]["overload"]
        assert overload["ok_shape"]
        assert overload["ok"] + overload["shed"] == overload["submitted"]
        assert overload["shed"] > 0
        assert overload["shed_total_metric"] == overload["shed"]

    def test_batched_leg_actually_batches(self, tiny_report):
        batch = tiny_report["results"]["legs"]["batched"]["batch_sizes"]
        assert batch["mean_size"] > 1.0

    def test_protocol_section(self, tiny_report):
        protocol = tiny_report["results"]["protocol"]
        for kind in ("jsonl", "frames"):
            leg = protocol["legs"][kind]
            assert leg["kind"] == kind
            assert leg["requests"] == leg["draw_requests"] == 8 * 2
            assert leg["draws"] == leg["draw_requests"] * protocol["n_draws"]
            assert leg["requests_per_s"] > 0
            assert leg["latency"]["count"] == leg["requests"]
        assert protocol["speedup"] > 0
        verdict = _gate(tiny_report, "results.protocol.speedup")
        assert isinstance(verdict["met"], bool) and not verdict["required"]
        assert verdict["target"] == ">= 2"

    def test_cluster_section(self, tiny_report):
        cluster = tiny_report["results"]["cluster"]
        n_draws = tiny_report["config"]["n_draws"]
        assert set(cluster["legs"]) == {"1", "2"}
        for leg in cluster["legs"].values():
            assert leg["requests_per_s"] > 0
            # One load over all wheels: the latency histogram is the
            # exact merge, not a per-wheel summary.
            assert leg["latency"]["count"] == leg["requests"] == leg["draw_requests"]
            assert leg["draws"] == leg["draw_requests"] * n_draws
            # One compile per distinct wheel across the whole pool: each
            # wheel routes to, and compiles on, exactly one shard.
            assert leg["compiles"] >= 1
        scaling = _gate(tiny_report, "results.cluster.efficiency.4")
        if scaling["skipped"]:
            assert "cpu_count" in scaling["reason"]
            assert scaling["met"] is None
        else:
            assert isinstance(scaling["met"], bool)
        assert "1" in cluster["efficiency"]

    def test_cluster_determinism_certificate(self, tiny_report):
        cert = tiny_report["results"]["cluster"]["determinism"]
        assert cert["ok"]
        assert cert["workers_compared"][0] == 1
        assert cert["workers_compared"][1] > 1
        assert len(cert["wheels"]) >= 2
        for wheel in cert["wheels"]:
            assert wheel["bitwise_identical"]

    def test_update_section(self, tiny_report):
        update = tiny_report["results"]["update"]
        assert update["n"] == 20_000
        assert update["legs"]
        for leg in update["legs"].values():
            assert leg["delta_ms"] > 0 and leg["reregister_ms"] > 0
            assert leg["k"] <= update["n"] // 100
        assert update["min_speedup"] == min(
            leg["speedup"] for leg in update["legs"].values()
        )
        verdict = _gate(tiny_report, "results.update.min_speedup")
        assert verdict["measured"] == update["min_speedup"]
        assert verdict["target"] == ">= 10"

    def test_mutate_leg(self, tiny_report):
        leg = tiny_report["results"]["update"]["mutate"]
        assert leg["kind"] == "frames"
        assert leg["update_every"] == 2 and leg["update_k"] == 2
        assert leg["updates"] > 0
        assert leg["draw_requests"] + leg["updates"] == leg["requests"]
        assert leg["draws"] == leg["draw_requests"] * tiny_report["config"]["n_draws"]
        per_version = leg["per_version_latency"]
        assert per_version
        assert sum(h["count"] for h in per_version.values()) == leg["draw_requests"]
        assert leg["update_latency"]["count"] == leg["updates"]
        assert leg["service"]["updates_total"] >= leg["updates"]
        # Delta updates never inflate the content-miss count: one root.
        assert leg["service"]["registry"]["misses"] == 1

    def test_version_determinism_certificate(self, tiny_report):
        cert = tiny_report["results"]["update"]["determinism"]
        assert cert["ok"] and cert["cow_stable"] and cert["acceptance_ok"]
        assert cert["workers_compared"][0] == 1
        assert cert["workers_compared"][1] > 1
        assert len(cert["versions"]) == cert["chain"] + 1
        for entry in cert["versions"]:
            assert entry["bitwise_identical"]

    def test_colony_section(self, tiny_report):
        colony = tiny_report["results"]["colony"]
        assert colony["inprocess_s"] > 0 and colony["served_s"] > 0
        assert colony["factor"] == pytest.approx(
            colony["served_s"] / colony["inprocess_s"]
        )
        verdict = _gate(tiny_report, "results.colony.factor")
        assert verdict["target"] == "<= 25"
        assert isinstance(verdict["met"], bool)

    def test_validate_rejects_corruption(self, tiny_report):
        def corrupt(mutate, match):
            bad = json.loads(json.dumps(tiny_report))
            mutate(bad)
            with pytest.raises(ValueError, match=match):
                validate(bad)

        corrupt(lambda r: r["results"]["determinism"].update(ok=False), "determinism")
        corrupt(lambda r: r["results"]["legs"].pop("naive"), "naive")
        corrupt(
            lambda r: r["results"]["cluster"]["determinism"].update(ok=False),
            "cluster.determinism",
        )
        corrupt(
            lambda r: _gate(r, "results.cluster.efficiency.4").update(
                skipped=True, met=None, measured=None, reason=None
            ),
            "reason",
        )
        corrupt(lambda r: r["results"]["protocol"]["legs"].pop("frames"), "frames")
        corrupt(
            lambda r: r["results"]["update"]["determinism"].update(ok=False),
            "update.determinism",
        )
        corrupt(
            lambda r: _gate(r, "results.update.min_speedup").update(met="yes"),
            "update.min_speedup",
        )
        corrupt(lambda r: r["results"].pop("colony"), "colony")
        with pytest.raises(ValueError, match="schema"):
            validate({"schema": "nope"})

    def test_write_and_render(self, tiny_report, tmp_path):
        path = write(tiny_report, str(tmp_path / "BENCH_serve.json"))
        on_disk = json.loads(open(path, encoding="utf-8").read())
        validate(on_disk)
        text = render_bench_serve(tiny_report)
        assert "batched" in text and "gates:" in text and "determinism" in text
        assert "frames/jsonl" in text and "cluster sweep" in text
        assert "per-shard determinism" in text
        assert "delta updates" in text and "results.update.min_speedup" in text
        assert "per-version determinism" in text
        assert "dynamic colony loop" in text

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_bench_serve(wheel_size=1)
        with pytest.raises(ValueError):
            run_bench_serve(clients=0)
        with pytest.raises(ValueError):
            run_bench_serve(procs=0)


def _load_against(service, fitnesses, **load):
    """Register ``fitnesses`` on ``service``, serve it on a loopback port,
    and run one TCP load over all of them; returns ``(load, stats)``."""
    import asyncio

    from repro.service.bench import _ephemeral_server
    from repro.service.loadgen import run_tcp_load

    async def go():
        async with _ephemeral_server(service) as port:
            wheel_ids = []
            for fitness in fitnesses:
                reply = await service.handle_request({"op": "register", "fitness": fitness})
                wheel_ids.append(reply["wheel"])
            result = await run_tcp_load("127.0.0.1", port, wheel_ids, **load)
            stats = await service.handle_request({"op": "stats"})
            return result, stats["stats"]

    return asyncio.run(asyncio.wait_for(go(), 60.0))


def _rejects(match, **load):
    import asyncio

    from repro.service.loadgen import run_tcp_load

    async def go():
        with pytest.raises(ValueError, match=match):
            await run_tcp_load("127.0.0.1", 1, "w1:00", **load)

    asyncio.run(go())


class TestTCPLoadGenerator:
    def test_multi_proc_merge_is_exact(self):
        """--procs fan-out: merged latency count equals total requests,
        throughput uses the slowest process's elapsed."""
        from repro.service.server import SelectionService

        result, _ = _load_against(
            SelectionService(seed=0), [list(range(1, 65))],
            kind="frames", clients=4, requests_per_client=3, n_draws=4, procs=2,
        )
        assert result["procs"] == 2
        assert result["requests"] == 12
        assert result["latency"]["count"] == 12
        assert len(result["per_proc"]) == 2
        assert sum(p["requests"] for p in result["per_proc"]) == 12
        assert result["elapsed_s"] == max(p["elapsed_s"] for p in result["per_proc"])

    def test_mutating_load_over_json_lines(self):
        """The UPDATE branch of the JSON-lines wire: deltas go out as lists."""
        from repro.service.server import SelectionService

        result, _ = _load_against(
            SelectionService(seed=0), [list(range(1, 33))],
            kind="jsonl", clients=3, requests_per_client=6, n_draws=2,
            update_every=2, update_k=3, wheel_size=32,
        )
        assert result["kind"] == "jsonl"
        assert result["updates"] == 3 * (6 // 2)
        assert result["max_version"] == 6 // 2
        assert result["update_latency"]["count"] == result["updates"]
        per_version = result["per_version_latency"]
        assert set(per_version) == {"0", "1", "2"}
        assert sum(h["count"] for h in per_version.values()) == result["draw_requests"]
        assert result["draw_requests"] + result["updates"] == result["requests"] == 18
        assert result["draws"] == result["draw_requests"] * 2

    def test_multi_wheel_load_merges_exactly_across_shards(self):
        """The cluster leg's eight wheels on a 2-worker cluster: one load,
        one exactly merged histogram, traffic on both shards."""
        from repro.service.cluster import ClusterService

        fitnesses = [np.arange(1.0, 65.0) * (1.0 + 0.01 * k) for k in range(8)]
        result, stats = _load_against(
            ClusterService(workers=2, seed=0), fitnesses,
            kind="frames", clients=16, requests_per_client=2, n_draws=4, procs=2,
        )
        assert result["wheels"] == 8
        assert result["requests"] == 16 * 2
        assert result["latency"]["count"] == result["requests"]
        assert sum(p["requests"] for p in result["per_proc"]) == result["requests"]
        # Routed counts registrations too; the shards' own counters hold
        # the draw requests alone, and both shards served some.
        routed = stats["routed"]
        assert len(routed) == 2
        assert sum(routed.values()) == len(fitnesses) + result["requests"]
        served = [shard["requests_total"] for shard in stats["shards"]]
        assert sum(served) == result["requests"] and all(n > 0 for n in served)

    def test_rejects_bad_kind(self):
        _rejects("kind", kind="xml")

    def test_rejects_update_k_past_wheel_size(self):
        _rejects("wheel_size", update_every=2, update_k=9, wheel_size=8)

    def test_rejects_negative_update_every(self):
        _rejects("update_every", update_every=-1)


class TestBenchServeCLI:
    def test_cli_records_report(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_serve.json"
        assert main(["bench", "serve", "--smoke", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        validate(report)
        assert set(report["results"]["cluster"]["legs"]) == {"1", "2"}
        assert report["config"]["mutate"] is True
        assert report["results"]["update"]["mutate"]["updates"] > 0
        assert _gate(report, "results.update.mutate.updates")["met"] is True
