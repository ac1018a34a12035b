"""The end-to-end ACO benchmark: schema, validation, round-trip."""

import copy
import json

import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.engine.aco_bench import render_bench_aco


@pytest.fixture(scope="module")
def tiny_report(aco_record):
    """One small-but-real bench run shared by every test in the module."""
    return aco_record


class TestRunBenchAco:
    def test_validates(self, tiny_report):
        validate(tiny_report)  # must not raise

    def test_schema_and_config(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA
        assert tiny_report["bench"] == "aco"
        assert tiny_report["config"]["n"] == 40
        assert tiny_report["config"]["n_ants"] == 6

    def test_per_method_layout(self, tiny_report):
        per_method = tiny_report["results"]["per_method"]
        assert "log_bidding" in per_method
        for entry in per_method.values():
            assert entry["scalar_tours_per_s"] > 0
            assert entry["vectorized_tours_per_s"] > 0
            assert entry["speedup"] > 0

    def test_sparsity_profile_counts_down(self, tiny_report):
        sparsity = tiny_report["results"]["sparsity"]
        ks = sparsity["mean_k"]
        assert len(ks) > 0
        assert ks == sorted(ks, reverse=True)
        assert sparsity["k_first"] >= sparsity["k_last"]

    def test_equivalence_certificate(self, tiny_report):
        eq = tiny_report["results"]["equivalence"]
        assert eq["all_identical"] is True
        for entry in eq["per_method"].values():
            assert entry["tsp"] and entry["qap"] and entry["coloring"]

    def test_render_mentions_gate(self, tiny_report):
        text = render_bench_aco(tiny_report)
        assert "results.per_method.log_bidding.speedup" in text
        assert "log_bidding" in text

    def test_write_round_trip(self, tiny_report, tmp_path):
        path = write(tiny_report, tmp_path / "BENCH_aco.json")
        on_disk = json.loads((tmp_path / "BENCH_aco.json").read_text())
        assert str(path) == str(tmp_path / "BENCH_aco.json")
        validate(on_disk)
        assert on_disk["config"]["gate_method"] == "log_bidding"


class TestValidateBenchAco:
    def test_rejects_wrong_schema(self, tiny_report):
        bad = copy.deepcopy(tiny_report)
        bad["schema"] = "something/else"
        with pytest.raises(ValueError):
            validate(bad)

    def test_rejects_missing_result_key(self, tiny_report):
        bad = copy.deepcopy(tiny_report)
        del bad["results"]["per_method"]
        with pytest.raises(ValueError):
            validate(bad)

    def test_rejects_missing_method_key(self, tiny_report):
        bad = copy.deepcopy(tiny_report)
        for entry in bad["results"]["per_method"].values():
            del entry["speedup"]
        with pytest.raises(ValueError):
            validate(bad)

    def test_rejects_broken_equivalence(self, tiny_report):
        bad = copy.deepcopy(tiny_report)
        bad["results"]["equivalence"]["all_identical"] = False
        with pytest.raises(ValueError):
            validate(bad)

    def test_rejects_empty_sparsity(self, tiny_report):
        bad = copy.deepcopy(tiny_report)
        bad["results"]["sparsity"]["mean_k"] = []
        with pytest.raises(ValueError):
            validate(bad)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate([])
