"""CLI entry point."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table2" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-an-experiment"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "tune"]])
    def test_bench_lists_exactly_the_six_drivers(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be one of engine, race, aco, serve, select, lab" in err


class TestExecution:
    def test_worked_example_runs(self, capsys):
        assert main(["worked-example", "--iterations", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Pr[select 0]" in out

    def test_table1_with_iterations(self, capsys):
        assert main(["table1", "--iterations", "20000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "logarithmic" in out and "independent" in out

    def test_pram_costs(self, capsys):
        assert main(["pram-costs"]) == 0
        assert "race cells" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        import json

        assert main(["worked-example", "--iterations", "5000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "worked_example"
        assert abs(payload["data"]["analytic_independent"][0] - 0.75) < 1e-9

    def test_json_table1(self, capsys):
        import json

        assert main(["table1", "--iterations", "5000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["data"]["target"]) == 10

    def test_engine_flag_paper_faithful(self, capsys):
        assert main(["table1", "--iterations", "10000", "--engine", "mt19937"]) == 0
        out = capsys.readouterr().out
        assert "logarithmic" in out

    def test_engine_flag_deterministic(self, capsys):
        import json

        assert main(["table1", "--iterations", "5000", "--engine", "pcg32",
                     "--seed", "3", "--json"]) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(["table1", "--iterations", "5000", "--engine", "pcg32",
                     "--seed", "3", "--json"]) == 0
        b = json.loads(capsys.readouterr().out)
        assert a["data"]["logarithmic"] == b["data"]["logarithmic"]
