"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_deploy_arguments(self):
        args = build_parser().parse_args(
            ["deploy", "LeNet", "--duplication", "8", "--pnr"]
        )
        assert args.model == "LeNet"
        assert args.duplication_degree == 8
        assert args.run_pnr is True

    def test_detailed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy", "LeNet", "--detailed"])
        assert "--detailed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["deploy", "sweep"])
    def test_no_command_has_a_shared_cache_flag(self, tmp_path, capsys, command):
        # the artifact store is the one cross-process memory
        with pytest.raises(SystemExit) as exit_info:
            main([command, "MLP-500-100", "--shared-cache", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--shared-cache" in capsys.readouterr().err

    def test_unknown_model_parses(self):
        # unknown models are not an argparse error: they flow through the
        # service layer and come back as a typed unknown_model ErrorPayload
        args = build_parser().parse_args(["deploy", "NotAModel"])
        assert args.model == "NotAModel"

    def test_fuzz_arguments(self):
        args = build_parser().parse_args(
            ["fuzz", "--models", "5", "--seed", "7", "--size-class", "near",
             "--shrink", "--json", "report.json"]
        )
        assert args.models == 5
        assert args.seed == 7
        assert args.size_class == "near"
        assert args.shrink is True
        assert args.json == "report.json"

    def test_pipeline_flags(self):
        args = build_parser().parse_args(
            ["deploy", "LeNet", "--passes", "synthesis,mapping", "--no-cache", "--explain"]
        )
        assert args.passes == ["synthesis", "mapping"]
        assert args.no_cache is True
        assert args.explain is True

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "LeNet", "--duplication", "1", "4", "--jobs", "2"]
        )
        assert args.duplication_degree == [1, 4]
        assert args.jobs == 2


class TestCommands:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "VGG16" in out
        assert "ResNet152" in out

    def test_deploy_command(self, capsys):
        assert main(["deploy", "MLP-500-100", "--duplication", "2"]) == 0
        out = capsys.readouterr().out
        assert "MLP-500-100" in out
        assert "throughput" in out

    def test_deploy_with_bitstream_to_stdout(self, capsys):
        assert main(["deploy", "MLP-500-100", "--bitstream", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["model"] == "MLP-500-100"

    def test_deploy_with_bitstream_to_file(self, tmp_path, capsys):
        target = tmp_path / "config.json"
        assert main(["deploy", "LeNet", "--bitstream", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["model"] == "LeNet"
        assert data["total_configuration_bits"] > 0

    def test_experiments_command_selection(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_experiments_json_output(self, capsys):
        assert main(["experiments", "table1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["table1"]
        table = data["table1"]
        assert table["name"] == "Table 1"
        assert table["rows"] and set(table["columns"]) == set(table["rows"][0])

    def test_deploy_with_explain_prints_timings(self, capsys):
        assert main(["deploy", "LeNet", "--explain", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "synthesis" in out
        assert "wall ms" in out

    def test_deploy_with_pass_subset(self, capsys):
        assert main(["deploy", "LeNet", "--passes", "synthesis,mapping"]) == 0
        out = capsys.readouterr().out
        assert "PEs:" in out
        assert "throughput" not in out

    def test_passes_command(self, capsys):
        assert main(["passes", "--model", "LeNet"]) == 0
        out = capsys.readouterr().out
        assert "registered passes:" in out
        for name in ("synthesis", "mapping", "perf", "bounds", "pnr"):
            assert name in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "LeNet", "--duplication", "1", "2", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "duplication" in out
        assert "samples/s" in out

class TestServiceCommands:
    def test_deploy_json_output(self, capsys):
        assert main(["deploy", "MLP-500-100", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "ok"
        assert data["request"]["model"] == "MLP-500-100"
        assert data["summary"]["performance"]["throughput_samples_per_s"] > 0
        assert data["timings"]["cache_misses"] >= 0

    def test_deploy_failure_is_structured(self, capsys):
        # --json emits the same CompileResponse shape on failure as on success
        assert main(["deploy", "MLP-500-100", "--pe-budget", "1", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "error"
        assert data["error"]["code"] == "capacity_error"
        assert data["request"]["model"] == "MLP-500-100"

    def test_deploy_explain_shows_cache_counters(self, capsys):
        assert main(["deploy", "MLP-500-100", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "stage cache:" in out
        assert "hit(s)" in out

    def test_deploy_persists_to_store(self, tmp_path, capsys):
        store_dir = tmp_path / "runs"
        assert main(["deploy", "MLP-500-100", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["runs", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "MLP-500-100" in out
        assert "ok" in out

    def test_sweep_json_output(self, capsys):
        assert main(["sweep", "MLP-500-100", "--duplication", "1", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 2
        assert [d["request"]["duplication_degree"] for d in data] == [1, 2]

    def test_serve_batch_generated_requests(self, capsys):
        assert main([
            "serve-batch", "--model", "MLP-500-100",
            "--duplication", "1", "2", "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 2 request(s)" in out

    def test_serve_batch_from_file(self, tmp_path, capsys):
        requests_file = tmp_path / "requests.json"
        requests_file.write_text(json.dumps([
            {"model": "MLP-500-100"},
            {"model": "MLP-500-100", "duplication_degree": 2},
        ]))
        assert main(["serve-batch", str(requests_file), "--jobs", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["status"] for d in data] == ["ok", "ok"]

    def test_serve_batch_reports_failures(self, tmp_path, capsys):
        requests_file = tmp_path / "requests.json"
        requests_file.write_text(json.dumps([
            {"model": "MLP-500-100"},
            {"model": "MLP-500-100", "pe_budget": 1},
        ]))
        assert main(["serve-batch", str(requests_file), "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "capacity_error" in out

    def test_serve_batch_rejects_non_object_entries(self, tmp_path, capsys):
        requests_file = tmp_path / "requests.json"
        requests_file.write_text("[1, 2]")
        assert main(["serve-batch", str(requests_file)]) == 2
        assert "must hold a CompileRequest" in capsys.readouterr().err

    def test_serve_batch_without_input_rejected(self, capsys):
        assert main(["serve-batch"]) == 2
        err = capsys.readouterr().err
        assert "serve-batch needs" in err

    def test_runs_show_round_trip(self, tmp_path, capsys):
        store_dir = tmp_path / "runs"
        assert main([
            "serve-batch", "--model", "MLP-500-100", "--duplication", "1",
            "--jobs", "1", "--store", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["runs", "--store", str(store_dir), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        run_id = records[0]["run_id"]
        assert main(["runs", "--store", str(store_dir), "--show", run_id, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["request"]["model"] == "MLP-500-100"
        assert data["status"] == "ok"

    def test_jobs_command_lifecycle(self, capsys):
        assert main([
            "jobs", "--model", "MLP-500-100", "--duplication", "1", "2",
            "--jobs", "2", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 2
        assert all(entry["state"] == "done" for entry in data)
        assert all(entry["observed_states"][-1] == "done" for entry in data)

    def test_models_json(self, capsys):
        assert main(["models", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "VGG16" in data
        assert data["LeNet"]["dataset"] == "MNIST"

    def test_passes_json(self, capsys):
        assert main(["passes", "--model", "MLP-500-100", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "synthesis" in data["registered_passes"]
        assert data["cache_hits"] + data["cache_misses"] == len(data["timings"])
