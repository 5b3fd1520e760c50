"""End-to-end CLI error paths: every failure mode must exit nonzero and
surface a typed ErrorPayload (code + message), never a bare traceback or
an argparse usage error."""

import json
import os
import subprocess
import sys

import repro
from repro.cli import main
from repro.faults import FAULT_PLAN_ENV


class TestUnknownModel:
    def test_deploy_unknown_model(self, capsys):
        assert main(["deploy", "NotAModel"]) == 1
        err = capsys.readouterr().err
        assert "[unknown_model]" in err
        assert "NotAModel" in err

    def test_deploy_unknown_model_json_payload(self, capsys):
        assert main(["deploy", "NotAModel", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "error"
        assert data["error"]["code"] == "unknown_model"

    def test_sweep_unknown_model(self, capsys):
        assert main(["sweep", "NotAModel", "--duplication", "1", "--json"]) == 1
        responses = json.loads(capsys.readouterr().out)
        assert all(r["error"]["code"] == "unknown_model" for r in responses)


class TestOverCapacity:
    def test_deploy_over_capacity_on_one_chip(self, capsys):
        assert main(["deploy", "VGG16", "--chips", "1", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "error"
        assert data["error"]["code"] == "capacity_error"

    def test_deploy_over_capacity_human_output(self, capsys):
        assert main(["deploy", "VGG16", "--chips", "1"]) == 1
        assert "[capacity_error]" in capsys.readouterr().err


class TestBadDirectories:
    def test_deploy_bad_store_dir(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["deploy", "LeNet", "--store", str(blocker / "sub")])
        assert code == 2
        assert "[invalid_request]" in capsys.readouterr().err

    def test_runs_bad_store_dir(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["runs", "--store", str(blocker / "sub")]) == 2
        assert "[invalid_request]" in capsys.readouterr().err

    def test_deploy_bad_bitstream_path_fails_first(self, capsys, tmp_path, monkeypatch):
        def compiled(*args, **kwargs):
            raise AssertionError("an unwritable --bitstream must not cost a compile")

        monkeypatch.setattr("repro.service.client.serve_request", compiled)
        target = tmp_path / "missing" / "chip.json"
        code = main(["deploy", "MLP-500-100", "--bitstream", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert "[invalid_request]" in captured.err
        assert f"cannot write bitstream to {str(target)!r}" in captured.err
        assert captured.out == ""

    def test_failing_deploy_leaves_no_bitstream_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["deploy", "LeNet", "--pe-budget", "1", "--bitstream", str(target)])
        assert code == 1
        assert "[capacity_error]" in capsys.readouterr().err
        assert not target.exists()

    def test_writability_probe_leaves_an_existing_file_alone(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"earlier bitstream\n")
        code = main(["deploy", "LeNet", "--pe-budget", "1", "--bitstream", str(target)])
        assert code == 1
        assert target.read_bytes() == b"earlier bitstream\n"

    def test_fuzz_bad_json_path_fails_before_the_campaign(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code = main(["fuzz", "--models", "1", "--json", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert "[invalid_request]" in captured.err
        # the campaign never started: failing late would waste the full run
        assert "fuzz campaign" not in captured.out


class TestMalformedWireData:
    def test_runs_show_on_a_mistyped_stored_response(self, capsys, tmp_path):
        store_dir = tmp_path / "runs"
        assert main(["deploy", "MLP-500-100", "--store", str(store_dir)]) == 0
        (run_dir,) = (store_dir / "runs").iterdir()
        stored = json.loads((run_dir / "response.json").read_text(encoding="utf-8"))
        stored["timings"]["passes"] = 5
        (run_dir / "response.json").write_text(json.dumps(stored), encoding="utf-8")
        capsys.readouterr()
        assert main(["runs", "--store", str(store_dir), "--show", run_dir.name]) == 2
        err = capsys.readouterr().err
        assert "[invalid_request]" in err
        assert "CompileTimings field 'passes'" in err

    def test_serve_batch_with_a_malformed_fault_plan(self, capsys, tmp_path, monkeypatch):
        plan = {"faults": [{"site": "worker-compile", "kind": "crash", "match": [1]}]}
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan))
        requests_file = tmp_path / "requests.json"
        requests_file.write_text(json.dumps({"model": "MLP-500-100"}))
        assert main(["serve-batch", str(requests_file), "--jobs", "1", "--json"]) == 1
        (response,) = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "invalid_request"
        assert response["error"]["details"] == {"match": "[1]"}


class TestRetiredEnvironment:
    """``REPRO_SHARED_CACHE`` and its size bound named a disk tier no
    compile has any more: a leftover setting changes nothing."""

    def _repro(self, tmp_path, *args):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            REPRO_SHARED_CACHE=str(tmp_path / "shared"),
            REPRO_SHARED_CACHE_MAX_BYTES="abc",
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_a_leftover_setting_does_not_break_import(self, tmp_path):
        done = self._repro(tmp_path, "models")
        assert done.returncode == 0, done.stderr
        assert "LeNet" in done.stdout

    def test_a_leftover_setting_is_ignored_by_a_compile(self, tmp_path):
        done = self._repro(tmp_path, "deploy", "MLP-500-100", "--pnr")
        assert done.returncode == 0, done.stderr
        assert not (tmp_path / "shared").exists()


class TestFuzzCommand:
    def test_fuzz_smoke_writes_a_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "fuzz", "--models", "2", "--seed", "0", "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["seed"] == 0
        assert len(report["specs"]) == 2

    def test_fuzz_report_to_stdout(self, capsys):
        assert main(["fuzz", "--models", "1", "--seed", "3", "--json", "-"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["ok"] is True
        # progress went to stderr, keeping stdout parseable
        assert "fuzz campaign" in captured.err

    def test_fuzz_seed_defaults_from_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPOTHESIS_PROFILE", "ci")
        assert main(["fuzz", "--models", "1", "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0
