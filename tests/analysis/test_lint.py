"""Tests of the determinism & concurrency linter (``repro lint``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro.analysis.lint import RULES, Finding, lint_paths, lint_source
from repro.cli import main


def rules_of(findings):
    return [f.rule for f in findings]


class TestDET001UnseededRNG:
    def test_flags_global_random_calls(self):
        findings = lint_source(
            "import random\nx = random.random()\nrandom.shuffle(items)\n",
            path="src/repro/pnr/foo.py",
        )
        assert rules_of(findings) == ["DET001", "DET001"]

    def test_flags_from_import(self):
        findings = lint_source(
            "from random import shuffle\nshuffle(items)\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["DET001"]

    def test_flags_numpy_global_state(self):
        findings = lint_source(
            "import numpy as np\nx = np.random.rand(3)\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["DET001"]

    def test_allows_owned_generators(self):
        findings = lint_source(
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\nrng.shuffle(items)\n"
            "g = np.random.default_rng(7)\ng.normal()\n",
            path="src/repro/x.py",
        )
        assert findings == []

    def test_seeding_module_is_exempt(self):
        findings = lint_source(
            "import random\nrandom.seed(0)\n",
            path="src/repro/seeding.py",
        )
        assert findings == []


class TestDET002UnsortedSetIteration:
    def test_flags_for_loop_over_set_in_order_sensitive_stage(self):
        source = "s = {1, 2, 3}\nfor x in s:\n    out.append(x)\n"
        assert rules_of(
            lint_source(source, path="src/repro/pnr/foo.py")
        ) == ["DET002"]
        # the same code outside pnr/partition/mapper is not flagged
        assert lint_source(source, path="src/repro/perf/foo.py") == []

    def test_order_insensitive_consumers_are_exempt(self):
        findings = lint_source(
            "s = set(xs)\ntotal = sum(v for v in s)\nbiggest = max(v for v in s)\n"
            "ordered = sorted(s)\n",
            path="src/repro/mapper/foo.py",
        )
        assert findings == []

    def test_set_comprehensions_are_exempt(self):
        findings = lint_source(
            "s = {1, 2}\nt = {x for x in s}\nd = {x: 1 for x in s}\n",
            path="src/repro/partition/foo.py",
        )
        assert findings == []

    def test_flags_list_comprehension_feeding_order(self):
        findings = lint_source(
            "s = frozenset(xs)\nout = [x for x in s]\n",
            path="src/repro/pnr/foo.py",
        )
        assert rules_of(findings) == ["DET002"]


class TestDET003ImpureFingerprint:
    def test_flags_wall_clock_in_fingerprint(self):
        findings = lint_source(
            "import time\n"
            "def request_fingerprint(r):\n"
            "    return hash((r, time.time()))\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["DET003"]

    def test_flags_id_in_cache_key(self):
        findings = lint_source(
            "def cache_key(obj):\n    return id(obj)\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["DET003"]

    def test_flags_entropy_in_digest(self):
        findings = lint_source(
            "import os\n"
            "def subgraph_digest(g):\n"
            "    return hash((g, os.urandom(8)))\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["DET003"]

    def test_wall_clock_outside_fingerprints_is_fine(self):
        findings = lint_source(
            "import time\n"
            "def measure():\n    return time.perf_counter()\n",
            path="src/repro/x.py",
        )
        assert findings == []


class TestCONC001SharedMutationInWorker:
    def test_flags_free_variable_mutation(self):
        findings = lint_source(
            "results = {}\n"
            "def work(item):\n"
            "    results[item] = item * 2\n"
            "with pool() as p:\n"
            "    p.map(work, items)\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["CONC001"]

    def test_flags_global_declaration(self):
        findings = lint_source(
            "def work(item):\n"
            "    global counter\n"
            "    counter += 1\n"
            "ex.submit(work, 1)\n",
            path="src/repro/x.py",
        )
        assert "CONC001" in rules_of(findings)

    def test_pure_workers_and_undispatched_functions_are_fine(self):
        findings = lint_source(
            "results = {}\n"
            "def work(item):\n"
            "    local = {}\n"
            "    local[item] = 1\n"
            "    return local\n"
            "def not_dispatched(item):\n"
            "    results[item] = 1\n"
            "p.submit(work, 1)\n",
            path="src/repro/x.py",
        )
        assert findings == []


class TestERR001BuiltinRaise:
    def test_flags_builtin_raises(self):
        findings = lint_source(
            "raise ValueError('x')\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["ERR001"]

    def test_typed_errors_are_fine(self):
        findings = lint_source(
            "from repro.errors import InvalidRequestError\n"
            "raise InvalidRequestError('x')\n",
            path="src/repro/x.py",
        )
        assert findings == []

    def test_flags_bare_timeout_error(self):
        # a bare TimeoutError loses the job id/deadline that the typed
        # DeadlineExceededError carries into the wire-level ErrorPayload
        findings = lint_source(
            "raise TimeoutError('too slow')\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["ERR001"]

    def test_deadline_exceeded_error_is_fine(self):
        findings = lint_source(
            "from repro.errors import DeadlineExceededError\n"
            "raise DeadlineExceededError('too slow')\n",
            path="src/repro/x.py",
        )
        assert findings == []


class TestSuppression:
    def test_same_line_suppression(self):
        findings = lint_source(
            "raise KeyError(name)  # repro-lint: disable=ERR001\n",
            path="src/repro/x.py",
        )
        assert findings == []

    def test_line_above_suppression(self):
        findings = lint_source(
            "# repro-lint: disable=ERR001\nraise KeyError(name)\n",
            path="src/repro/x.py",
        )
        assert findings == []

    def test_disable_all(self):
        findings = lint_source(
            "import random\n"
            "random.shuffle(x)  # repro-lint: disable=all\n",
            path="src/repro/x.py",
        )
        assert findings == []

    def test_suppressing_one_rule_keeps_the_others(self):
        findings = lint_source(
            "raise ValueError('x')  # repro-lint: disable=DET001\n",
            path="src/repro/x.py",
        )
        assert rules_of(findings) == ["ERR001"]


class TestOutputAndCli:
    def test_finding_format_and_dict(self):
        finding = Finding(path="a.py", line=3, col=4, rule="ERR001", message="m")
        assert finding.format() == "a.py:3:4: ERR001 m"
        assert finding.to_dict() == {
            "path": "a.py", "line": 3, "col": 4, "rule": "ERR001", "message": "m",
        }

    def test_rules_catalog(self):
        assert set(RULES) == {"DET001", "DET002", "DET003", "CONC001", "ERR001"}

    def test_syntax_errors_surface_as_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([str(bad)])
        assert rules_of(findings) == ["PARSE"]

    def test_lint_paths_walks_directories_deterministically(self, tmp_path):
        (tmp_path / "b.py").write_text("raise ValueError('x')\n")
        (tmp_path / "a.py").write_text("raise KeyError('y')\n")
        findings = lint_paths([str(tmp_path)])
        assert all(
            f.path.endswith(n)
            for f, n in zip(findings, ("a.py", "b.py"), strict=True)
        )
        assert rules_of(findings) == ["ERR001", "ERR001"]

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("raise ValueError('x')\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["lint", str(dirty)]) == 1
        assert "ERR001" in capsys.readouterr().out
        assert main(["lint", str(dirty), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "ERR001"

    def test_cli_select_filters_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("raise ValueError('x')\n")
        assert main(["lint", str(dirty), "--select", "DET001"]) == 0
        capsys.readouterr()

    def test_cli_rejects_unknown_rules(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_the_toolchain_lints_clean(self):
        # the acceptance gate: repro's own sources carry no findings
        assert lint_paths(["src/repro"]) == []


def test_import_repro_leaves_the_linter_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = "import sys, repro; print('repro.analysis.lint' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_repro_lint_of_the_sources_exits_zero(capsys):
    assert main(["lint", "src/repro"]) == 0
    assert "clean" in capsys.readouterr().out
