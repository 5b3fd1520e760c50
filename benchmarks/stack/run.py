#!/usr/bin/env python3
"""The repo benchmark: ``python3 benchmarks/stack/run.py``.

With one ``--workload`` it runs that workload in this process and ends
with the one-line JSON result (this is what ``BENCHMARK.json`` names).
With none or several it runs each in a fresh subprocess of itself, so
cache state and peak memory stay per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from stackbench import report, stats, workloads  # noqa: E402
from stackbench.calibrate import SpeedClock  # noqa: E402
from stackbench.metrics import COMPILE_WORKLOADS, WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected_seed0.json"
#: set-ups timed per run, each in a set-up-only child of its own.
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also (several workloads) or only (one workload) run traced",
    )
    parser.add_argument("--out", help="result file; this run is appended to it")
    parser.add_argument("--spans", help="write the traced run's spans here as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="regenerate expected_seed0.json from this checkout and exit",
    )
    return parser.parse_args(argv)


def make_workdir() -> str:
    """Every store and temp file of a run lives under the checkout."""
    base = ROOT / ".stackbench_tmp"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    return workdir


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)


def set_up(workload: str, seed: int, workdir: str) -> dict[str, float]:
    """The whole set-up of a workload in a process that has not imported
    ``repro`` yet: import it, build graphs or requests and, for
    ``serve_mixed``, bring up a runtime with every worker answering.  In
    reference seconds and raw."""
    clock = SpeedClock()
    with clock:
        start = time.perf_counter()
        if workload in COMPILE_WORKLOADS:
            from stackbench.compile_run import CompileBench

            CompileBench(workload, seed)
            end = time.perf_counter()
        else:
            from stackbench.serve_run import ServeBench

            bench = ServeBench(seed, workdir)
            runtime = bench.start_runtime(tempfile.mkdtemp(dir=workdir))
            end = time.perf_counter()
            runtime.close()
    return {"setup_s": clock.reference_seconds(start, end), "raw": end - start}


def set_up_in_child(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of the workload's processes (``ru_maxrss`` of
    this process and of its reaped children; KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_one(args: argparse.Namespace, workload: str, workdir: str) -> dict:
    """Run one workload in this process and print its report."""
    trace = bool(args.trace)
    expected = load_expected()
    if workload in COMPILE_WORKLOADS:
        from stackbench.compile_run import run_compile_workload

        record = run_compile_workload(
            workload, args.seed, args.seconds, trace, expected, spans_path=args.spans
        )
    else:
        from stackbench.serve_run import run_serve_workload

        record = run_serve_workload(
            args.seed, args.seconds, trace, workdir, expected, spans_path=args.spans
        )
    rss = peak_rss_mb()  # before the set-up children can count
    setups = [set_up_in_child(workload, args.seed) for _ in range(SETUP_SAMPLES)]
    summary = stats.summarize([s["setup_s"] for s in setups])
    record["metrics"]["setup_s"] = {
        "value": summary["median"],
        **summary,
        "raw": statistics.median(s["raw"] for s in setups),
    }
    record["metrics"]["peak_rss_mb"] = {"value": rss}
    report.finish_metrics(record)
    print(report.format_record(record), flush=True)
    return record


def run_many(args: argparse.Namespace, names: list[str], workdir: str) -> dict[str, dict]:
    """Each workload (and each traced run) in a fresh subprocess."""
    records: dict[str, dict] = {}
    for name in names:
        for trace in (0, 1) if args.trace else (0,):
            out = os.path.join(workdir, f"{name}-{trace}.json")
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
            ]
            if trace and args.spans:
                command += ["--spans", f"{args.spans}.{name}"]
            subprocess.run(command, check=True, timeout=600)
            with open(out, "r", encoding="utf-8") as handle:
                record = json.load(handle)["runs"][0]["workloads"][name]
            if trace:
                # end-to-end numbers come from the untraced run only
                layers = {
                    k: v for k, v in record["metrics"].items()
                    if k not in records[name]["metrics"]
                }
                records[name]["metrics"].update(layers)
                records[name]["failed"] += record["failed"]
                records[name]["attempted"] += record["attempted"]
                records[name]["failures"] += record["failures"]
            else:
                records[name] = record
    return records


def write_expected(workdir: str) -> None:
    from stackbench.compile_run import CompileBench
    from stackbench.serve_run import ServeBench

    expected: dict[str, dict[str, str]] = {}
    for workload in COMPILE_WORKLOADS:
        bench = CompileBench(workload, 0)
        bench.clock = SpeedClock()
        with bench.clock:
            observations = bench.run_pass(0).observations
        if bench.failures:
            raise SystemExit("\n".join(bench.failures))
        expected[workload] = {k: o.stable_digest for k, o in sorted(observations.items())}
    expected["serve_mixed"] = {
        f"{model}/d{dup}": value
        for (model, dup), value in sorted(ServeBench(0, workdir).compile_reference().items())
    }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no stack to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads.control_environment()
    workdir = make_workdir()
    try:
        if args.write_expected:
            write_expected(workdir)
            return 0
        names = args.workload or list(WORKLOADS)
        if args.setup_only:
            print(json.dumps(set_up(names[0], args.seed, workdir)))
            return 0
        single = len(names) == 1
        if single:
            records = {names[0]: run_one(args, names[0], workdir)}
        else:
            records = run_many(args, names, workdir)
        run = {
            "host": report.host_fingerprint(str(ROOT)),
            "seed": args.seed,
            "seconds": args.seconds,
            "workers": workloads.worker_count(),
            "workloads": records,
        }
        if args.out:
            report.append_run(args.out, run)
        if single:
            print(report.contract_line(records[names[0]]), flush=True)
            return 0
        print(json.dumps(run["host"]))
        return 0 if all(r["failed"] == 0 for r in records.values()) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
