"""Command-line interface for the FPSA toolchain.

Usage (after ``pip install -e .``)::

    python -m repro deploy VGG16 --duplication 64
    python -m repro deploy VGG16 --chips auto
    python -m repro deploy LeNet --duplication 4 --pnr --bitstream out.json
    python -m repro deploy LeNet --passes synthesis,mapping --explain
    python -m repro deploy AlexNet --json --store runs/
    python -m repro sweep AlexNet --duplication 1 4 16 64 --jobs 4
    python -m repro sweep CIFAR-VGG17 --duplication 64 --chips 1 2 4
    python -m repro serve-batch requests.json --jobs 4 --store runs/
    python -m repro serve-batch --model LeNet --duplication 1 4 --json
    python -m repro jobs --model LeNet --duplication 1 4 16 --jobs 2
    python -m repro runs --store runs/
    python -m repro runs --store runs/ --show RUN_ID
    python -m repro passes --model LeNet
    python -m repro models
    python -m repro chaos --seed 0
    python -m repro experiments fig6 table3
    python -m repro deploy LeNet --verify
    python -m repro lint src/repro --json
    python -m repro fuzz --models 50 --seed 0
    python -m repro fuzz --models 25 --shrink --json fuzz_report.json

The compile flags of ``deploy``, ``sweep``, ``serve-batch``, ``jobs`` and
``passes`` are generated from the knob table: each is declared once, by
its knob's ``flag`` and ``help`` (:func:`repro.core.pipeline.knob`), and
``_KNOB_FLAGS`` says which subcommand takes which.  argparse only parses
a value, as the knob's declared type; the knob's own check judges it
when the request is built, so an illegal one is the same
``[invalid_request]`` error (exit 2) the wire gives.  A flag that takes
several values makes one request per combination.

Every compile-facing subcommand accepts ``--json`` to emit the wire-level
:class:`~repro.service.schemas.CompileResponse` payloads instead of the
human-readable tables, so the CLI output can be piped straight into other
tools (or back into ``serve-batch``).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .chaos import add_arguments as _add_chaos_arguments
from .chaos import run_from_args as _command_chaos
from .core.pipeline import BOOLEAN, PassError, available_passes, check_knobs
from .errors import FPSAError, InvalidRequestError
from .experiments.runner import EXPERIMENTS
from .service.schemas import REQUEST_KNOBS, CompileRequest, CompileTimings

if TYPE_CHECKING:  # pragma: no cover - typing only: each handler imports its own layer
    from .service.client import FPSAClient
    from .service.store import ArtifactStore

__all__ = ["main", "build_parser"]

#: the compile flags of each compiling subcommand, by knob name; each is
#: generated from its knob's ``flag`` and ``help`` (see
#: :func:`repro.core.pipeline.knob`).  ``None``: the flag takes one value
#: and defaults to the knob's.  A list: the flag takes several values and
#: defaults to the list, and the subcommand compiles every combination of
#: them, in table order.
_KNOB_FLAGS: dict[str, dict[str, list | None]] = {
    "deploy": dict.fromkeys(("duplication_degree", "pe_budget", "run_pnr", "passes",
                             "verify", "num_chips", "shard_jobs")),
    "sweep": {"duplication_degree": [1, 4, 16, 64], "num_chips": [None], "verify": None},
    "serve-batch": {"duplication_degree": [1], "deadline_s": None, "max_retries": None},
    "jobs": {"duplication_degree": [1, 4]},
    "passes": {"duplication_degree": None},
}
_KNOBS = {f.name: f for f in REQUEST_KNOBS}


def _int_or_str(spec: str) -> int | str:
    try:
        return int(spec)
    except ValueError:
        return spec


def _float_or_str(spec: str) -> float | str:
    try:
        return float(spec)
    except ValueError:
        return spec


def _pass_list(spec: str) -> list[str] | str:
    return [name.strip() for name in spec.split(",") if name.strip()] or spec


#: a knob flag's converter, by the knob's declared type.  A value that
#: does not convert stays the string, for the knob's check to reject.
_CONVERTERS = {"int": _int_or_str, "float": _float_or_str, "tuple[str, ...]": _pass_list}


def _positive_int(spec: str) -> int:
    value = int(spec)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {spec}")
    return value


def _add_knob_flags(parser: argparse.ArgumentParser, knobs: dict) -> None:
    for name, several in knobs.items():
        knob = _KNOBS[name]
        meta = knob.metadata
        if meta["check"] is BOOLEAN:
            kwargs: dict = {"action": "store_true"}
        else:
            kwargs = {
                "type": _CONVERTERS[knob.type.split(" | ")[0]],
                "nargs": None if several is None else "+",
                "default": knob.default if several is None else several,
            }
        help = meta["help"] if several is None else (
            f"{meta['help']}; several values: one request per combination"
        )
        parser.add_argument(meta["flag"], dest=name, help=help, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FPSA (ASPLOS 2019) reproduction: deploy NNs onto the "
        "reconfigurable ReRAM accelerator and regenerate the paper's evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: subparsers.add_parser(name, help=help)
        for name, help in (
            ("deploy", "compile a model onto FPSA"),
            ("sweep", "batch-deploy one model across several duplication degrees "
             "(--jobs 1, the default, shares one stage cache across the sweep)"),
            ("serve-batch", "serve a batch of CompileRequests through the job "
             "manager; --deadline / --max-retries override every request"),
            ("jobs", "submit a batch and watch the job lifecycle "
             "(QUEUED/RUNNING/DONE/FAILED)"),
            ("runs", "list or reload past runs from an artifact store"),
            ("passes", "show the compilation pass pipeline and its timings"),
            ("models", "list the benchmark models and their Table 3 data"),
            ("chaos", "serve a batch workload under a seeded fault plan; fails "
             "unless every request is served, identical to a fault-free run"),
            ("experiments", "regenerate the paper's tables and figures"),
            ("lint", "run the determinism & concurrency linter over Python sources"),
            ("fuzz", "differential fuzzing: random models compiled across the "
             "configuration lattice, diffed for bit-identity"),
        )
    }
    # no argparse choices= for a model: an unknown one flows through the
    # service layer and comes back as a typed unknown_model error (the
    # same shape scripted callers see), not an argparse usage error
    for name in ("deploy", "sweep"):
        commands[name].add_argument("model", help="model zoo entry (see 'repro models')")
    for name, default in (("serve-batch", None), ("jobs", "LeNet"), ("passes", "LeNet")):
        commands[name].add_argument(
            "--model", default=default,
            help="model zoo entry (see 'repro models'; default: %(default)s)",
        )
    for name, knobs in _KNOB_FLAGS.items():
        _add_knob_flags(commands[name], knobs)
    for name, default in (("sweep", 1), ("serve-batch", None), ("jobs", 2)):
        commands[name].add_argument(
            "--jobs", type=_positive_int, default=default,
            help="worker processes (default: %(default)s; None: automatic)",
        )
    for name in ("deploy", "sweep", "passes"):
        commands[name].add_argument(
            "--no-cache", action="store_true", help="bypass the stage cache"
        )
    for name in ("deploy", "sweep", "serve-batch"):
        commands[name].add_argument(
            "--store", metavar="DIR", default=None,
            help="persist every response (and bitstream) to this artifact-store "
            "directory",
        )
    for name in ("deploy", "sweep", "serve-batch", "jobs", "runs", "passes",
                 "models", "experiments", "lint"):
        commands[name].add_argument(
            "--json", action="store_true",
            help="emit wire-level JSON instead of the human-readable output",
        )

    deploy = commands["deploy"]
    deploy.add_argument(
        "--bitstream", metavar="FILE", default=None,
        help="write the chip configuration as JSON to FILE ('-' for stdout)",
    )
    deploy.add_argument(
        "--explain", action="store_true",
        help="print the resolved pass list with per-pass wall-clock timings "
        "and the stage-cache hit/miss counters",
    )
    commands["serve-batch"].add_argument(
        "requests", nargs="?", metavar="FILE", default=None,
        help="JSON file holding a list of CompileRequest objects ('-' for "
        "stdin); omit it to build requests from --model/--duplication",
    )

    runs = commands["runs"]
    runs.add_argument(
        "--store", metavar="DIR", required=True, help="artifact-store directory"
    )
    runs.add_argument(
        "--show", metavar="RUN_ID", default=None,
        help="print the stored response of one run instead of the index",
    )
    runs.add_argument(
        "--model", default=None, help="only list runs of this model",
    )

    _add_chaos_arguments(commands["chaos"])

    commands["experiments"].add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"experiments to run (default: all). Known: {', '.join(sorted(EXPERIMENTS))}",
    )

    lint = commands["lint"]
    lint.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files or directories to lint (directories are walked for .py)",
    )
    lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )

    fuzz = commands["fuzz"]
    fuzz.add_argument(
        "--models", type=_positive_int, default=50, metavar="N",
        help="number of random models to generate and check (default: 50)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="campaign seed (default: from the HYPOTHESIS_PROFILE — the "
        "derandomized 'ci' profile pins 0 so runs replay from the log line)",
    )
    fuzz.add_argument(
        "--size-class", choices=("small", "near", "over"), default=None,
        help="generate only this capacity class (default: mixed — mostly "
        "small, with near- and over-capacity models interleaved)",
    )
    fuzz.add_argument(
        "--shrink", action="store_true",
        help="delta-debug every failing spec to a minimal reproducer",
    )
    fuzz.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the campaign report as JSON to FILE ('-' for stdout)",
    )
    return parser


def _open_store(directory: str) -> ArtifactStore:
    """The store at ``directory``, with an unusable directory surfaced as a
    typed error (exit code 2 + ErrorPayload) instead of a raw OSError."""
    from .service.store import ArtifactStore

    try:
        return ArtifactStore(directory)
    except OSError as exc:
        raise InvalidRequestError(
            f"cannot open artifact store at {directory!r}: {exc}"
        ) from exc


def _client(args: argparse.Namespace) -> FPSAClient:
    from .service.client import FPSAClient

    store = _open_store(args.store) if getattr(args, "store", None) else None
    # None: the process default cache
    cache = False if getattr(args, "no_cache", False) else None
    return FPSAClient(cache=cache, store=store)


def _print_error(response_error) -> None:
    print(
        f"error [{response_error.code}] {response_error.message}",
        file=sys.stderr,
    )


def _check_writable(path: str | None, what: str) -> None:
    """Fail before the work, not after it: an unwritable output path must
    not cost a full compile or fuzzing run.  ``'-'`` (stdout) passes.
    The probe leaves nothing behind: a file it had to create is removed."""
    if path is None or path == "-":
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise InvalidRequestError(f"cannot write {what} to {path!r}: {exc}") from exc


def _requests(args: argparse.Namespace) -> list[CompileRequest]:
    """The requests of a compiling subcommand: one per combination of its
    several-valued knob flags, each carrying its one-valued ones.  Every
    value is judged by its knob's check here, so an illegal one is an
    ``InvalidRequestError`` naming the knob.  ``serve-batch FILE`` serves
    the file's requests instead, each given flag replacing their value."""
    knobs = _KNOB_FLAGS[args.command]
    given = {name: getattr(args, name) for name, several in knobs.items() if several is None}
    axes = {name: getattr(args, name) for name, several in knobs.items() if several is not None}
    if getattr(args, "requests", None) is not None:
        if args.model is not None:
            raise InvalidRequestError("serve-batch takes a requests FILE or --model, not both")
        # --duplication shapes generated requests only, but is judged all the same
        for name, values in axes.items():
            for value in values:
                check_knobs(argparse.Namespace(**{name: value}), [_KNOBS[name]])
        given = {name: value for name, value in given.items() if value is not None}
        return [dataclasses.replace(r, **given) for r in _load_requests_file(args.requests)]
    if args.model is None:
        raise InvalidRequestError(
            "serve-batch needs a requests FILE or --model/--duplication"
        )
    if getattr(args, "bitstream", None) is not None:
        given["emit_bitstream"] = True
    return [
        CompileRequest(model=args.model, **given, **dict(zip(axes, point, strict=True)))
        for point in itertools.product(*axes.values())
    ]


def _command_deploy(args: argparse.Namespace) -> int:
    _check_writable(args.bitstream, "bitstream")
    (request,) = _requests(args)
    if request.passes is not None and request.run_pnr and "pnr" not in request.passes:
        # an explicit pass list overrides the flag-derived pipeline; tell the
        # user when a flag asked for a stage the list leaves out
        print(
            "warning: --pnr requested but the 'pnr' pass is not in --passes; "
            "it will not run",
            file=sys.stderr,
        )
    served = _client(args).serve(request)
    response = served.response
    if args.json:  # the same CompileResponse shape, ok or not
        print(response.to_json(indent=2))
    elif not response.ok:
        _print_error(response.error)
    if not response.ok:
        return 1
    if not args.json:
        result = served.result
        print(result.summary())
        if args.explain:
            print()
            print(result.timings_table())
            if result.pnr is not None:
                print()
                print(result.pnr.explain())
    if args.bitstream is not None:
        result = served.result
        payload = None
        if result is not None and result.bitstream is not None:
            payload = result.bitstream.to_json()
        elif result is not None and result.shard_results is not None:
            # multi-chip compile: bundle the per-chip configurations
            shard_bitstreams = [r.bitstream for r in result.shard_results]
            if all(b is not None for b in shard_bitstreams):
                payload = json.dumps(
                    {
                        "model": result.model,
                        "num_chips": result.partition.num_chips,
                        "chips": [
                            json.loads(b.to_json()) for b in shard_bitstreams
                        ],
                    },
                    indent=2,
                )
        if payload is None:
            print(
                "warning: no bitstream was produced (the 'bitstream' pass did "
                "not run); nothing written",
                file=sys.stderr,
            )
            return 1
        if args.bitstream == "-":
            print(payload)
        else:
            with open(args.bitstream, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"bitstream written to {args.bitstream}", file=sys.stderr)
    return 0


def _print_response_table(responses) -> None:
    header = (f"{'model':<14} {'dup':>5} {'chips':>6} {'status':<8} {'PEs':>8} "
              f"{'area mm^2':>10} {'samples/s':>14} {'latency us':>11} {'cut':>6}")
    print(header)
    print("-" * len(header))
    for response in responses:
        request = response.request
        chips = request.num_chips if request.num_chips is not None else 1
        if response.ok:
            summary = response.summary
            blocks = summary.blocks or {}
            perf = summary.performance or {}
            partition = summary.partition or {}
            chips = partition.get("num_chips", chips)
            print(
                f"{request.model:<14} {request.duplication_degree:>5} "
                f"{chips!s:>6} "
                f"{response.status:<8} {blocks.get('n_pe', 0):>8} "
                f"{perf.get('area_mm2', 0.0):>10.2f} "
                f"{perf.get('throughput_samples_per_s', 0.0):>14,.1f} "
                f"{perf.get('latency_us', 0.0):>11.2f} "
                f"{partition.get('cut_size', 0):>6}"
            )
        else:
            print(
                f"{request.model:<14} {request.duplication_degree:>5} "
                f"{chips!s:>6} "
                f"{response.status:<8} [{response.error.code}] "
                f"{response.error.message}"
            )


def _print_responses_json(responses) -> None:
    print(json.dumps([r.to_dict() for r in responses], indent=2, sort_keys=True))


def _command_sweep(args: argparse.Namespace) -> int:
    responses = _client(args).compile_batch(_requests(args), jobs=args.jobs)
    if args.json:
        _print_responses_json(responses)
    else:
        scope = f"duplication degrees {args.duplication_degree}"
        if args.num_chips != [None]:
            scope += f" x chips {args.num_chips}"
        print(f"sweep of {args.model} over {scope}")
        _print_response_table(responses)
    return 0 if all(r.ok for r in responses) else 1


def _load_requests_file(path: str) -> list[CompileRequest]:
    if path == "-":
        payload = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            payload = handle.read()
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise InvalidRequestError(f"requests file is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise InvalidRequestError(
            "requests file must hold a CompileRequest object or a list of them"
        )
    return [CompileRequest.from_dict(entry) for entry in data]


def _command_serve_batch(args: argparse.Namespace) -> int:
    from .service.jobs import JobManager

    requests = _requests(args)
    store = _open_store(args.store) if args.store else None
    with JobManager(max_workers=args.jobs, store=store) as manager:
        responses = manager.serve_batch(requests)
    if args.json:
        _print_responses_json(responses)
    else:
        print(f"served {len(responses)} request(s)")
        _print_response_table(responses)
        if store is not None:
            print(f"responses persisted to {args.store}")
    return 0 if all(r.ok for r in responses) else 1


def _command_jobs(args: argparse.Namespace) -> int:
    from .service.jobs import JobManager

    requests = _requests(args)
    observed: dict[str, list[str]] = {}
    with JobManager(max_workers=args.jobs) as manager:
        job_ids = manager.submit_batch(requests)
        pending = set(job_ids)
        while pending:
            for job_id in job_ids:
                info = manager.status(job_id)
                states = observed.setdefault(job_id, [])
                if not states or states[-1] != info.state.value:
                    states.append(info.state.value)
                if info.state.finished:
                    pending.discard(job_id)
            if pending:
                time.sleep(0.05)
        infos = [manager.status(job_id) for job_id in job_ids]
    if args.json:
        print(json.dumps(
            [
                dict(info.to_dict(), observed_states=observed[info.job_id])
                for info in infos
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    header = f"{'job':<10} {'model':<14} {'dup':>5} {'state':<8} lifecycle"
    print(header)
    print("-" * len(header))
    for info, request in zip(infos, requests, strict=True):
        print(
            f"{info.job_id:<10} {info.model:<14} {request.duplication_degree:>5} "
            f"{info.state.value:<8} {' -> '.join(observed[info.job_id])}"
        )
    return 0 if all(info.state.value == "done" for info in infos) else 1


def _command_runs(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if args.show is not None:
        response = store.load(args.show)
        if args.json:
            print(response.to_json(indent=2))
        else:
            _print_response_table([response])
        return 0
    records = store.list_runs(model=args.model)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no runs in store {args.store}")
        return 0
    header = (f"{'run id':<18} {'model':<14} {'dup':>5} {'status':<8} "
              f"{'bitstream':<9} created")
    print(header)
    print("-" * len(header))
    for record in records:
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.created_at)
        )
        print(
            f"{record.run_id:<18} {record.model:<14} "
            f"{record.duplication_degree:>5} {record.status:<8} "
            f"{'yes' if record.has_bitstream else 'no':<9} {created}"
        )
    return 0


def _command_passes(args: argparse.Namespace) -> int:
    (request,) = _requests(args)
    result = _client(args).deploy(request)
    if args.json:
        timings = CompileTimings.from_pass_timings(result.timings)
        print(json.dumps(
            {
                "timings": timings.to_dict()["passes"] if timings else [],
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "registered_passes": {
                    name: {
                        "requires": list(cls().requires),
                        "provides": list(cls().provides),
                    }
                    for name, cls in sorted(available_passes().items())
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"pass pipeline (timed compiling {args.model}, "
          f"duplication degree {args.duplication_degree}):")
    print(result.timings_table())
    print()
    print("registered passes:")
    for name, cls in sorted(available_passes().items()):
        instance = cls()
        requires = ", ".join(instance.requires) or "-"
        provides = ", ".join(instance.provides) or "-"
        print(f"  {name:<14} requires: {requires:<18} provides: {provides}")
    return 0


def _command_models(args: argparse.Namespace) -> int:
    from .models.zoo import PAPER_TABLE3, model_names

    if args.json:
        print(json.dumps(
            {
                name: {
                    "dataset": ref.dataset,
                    "weights": ref.weights,
                    "ops": ref.ops,
                    "paper_throughput_samples_per_s": ref.throughput_samples_per_s,
                    "paper_latency_us": ref.latency_us,
                    "paper_area_mm2": ref.area_mm2,
                }
                for name, ref in ((n, PAPER_TABLE3[n]) for n in model_names())
            },
            indent=2, sort_keys=True,
        ))
        return 0
    header = (f"{'model':<14} {'dataset':<10} {'weights':>12} {'ops':>14} "
              f"{'paper samples/s':>16} {'paper area mm^2':>16}")
    print(header)
    print("-" * len(header))
    for name in model_names():
        reference = PAPER_TABLE3[name]
        print(
            f"{name:<14} {reference.dataset:<10} {reference.weights:>12,.0f} "
            f"{reference.ops:>14,.0f} {reference.throughput_samples_per_s:>16,.0f} "
            f"{reference.area_mm2:>16.2f}"
        )
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all

    results = run_all(args.names or None)
    if args.json:
        payload = {name: result.to_dict() for name, result in results.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for result in results.values():
        print(result.format())
        print()
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import RULES, lint_paths

    select = None
    if args.select is not None:
        select = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = select - set(RULES)
        if unknown:
            raise InvalidRequestError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
                f"known rules: {', '.join(sorted(RULES))}"
            )
    findings = lint_paths(args.paths, select=select)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        n = len(findings)
        print(f"{n} finding(s)" if n else "clean: no findings")
    return 1 if findings else 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_campaign

    _check_writable(args.json, "fuzz report")
    progress = sys.stderr if args.json == "-" else sys.stdout
    report = run_campaign(
        models=args.models,
        seed=args.seed,
        size_class=args.size_class,
        shrink_failures=args.shrink,
        log=lambda msg: print(msg, file=progress),
    )
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"report written to {args.json}", file=progress)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "deploy": _command_deploy,
        "sweep": _command_sweep,
        "serve-batch": _command_serve_batch,
        "jobs": _command_jobs,
        "runs": _command_runs,
        "passes": _command_passes,
        "models": _command_models,
        "chaos": _command_chaos,
        "experiments": _command_experiments,
        "lint": _command_lint,
        "fuzz": _command_fuzz,
    }
    try:
        return handlers[args.command](args)
    except (PassError, FPSAError) as error:
        # same identity the wire carries: ErrorPayload code + message
        from .service.schemas import ErrorPayload

        payload = ErrorPayload.from_exception(error)
        print(
            f"{parser.prog}: error [{payload.code}]: {payload.message}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
