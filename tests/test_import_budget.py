"""What an import costs: each caller loads only the layers it runs.

Every probe runs in a fresh interpreter, since this one has imported
everything by now.  numpy belongs to P&R (and the device models,
``variation/`` and ``experiments/``), ``multiprocessing`` to a worker pool,
and neither to a compile that stops before placement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: what a compile without P&R never loads.
POOL_AND_PNR = {"numpy", "multiprocessing", "concurrent.futures.process"}

#: the imports a compile workload sets up with (``benchmarks/stack``).
SET_UP = """
from repro.core.compiler import FPSACompiler
from repro.fuzz import build_graph, generate_spec
from repro.models.zoo import build_model
"""


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.strip().splitlines()[-1]))


def _repro(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "repro"}


def test_import_repro_loads_only_repro():
    assert _repro(_loaded("import repro")) == {"repro"}


def test_the_set_up_imports_load_no_pool_and_no_pnr():
    modules = _loaded(SET_UP)
    assert not modules & POOL_AND_PNR
    assert not {name for name in modules if name.startswith(("repro.service", "repro.pnr"))}


def test_a_sharded_deploy_without_pnr_loads_no_numpy():
    modules = _loaded(SET_UP + """
result = FPSACompiler(cache=False).compile(
    build_model("AlexNet"), num_chips="auto", emit_bitstream=True
)
chips = result.shard_results or [result]
assert all(chip.bitstream is not None for chip in chips)
""")
    assert "repro.config_gen.bitstream" in modules
    assert not modules & POOL_AND_PNR
    assert not {name for name in modules if name.startswith("repro.service.jobs")}


def test_repro_deploy_json_loads_no_numpy():
    modules = _loaded("""
from repro.cli import main
assert main(["deploy", "LeNet", "--json"]) == 0
""")
    assert "repro.service.client" in modules
    assert not modules & POOL_AND_PNR


def test_a_pnr_compile_still_places_and_routes():
    modules = _loaded(SET_UP + """
result = FPSACompiler(cache=False).compile(build_model("MLP-500-100"), run_pnr=True)
assert result.pnr is not None and result.pnr.routing.legal
""")
    assert {"numpy", "repro.pnr.pnr", "repro.pnr.routing"} <= modules


def test_a_fresh_worker_pool_inherits_the_warm_imports():
    """The parent imports the pass modules and the P&R engine before it
    forks, so a worker (or a respawn) starts with them."""
    wanted = [
        "repro.pnr.pnr",
        "repro.pnr.passes",
        "repro.mapper.passes",
        "repro.config_gen.passes",
        "repro.models.zoo",
        "numpy",
    ]
    modules = _loaded(f"""
import sys
from repro.core.api import WorkerPool

WANTED = {wanted!r}


def held(names):
    import sys

    return [name for name in names if name in sys.modules]


with WorkerPool(1) as pool:
    assert held(WANTED) == WANTED, "the parent warms up before it forks"
    assert pool.submit(held, WANTED).result() == WANTED
""")
    assert set(wanted) <= modules
