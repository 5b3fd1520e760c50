"""The front end's numbers, pinned exactly.

``frontend_pins.json`` holds, for every zoo model at duplication 1 and 64
and for CIFAR-VGG17 d1 on 2 chips: each group's (tiles, duplication,
iterations, pes) in allocation order, the allocation totals, the control
plan and block counts, the performance report, the bounds and the energy
report.  A change to how these numbers are derived must leave each one as
it is; floats compare with ``==``.

Re-record (after a deliberate change of the front end only) with::

    PYTHONPATH=src python tests/mapper/test_frontend_pins.py
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.compiler import FPSACompiler
from repro.models.zoo import MODEL_BUILDERS, build_model

PINS = pathlib.Path(__file__).with_name("frontend_pins.json")

POINTS = [(model, dup, None) for model in MODEL_BUILDERS for dup in (1, 64)]
POINTS.append(("CIFAR-VGG17", 1, 2))


def point_key(model, dup, chips):
    return f"{model}@d{dup}" + (f"x{chips}" if chips else "")


def mapping_numbers(mapping):
    allocation = mapping.allocation
    return {
        "groups": [
            [a.tiles, a.duplication, a.iterations, a.pes]
            for a in allocation.allocations.values()
        ],
        "total_pes": allocation.total_pes,
        "max_iterations": allocation.max_iterations,
        "min_pes": allocation.min_pes,
        "temporal_utilization": allocation.temporal_utilization(),
        "control": dataclasses.asdict(mapping.control),
        "blocks": mapping.block_counts(),
    }


def observe(model, dup, chips):
    result = FPSACompiler(cache=False).compile(
        build_model(model), duplication_degree=dup, num_chips=chips
    )
    numbers = {
        "performance": dataclasses.asdict(result.performance),
        "bounds": dataclasses.asdict(result.bounds),
    }
    if result.mapping is not None:
        numbers.update(mapping_numbers(result.mapping))
        numbers["energy"] = dataclasses.asdict(result.energy())
    else:
        numbers["shards"] = [mapping_numbers(s.mapping) for s in result.shard_results]
    # through JSON, so a recorded tuple and a fresh list compare alike
    return json.loads(json.dumps(numbers))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_every_point_is_pinned(pins):
    assert sorted(pins) == sorted(point_key(*p) for p in POINTS)


@pytest.mark.parametrize("point", POINTS, ids=[point_key(*p) for p in POINTS])
def test_front_end_numbers_are_the_recorded_ones(pins, point):
    assert observe(*point) == pins[point_key(*point)]


if __name__ == "__main__":
    # one point per line, so a re-record diffs point by point
    lines = [
        f"{json.dumps(point_key(*p))}:{json.dumps(observe(*p), separators=(',', ':'))}"
        for p in POINTS
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
