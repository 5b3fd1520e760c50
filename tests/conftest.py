"""Shared fixtures for the test suite.

Expensive objects (synthesized core-op graphs of the benchmark models) are
session-scoped so the many tests that need them pay the construction cost
only once.
"""

from __future__ import annotations

import gc
import os

import pytest
from hypothesis import settings

from repro.arch.params import FPSAConfig

# Deterministic hypothesis profile, pinned for CI: derandomize makes every
# run explore the same examples (no flaky shrink sessions on shared
# runners), deadline=None tolerates slow CI machines.  Select with
# HYPOTHESIS_PROFILE=dev for randomized local exploration, deep for more.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
# ten times the examples, longer state-machine runs: CI runs the job
# lifecycle model (tests/service/test_lifecycle_model.py) under it
settings.register_profile(
    "deep", derandomize=True, deadline=None, max_examples=1000, stateful_step_count=60
)
_hypothesis_profile = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.load_profile(_hypothesis_profile)
# publish the resolved profile so everything downstream of the same knob —
# in particular repro.fuzz.campaign.default_campaign_seed(), which pins
# campaign seed 0 under the derandomized 'ci' profile — agrees with
# hypothesis on whether this run is derandomized
os.environ["HYPOTHESIS_PROFILE"] = _hypothesis_profile
from repro.mapper.allocation import allocate
from repro.mapper.mapper import SpatialTemporalMapper
from repro.models import build_lenet, build_mlp_500_100, build_vgg16
from repro.synthesizer.synthesizer import synthesize

# What the session has imported by now lives as long as it does; frozen, a
# full collection no longer re-scans it.  Unfrozen, that scan (50-85 ms) can
# land inside a speed sample of the stack benchmark's clock, whose nested
# SIGALRM sample is then counted twice (``stackbench/calibrate.py``).
gc.freeze()


@pytest.fixture(scope="session")
def config() -> FPSAConfig:
    return FPSAConfig()


@pytest.fixture
def tiles_built(monkeypatch):
    """Every ``Tile`` the splitting module constructs while the test runs."""
    from repro.synthesizer import splitting

    built = []
    tile_class = splitting.Tile

    def counting_tile(**fields):
        built.append(tile_class(**fields))
        return built[-1]

    monkeypatch.setattr(splitting, "Tile", counting_tile)
    return built


@pytest.fixture(scope="session")
def mlp_graph():
    return build_mlp_500_100()


@pytest.fixture(scope="session")
def lenet_graph():
    return build_lenet()


@pytest.fixture(scope="session")
def vgg16_graph():
    return build_vgg16()


@pytest.fixture(scope="session")
def mlp_coreops(mlp_graph):
    return synthesize(mlp_graph)


@pytest.fixture(scope="session")
def lenet_coreops(lenet_graph):
    return synthesize(lenet_graph)


@pytest.fixture(scope="session")
def vgg16_coreops(vgg16_graph):
    return synthesize(vgg16_graph)


@pytest.fixture(scope="session")
def lenet_mapping(lenet_coreops, config):
    mapper = SpatialTemporalMapper(config)
    return mapper.map(lenet_coreops, duplication_degree=4)


@pytest.fixture(scope="session")
def mlp_allocation(mlp_coreops, config):
    return allocate(mlp_coreops, duplication_degree=2, pe=config.pe)


@pytest.fixture(scope="session")
def vgg16_allocation(vgg16_coreops, config):
    return allocate(vgg16_coreops, duplication_degree=64, pe=config.pe)
