"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.sweep import scenarios


@pytest.fixture(autouse=True)
def _restore_scenario_registries():
    """Forget the scenarios a test registers once it ends.

    The registries are process-wide, so a scenario a test leaves behind
    (say, one whose instances sleep) is built by every later test that
    walks ``scenario_names()``.  Scenarios registered at import, built-in
    or by a test module, stay.
    """
    registries = (scenarios._REGISTRY, scenarios._DYNAMIC_REGISTRY)
    saved = [dict(registry) for registry in registries]
    yield
    for registry, before in zip(registries, saved):
        registry.clear()
        registry.update(before)


@pytest.fixture
def triangle():
    """The 3-cycle."""
    return generators.cycle_graph(3)


@pytest.fixture
def square():
    """The 4-cycle."""
    return generators.cycle_graph(4)


@pytest.fixture
def five_cycle():
    """The 5-cycle."""
    return generators.cycle_graph(5)


@pytest.fixture
def path4():
    """A path on four nodes."""
    return generators.path_graph(4)


@pytest.fixture
def k4():
    """The complete graph on four nodes."""
    return generators.complete_graph(4)


@pytest.fixture
def all_ones_path():
    """A path whose nodes are all labeled 1."""
    return generators.path_graph(4, labels=["1", "1", "1", "1"])


@pytest.fixture
def one_zero_path():
    """A path with a single 0-labeled node."""
    return generators.path_graph(4, labels=["1", "0", "1", "1"])


def ids_of(graph):
    """Sequential identifiers for a graph (helper, not a fixture)."""
    return sequential_identifier_assignment(graph)
