"""Shared fixtures for the test suite.

Two kinds of data are used throughout:

* ``figure1_*`` — a hand-built four-object scenario that realizes exactly the
  contact network of Figure 1 of the paper (contacts c1..c4 with the validity
  intervals given in Section 3.1), so tests can assert against ground truth
  stated in the paper itself.
* ``tiny_*`` / ``vn_tiny_*`` — small generated datasets shared (session scope)
  by the index/baseline tests to keep the suite fast.
"""

from __future__ import annotations

import pytest

from repro.contacts import build_contact_network
from repro.core import (
    ContactConfig,
    Point,
    ReachGraphConfig,
    ReachGridConfig,
    StorageConfig,
)
from repro.generators import RandomWaypointGenerator, RoadNetworkGenerator
from repro.reachgraph import ReachGraphIndex, reduce_contact_network
from repro.reachgrid import ReachGridIndex
from repro.storage import STORAGE_BACKENDS, make_backend
from repro.trajectory import Trajectory, TrajectoryDataset, TrajectoryStore


def pytest_addoption(parser):
    """Register --labels: restrict label-parametrized tests to one setting.

    The flag exists only when pytest targets a path inside ``tests/`` (this
    conftest must be *initial* to register options); a full-repo run simply
    exercises both settings.
    """
    parser.addoption(
        "--labels",
        choices=("on", "off"),
        default=None,
        help=(
            "run label-parametrized query-fast-path tests with the interval "
            "label index enabled or disabled only (default: both)"
        ),
    )


@pytest.fixture(autouse=True)
def _disarm_fault_points():
    """Leave no fault point armed across tests.

    The crash-injection registry (:mod:`repro.testing.faults`) is process
    global; a test that arms a point and then fails before the probe fires
    must not leak a pending ``SimulatedCrash`` into an unrelated test.
    """
    from repro.testing import faults

    faults.clear()
    yield
    faults.clear()


def pytest_generate_tests(metafunc):
    """Parametrize every ``graph_labels`` test, honouring the --labels flag.

    Lives here (not in one test module) so the flag pins the setting
    uniformly across the suites that take it.
    """
    if "graph_labels" in metafunc.fixturenames:
        chosen = metafunc.config.getoption("labels", default=None)
        label_modes = (chosen == "on",) if chosen else (True, False)
        metafunc.parametrize("graph_labels", label_modes)


# ----------------------------------------------------------------------
# Backend-conformance matrix (every block-device backend)
# ----------------------------------------------------------------------
@pytest.fixture(params=STORAGE_BACKENDS)
def backend_name(request):
    return request.param


@pytest.fixture()
def make(backend_name, tmp_path):
    """A factory creating (and re-opening) the parametrized backend.

    Successive calls with the same ``stem`` target the same backing file,
    which is how the persistence tests model a close/reopen cycle.
    """

    def factory(stem="device", **config_kwargs):
        config = StorageConfig(backend=backend_name, **config_kwargs)
        suffix = {"file": ".blocks", "mmap": ".mmap"}.get(backend_name, "")
        return make_backend(config, path=str(tmp_path / f"{stem}{suffix}"))

    factory.backend_name = backend_name
    return factory


# ----------------------------------------------------------------------
# Figure 1 scenario (ground truth from the paper)
# ----------------------------------------------------------------------
FIGURE1_THRESHOLD = 10.0


def _figure1_positions():
    """Positions of o1..o4 at ticks 0..3 realizing the paper's Figure 1.

    Resulting contacts (dT = 10):
      c1 = {o1, o2} valid [0, 0]
      c2 = {o2, o4} valid [1, 1]
      c3 = {o3, o4} valid [1, 2]
      c4 = {o1, o2} valid [2, 3]
    """
    return {
        1: [Point(10, 10), Point(10, 40), Point(20, 20), Point(30, 30)],
        2: [Point(15, 10), Point(60, 60), Point(26, 20), Point(36, 30)],
        3: [Point(50, 50), Point(76, 60), Point(80, 20), Point(10, 80)],
        4: [Point(80, 80), Point(68, 60), Point(86, 20), Point(40, 80)],
    }


@pytest.fixture(scope="session")
def figure1_dataset() -> TrajectoryDataset:
    trajectories = [
        Trajectory(object_id, positions)
        for object_id, positions in _figure1_positions().items()
    ]
    return TrajectoryDataset(
        trajectories, environment_size=(100.0, 100.0), name="figure1"
    )


@pytest.fixture(scope="session")
def figure1_network(figure1_dataset):
    return build_contact_network(figure1_dataset, threshold=FIGURE1_THRESHOLD)


@pytest.fixture(scope="session")
def figure1_dag(figure1_network):
    dag, _ = reduce_contact_network(figure1_network)
    return dag


# ----------------------------------------------------------------------
# Small generated datasets (shared across index tests)
# ----------------------------------------------------------------------
TINY_THRESHOLD = 30.0


@pytest.fixture(scope="session")
def tiny_dataset() -> TrajectoryDataset:
    return RandomWaypointGenerator(
        num_objects=36, horizon=120, environment_size=(700.0, 700.0), seed=7
    ).generate()


@pytest.fixture(scope="session")
def tiny_network(tiny_dataset):
    return build_contact_network(tiny_dataset, threshold=TINY_THRESHOLD)


@pytest.fixture(scope="session")
def tiny_contact_config():
    return ContactConfig(distance_threshold=TINY_THRESHOLD)


@pytest.fixture(scope="session")
def tiny_reachgrid(tiny_dataset, tiny_contact_config):
    config = ReachGridConfig(temporal_resolution=10, spatial_resolution=100.0)
    return ReachGridIndex(tiny_dataset, config, tiny_contact_config).build()


@pytest.fixture(scope="session")
def tiny_reachgraph(tiny_dataset, tiny_network, tiny_contact_config):
    return ReachGraphIndex(
        tiny_dataset,
        ReachGraphConfig(resolutions=(2, 4, 8, 16), partition_depth=8),
        tiny_contact_config,
        contact_network=tiny_network,
    ).build()


@pytest.fixture(scope="session")
def tiny_store(tiny_dataset):
    return TrajectoryStore(tiny_dataset).build()


@pytest.fixture(scope="session")
def vn_tiny_dataset() -> TrajectoryDataset:
    return RoadNetworkGenerator(
        num_objects=20, horizon=100, environment_size=(6_000.0, 6_000.0), seed=9
    ).generate()


@pytest.fixture(scope="session")
def vn_tiny_network(vn_tiny_dataset):
    return build_contact_network(vn_tiny_dataset, threshold=300.0)
