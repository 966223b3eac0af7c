import pytest

from taboowalk import nearest_neighbor_walk, simple_walk_1d, validate_model


@pytest.fixture(scope="session")
def simple1d():
    return simple_walk_1d(1.0)


@pytest.fixture(scope="session")
def nonsimple1d():
    # rates +-1: 0.4, +-2: 0.1  (total rate a = 1, variance B = 1.6)
    return validate_model(1, {(1,): 0.4, (2,): 0.1})


@pytest.fixture(scope="session")
def walk2d():
    return nearest_neighbor_walk(2)


@pytest.fixture(scope="session")
def walk3d():
    return nearest_neighbor_walk(3)


@pytest.fixture(scope="session")
def diagonal2d():
    return validate_model(2, {(1, 0): 0.2, (0, 1): 0.2, (1, 1): 0.05, (1, -1): 0.05})
