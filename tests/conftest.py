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
def r5():
    # jumps up to 5: the first jump from x and the gather around y reach +-5
    return validate_model(1, {(1,): 0.01, (4,): 0.2, (5,): 0.7})


@pytest.fixture(scope="session")
def walk2d():
    return nearest_neighbor_walk(2)


@pytest.fixture(scope="session")
def walk3d():
    return nearest_neighbor_walk(3)


@pytest.fixture(scope="session")
def diagonal2d():
    return validate_model(2, {(1, 0): 0.2, (0, 1): 0.2, (1, 1): 0.05, (1, -1): 0.05})


@pytest.fixture(scope="session")
def crossed2d():
    # the coefficient of exp(i theta_2) in phi, 2 a cos(theta_1) with a = 1/6,
    # vanishes at theta_1 = pi/2
    return validate_model(2, {(1, 0): 1 / 6, (1, 1): 1 / 6, (-1, 1): 1 / 6})


@pytest.fixture(scope="session")
def long2d():
    # |z_2| up to 2; the coefficient of exp(2 i theta_2) vanishes at theta_1 = pi/2,
    # and (1, 1) without (1, -1) makes rho(x_1, x_2) differ from rho(x_1, -x_2)
    return validate_model(2, {(1, 0): 0.2, (0, 1): 0.15, (1, 1): 0.05, (1, 2): 0.05, (-1, 2): 0.05})


@pytest.fixture(scope="session")
def skewed3d():
    # off-axis jumps (1, 1, 1) and (1, -1, 0): phi does not split over the axes
    return validate_model(3, {(1, 0, 0): 0.2, (0, 1, 0): 0.2, (0, 0, 1): 0.2, (1, 1, 1): 0.05, (1, -1, 0): 0.07})


@pytest.fixture(scope="session")
def knight2d():
    # rates even in each axis, jumps of range 2
    return validate_model(2, {(1, 0): 0.2, (0, 1): 0.2, (2, 1): 0.05, (2, -1): 0.05})


@pytest.fixture(scope="session")
def long3d():
    # rates even in each axis, one jump of range 2
    return validate_model(3, {(1, 0, 0): 0.2, (0, 1, 0): 0.2, (0, 0, 1): 0.2, (2, 0, 0): 0.05})


@pytest.fixture(scope="session")
def weakaxes2d():
    # far from even in each axis: a strong diagonal over weak axis jumps
    return validate_model(2, {(1, 1): 1.0, (1, 0): 1e-4, (0, 1): 1e-4})


@pytest.fixture(scope="session")
def weakaxes3d():
    return validate_model(3, {(1, 1, 0): 1.0, (0, 1, 1): 1.0, (1, 0, 0): 1e-3})
