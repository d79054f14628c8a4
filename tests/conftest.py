import numpy as np
import pytest

from quermass import build_grid
from quermass.sphere import REFERENCE_RESOLUTION


@pytest.fixture(scope="session")
def grid2():
    return build_grid(2, REFERENCE_RESOLUTION[2], "product-angular")


@pytest.fixture(scope="session")
def grid3():
    return build_grid(3, REFERENCE_RESOLUTION[3], "product-angular")


@pytest.fixture(scope="session")
def grid4():
    return build_grid(4, REFERENCE_RESOLUTION[4], "product-angular")


@pytest.fixture(scope="session")
def grid5():
    return build_grid(5, REFERENCE_RESOLUTION[5], "product-angular")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
