import numpy as np
import pytest

from trifuse.verify import TINY  # small encoder config so unit tests stay fast


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg():
    return TINY
