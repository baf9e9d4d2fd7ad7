import random

import pytest

from fracbp.core import BinaryMatrix, crown, domino

SEED = 20260823


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def d():
    return domino()


@pytest.fixture
def crown5():
    return crown(5)


@pytest.fixture
def m5():
    """5x5; from the stars, column generation takes three iterations to
    reach bp_f = 4 here, so it exercises the multi-iteration path."""
    return BinaryMatrix(5, 5, (28, 26, 26, 8, 2))
