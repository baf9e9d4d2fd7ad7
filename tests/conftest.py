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
    """5x5 with bp_f = 4.  From the stars, column generation converges
    here in one iteration; under `one_inner_round` it takes three, so
    it exercises the multi-iteration path."""
    return BinaryMatrix(5, 5, (28, 26, 26, 8, 2))


@pytest.fixture
def one_inner_round(monkeypatch):
    """Cut every float phase to one HiGHS solve and one pricing round,
    as the mirror's column cap cuts it on large instances.  With the
    full float phase the small instances here converge in one exact
    iteration; cut, they need several."""
    import fracbp.colgen as colgen

    monkeypatch.setattr(colgen, "_INNER_ROUNDS", 1)
