import numpy as np
import pytest
from hypothesis import settings

# one profile for every property test: the same examples on each run, no
# deadline on slow first calls, and no example database in the checkout
settings.register_profile("e2qes", derandomize=True, database=None, deadline=None)
settings.load_profile("e2qes")


@pytest.fixture
def rng():
    return np.random.default_rng(42)
