import os

# the package pins one OpenBLAS thread when it loads, but numpy loads here
# first; a value set in the environment still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

# one profile for every property test: the same examples on each run, no
# deadline on slow first calls, and no example database in the checkout
settings.register_profile("e2qes", derandomize=True, database=None, deadline=None)
settings.load_profile("e2qes")


@pytest.fixture
def rng():
    return np.random.default_rng(42)
