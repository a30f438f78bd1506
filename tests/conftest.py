import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# a longer search for the reference comparisons, where rare signed-zero ties
# hide: pytest --hypothesis-profile=thorough
settings.register_profile("thorough", max_examples=1000, deadline=None)

from helpers import (  # noqa: E402
    CHAIN21,
    MU_E_VALUES,
    MU_F_VALUES,
    reference_training_set,
)

from caplearn import Capacity  # noqa: E402


@pytest.fixture
def chain():
    return CHAIN21


@pytest.fixture
def ref_ts():
    return reference_training_set()


@pytest.fixture
def mu_e(ref_ts):
    return Capacity(3, ref_ts.scale, MU_E_VALUES)


@pytest.fixture
def mu_f(ref_ts):
    return Capacity(3, ref_ts.scale, MU_F_VALUES)
