import pytest
from hypothesis import settings

from cavity_squeezing import SystemParams

# Property tests that pin no example count (the CSV writer's) run Hypothesis's
# default of 100 examples; `--hypothesis-profile thorough` runs ten times as many.
settings.register_profile("thorough", max_examples=1000)


@pytest.fixture
def canonical():
    """The parameter point used for most frozen expectations."""
    return SystemParams.from_gamma_c(0.4, 0.8, 0.2)
