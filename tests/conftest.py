import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# derandomize: every run draws the same examples, so tier-1 is deterministic
settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
