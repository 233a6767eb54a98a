import numpy as np
import pytest
from hypothesis import settings

from smoothcam import build_fixture, detector_scene

# Property tests replay the same examples on every run and stay fast.
settings.register_profile("smoothcam", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("smoothcam")


@pytest.fixture
def random_model():
    return build_fixture("random", seed=7)


@pytest.fixture
def detector_model():
    return build_fixture("detector")


@pytest.fixture
def scene_top_left():
    return detector_scene("top-left")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
