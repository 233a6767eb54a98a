import sys
import warnings

import numpy as np
import pytest
from hypothesis import settings

from smoothcam import (Model, build_fixture, conv_layer, dense_layer, detector_scene,
                       flatten_layer, forward, maxpool_layer, relu_layer)

# When a property fails, Hypothesis imports this module, and libcst's import of it raises a
# mypy_extensions DeprecationWarning. pyproject turns that into an error, which pytest reports
# as an INTERNALERROR that ends the session before the remaining tests run. Importing it once
# here confines the warning to this import; every other DeprecationWarning is still an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: Hypothesis skips the patch file
        pass

# Property tests replay the same examples on every run and stay fast.
settings.register_profile("smoothcam", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("smoothcam")


@pytest.fixture
def forward_passes(monkeypatch):
    """Call it to see every forward pass: it returns the list of each pass's arguments.

    `forward` is rebound under every name that refers to it in every loaded smoothcam module,
    as perfbench/tracer.py does, so a pass that moves to another module is still seen. Each
    pass runs `around(forward, *args, **kwargs)`, which by default just makes the pass.
    """
    def install(around=lambda forward, *args, **kwargs: forward(*args, **kwargs)):
        passes = []

        def recorded(*args, **kwargs):
            passes.append(args)
            return around(forward, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "smoothcam" or name.startswith("smoothcam.")):
                for attr, value in list(vars(module).items()):
                    if value is forward:
                        monkeypatch.setattr(module, attr, recorded)
        return passes

    return install


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


@pytest.fixture
def strided_model(rng):
    """3 channels, two padded convs (the first of stride 2), a disjoint and an overlapping pool."""
    layers = [
        conv_layer("conv1", rng.standard_normal((4, 3, 3, 3)), rng.normal(0.0, 0.1, 4),
                   stride=2, padding=1),
        relu_layer("relu1"),
        maxpool_layer("pool1", 2),
        conv_layer("conv2", rng.standard_normal((5, 4, 3, 3)), rng.normal(0.0, 0.1, 5),
                   padding=1),
        relu_layer("relu2"),
        maxpool_layer("pool2", 2, stride=1),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((3, 20)), rng.normal(0.0, 0.1, 3)),
    ]
    return Model(layers=layers, input_shape=(3, 13, 13), class_count=3)
