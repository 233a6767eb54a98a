"""README's library examples run as written, so the README cannot drift from the API."""

import re
from pathlib import Path

import numpy as np

from smoothcam import build_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:  # in order, in one namespace: each block goes on from the last
        exec(compile(block, str(README), "exec"), scope)
    display = scope["smap"].display
    assert display.shape == (16, 16)
    assert 0.0 <= display.min() and display.max() <= 1.0
    # The re-drawn model maps differently, and the model it came from keeps its kernels.
    randomized = scope["smap_random"].display
    assert randomized.shape == (16, 16) and not np.array_equal(randomized, display)
    assert np.array_equal(scope["model"].layer("conv1").weight,
                          build_fixture("random", seed=7).layer("conv1").weight)
