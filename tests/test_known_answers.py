"""Hand-built models whose right answer is known, so a map can be scored against it.

The two-class bars model holds a horizontal and a vertical line detector; each class sums
one detector's pooled map. On a scene with a horizontal bar top-left and a vertical bar
bottom-right, both logits are equal, so a map that discriminates classes (Grad-CAM's claim,
Selvaraju et al., arXiv 1610.02391) must move to the explained class's own bar.

Deletion and insertion AUC (Petsiuk et al., RISE, arXiv 1806.07421) score a map's pixel order
on the bars and on the detector fixture against random orders: removing the top-ranked
pixels first should drop the class probability faster, keeping them alone should hold it up.
"""

import functools

import numpy as np
import pytest

from smoothcam import (Model, SaliencyRequest, ScoreMode, build_fixture, conv_layer, dense_layer,
                       detector_scene, flatten_layer, forward, maxpool_layer, relu_layer, run,
                       softmax_layer)
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


def deletion_insertion(model: Model, x: np.ndarray, cls: int, order) -> tuple[float, float]:
    """Deletion and insertion AUC of a pixel order: class cls's probability relative to the
    clean input's, averaged over k = 0..20, after zeroing the first round(k*H*W/20) pixels
    of `order` in every channel (deletion) or copying only those into a zero input (insertion)."""
    clean = _probability(model, x, cls)
    flat = x.reshape(x.shape[0], -1)
    deletion, insertion = [], []
    for k in range(21):
        top = order[: round(k * flat.shape[1] / 20)]
        deleted, inserted = flat.copy(), np.zeros_like(flat)
        deleted[:, top] = 0.0
        inserted[:, top] = flat[:, top]
        deletion.append(_probability(model, deleted.reshape(x.shape), cls) / clean)
        insertion.append(_probability(model, inserted.reshape(x.shape), cls) / clean)
    return float(np.mean(deletion)), float(np.mean(insertion))


def _probability(model: Model, x: np.ndarray, cls: int) -> float:
    return float(forward(model, x).per_layer[model.layers[-1].name][cls])


# (model, scene, class) per case, and the CAM methods' measured gaps to the random order
# (random deletion - deletion, insertion - random insertion); n=25, sigma 0.15, seed 3.
AUC_CASES = {
    "bars, 0": (bars_model, bars_scene, 0, (0.045, 0.064)),
    "bars, 1": (bars_model, bars_scene, 1, (0.009, 0.014)),
    "detector top-left, 0": (lambda: build_fixture("detector"),
                             lambda: detector_scene("top-left"), 0, (0.029, 0.028)),
    "detector bottom-right, 0": (lambda: build_fixture("detector"),
                                 lambda: detector_scene("bottom-right"), 0, (0.030, 0.029)),
}


@functools.cache
def random_order_auc(case: str) -> tuple[float, float]:
    """Mean deletion and insertion AUC over 50 random pixel orders from default_rng(0)."""
    make_model, make_scene, cls, _ = AUC_CASES[case]
    model, x = make_model(), make_scene()
    rng = np.random.default_rng(0)
    scores = [deletion_insertion(model, x, cls, rng.permutation(x[0].size)) for _ in range(50)]
    return tuple(np.mean(scores, axis=0))


@pytest.mark.parametrize("method", CAM_METHODS)
@pytest.mark.parametrize("case", sorted(AUC_CASES))
def test_cam_pixel_order_beats_a_random_order(method, case):
    # Each by at least half its measured gap. The smallest, bars class 1 deletion, is small
    # because both bars logits are 0.25 and the probabilities barely move.
    make_model, make_scene, cls, (deletion_gap, insertion_gap) = AUC_CASES[case]
    model, x = make_model(), make_scene()
    request = SaliencyRequest(method=method, score=ScoreMode("exp-logit", cls), layer="conv1",
                              n=25, sigma_rel=0.15, seed=3)
    display = run(model, x, request).display
    deletion, insertion = deletion_insertion(model, x, cls,
                                             np.argsort(-display.ravel(), kind="stable"))
    random_deletion, random_insertion = random_order_auc(case)
    assert deletion <= random_deletion - deletion_gap / 2
    assert insertion >= random_insertion + insertion_gap / 2
