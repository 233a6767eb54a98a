import math
import re

import numpy as np
import pytest

from smoothcam import (
    Model,
    NonConvLayerError,
    ParamError,
    ScoreMode,
    UnknownLayerError,
    conv_layer,
    dense_layer,
    finite_diff_input_grad,
    finite_diff_layer_grad,
    flatten_layer,
    forward,
    grad_wrt_input,
    grad_wrt_layer,
    higher_order_triple,
    maxpool_layer,
    relu_layer,
    softmax_layer,
)
from smoothcam import network
from smoothcam.gradients import SCORE_MODES
from smoothcam.network import KINDS


def _sum_tail_net(rng, dense_scale=1.0):
    """conv -> flatten -> dense whose single row is all ones (scaled)."""
    layers = [
        conv_layer("conv1", rng.standard_normal((2, 1, 3, 3)), np.zeros(2)),
        flatten_layer("flatten1"),
        dense_layer("dense1", np.full((1, 2 * 6 * 6), dense_scale), np.zeros(1)),
    ]
    return Model(layers=layers, input_shape=(1, 8, 8), class_count=1)


def _relative_errors(analytic, estimate, floor=1e-6):
    mask = np.abs(analytic) > floor
    assert mask.any()
    return np.abs(analytic - estimate)[mask] / np.abs(analytic)[mask]


def test_sum_tail_gives_unit_gradient(rng):
    model = _sum_tail_net(rng)
    trace = forward(model, rng.random((1, 8, 8)))
    g = grad_wrt_layer(model, trace, ScoreMode("raw-logit", 0), "conv1")
    assert np.array_equal(g, np.ones((2, 6, 6)))


def test_zero_tail_gives_zero_gradient(rng):
    model = _sum_tail_net(rng, dense_scale=0.0)
    trace = forward(model, rng.random((1, 8, 8)))
    g = grad_wrt_layer(model, trace, ScoreMode("raw-logit", 0), "conv1")
    assert np.all(g == 0.0)


@pytest.mark.parametrize("mode", ["raw-logit", "exp-logit", "probability"])
def test_layer_gradient_matches_finite_differences(random_model, rng, mode):
    trace = forward(random_model, rng.random((1, 16, 16)))
    score = ScoreMode(mode, 3)
    g = grad_wrt_layer(random_model, trace, score, "conv1")
    fd = finite_diff_layer_grad(random_model, trace, score, "conv1", h=1e-4)
    assert _relative_errors(g, fd).max() < 1e-3


@pytest.mark.parametrize("mode", ["raw-logit", "exp-logit", "probability"])
def test_input_gradient_matches_finite_differences(random_model, rng, mode):
    x = rng.random((1, 16, 16))
    trace = forward(random_model, x)
    score = ScoreMode(mode, 5)
    g = grad_wrt_input(random_model, x, score)
    fd = finite_diff_input_grad(random_model, trace, score, h=1e-4)
    assert _relative_errors(g, fd).max() < 1e-3


def test_input_gradient_of_linear_model_is_weight_row(rng):
    w = rng.standard_normal((3, 12))
    layers = [
        flatten_layer("flatten1"),
        dense_layer("dense1", w, np.zeros(3)),
        softmax_layer("softmax1"),
    ]
    model = Model(layers=layers, input_shape=(3, 2, 2), class_count=3)
    x = rng.random((3, 2, 2))
    for c in range(3):
        g = grad_wrt_input(model, x, ScoreMode("raw-logit", c))
        assert np.max(np.abs(g - w[c].reshape(3, 2, 2))) < 1e-12


def test_input_gradient_zero_weights(rng):
    layers = [
        flatten_layer("flatten1"),
        dense_layer("dense1", np.zeros((2, 4)), np.zeros(2)),
    ]
    model = Model(layers=layers, input_shape=(1, 2, 2), class_count=2)
    g = grad_wrt_input(model, rng.random((1, 2, 2)), ScoreMode("raw-logit", 0))
    assert np.all(g == 0.0)


def test_gradient_through_pool_scatters_to_argmax(rng):
    layers = [
        conv_layer("conv1", np.ones((1, 1, 1, 1)), np.zeros(1)),
        maxpool_layer("pool1", 2),
        flatten_layer("flatten1"),
        dense_layer("dense1", np.ones((1, 4)), np.zeros(1)),
    ]
    model = Model(layers=layers, input_shape=(1, 4, 4), class_count=1)
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    trace = forward(model, x)
    g = grad_wrt_layer(model, trace, ScoreMode("raw-logit", 0), "conv1")
    want = np.zeros((1, 4, 4))
    want[0, 1::2, 1::2] = 1.0  # increasing values put every window max bottom-right
    assert np.array_equal(g, want)


def _oracle_input_check(model, rng):
    """grad_wrt_input against the frozen-gate finite-difference oracle."""
    x = rng.random(model.input_shape)
    trace = forward(model, x)
    for mode in ("raw-logit", "exp-logit"):
        score = ScoreMode(mode, 1)
        g = grad_wrt_input(model, x, score)
        fd = finite_diff_input_grad(model, trace, score, h=1e-4)
        assert _relative_errors(g, fd).max() < 1e-6
    return trace


def test_input_gradient_strided_padded_conv_matches_finite_differences(rng):
    layers = [
        conv_layer("conv1", rng.standard_normal((3, 2, 3, 3)), rng.normal(0.0, 0.1, 3),
                   stride=2, padding=1),
        relu_layer("relu1"),
        conv_layer("conv2", rng.standard_normal((4, 3, 2, 2)), rng.normal(0.0, 0.1, 4),
                   stride=2, padding=1),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((3, 4 * 3 * 3)), np.zeros(3)),
    ]
    model = Model(layers=layers, input_shape=(2, 7, 7), class_count=3)
    trace = _oracle_input_check(model, rng)
    assert trace.per_layer["conv1"].shape == (3, 4, 4)


def test_input_gradient_overlapping_pool_matches_finite_differences(rng):
    layers = [
        conv_layer("conv1", rng.standard_normal((2, 1, 3, 3)), rng.normal(0.0, 0.1, 2)),
        relu_layer("relu1"),
        maxpool_layer("pool1", 3, stride=1),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((3, 2 * 6 * 6)), np.zeros(3)),
    ]
    model = Model(layers=layers, input_shape=(1, 10, 10), class_count=3)
    trace = _oracle_input_check(model, rng)
    sources = trace.gates["pool1"].ravel()  # flat indices into relu1's output
    assert len(set(sources)) < len(sources)  # some source wins several windows


@pytest.mark.parametrize("mode", ["raw-logit", "exp-logit", "probability"])
def test_sweeps_through_a_mid_network_softmax_match_finite_differences(rng, mode):
    # A softmax that is not the last layer is the only one a sweep differentiates through.
    # Errors are measured against the largest entry: the oracle's rounding swamps tiny ones.
    layers = [
        conv_layer("conv1", rng.standard_normal((2, 1, 3, 3)), rng.normal(0.0, 0.1, 2)),
        relu_layer("relu1"),
        flatten_layer("flatten1"),
        softmax_layer("softmax1"),
        dense_layer("dense1", rng.standard_normal((3, 2 * 6 * 6)), rng.normal(0.0, 0.1, 3)),
    ]
    model = Model(layers=layers, input_shape=(1, 8, 8), class_count=3)
    x = rng.random((1, 8, 8))
    trace = forward(model, x)
    score = ScoreMode(mode, 1)
    for g, fd in ((grad_wrt_input(model, x, score),
                   finite_diff_input_grad(model, trace, score, h=1e-5)),
                  (grad_wrt_layer(model, trace, score, "conv1"),
                   finite_diff_layer_grad(model, trace, score, "conv1", h=1e-5))):
        assert np.abs(g - fd).max() < 1e-8 * np.abs(g).max()


@pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (2, 3), (1, 1)])
def test_disjoint_pool_backward_equals_accumulation(rng, size, stride):
    spec = maxpool_layer("pool1", size, stride=stride)
    x = rng.standard_normal((3, 11, 11))
    out, gate = KINDS["maxpool"].forward(spec, x)
    grad = rng.standard_normal(out.shape)
    want = np.zeros_like(x)
    np.add.at(want, np.unravel_index(gate, x.shape), grad)
    assert KINDS["maxpool"].backward(spec, grad, x, out, gate).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# higher_order_triple
# ---------------------------------------------------------------------------


def test_triple_at_zero_logit_unit_gradient():
    t = higher_order_triple(np.ones((1, 2, 2)), 0.0, "exp-logit")
    assert np.all(t.d1 == 1.0) and np.all(t.d2 == 1.0) and np.all(t.d3 == 1.0)


def test_triple_zero_gradient():
    t = higher_order_triple(np.zeros((2, 3, 3)), 1.7, "exp-logit")
    assert np.all(t.d1 == 0.0) and np.all(t.d2 == 0.0) and np.all(t.d3 == 0.0)


def test_triple_direct_evaluation():
    g = np.full((1, 1, 1), 3.0)
    t = higher_order_triple(g, math.log(2.0), "exp-logit")
    assert t.d1[0, 0, 0] == pytest.approx(6.0, abs=1e-12)
    assert t.d2[0, 0, 0] == pytest.approx(18.0, abs=1e-12)
    assert t.d3[0, 0, 0] == pytest.approx(54.0, abs=1e-12)


def test_triple_raw_logit_mode(rng):
    g = rng.standard_normal((2, 2, 2))
    t = higher_order_triple(g, 5.0, "raw-logit")
    assert np.array_equal(t.d1, g)
    assert np.all(t.d2 == 0.0) and np.all(t.d3 == 0.0)


def test_triple_raw_logit_reads_a_nested_list_as_float64():
    t = higher_order_triple([[[1, 2], [3, 4]]], 0.0, "raw-logit")
    for d in (t.d1, t.d2, t.d3):
        assert isinstance(d, np.ndarray) and d.dtype == np.float64 and d.shape == (1, 2, 2)
    assert t.d1.tolist() == [[[1.0, 2.0], [3.0, 4.0]]]


def test_triple_probability_mode_declined():
    with pytest.raises(ParamError):
        higher_order_triple(np.ones((1, 1, 1)), 0.0, "probability")


@pytest.mark.parametrize("logit", ["2", True, None], ids=["text", "bool", "none"])
@pytest.mark.parametrize("mode", ["exp-logit", "raw-logit"])
def test_triple_logit_must_be_a_real_number(mode, logit):
    # "2" gave exp(2)·g and True e·g; None was a bare TypeError, or accepted by raw-logit.
    with pytest.raises(ParamError, match="logit must be a real number"):
        higher_order_triple(np.ones((1, 2, 2)), logit, mode)
    t = higher_order_triple(np.ones((1, 2, 2)), np.float32(0.0), mode)
    assert t.d1.tolist() == [[[1.0, 1.0], [1.0, 1.0]]]


def test_triple_algebraic_consistency(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    g = grad_wrt_layer(random_model, trace, ScoreMode("raw-logit", 2), "conv1")
    t = higher_order_triple(g, float(trace.logits[2]), "exp-logit")
    assert np.max(np.abs(t.d2 * t.d1 - t.d1**2 * g)) < 1e-10
    assert np.max(np.abs(t.d3 - t.d1 * g * g)) < 1e-10


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_diff_exact_on_linear_tail(rng):
    model = _sum_tail_net(rng)
    trace = forward(model, rng.random((1, 8, 8)))
    score = ScoreMode("raw-logit", 0)
    g = grad_wrt_layer(model, trace, score, "conv1")
    fd = finite_diff_layer_grad(model, trace, score, "conv1", h=1e-4)
    assert np.max(np.abs(g - fd)) < 1e-9


def test_finite_diff_second_order_convergence(random_model, rng):
    # With a smooth (softmax-score) tail the central difference error is O(h^2).
    trace = forward(random_model, rng.random((1, 16, 16)))
    score = ScoreMode("probability", 1)
    g = grad_wrt_layer(random_model, trace, score, "conv1")
    err_h = np.max(np.abs(finite_diff_layer_grad(random_model, trace, score, "conv1", h=1e-2) - g))
    err_h2 = np.max(np.abs(finite_diff_layer_grad(random_model, trace, score, "conv1", h=5e-3) - g))
    assert err_h2 < 0.5 * err_h


def test_finite_diff_zero_tail(rng):
    model = _sum_tail_net(rng, dense_scale=0.0)
    trace = forward(model, rng.random((1, 8, 8)))
    fd = finite_diff_layer_grad(model, trace, ScoreMode("raw-logit", 0), "conv1")
    assert np.all(fd == 0.0)


def test_finite_diff_rejects_bad_step(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    with pytest.raises(ParamError):
        finite_diff_layer_grad(random_model, trace, ScoreMode("raw-logit", 0), "conv1", h=0.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda m, t: higher_order_triple(np.ones((2, 3, 3)), 0.0, "squared-logit"),
                 id="triple-unknown-mode"),
    pytest.param(lambda m, t: finite_diff_input_grad(m, t, ScoreMode("raw-logit", 0), h=0.0),
                 id="input-step-zero"),
    pytest.param(lambda m, t: finite_diff_input_grad(m, t, ScoreMode("raw-logit", 0), h=-1e-4),
                 id="input-step-negative"),
    pytest.param(lambda m, t: finite_diff_layer_grad(m, t, ScoreMode("raw-logit", 0), "conv1",
                                                     h=float("nan")), id="layer-step-nan"),
])
def test_input_errors(random_model, rng, call):
    with pytest.raises(ParamError):
        call(random_model, forward(random_model, rng.random(random_model.input_shape)))


@pytest.mark.parametrize("h", [True, "0.1", None, np.inf], ids=["bool", "text", "none", "inf"])
@pytest.mark.parametrize("oracle", ["layer", "input"])
def test_finite_diff_step_must_be_a_finite_real_number(random_model, rng, oracle, h):
    # True ran with a step of 1.0; text and None raised a bare TypeError.
    trace = forward(random_model, rng.random(random_model.input_shape))
    layer = ("conv1",) if oracle == "layer" else ()
    call = finite_diff_layer_grad if oracle == "layer" else finite_diff_input_grad
    with pytest.raises(ParamError, match="step h must be"):
        call(random_model, trace, ScoreMode("raw-logit", 0), *layer, h=h)


@pytest.mark.parametrize("c, message", [
    (-1, "class index -1 out of range [0, 10)"), (10, "class index 10 out of range [0, 10)"),
    (True, "class index must be an integer, got True"),
    (2.0, "class index must be an integer, got 2.0"), ("1", "class index must be an integer"),
    (None, "class index must be an integer, got None"),
], ids=["negative", "past-end", "bool", "float", "text", "none"])
@pytest.mark.parametrize("mode", SCORE_MODES)
def test_score_value_reads_its_class_by_the_class_rule(mode, c, message):
    # -1 scored the last class; the others ended in a bare TypeError or IndexError.
    with pytest.raises(ParamError, match=re.escape(message)):
        ScoreMode(mode).value(np.arange(10.0), c)
    assert ScoreMode(mode).value(np.arange(10.0), np.int64(9)) == ScoreMode(mode).value(
        np.arange(10.0), 9)


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def test_gradient_linear_in_tail_weights(rng):
    x = rng.random((1, 8, 8))
    base = _sum_tail_net(rng, dense_scale=1.0)
    doubled = _sum_tail_net(rng, dense_scale=2.0)
    g1 = grad_wrt_layer(base, forward(base, x), ScoreMode("raw-logit", 0), "conv1")
    g2 = grad_wrt_layer(doubled, forward(doubled, x), ScoreMode("raw-logit", 0), "conv1")
    assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-12


def test_unknown_layer(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    with pytest.raises(UnknownLayerError):
        grad_wrt_layer(random_model, trace, ScoreMode("raw-logit", 0), "nosuch")


def test_non_conv_layer(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    with pytest.raises(NonConvLayerError):
        grad_wrt_layer(random_model, trace, ScoreMode("raw-logit", 0), "pool1")


def test_class_index_out_of_range(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    with pytest.raises(ParamError):
        grad_wrt_layer(random_model, trace, ScoreMode("raw-logit", 10), "conv1")


def test_score_mode_rejects_unknown_mode():
    with pytest.raises(ParamError):
        ScoreMode("squared-logit", 0)


def test_auto_class_resolves_to_argmax(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    c = ScoreMode("raw-logit", None).resolve_class(trace)
    assert c == int(np.argmax(trace.logits))


def test_a_tracer_sees_every_backward_kernel_call(strided_model, rng, monkeypatch):
    # KINDS calls the backward kernels through network's globals, as it does the forward ones,
    # so a tracer that rebinds those names catches each call: padded convs (the first of
    # stride 2), a disjoint pool and an overlapping one.
    x = rng.random(strided_model.input_shape)
    score = ScoreMode("exp-logit", 1)
    untraced = grad_wrt_input(strided_model, x, score)
    calls = []
    for name in ("conv2d_backward", "maxpool2d_backward"):
        def traced(grad, *args, _name=name, _kernel=getattr(network, name)):
            dx = _kernel(grad, *args)
            calls.append((_name, grad.shape, dx.shape))
            return dx
        monkeypatch.setattr(network, name, traced)
    sweep = [("maxpool2d_backward", (5, 2, 2), (5, 3, 3)),
             ("conv2d_backward", (5, 3, 3), (4, 3, 3)),
             ("maxpool2d_backward", (4, 3, 3), (4, 7, 7)),
             ("conv2d_backward", (4, 7, 7), (3, 13, 13))]
    assert grad_wrt_input(strided_model, x, score).tobytes() == untraced.tobytes()
    assert calls == sweep
    calls.clear()
    grad_wrt_layer(strided_model, forward(strided_model, x), score, "conv1")
    assert calls == sweep[:3]
