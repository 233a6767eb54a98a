import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smoothcam import (
    GradientTriple,
    Model,
    NeuronSelection,
    NonConvLayerError,
    NonFiniteMapError,
    ParamError,
    SaliencyRequest,
    ScoreMode,
    ShapeError,
    SmoothCamError,
    UnknownLayerError,
    apply_selection,
    bilinear_resize,
    build_fixture,
    cam_map,
    compute_alpha,
    conv_layer,
    dense_layer,
    flatten_layer,
    forward,
    grad_wrt_input,
    grad_wrt_layer,
    gradcam_weights,
    gradcampp_weights,
    higher_order_triple,
    list_conv_layers,
    maxpool_layer,
    postprocess,
    relu_layer,
    run,
    smooth_triple,
    smoothgrad_map,
    softmax_layer,
    validate,
)
from smoothcam import gradients, saliency
from smoothcam.saliency import CAM_METHODS, METHODS


def _constant_triple(shape, d1, d2, d3):
    return GradientTriple(np.full(shape, d1), np.full(shape, d2), np.full(shape, d3))


# ---------------------------------------------------------------------------
# smooth_triple
# ---------------------------------------------------------------------------


def test_smooth_triple_degenerate_equals_single_pass(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(
        method="smooth-gradcampp", score=ScoreMode("exp-logit", 4),
        layer="conv1", n=1, sigma_rel=0.0, seed=5,
    )
    averaged, activations = smooth_triple(random_model, x, request)
    trace = forward(random_model, x)
    g = grad_wrt_layer(random_model, trace, ScoreMode("raw-logit", 4), "conv1")
    direct = higher_order_triple(g, float(trace.logits[4]), "exp-logit")
    assert np.array_equal(averaged.d1, direct.d1)
    assert np.array_equal(averaged.d2, direct.d2)
    assert np.array_equal(averaged.d3, direct.d3)
    assert np.array_equal(activations, trace.per_layer["conv1"])


def test_smooth_triple_zero_sigma_ignores_sample_count(random_model, rng):
    x = rng.random((1, 16, 16))
    one = SaliencyRequest(method="smooth-gradcampp", score=ScoreMode("exp-logit", 0),
                          layer="conv1", n=1, sigma_rel=0.0, seed=9)
    eight = SaliencyRequest(method="smooth-gradcampp", score=ScoreMode("exp-logit", 0),
                            layer="conv1", n=8, sigma_rel=0.0, seed=9)
    t1, a1 = smooth_triple(random_model, x, one)
    t8, a8 = smooth_triple(random_model, x, eight)
    assert np.max(np.abs(t1.d1 - t8.d1)) < 1e-15
    assert np.max(np.abs(t1.d2 - t8.d2)) < 1e-15
    assert np.max(np.abs(t1.d3 - t8.d3)) < 1e-15
    assert np.array_equal(a1, a8)


def test_smooth_triple_is_seed_deterministic(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(method="smooth-gradcampp", score=ScoreMode("exp-logit", 2),
                              layer="conv1", n=6, sigma_rel=0.2, seed=77)
    ta, _ = smooth_triple(random_model, x, request)
    tb, _ = smooth_triple(random_model, x, request)
    assert np.array_equal(ta.d1, tb.d1)
    assert np.array_equal(ta.d2, tb.d2)
    assert np.array_equal(ta.d3, tb.d3)


def test_smooth_triple_averaged_source_differs_under_noise(random_model, rng):
    x = rng.random((1, 16, 16))
    base_kwargs = dict(method="smooth-gradcampp", score=ScoreMode("exp-logit", 0),
                       layer="conv1", n=8, sigma_rel=0.2, seed=3)
    _, a_orig = smooth_triple(random_model, x,
                              SaliencyRequest(activation_source="original", **base_kwargs))
    _, a_avg = smooth_triple(random_model, x,
                             SaliencyRequest(activation_source="averaged", **base_kwargs))
    trace = forward(random_model, x)
    assert np.array_equal(a_orig, trace.per_layer["conv1"])
    assert not np.array_equal(a_avg, a_orig)


# ---------------------------------------------------------------------------
# compute_alpha / weights
# ---------------------------------------------------------------------------


def test_alpha_hand_worked_case():
    # d1=0.5, d2=0.25, d3=0.1, activations all ones on a 2x2 map:
    # alpha = 0.5 / (2*0.25 + 4*0.1) = 5/9 everywhere.
    triple = _constant_triple((1, 2, 2), 0.5, 0.25, 0.1)
    alpha = compute_alpha(triple, np.ones((1, 2, 2)))
    assert np.max(np.abs(alpha - 5.0 / 9.0)) < 1e-12


def test_alpha_guarded_denominator():
    triple = _constant_triple((2, 3, 3), 0.7, 0.0, 0.0)
    alpha = compute_alpha(triple, np.ones((2, 3, 3)))
    assert np.all(alpha == 0.0)


def test_alpha_scale_invariance(rng):
    shape = (3, 4, 4)
    triple = GradientTriple(rng.standard_normal(shape), rng.standard_normal(shape) + 2.0,
                            rng.standard_normal(shape))
    A = rng.random(shape)
    base = compute_alpha(triple, A)
    for c in (2.0, 0.5, 10.0):
        scaled = GradientTriple(c * triple.d1, c * triple.d2, c * triple.d3)
        assert np.max(np.abs(compute_alpha(scaled, A) - base)) < 1e-10


def test_alpha_shape_mismatch():
    triple = _constant_triple((1, 2, 2), 1.0, 1.0, 1.0)
    with pytest.raises(Exception):
        compute_alpha(triple, np.ones((2, 2, 2)))


def test_gradcampp_weights_hand_worked_case():
    alpha = np.full((1, 2, 2), 5.0 / 9.0)
    d1 = np.full((1, 2, 2), 0.5)
    w = gradcampp_weights(alpha, d1)
    assert abs(w[0] - 10.0 / 9.0) < 1e-12


def test_gradcampp_weights_negative_d1_killed_by_relu(rng):
    alpha = rng.random((2, 3, 3))
    w = gradcampp_weights(alpha, -np.ones((2, 3, 3)))
    assert np.all(w == 0.0)


def test_gradcampp_weights_zero_alpha(rng):
    w = gradcampp_weights(np.zeros((2, 3, 3)), rng.random((2, 3, 3)))
    assert np.all(w == 0.0)


def test_gradcam_weights_constant_gradient():
    assert np.array_equal(gradcam_weights(np.ones((3, 4, 4))), np.ones(3))


def test_gradcam_weights_antisymmetric_cancels():
    g = np.array([[[1.0, -1.0], [2.0, -2.0]]])
    assert gradcam_weights(g)[0] == 0.0


def test_gradcam_weights_matches_loop_sum(rng):
    g = rng.standard_normal((3, 5, 4))
    want = np.zeros(3)
    for k in range(3):
        acc = 0.0
        for i in range(5):
            for j in range(4):
                acc += g[k, i, j]
        want[k] = acc / 20.0
    assert np.max(np.abs(gradcam_weights(g) - want)) < 1e-12


# ---------------------------------------------------------------------------
# cam_map
# ---------------------------------------------------------------------------


def test_cam_map_relu_clips_negative_sum():
    A = np.ones((2, 3, 3))
    out = cam_map(np.array([1.0, -2.0]), A)
    assert np.all(out == 0.0)


def test_cam_map_full_filter_list_is_identity(rng):
    w = rng.standard_normal(4)
    A = rng.random((4, 5, 5))
    assert np.array_equal(cam_map(w, A, filters=[0, 1, 2, 3]), cam_map(w, A))


def test_cam_map_singleton_filter(rng):
    A = rng.standard_normal((3, 4, 4))
    w = np.array([1.0, 5.0, -2.0])
    assert np.array_equal(cam_map(w, A, filters=[0]), np.maximum(A[0], 0.0))


def test_cam_map_filter_out_of_range(rng):
    with pytest.raises(ParamError):
        cam_map(np.ones(2), rng.random((2, 3, 3)), filters=[2])


# ---------------------------------------------------------------------------
# neuron selection
# ---------------------------------------------------------------------------


def test_selection_requires_consistent_fields():
    with pytest.raises(ParamError, match="exactly one of coords and box"):
        NeuronSelection()  # both missing
    with pytest.raises(ParamError, match="exactly one of coords and box"):
        NeuronSelection(coords=((0, 0),), box=(0, 0, 1, 1))  # both given
    with pytest.raises(ParamError, match="exactly one of coords and box"):
        NeuronSelection(coords=(), box=(0, 0, 1, 1))  # an empty coordinate list still counts


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SaliencyRequest(method="gradcam", layer="conv1", filters=()),
                 "filters must be one or more integers, got ()", id="filters-empty"),
    pytest.param(lambda: SaliencyRequest(method="gradcam", layer="conv1", filters=(1.5,)),
                 "filters must be one or more integers, got (1.5,)", id="filters-float"),
    pytest.param(lambda: SaliencyRequest(method="gradcam", layer="conv1", filters=(True,)),
                 "filters must be one or more integers, got (True,)", id="filters-bool"),
    pytest.param(lambda: NeuronSelection(coords=((True, 2),)),
                 "a neuron coordinate must be 2 integers, got (True, 2)", id="coords-bool"),
    pytest.param(lambda: NeuronSelection(coords=((1.5, 2),)),
                 "a neuron coordinate must be 2 integers, got (1.5, 2)", id="coords-float"),
    pytest.param(lambda: NeuronSelection(coords=((1, 2, 3),)),
                 "a neuron coordinate must be 2 integers, got (1, 2, 3)", id="coords-triple"),
    pytest.param(lambda: NeuronSelection(coords=(1, 2)),
                 "a neuron coordinate must be 2 integers, got 1", id="coords-flat"),
    pytest.param(lambda: NeuronSelection(coords=[(1, 2)]),
                 "coords must be a tuple of (row, col) pairs, got [(1, 2)]", id="coords-list"),
    pytest.param(lambda: NeuronSelection(box=(0, 0, 2.5, 3)),
                 "a region box must be 4 integers, got (0, 0, 2.5, 3)", id="box-float"),
    pytest.param(lambda: NeuronSelection(box=(0, 0, 3)),
                 "a region box must be 4 integers, got (0, 0, 3)", id="box-three"),
])
def test_selection_values_must_be_integers(build, message):
    # Each of these used to select something (1.5 and True read as 1), give an all-zero
    # map, or end in numpy's IndexError, TypeError or ValueError at the first pass.
    with pytest.raises(ParamError, match=re.escape(message)):
        build()


def test_selection_stores_plain_ints():
    sel = NeuronSelection(coords=((np.int64(3), 5),))
    assert sel.coords == ((3, 5),) and type(sel.coords[0][0]) is int
    assert NeuronSelection(box=np.array([0, 1, 2, 3])).box == (0, 1, 2, 3)
    request = SaliencyRequest(method="gradcam", layer="conv1", filters=[np.int32(2), 0])
    assert request.filters == (2, 0)


def _net(spec, side, classes):
    return Model(layers=[spec, flatten_layer("f")], input_shape=(1, side, side),
                 class_count=classes)


def _conv1x1(**params):
    return conv_layer("c", np.ones((1, 1, 1, 1)), np.zeros(1), **params)


# Every integer a caller passes: field -> (build with value v, what it stores of v or None).
# Each build is valid for v = 3.
_CALLER_INTEGERS = {
    "class-index": (lambda v: ScoreMode("exp-logit", v), lambda r: r.class_index),
    "samples": (lambda v: SaliencyRequest(method="smoothgrad", n=v), lambda r: r.n),
    "seed": (lambda v: SaliencyRequest(method="smoothgrad", seed=v), lambda r: r.seed),
    "filter": (lambda v: SaliencyRequest(method="gradcam", layer="conv1", filters=(v,)),
               lambda r: r.filters[0]),
    "coordinate": (lambda v: NeuronSelection(coords=((v, 0),)), lambda r: r.coords[0][0]),
    "box": (lambda v: NeuronSelection(box=(0, 0, v, v)), lambda r: r.box[2]),
    "input-shape": (lambda v: Model(layers=[flatten_layer("f")], input_shape=(v, 1, 1),
                                    class_count=3), lambda r: r.input_shape[0]),
    "class-count": (lambda v: Model(layers=[flatten_layer("f")], input_shape=(3, 1, 1),
                                    class_count=v), lambda r: r.class_count),
    "conv-stride": (lambda v: _net(_conv1x1(stride=v), 1, 1), lambda r: r.layers[0].stride),
    "conv-padding": (lambda v: _net(_conv1x1(padding=v), 1, 49), lambda r: r.layers[0].padding),
    "pool-size": (lambda v: _net(maxpool_layer("p", v, 1), 3, 1), lambda r: r.layers[0].size),
    "pool-stride": (lambda v: _net(maxpool_layer("p", 1, v), 1, 1), lambda r: r.layers[0].stride),
    "fixture-seed": (lambda v: build_fixture("random", seed=v), None),
    "fixture-classes": (lambda v: build_fixture("random", class_count=v),
                        lambda r: r.class_count),
}


@given(field=st.sampled_from(sorted(_CALLER_INTEGERS)),
       dtype=st.sampled_from([int, np.int8, np.int32, np.int64, np.uint8, np.uint64]),
       bad=st.floats() | st.booleans() | st.text(max_size=3))
# Each of these used to be taken: read as an int (class 2, 1 and 3, one sample, 3 classes),
# kept as a float shape (padding) or failing only after the clean pass (2.5 and 1.5).
@example(field="class-index", dtype=int, bad=2.7)
@example(field="class-index", dtype=int, bad=True)
@example(field="class-index", dtype=int, bad="3")
@example(field="samples", dtype=int, bad=2.5)
@example(field="samples", dtype=int, bad=True)
@example(field="seed", dtype=int, bad=1.5)
@example(field="class-count", dtype=int, bad=3.9)
@example(field="conv-padding", dtype=int, bad=3.0)
def test_every_caller_integer_is_read_by_one_rule(field, dtype, bad):
    # A float, bool or string fails at construction; a numpy integer is stored as an int.
    build, stored = _CALLER_INTEGERS[field]
    built = build(dtype(3))
    if stored is not None:
        assert stored(built) == 3 and type(stored(built)) is int
    with pytest.raises(SmoothCamError):
        build(bad)


def test_selection_out_of_bounds():
    sel = NeuronSelection(coords=((5, 0),))
    with pytest.raises(ParamError):
        sel.mask(4, 4)
    box = NeuronSelection(box=(0, 0, 4, 2))
    with pytest.raises(ParamError):
        box.mask(4, 4)


def test_full_selection_is_identity(rng):
    A = rng.random((2, 4, 4))
    triple = GradientTriple(rng.standard_normal((2, 4, 4)),
                            rng.standard_normal((2, 4, 4)),
                            rng.standard_normal((2, 4, 4)))
    coords = tuple((r, c) for r in range(4) for c in range(4))
    a2, t2 = apply_selection(A, triple, NeuronSelection(coords=coords))
    assert np.array_equal(a2, A)
    assert np.array_equal(t2.d1, triple.d1)
    a3, t3 = apply_selection(A, triple, NeuronSelection(box=(0, 0, 3, 3)))
    assert np.array_equal(a3, A)
    assert np.array_equal(t3.d3, triple.d3)


def test_single_coordinate_selection_matches_zeroing_oracle(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(
        method="gradcampp", score=ScoreMode("exp-logit", 1), layer="conv1",
        neurons=NeuronSelection(coords=((3, 5),)), seed=0,
    )
    got = run(random_model, x, request)

    # Definitional oracle: zero every tensor outside the coordinate by hand,
    # then run the unmasked stages.
    triple, A = smooth_triple(random_model, x, SaliencyRequest(
        method="smooth-gradcampp", score=ScoreMode("exp-logit", 1),
        layer="conv1", n=1, sigma_rel=0.0, seed=0))
    keep = np.zeros((14, 14))
    keep[3, 5] = 1.0
    masked = GradientTriple(triple.d1 * keep, triple.d2 * keep, triple.d3 * keep)
    alpha = compute_alpha(masked, A * keep)
    weights = gradcampp_weights(alpha, masked.d1)
    raw = cam_map(weights, A * keep)
    display = postprocess(raw, 16, 16)
    assert np.max(np.abs(got.raw - raw)) < 1e-12
    assert np.max(np.abs(got.display - display)) < 1e-12


def test_empty_coordinate_list_yields_zero_map(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(method="gradcampp", score=ScoreMode("exp-logit", 0),
                              layer="conv1", neurons=NeuronSelection(coords=()), seed=0)
    smap = run(random_model, x, request)
    assert np.all(smap.raw == 0.0)
    assert np.all(smap.display == 0.0)


# ---------------------------------------------------------------------------
# smoothgrad / sensitivity
# ---------------------------------------------------------------------------


def _assert_one_sample_identity(models, requests):
    """run maps each of requests(model) byte for byte as its smoothed twin with one noise-free
    sample does, raw, display and class, on three inputs to each model."""
    twin = {"sensitivity": "smoothgrad", "gradcampp": "smooth-gradcampp"}
    for k, model in enumerate(models):
        for plain in requests(model):
            smoothed = replace(plain, method=twin[plain.method], n=1, sigma_rel=0.0)
            for draw in range(3):
                x = np.random.default_rng(draw).random(model.input_shape)
                a, b = run(model, x, plain), run(model, x, smoothed)
                assert (a.raw.tobytes(), a.display.tobytes(), a.chosen_class) == (
                    b.raw.tobytes(), b.display.tobytes(), b.chosen_class), (k, draw, plain)


def test_smoothgrad_degenerate_equals_sensitivity(random_model, detector_model, strided_model):
    _assert_one_sample_identity((random_model, detector_model, strided_model), lambda model: [
        SaliencyRequest(method="sensitivity", score=ScoreMode(mode))
        for mode in ("exp-logit", "raw-logit")])


def test_smooth_gradcampp_degenerate_equals_gradcampp(random_model, detector_model,
                                                       strided_model):
    def requests(model):
        for layer in list_conv_layers(model):
            _, h, w = validate(model)[layer]
            plain = SaliencyRequest(method="gradcampp", layer=layer)
            yield plain
            yield replace(plain, neurons=NeuronSelection(box=(1, 1, h - 2, w - 2)))
            yield replace(plain, filters=(0, 1))

    _assert_one_sample_identity((random_model, detector_model, strided_model), requests)


def test_smoothgrad_constant_gradient_model_is_noise_free(rng):
    # A purely linear model has an input-independent gradient, so averaging
    # over any number of noised samples changes nothing.
    w = rng.standard_normal((2, 12))
    layers = [flatten_layer("flatten1"), dense_layer("dense1", w, np.zeros(2))]
    model = Model(layers=layers, input_shape=(3, 2, 2), class_count=2)
    x = rng.random((3, 2, 2))
    want = np.abs(w[1].reshape(3, 2, 2)).max(axis=0)
    for n, sigma in ((1, 0.0), (5, 0.3), (17, 0.1)):
        request = SaliencyRequest(method="smoothgrad", score=ScoreMode("raw-logit", 1),
                                  n=n, sigma_rel=sigma, seed=21)
        smap = smoothgrad_map(model, x, request)
        assert np.max(np.abs(smap.raw - want)) < 1e-12


def test_smoothgrad_variance_shrinks_with_sample_count(random_model, rng):
    x = rng.random((1, 16, 16))

    def raw_map(n, master_seed):
        request = SaliencyRequest(method="smoothgrad", score=ScoreMode("raw-logit", 0),
                                  n=n, sigma_rel=0.1, seed=master_seed)
        return smoothgrad_map(random_model, x, request).raw

    seeds = range(12)
    std_1 = np.stack([raw_map(1, s) for s in seeds]).std(axis=0).mean()
    std_16 = np.stack([raw_map(16, s) for s in seeds]).std(axis=0).mean()
    assert 0.125 <= std_16 / std_1 <= 0.5


def test_smoothgrad_rejects_cam_only_options(random_model, rng):
    x = rng.random((1, 16, 16))
    with pytest.raises(ParamError):
        run(random_model, x, SaliencyRequest(method="smoothgrad", filters=(0,), seed=0))
    with pytest.raises(ParamError):
        run(random_model, x, SaliencyRequest(
            method="sensitivity", neurons=NeuronSelection(coords=((0, 0),)), seed=0))


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------


def test_postprocess_constant_map_goes_to_zero():
    assert np.all(postprocess(np.full((3, 3), 7.0), 6, 6) == 0.0)


def test_postprocess_identity_on_normalized_map(rng):
    raw = rng.random((5, 5))
    raw[0, 0] = 0.0
    raw[4, 4] = 1.0
    assert np.array_equal(postprocess(raw, 5, 5), raw)


def test_postprocess_keeps_argmax_of_resized_map(rng):
    for _ in range(5):
        raw = rng.random((6, 6)) * 0.5
        spike = tuple(rng.integers(0, 6, size=2))
        raw[spike] = 2.0
        display = postprocess(raw, 16, 16)
        resized = bilinear_resize(raw, 16, 16)
        assert np.argmax(display) == np.argmax(resized)


def test_postprocess_output_in_unit_range(rng):
    display = postprocess(rng.random((7, 7)), 16, 16)
    assert display.min() >= 0.0 and display.max() <= 1.0


@pytest.mark.parametrize("shape", [(0, 0), (0, 4)], ids=["0x0", "0x4"])
def test_postprocess_rejects_an_empty_map(shape):
    with pytest.raises(ShapeError, match="with values"):  # was an IndexError
        postprocess(np.zeros(shape), 8, 8)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reduction_identity_single_class(random_model, rng):
    x = rng.random((1, 16, 16))
    smooth = SaliencyRequest(method="smooth-gradcampp", score=ScoreMode("exp-logit", 3),
                             layer="conv1", n=1, sigma_rel=0.0, seed=8)
    plain = SaliencyRequest(method="gradcampp", score=ScoreMode("exp-logit", 3),
                            layer="conv1", seed=8)
    a = run(random_model, x, smooth)
    b = run(random_model, x, plain)
    assert np.max(np.abs(a.raw - b.raw)) < 1e-10
    assert np.max(np.abs(a.display - b.display)) < 1e-10


def test_run_cam_raw_maps_are_nonnegative(random_model, rng):
    x = rng.random((1, 16, 16))
    for method in ("gradcam", "gradcampp", "smooth-gradcampp"):
        request = SaliencyRequest(method=method, layer="conv1", n=4, sigma_rel=0.1, seed=2)
        smap = run(random_model, x, request)
        assert np.all(smap.raw >= 0.0)
        assert smap.display.min() >= 0.0 and smap.display.max() <= 1.0


def test_run_is_byte_deterministic(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(method="smooth-gradcampp", layer="conv1",
                              n=5, sigma_rel=0.15, seed=31)
    a = run(random_model, x, request)
    b = run(random_model, x, request)
    assert a.raw.tobytes() == b.raw.tobytes()
    assert a.display.tobytes() == b.display.tobytes()
    assert (a.request, a.chosen_class) == (b.request, b.chosen_class)


def test_run_meta_echoes_request(random_model, rng):
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(method="gradcam", score=ScoreMode("raw-logit", 6),
                              layer="conv1", filters=(1, 3), seed=12)
    smap = run(random_model, x, request)
    assert smap.request is request
    assert smap.chosen_class == 6


def test_run_auto_class_is_argmax(random_model, rng):
    x = rng.random((1, 16, 16))
    trace = forward(random_model, x)
    smap = run(random_model, x, SaliencyRequest(method="gradcam", layer="conv1", seed=0))
    assert smap.chosen_class == int(np.argmax(trace.logits))


def test_run_gradcam_honors_neuron_selection(random_model, rng):
    x = rng.random((1, 16, 16))
    full = run(random_model, x, SaliencyRequest(
        method="gradcam", layer="conv1", seed=0,
        neurons=NeuronSelection(box=(0, 0, 13, 13))))
    plain = run(random_model, x, SaliencyRequest(method="gradcam", layer="conv1", seed=0))
    assert np.array_equal(full.raw, plain.raw)
    empty = run(random_model, x, SaliencyRequest(
        method="gradcam", layer="conv1", seed=0, neurons=NeuronSelection(coords=())))
    assert np.all(empty.raw == 0.0)


def test_request_validation():
    with pytest.raises(ParamError):
        SaliencyRequest(method="occlusion")
    with pytest.raises(ParamError):
        SaliencyRequest(method="gradcam", layer="conv1", n=0)
    with pytest.raises(ParamError):
        SaliencyRequest(method="gradcam", layer="conv1", sigma_rel=1.0)
    with pytest.raises(ParamError):
        SaliencyRequest(method="gradcam", layer="conv1", seed=-1)
    with pytest.raises(ParamError):
        SaliencyRequest(method="gradcam", layer="conv1", activation_source="mean")
    with pytest.raises(ParamError, match="requires a conv layer"):
        SaliencyRequest(method="gradcampp")
    with pytest.raises(ParamError, match="only apply to CAM methods"):
        SaliencyRequest(method="smoothgrad", filters=(0,))
    for method in ("sensitivity", "smoothgrad"):
        with pytest.raises(ParamError, match="a layer, filters and neuron selections"):
            SaliencyRequest(method=method, layer="conv1")
        with pytest.raises(ParamError, match="averaged activations, only apply to CAM methods"):
            SaliencyRequest(method=method, activation_source="averaged")


def test_request_is_frozen():
    # Setting a field skipped every check: n = 0 crashed the averaging loop, a raw-logit
    # score gave gradcampp an all-zero map, and smoothgrad kept a layer it ignores.
    request = SaliencyRequest(method="gradcampp", layer="conv1")
    for name, value in [("n", 0), ("score", ScoreMode("raw-logit")), ("layer", "conv9")]:
        with pytest.raises(FrozenInstanceError):
            setattr(request, name, value)
    with pytest.raises(ParamError, match="sample count must be an integer >= 1, got 0"):
        replace(request, n=0)
    with pytest.raises(ParamError, match="only apply to CAM methods"):
        replace(SaliencyRequest(method="smoothgrad"), layer="conv1")


@pytest.mark.parametrize("sigma", ["0.1", None, False], ids=["text", "none", "bool"])
def test_sigma_rel_must_be_a_real_number(sigma):
    # Text and None raised a bare TypeError; False passed as 0.
    with pytest.raises(ParamError, match="sigma_rel must be a real number"):
        SaliencyRequest(method="smoothgrad", sigma_rel=sigma)
    request = SaliencyRequest(method="smoothgrad", sigma_rel=np.float32(0.1))
    assert request.sigma_rel == np.float32(0.1)


def test_smooth_triple_refuses_a_non_cam_request_before_any_pass(random_model, rng, monkeypatch):
    passes = []
    monkeypatch.setattr(saliency, "forward", lambda *args: passes.append(args))
    request = SaliencyRequest(method="smoothgrad", score=ScoreMode("probability"))
    with pytest.raises(UnknownLayerError):
        smooth_triple(random_model, rng.random(random_model.input_shape), request)
    assert passes == []


_BAD_TARGETS = {  # id: (request changes, error, message); only "class" applies to every method
    "class": ({"score": ScoreMode("exp-logit", 10)}, ParamError,
              "class index 10 out of range [0, 10)"),
    "filter-9": ({"filters": (0, 1, 9)}, ParamError, "filter index 9 out of range [0, 4)"),
    "filter-negative": ({"filters": (-1,)}, ParamError, "filter index -1 out of range [0, 4)"),
    "unknown-layer": ({"layer": "nosuch"}, UnknownLayerError, "unknown layer: nosuch"),
    "relu-layer": ({"layer": "relu1"}, NonConvLayerError, "layer 'relu1' has kind 'relu'"),
    "neuron": ({"neurons": NeuronSelection(coords=((3, 5), (99, 99)))}, ParamError,
               "neuron coordinate (99, 99) out of bounds for 14x14 map"),
    "region-box": ({"neurons": NeuronSelection(box=(0, 0, 99, 99))}, ParamError,
                   "region box (0, 0, 99, 99) out of bounds for 14x14 map"),
}


@pytest.mark.parametrize("method, changes, error, message", [
    pytest.param(method, *case, id=f"{method}-{name}")
    for method in METHODS for name, case in _BAD_TARGETS.items()
    if method in CAM_METHODS or name == "class"
])
def test_run_rejects_a_bad_target_before_any_pass(random_model, rng, monkeypatch, method,
                                                   changes, error, message):
    passes = []
    monkeypatch.setattr(saliency, "forward", lambda *args, **kwargs: passes.append(args))
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    request = SaliencyRequest(method=method, **{**layer, "n": 3, **changes})
    with pytest.raises(error, match=re.escape(message)):
        run(random_model, rng.random(random_model.input_shape), request)
    assert passes == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", METHODS)
def test_run_refuses_a_non_finite_input_before_any_pass(random_model, rng, monkeypatch, method,
                                                        value):
    # A NaN pixel used to give an all-NaN display, or an error that named the noise sigma.
    passes = []
    for module in (saliency, gradients):
        monkeypatch.setattr(module, "forward", lambda *args, **kwargs: passes.append(args))
    x = rng.random(random_model.input_shape)
    x[0, 3, 5] = x[0, 9, 1] = value
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    with pytest.raises(ParamError, match="input holds 2 NaN or infinite values of 256"):
        run(random_model, x, SaliencyRequest(method=method, n=3, **layer))
    assert passes == []


@pytest.mark.parametrize("entry, method", [(smoothgrad_map, "sensitivity"),
                                           (smoothgrad_map, "smoothgrad"),
                                           (smooth_triple, "gradcampp"),
                                           (smooth_triple, "smooth-gradcampp")])
def test_public_entry_points_refuse_a_non_finite_input_before_any_pass(random_model, rng,
                                                                       monkeypatch, entry, method):
    # Only run checked the input: a NaN pixel gave a sigma error nobody set, a false
    # "class score overflowed", or NaN stacks from smooth_triple without any error.
    passes = []
    for module in (saliency, gradients):
        monkeypatch.setattr(module, "forward", lambda *args, **kwargs: passes.append(args))
    x = rng.random(random_model.input_shape)
    x[0, 4, 4] = np.nan
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    with pytest.raises(ParamError, match="input holds 1 NaN or infinite values of 256"):
        entry(random_model, x, SaliencyRequest(method=method, n=3, **layer))
    assert passes == []


@pytest.mark.parametrize("entry, method, changes, error, message", [
    *[pytest.param(smooth_triple, method, *case, id=f"smooth_triple-{method}-{name}")
      for method in ("gradcampp", "smooth-gradcampp") for name, case in _BAD_TARGETS.items()],
    *[pytest.param(smoothgrad_map, method, *_BAD_TARGETS["class"], id=f"smoothgrad_map-{method}")
      for method in ("sensitivity", "smoothgrad")],
    pytest.param(lambda model, x, request: grad_wrt_input(model, x, request.score),
                 "sensitivity", *_BAD_TARGETS["class"], id="grad_wrt_input"),
])
def test_public_entry_points_reject_a_bad_target_before_any_pass(random_model, rng, monkeypatch,
                                                                  entry, method, changes, error,
                                                                  message):
    # Each refused a bad class only after a forward pass, and smooth_triple never refused a
    # filter index or neuron selection its layer cannot hold.
    passes = []
    for module in (saliency, gradients):
        monkeypatch.setattr(module, "forward", lambda *args, **kwargs: passes.append(args))
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    request = SaliencyRequest(method=method, **{**layer, "n": 3, **changes})
    with pytest.raises(error, match=re.escape(message)):
        entry(random_model, rng.random(random_model.input_shape), request)
    assert passes == []


def _shifted(model, shift):
    """The model with `shift` added to every logit; the softmax, and so the class, stay."""
    layers = [replace(s, bias=s.bias + shift) if s.kind == "dense" else s for s in model.layers]
    return Model(layers, model.input_shape, model.class_count)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the way to the overflow
@pytest.mark.parametrize("method", ["sensitivity", "smoothgrad", "gradcampp", "smooth-gradcampp"])
def test_run_refuses_a_map_that_is_not_finite(random_model, rng, method):
    # +800 on every logit overflows exp(score): run returned an all-NaN display, no error.
    model = _shifted(random_model, 800.0)
    x = rng.random(model.input_shape)
    c = int(np.argmax(forward(model, x).logits))
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    message = f"{method} output for class {c} is not finite: the class score overflowed"
    with pytest.raises(NonFiniteMapError, match=re.escape(message)):
        run(model, x, SaliencyRequest(method=method, n=3, **layer))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_smoothgrad_map_refuses_a_map_that_is_not_finite(random_model, rng):
    model = _shifted(random_model, 800.0)
    with pytest.raises(NonFiniteMapError, match="smoothgrad output for class"):
        smoothgrad_map(model, rng.random(model.input_shape),
                       SaliencyRequest(method="smoothgrad", n=3))


def test_gradcam_map_is_unchanged_when_the_class_score_overflows(random_model, rng):
    # Grad-CAM weighs by the raw-logit gradient, which a shift of every logit leaves alone.
    x = rng.random(random_model.input_shape)
    request = SaliencyRequest(method="gradcam", layer="conv1")
    shifted = run(_shifted(random_model, 800.0), x, request)
    assert np.array_equal(shifted.raw, run(random_model, x, request).raw)
    assert np.isfinite(shifted.display).all()


@pytest.mark.parametrize("method, passes", [
    ("smooth-gradcampp", 5), ("gradcampp", 3), ("smoothgrad", 4), ("sensitivity", 2),
])
def test_no_clean_trace_outlives_its_last_read(random_model, rng, monkeypatch, method, passes):
    # A clean pass is read only for its class and target activations, so no earlier pass's
    # trace may be alive when a pass starts.
    traces, alive = [], []

    def tracked(model, x):
        alive.append(sum(ref() is not None for ref in traces))
        trace = forward(model, x)
        traces.append(weakref.ref(trace))
        return trace

    for module in (saliency, gradients):
        monkeypatch.setattr(module, "forward", tracked)
    layer = {"layer": "conv1"} if method in CAM_METHODS else {}
    run(random_model, rng.random(random_model.input_shape),
        SaliencyRequest(method=method, n=3, **layer))
    assert alive == [0] * passes


_STACK = np.ones((4, 7, 7))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda m, x: compute_alpha(_constant_triple((4, 7, 7), 1, 1, 1), _STACK[:, :6]),
                 ShapeError, id="alpha-activations"),
    pytest.param(lambda m, x: compute_alpha(GradientTriple(_STACK, _STACK, _STACK[0]), _STACK),
                 ShapeError, id="alpha-2d-d3"),
    pytest.param(lambda m, x: gradcampp_weights(_STACK, _STACK[:3]), ShapeError,
                 id="gradcampp-weights"),
    pytest.param(lambda m, x: gradcam_weights(_STACK[0]), ShapeError, id="gradcam-weights"),
    pytest.param(lambda m, x: cam_map(np.ones(3), _STACK), ShapeError, id="cam-map-weights"),
    pytest.param(lambda m, x: cam_map(np.ones(4), _STACK[0]), ShapeError, id="cam-map-2d"),
    # Both triples used to pass: the first met numpy's ValueError, the second broadcast.
    pytest.param(lambda m, x: apply_selection(np.ones((4, 14, 14)), _constant_triple(
        (4, 7, 7), 1, 1, 1), NeuronSelection(coords=((0, 0),))), ShapeError, id="select-small"),
    pytest.param(lambda m, x: apply_selection(np.ones((4, 14, 14)), _constant_triple(
        (1, 14, 14), 1, 1, 1), NeuronSelection(coords=((0, 0),))), ShapeError, id="select-one"),
    pytest.param(lambda m, x: smoothgrad_map(m, x, SaliencyRequest(method="gradcam",
                                                                   layer="conv1")),
                 ParamError, id="smoothgrad-map-cam-request"),
])
def test_stage_input_errors(random_model, rng, call, error):
    with pytest.raises(error):
        call(random_model, rng.random(random_model.input_shape))


@pytest.mark.parametrize("method, mode", [
    pytest.param("gradcampp", "raw-logit", id="gradcampp"),
    pytest.param("smooth-gradcampp", "raw-logit", id="smooth-gradcampp"),
    ("gradcam", "probability"), ("gradcampp", "probability"),
    ("smooth-gradcampp", "probability"),
])
def test_raw_logit_rejected_for_gradcampp(method, mode):
    # d2 = d3 = 0 for the raw logit, so every alpha and hence the map would be zero.
    # No CAM method forms the probability score's derivatives.
    with pytest.raises(ParamError, match="exp-logit"):
        SaliencyRequest(method=method, layer="conv1", score=ScoreMode(mode))
    SaliencyRequest(method="gradcam", layer="conv1", score=ScoreMode("raw-logit"))


def test_run_layer_errors(random_model, rng):
    x = rng.random((1, 16, 16))
    with pytest.raises(ParamError):
        run(random_model, x, SaliencyRequest(method="gradcampp", seed=0))  # layer missing
    with pytest.raises(UnknownLayerError):
        run(random_model, x, SaliencyRequest(method="gradcampp", layer="nosuch", seed=0))
    with pytest.raises(NonConvLayerError):
        run(random_model, x, SaliencyRequest(method="gradcampp", layer="pool1", seed=0))
    with pytest.raises(ParamError):
        run(random_model, x, SaliencyRequest(
            method="gradcampp", layer="conv1", score=ScoreMode("exp-logit", 99), seed=0))


def test_randomizing_weights_layer_by_layer_changes_the_map(random_model, rng):
    # Model-randomization sanity check (Adebayo et al., arXiv 1810.03292): a map
    # that survives re-drawn weights does not depend on what the model learned.
    x = rng.random(random_model.input_shape)
    request = SaliencyRequest(method="smooth-gradcampp", layer="conv1", n=8, sigma_rel=0.15,
                              seed=3)
    redraw = np.random.default_rng(2024)
    layers = list(random_model.layers)
    maps = [run(random_model, x, request).display]
    for name, attr in (("conv1", "weight"), ("dense1", "weight")):
        i = random_model.layer_index(name)
        old = getattr(layers[i], attr)
        layers[i] = replace(layers[i], **{attr: redraw.normal(0.0, old.std(), old.shape)})
        model = Model(layers, random_model.input_shape, random_model.class_count)
        maps.append(run(model, x, request).display)
        assert not np.allclose(maps[-1], maps[-2], atol=1e-6), name


@pytest.mark.parametrize("method", METHODS)
def test_cascading_randomization_moves_the_map_at_every_step(strided_model, rng, method):
    # Cascading model randomization (Adebayo et al., arXiv 1810.03292): re-draw the
    # weighted layers top-down, keeping the earlier re-draws. Every step must move the
    # display; the smallest step on this model is 0.13 (smooth-gradcampp, dense1).
    x = rng.random(strided_model.input_shape)
    request = SaliencyRequest(method=method, layer="conv2" if method in CAM_METHODS else None,
                              n=8, sigma_rel=0.15, seed=3)
    redraw = np.random.default_rng(2024)
    layers = list(strided_model.layers)
    before = run(strided_model, x, request).display
    for name, attr in (("dense1", "weight"), ("conv2", "weight"), ("conv1", "weight")):
        i = strided_model.layer_index(name)
        old = getattr(layers[i], attr)
        layers[i] = replace(layers[i], **{attr: redraw.normal(0.0, old.std(), old.shape)})
        after = run(Model(layers, strided_model.input_shape, strided_model.class_count), x,
                    request).display
        assert np.max(np.abs(after - before)) >= 0.05, name
        before = after


def test_clean_methods_ignore_sample_count_and_sigma(random_model, rng):
    # Only smoothgrad and smooth-gradcampp noise their input; every other method
    # averages over the input itself, once.
    x = rng.random(random_model.input_shape)
    for method, layer in (("sensitivity", None), ("gradcampp", "conv1")):
        clean = SaliencyRequest(method=method, layer=layer, n=1, sigma_rel=0.0, seed=4)
        noisy = replace(clean, n=7, sigma_rel=0.3)
        a, b = run(random_model, x, clean), run(random_model, x, noisy)
        assert a.raw.tobytes() == b.raw.tobytes() and a.display.tobytes() == b.display.tobytes()
    t1, a1 = smooth_triple(random_model, x, clean)
    t7, a7 = smooth_triple(random_model, x, noisy)
    for one, seven in ((t1.d1, t7.d1), (t1.d2, t7.d2), (t1.d3, t7.d3), (a1, a7)):
        assert one.tobytes() == seven.tobytes()


def _request(method, **kwargs):
    layer = "conv1" if method in CAM_METHODS else None
    return SaliencyRequest(method=method, layer=layer, n=4, sigma_rel=0.2, seed=6, **kwargs)


def _with_layers(model, **changed):
    layers = [replace(s, **changed[s.name]) if s.name in changed else s for s in model.layers]
    return Model(layers, model.input_shape, model.class_count)


def _assert_same_map(a, b):
    assert a.chosen_class == b.chosen_class
    assert np.max(np.abs(a.display - b.display)) <= 1e-9


@pytest.mark.parametrize("method", METHODS)
def test_input_shift_absorbed_by_conv1_bias_keeps_the_map(random_model, rng, method):
    # Input invariance (Kindermans et al., arXiv 1711.00867): conv1 has no padding, so
    # x + delta adds delta * sum(k) to each of its maps, and lowering its bias by that
    # much gives a model that computes the same function of x as the original.
    x = rng.random(random_model.input_shape)
    delta = 0.37
    conv = random_model.layer("conv1")
    shifted = _with_layers(
        random_model, conv1={"bias": conv.bias - delta * conv.weight.sum(axis=(1, 2, 3))})
    _assert_same_map(run(random_model, x, _request(method)),
                     run(shifted, x + delta, _request(method)))


@pytest.mark.parametrize("method", METHODS)
def test_conv1_filter_permutation_permutes_the_maps(random_model, rng, method):
    # Reordering conv1's filters reorders its maps; moving dense1's column blocks the
    # same way keeps every logit, the whole-layer map and each filter's own map.
    x = rng.random(random_model.input_shape)
    perm = [2, 0, 3, 1]
    conv, dense = random_model.layer("conv1"), random_model.layer("dense1")
    m = dense.weight.shape[0]
    permuted = _with_layers(
        random_model,
        conv1={"weight": conv.weight[perm], "bias": conv.bias[perm]},
        dense1={"weight": dense.weight.reshape(m, len(perm), -1)[:, perm].reshape(m, -1)},
    )
    pairs = [(None, None)]
    if method in CAM_METHODS:
        pairs += [((j,), (perm[j],)) for j in range(len(perm))]
    for new, old in pairs:
        _assert_same_map(run(permuted, x, _request(method, filters=new)),
                         run(random_model, x, _request(method, filters=old)))


@pytest.mark.parametrize("method", METHODS)
def test_dead_conv1_filter_keeps_the_maps(random_model, rng, method):
    # A conv1 filter with a zero kernel and bias, read by zero dense1 columns, changes no
    # logit and gets no gradient, so the whole-layer map and each original filter's map stay.
    x = rng.random(random_model.input_shape)
    conv, dense = random_model.layer("conv1"), random_model.layer("dense1")
    k, (m, features) = conv.weight.shape[0], dense.weight.shape
    blocks = dense.weight.reshape(m, k, features // k)
    dead = _with_layers(
        random_model,
        conv1={"weight": np.concatenate([conv.weight, np.zeros_like(conv.weight[:1])]),
               "bias": np.append(conv.bias, 0.0)},
        dense1={"weight": np.concatenate([blocks, np.zeros_like(blocks[:, :1])], axis=1)
                .reshape(m, -1)},
    )
    filters = [None]
    if method in CAM_METHODS:
        filters += [(j,) for j in range(k)]
    for chosen in filters:
        _assert_same_map(run(dead, x, _request(method, filters=chosen)),
                         run(random_model, x, _request(method, filters=chosen)))


def _rescaled(model, layer, k, a):
    """model with filter k of conv `layer` (kernel and bias) scaled by a, and the next conv's
    input channel k, or dense1's column block k, divided by a."""
    i = model.layer_index(layer)
    weight, bias = model.layers[i].weight.copy(), model.layers[i].bias.copy()
    weight[k] *= a
    bias[k] *= a
    reader = next(s for s in model.layers[i + 1:] if s.kind in ("conv", "dense"))
    read = reader.weight.copy()
    if reader.kind == "conv":
        read[:, k] /= a
    else:  # flatten lays the maps out one channel block after another
        read.reshape(len(read), len(bias), -1)[:, k] /= a
    return _with_layers(model, **{layer: {"weight": weight, "bias": bias},
                                  reader.name: {"weight": read}})


@pytest.mark.parametrize("draw", range(12))
@pytest.mark.parametrize("name", ["random", "strided"])
def test_rescaling_a_filter_against_its_reader_keeps_the_maps(random_model, strided_model, rng,
                                                              name, draw):
    # Reparametrization: ReLU and max-pooling commute with a positive scale, so scaling one
    # conv filter by a = 2**j and dividing what reads its channel by a computes the same
    # function, and a power of two scales each product exactly. The input-space maps, gradcam
    # at every conv and the CAM++ maps at every other conv keep every byte. The CAM++ maps at
    # the rescaled conv itself move: alpha's total(A_k) * d3 term is not scale-free.
    model = {"random": random_model, "strided": strided_model}[name]
    convs = [spec.name for spec in model.layers if spec.kind == "conv"]
    pick = np.random.default_rng(draw)
    layer = convs[pick.integers(len(convs))]
    k = int(pick.integers(len(model.layer(layer).bias)))
    a = 2.0 ** (int(pick.integers(1, 11)) * int(pick.choice([-1, 1])))
    rescaled, x = _rescaled(model, layer, k, a), rng.random(model.input_shape)
    targets = [("sensitivity", None), ("smoothgrad", None)]
    targets += [("gradcam", conv) for conv in convs]
    targets += [(method, conv) for method in ("gradcampp", "smooth-gradcampp")
                for conv in convs if conv != layer]
    for method, conv in targets:
        request = replace(_request(method), layer=conv)
        before, after = run(model, x, request), run(rescaled, x, request)
        assert (after.raw.tobytes(), after.display.tobytes(), after.chosen_class) == (
            before.raw.tobytes(), before.display.tobytes(), before.chosen_class), (method, conv)


# ---------------------------------------------------------------------------
# multiple instances (the source paper's headline claim)
# ---------------------------------------------------------------------------


def _two_square_model():
    """2x16x16 input; a 3x3 averaging kernel per channel, ReLU, and one class averaging both."""
    kernels = np.zeros((2, 2, 3, 3))
    kernels[0, 0] = kernels[1, 1] = 1.0 / 9.0
    features = 2 * 14 * 14
    return Model(layers=[
        conv_layer("conv1", kernels, np.zeros(2)), relu_layer("relu1"),
        flatten_layer("flatten1"),
        dense_layer("dense1", np.full((1, features), 1.0 / features), np.zeros(1)),
    ], input_shape=(2, 16, 16), class_count=1)


@pytest.mark.parametrize("big, small", [(8, 3), (8, 4), (6, 2)], ids=lambda v: str(v))
def test_smoothing_brings_out_the_small_instance(big, small):
    # Grad-CAM under-weights the smaller of two instances of a class; Smooth Grad-CAM++
    # (arXiv 1912.02094) recovers more of it. Measured peaks on the small square, seeds 0-4:
    # 8/3 0.67-0.75 vs 0.18, 8/4 0.79-0.87 vs 0.33, 6/2 0.35-0.40 vs 0.08.
    model = _two_square_model()
    x = np.zeros(model.input_shape)
    x[0, 1 : 1 + big, 1 : 1 + big] = 1.0
    x[1, 15 - small : 15, 15 - small : 15] = 1.0
    on_small = (slice(15 - small, 15), slice(15 - small, 15))

    def peak(method, seed=0):
        request = SaliencyRequest(method=method, layer="conv1", n=25, sigma_rel=0.15, seed=seed)
        return float(run(model, x, request).display[on_small].max())

    assert peak("gradcampp") >= peak("gradcam")
    for seed in range(5):
        assert peak("smooth-gradcampp", seed) >= 1.5 * peak("gradcampp")


@pytest.mark.parametrize("method", ["sensitivity", "smoothgrad", "gradcam", "smooth-gradcampp"])
def test_a_conv_stride_past_its_input_is_never_applied(method):
    # A 16x16 kernel on a 16x16 input has one window per axis, so every stride from 16 up
    # gives one network; 10**30 must not overflow the window gather's byte strides.
    rng = np.random.default_rng(5)
    kernels, bias = rng.standard_normal((2, 1, 16, 16)), rng.standard_normal(2)
    dense_w, dense_b = rng.standard_normal((3, 2)), rng.standard_normal(3)
    x = rng.random((1, 16, 16))
    request = SaliencyRequest(method=method, score=ScoreMode("exp-logit", 1), n=4, seed=2,
                              layer=None if method in ("sensitivity", "smoothgrad") else "conv1")
    displays = [run(Model([conv_layer("conv1", kernels, bias, stride=stride),
                           flatten_layer("flatten1"), dense_layer("dense1", dense_w, dense_b),
                           softmax_layer("softmax1")], (1, 16, 16), 3), x, request).display
                for stride in (16, 10**30)]
    assert np.array_equal(*displays)
