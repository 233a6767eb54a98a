import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothcam import (
    LayerSpec,
    Model,
    ParamError,
    ShapeError,
    SmoothCamError,
    conv2d,
    conv_layer,
    dense_layer,
    flatten_layer,
    forward,
    list_conv_layers,
    maxpool2d,
    maxpool_layer,
    relu_layer,
    softmax_layer,
    validate,
)


def test_validate_fixture_shape_table(random_model):
    table = validate(random_model)
    assert table == {
        "conv1": (4, 14, 14),
        "relu1": (4, 14, 14),
        "pool1": (4, 7, 7),
        "flatten1": (196,),
        "dense1": (10,),
        "softmax1": (10,),
    }


def test_dense_size_mismatch_names_layer(rng):
    layers = [
        conv_layer("conv1", rng.standard_normal((4, 1, 3, 3)), np.zeros(4)),
        relu_layer("relu1"),
        maxpool_layer("pool1", 2),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((10, 200)), np.zeros(10)),
        softmax_layer("softmax1"),
    ]
    with pytest.raises(ShapeError, match="dense1"):
        Model(layers=layers, input_shape=(1, 16, 16), class_count=10)


def test_empty_layer_list_rejected():
    with pytest.raises(ShapeError):
        Model(layers=[], input_shape=(1, 4, 4), class_count=2)


@pytest.mark.parametrize("layer, message", [
    pytest.param(5, "layer 0: 5 is not a LayerSpec", id="not-a-spec"),
    pytest.param(LayerSpec("f", []), "layer 'f': unknown kind '[]'", id="kind-list"),
    pytest.param(flatten_layer(5), "layer 0: name 5 is not a non-empty string", id="name-int"),
    pytest.param(flatten_layer(("t",)), "layer 0: name ('t',) is not a non-empty string",
                 id="name-tuple"),
    pytest.param(flatten_layer(""), "layer 0: name '' is not a non-empty string", id="name-empty"),
    pytest.param(flatten_layer("a\nb"), "layer 0: name 'a\\nb' holds an unprintable character",
                 id="name-line-break"),
    pytest.param(flatten_layer("\ud800"), "layer 0: name '\\ud800' holds an unprintable character",
                 id="name-lone-surrogate"),
])
def test_a_layer_a_model_file_cannot_hold_is_refused(layer, message):
    # Each was built, and save_model then wrote a file that load_model refused (a name), or
    # construction ended in a bare AttributeError (5) or TypeError (an unhashable kind).
    layers = [layer, dense_layer("dense1", np.ones((2, 4)), np.zeros(2))]
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        Model(layers=layers, input_shape=(1, 2, 2), class_count=2)


def test_duplicate_layer_names_rejected():
    layers = [flatten_layer("a"), dense_layer("a", np.ones((2, 4)), np.zeros(2))]
    with pytest.raises(ShapeError, match="duplicate"):
        Model(layers=layers, input_shape=(1, 2, 2), class_count=2)


def test_wrong_class_count_rejected():
    layers = [flatten_layer("f"), dense_layer("d", np.ones((3, 4)), np.zeros(3))]
    with pytest.raises(ShapeError):
        Model(layers=layers, input_shape=(1, 2, 2), class_count=5)


def test_a_model_whose_layers_are_not_a_sequence_is_rejected():
    # It ended in a bare TypeError ("'int' object is not iterable") from validate's loop.
    with pytest.raises(ShapeError, match="^model layers must be a list or tuple, got int$"):
        Model(layers=5, input_shape=(1, 2, 2), class_count=2)


def test_a_model_without_classes_is_rejected_at_construction():
    # Every pass over it would fail later, in its first softmax of an empty vector.
    layers = [flatten_layer("f"), dense_layer("d", np.ones((0, 4)), np.zeros(0))]
    with pytest.raises(ParamError, match="class count must be an integer >= 1, got 0"):
        Model(layers=layers, input_shape=(1, 2, 2), class_count=0)


@pytest.mark.parametrize("layers, input_shape, message", [
    pytest.param([LayerSpec("probe", "conv3d")], (1, 2, 2), "layer 'probe': unknown kind 'conv3d'",
                 id="unknown-kind"),
    pytest.param([flatten_layer("f")], (4, 4), "input shape must be [C,H,W] with positive dims",
                 id="rank-2-input"),
    pytest.param([flatten_layer("f")], (1, 0, 4), "input shape must be [C,H,W] with positive dims",
                 id="empty-input"),
    # A field the kind does not take is refused: a relu with a bias used to build, save,
    # and then fail to load its own file.
    pytest.param([LayerSpec("relu1", "relu", bias=np.zeros(4))], (1, 2, 2),
                 "layer 'relu1': a relu layer takes no bias", id="relu-bias"),
    pytest.param([LayerSpec("conv1", "conv", np.ones((1, 1, 1, 1)), np.zeros(1), 1, 0, size=3)],
                 (1, 2, 2), "layer 'conv1': a conv layer takes no size", id="conv-size"),
    pytest.param([LayerSpec("relu1", "relu", stride="x")], (1, 2, 2),
                 "layer 'relu1': a relu layer takes no stride", id="relu-stride"),
    # Only the helper has a default window: a bare pool spec once meant 2x2 at stride 1.
    pytest.param([LayerSpec("pool1", "maxpool")], (1, 2, 2),
                 "layer 'pool1': pool size must be an integer >= 1, got None", id="bare-pool"),
])
def test_validate_rejects_a_bad_layer_kind_or_input_shape(layers, input_shape, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        Model(layers=layers, input_shape=input_shape, class_count=4)


# conv1 (1 kernel) -> flatten -> dense1 (1 output) on 1x4x4; each case breaks one bias.
_BAD_BIAS = {
    "conv-bias-length": ("conv1", np.zeros(2), np.zeros(1)),
    "dense-bias-length": ("dense1", np.zeros(1), np.zeros(3)),
    "conv-bias-none": ("conv1", None, np.zeros(1)),
    "dense-bias-none": ("dense1", np.zeros(1), None),
}


@pytest.mark.parametrize("case", sorted(_BAD_BIAS))
def test_bad_bias_names_layer(case):
    layer, conv_bias, dense_bias = _BAD_BIAS[case]
    layers = [
        conv_layer("conv1", np.ones((1, 1, 3, 3)), conv_bias),
        flatten_layer("flatten1"),
        dense_layer("dense1", np.ones((1, 4)), dense_bias),
    ]
    with pytest.raises(ShapeError, match=f"layer '{layer}': bias"):
        Model(layers=layers, input_shape=(1, 4, 4), class_count=1)


@given(channels=st.integers(1, 2), count=st.integers(0, 2), kernel_channels=st.integers(1, 2),
       h=st.integers(1, 8), w=st.integers(1, 8), kh=st.integers(0, 4), kw=st.integers(0, 4),
       stride=st.integers(-1, 3), padding=st.integers(-1, 2), pool=st.integers(-1, 4),
       kind=st.sampled_from(["conv", "maxpool"]))
def test_model_validation_is_the_primitive_rule(channels, count, kernel_channels, h, w, kh, kw,
                                                stride, padding, pool, kind):
    # A one-layer-plus-flatten/dense model builds exactly when the primitive runs on a
    # zero input, and validate then reports the primitive's output shape.
    x = np.zeros((channels, h, w))
    if kind == "conv":
        kernels, bias = np.zeros((count, kernel_channels, kh, kw)), np.zeros(count)
        spec = conv_layer("probe", kernels, bias, stride, padding)
        run = lambda: conv2d(x, kernels, bias, stride, padding)
    else:
        spec = maxpool_layer("probe", pool, stride)
        run = lambda: maxpool2d(x, pool, stride)

    def build(features):
        layers = [spec, flatten_layer("flatten1"),
                  dense_layer("dense1", np.zeros((2, features)), np.zeros(2))]
        return Model(layers=layers, input_shape=(channels, h, w), class_count=2)

    try:
        out = run()
    except SmoothCamError:
        with pytest.raises(ShapeError, match="layer 'probe': "):
            build(1)
        return
    assert validate(build(out.size))["probe"] == out.shape


def _two_layer_net():
    # 1x1 conv with weight 2, then a dense layer that sums every entry.
    layers = [
        conv_layer("conv1", np.full((1, 1, 1, 1), 2.0), np.zeros(1)),
        flatten_layer("flatten1"),
        dense_layer("dense1", np.ones((1, 4)), np.zeros(1)),
    ]
    return Model(layers=layers, input_shape=(1, 2, 2), class_count=1)


def test_forward_hand_computed_logit():
    model = _two_layer_net()
    trace = forward(model, np.ones((1, 2, 2)))
    assert trace.logits.shape == (1,)
    assert trace.logits[0] == pytest.approx(8.0, abs=1e-12)


def test_forward_probabilities_sum_to_one(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    assert abs(trace.per_layer["softmax1"].sum() - 1.0) < 1e-12


def test_forward_trace_covers_every_layer(random_model, rng):
    trace = forward(random_model, rng.random((1, 16, 16)))
    assert set(trace.per_layer) == {spec.name for spec in random_model.layers}


def test_forward_is_deterministic(random_model, rng):
    x = rng.random((1, 16, 16))
    a = forward(random_model, x)
    b = forward(random_model, x)
    for name in a.per_layer:
        assert np.array_equal(a.per_layer[name], b.per_layer[name])
    assert np.array_equal(a.logits, b.logits)


def test_forward_shapes_match_validate(random_model, rng):
    table = validate(random_model)
    trace = forward(random_model, rng.random((1, 16, 16)))
    for name, shape in table.items():
        assert trace.per_layer[name].shape == shape


def test_forward_rejects_wrong_input_shape(random_model):
    with pytest.raises(ShapeError):
        forward(random_model, np.zeros((1, 8, 8)))


def test_forward_rejects_an_input_the_layers_would_accept(random_model):
    # 17x17 convolves to 15x15 and pools to 7x7, the 196 dense inputs a 16x16 input gives.
    with pytest.raises(ShapeError, match=re.escape("input shape (1, 17, 17) does not match")):
        forward(random_model, np.zeros((1, 17, 17)))


def test_list_conv_layers_fixture(random_model):
    assert list_conv_layers(random_model) == ["conv1"]


def test_list_conv_layers_two_convs(rng):
    layers = [
        conv_layer("conv1", rng.standard_normal((2, 1, 3, 3)), np.zeros(2)),
        conv_layer("conv2", rng.standard_normal((3, 2, 3, 3)), np.zeros(3)),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((2, 3 * 12 * 12)), np.zeros(2)),
        softmax_layer("softmax1"),
    ]
    model = Model(layers=layers, input_shape=(1, 16, 16), class_count=2)
    assert list_conv_layers(model) == ["conv1", "conv2"]


def test_list_conv_layers_none():
    layers = [
        flatten_layer("flatten1"),
        dense_layer("dense1", np.ones((2, 4)), np.zeros(2)),
        softmax_layer("softmax1"),
    ]
    model = Model(layers=layers, input_shape=(1, 2, 2), class_count=2)
    assert list_conv_layers(model) == []


def test_model_weights_are_frozen(random_model):
    conv = random_model.layer("conv1")
    with pytest.raises(ValueError):
        conv.weight[0, 0, 0, 0] = 99.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("layer, attr", [("conv1", "weight"), ("dense1", "weight"),
                                         ("dense1", "bias")])
def test_model_refuses_non_finite_weights(rng, bad, layer, attr):
    # A library Model took a NaN kernel, and run then returned an all-NaN display.
    layers = [conv_layer("conv1", rng.standard_normal((2, 1, 3, 3)), np.zeros(2)),
              flatten_layer("flatten1"), dense_layer("dense1", np.ones((2, 8)), np.zeros(2))]
    i = next(i for i, s in enumerate(layers) if s.name == layer)
    arr = np.array(getattr(layers[i], attr), dtype=float)
    arr.reshape(-1)[-1] = bad
    layers[i] = replace(layers[i], **{attr: arr})
    message = f"layer '{layer}': {attr} holds 1 NaN or infinite values of {arr.size}"
    with pytest.raises(ParamError, match=re.escape(message)):
        Model(layers=layers, input_shape=(1, 4, 4), class_count=2)
