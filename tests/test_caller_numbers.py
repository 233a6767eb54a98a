"""Every number a caller passes is read once, by `tensor.integer` (a plain int) or `tensor.real`
(a float), and the library computes with what the rule returned. So a numpy scalar gives the
bytes of the Python number it equals, and a long double past a float's range is refused. Every
array is read by `tensor.as_tensor`, which refuses one that holds no real numbers."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcam import (GradientTriple, Model, ParamError, RgbImage, SaliencyRequest, ScoreMode,
                       add_gaussian_noise, build_fixture, colormap, compute_alpha, conv2d,
                       conv_layer, dense_layer, finite_diff_input_grad, flatten_layer, forward,
                       grad_wrt_input, heat_image, higher_order_triple, maxpool2d, maxpool_layer,
                       overlay, postprocess, relu, relu_layer, run, write_map_csv)
from smoothcam.tensor import maxpool2d_gate

FLOAT_WIDTHS = {float: 64, np.float16: 16, np.float32: 32, np.float64: 64, np.longdouble: 64}
INT_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
REAL_TYPES = [*FLOAT_WIDTHS, *INT_TYPES]
by_type = pytest.mark.parametrize("number_type", REAL_TYPES, ids=lambda t: t.__name__)
by_int_type = pytest.mark.parametrize("number_type", INT_TYPES, ids=lambda t: t.__name__)


def numbers(number_type, low, high, exclude_max=False):
    """(number, the Python number it equals), drawn from the values of [low, high] that
    number_type holds exactly."""
    if number_type in FLOAT_WIDTHS:
        values = st.floats(low, high, exclude_max=exclude_max, width=FLOAT_WIDTHS[number_type])
    else:
        high = math.floor(high) - (exclude_max and high == math.floor(high))
        low = math.ceil(low)
        if number_type is not int:
            bounds = np.iinfo(number_type)
            low, high = max(low, int(bounds.min)), min(high, int(bounds.max))
        values = st.integers(low, high)
    return values.map(lambda v: (number_type(v), v))


def _bytes(*arrays):
    return [(np.asarray(a).dtype, np.asarray(a).tobytes()) for a in arrays]


_FIXTURE = build_fixture("random", seed=7)
_X = np.random.default_rng(3).random(_FIXTURE.input_shape)


@by_type
@settings(max_examples=10)
@given(data=st.data(), method=st.sampled_from(["smoothgrad", "smooth-gradcampp"]))
def test_sigma_rel_gives_the_bytes_of_its_python_number(number_type, data, method):
    typed, plain = data.draw(numbers(number_type, 0.0, 1.0, exclude_max=True))
    layer = "conv1" if method == "smooth-gradcampp" else None
    requests = [SaliencyRequest(method=method, layer=layer, n=2, sigma_rel=s, seed=4)
                for s in (typed, plain)]
    # Equal requests, equal maps: the request holds the float it read.
    assert requests[0] == requests[1] and hash(requests[0]) == hash(requests[1])
    assert type(requests[0].sigma_rel) is float
    maps = [run(_FIXTURE, _X, r) for r in requests]
    assert _bytes(maps[0].raw, maps[0].display) == _bytes(maps[1].raw, maps[1].display)


@by_type
@settings(max_examples=20)
@given(data=st.data())
def test_noise_sigma_gives_the_bytes_of_its_python_number(number_type, data):
    number = data.draw(numbers(number_type, 0.0, 100.0))
    noised = [add_gaussian_noise(_X, s, np.random.default_rng(9)) for s in number]
    assert _bytes(noised[0]) == _bytes(noised[1])


_BASE = RgbImage(width=16, height=16, pixels=bytes(range(256)) * 3)  # every byte, three times
_HEAT = RgbImage(width=16, height=16, pixels=bytes(range(255, -1, -1)) * 3)


@by_type
@settings(max_examples=20)
@given(data=st.data())
def test_overlay_blend_gives_the_bytes_of_its_python_number(number_type, data):
    number = data.draw(numbers(number_type, 0.0, 1.0))
    blended = [overlay(_BASE, _HEAT, b) for b in number]
    assert blended[0] == blended[1]


def _tiny_model():
    rng = np.random.default_rng(2)
    layers = [conv_layer("conv1", rng.standard_normal((2, 1, 2, 2)), rng.standard_normal(2)),
              relu_layer("relu1"), maxpool_layer("pool1", 2, stride=1), flatten_layer("flat"),
              dense_layer("dense1", rng.standard_normal((2, 8)), rng.standard_normal(2))]
    return Model(layers=layers, input_shape=(1, 4, 4), class_count=2)


_TINY = _tiny_model()
_TINY_TRACE = forward(_TINY, np.random.default_rng(4).random((1, 4, 4)))


@by_type
@settings(max_examples=20)
@given(data=st.data())
def test_oracle_step_gives_the_bytes_of_its_python_number(number_type, data):
    number = data.draw(numbers(number_type, 2.0**-10, 4.0))
    grads = [finite_diff_input_grad(_TINY, _TINY_TRACE, ScoreMode("exp-logit", 1), h=h)
             for h in number]
    assert _bytes(grads[0]) == _bytes(grads[1])


_G = np.random.default_rng(6).standard_normal((2, 3, 3))


@by_type
@settings(max_examples=20)
@given(data=st.data())
def test_triple_logit_gives_the_bytes_of_its_python_number(number_type, data):
    number = data.draw(numbers(number_type, -30.0, 30.0))
    stacks = [_bytes(t.d1, t.d2, t.d3) for t in
              (higher_order_triple(_G, logit, "exp-logit") for logit in number)]
    assert stacks[0] == stacks[1]


@by_type
@settings(max_examples=20)
@given(data=st.data())
def test_colormap_value_gives_the_color_of_its_python_number(number_type, data):
    colors = [colormap(v) for v in data.draw(numbers(number_type, -2.0, 2.0))]
    assert colors[0] == colors[1] and all(type(c) is int for c in colors[0])


@by_int_type
@settings(max_examples=20)
@given(data=st.data(), windows=st.integers(1, 3))
def test_conv_stride_and_padding_give_the_bytes_of_their_python_ints(number_type, data, windows):
    stride, padding = data.draw(numbers(number_type, 1, 3)), data.draw(numbers(number_type, 0, 2))
    rng = np.random.default_rng(8)
    # windows + 2 * padding windows of 2x2 tile the padded input exactly.
    side = stride[1] * (windows + 2 * padding[1] - 1) + 2 - 2 * padding[1]
    x = rng.standard_normal((2, side, side))
    k, b = rng.standard_normal((3, 2, 2, 2)), rng.standard_normal(3)
    outs = [conv2d(x, k, b, s, p) for s, p in zip(stride, padding)]
    assert _bytes(outs[0]) == _bytes(outs[1])


@by_int_type
@settings(max_examples=20)
@given(data=st.data(), windows=st.integers(1, 3), negative_zero=st.booleans())
def test_pool_size_and_stride_give_the_bytes_of_their_python_ints(number_type, data, windows,
                                                                  negative_zero):
    size, stride = data.draw(numbers(number_type, 1, 3)), data.draw(numbers(number_type, 1, 3))
    side = size[1] + stride[1] * (windows - 1)
    x = np.random.default_rng(10).standard_normal((2, side, side))
    if negative_zero:  # the pool then reads each value at its gate
        x[0, 0, 0] = -0.0
    pooled = [maxpool2d(x, z, s) for z, s in zip(size, stride)]
    gates = [maxpool2d_gate(x, pooled[1], z, s) for z, s in zip(size, stride)]
    assert _bytes(pooled[0]) == _bytes(pooled[1]) and _bytes(gates[0]) == _bytes(gates[1])


_FIT = "must fit a float, got np.longdouble"
_REAL_PARAMETERS = {
    "sigma_rel": lambda v: SaliencyRequest(method="smoothgrad", sigma_rel=v),
    "sigma": lambda v: add_gaussian_noise(_X, v, np.random.default_rng(0)),
    "blend": lambda v: overlay(_BASE, _HEAT, v),
    "step h": lambda v: finite_diff_input_grad(_TINY, _TINY_TRACE, ScoreMode("raw-logit", 0), h=v),
    "logit": lambda v: higher_order_triple(_G, v, "exp-logit"),
    "colormap value": colormap,
}


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                    reason="long double is a float here")
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("name", sorted(_REAL_PARAMETERS))
def test_a_long_double_past_a_float_is_refused(name, sign):
    # float() reads it as ±inf with no error: sigma passed its `< inf` check, compared in long
    # double, and drew infinite noise.
    with pytest.raises(ParamError, match=f"^{name} {_FIT}"):
        _REAL_PARAMETERS[name](np.longdouble(f"{sign}1e4000"))


_NOT_REAL = {  # id: (a value numpy reads as no real numbers, the refusal's end)
    "text": ("abc", "got dtype <U3"),
    "ragged": ([[0.5, 0.25], [0.5]], "got a ragged nesting"),
    "object": (object(), "got dtype object"),
    "complex": (np.full((1, 16, 16), 0.5 + 1j), "got dtype complex128"),
}
_ARRAY_ENTRIES = {  # id: a call of a public entry on the value in place of its array
    "run": lambda v: run(_FIXTURE, v, SaliencyRequest(method="sensitivity")),
    "forward": lambda v: forward(_FIXTURE, v),
    "grad_wrt_input": lambda v: grad_wrt_input(_FIXTURE, v, ScoreMode()),
    "conv2d": lambda v: conv2d(v, np.ones((1, 1, 1, 1)), np.zeros(1)),
    "relu": relu,
    "postprocess": lambda v: postprocess(v, 4, 4),
    "heat_image": heat_image,
    "write_map_csv": lambda v: write_map_csv(v, os.devnull),
    "compute_alpha": lambda v: compute_alpha(GradientTriple(v, v, v), v),
}


@pytest.mark.parametrize("case", sorted(_NOT_REAL))
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRIES))
def test_an_array_without_real_numbers_is_refused(entry, case):
    # Each ended in a bare ValueError or TypeError; a complex array lost its imaginary part
    # with only a ComplexWarning.
    value, end = _NOT_REAL[case]
    with pytest.raises(ParamError, match=f"must hold real numbers, {re.escape(end)}$"):
        _ARRAY_ENTRIES[entry](value)


@pytest.mark.parametrize("case", sorted(_NOT_REAL))
def test_a_model_weight_without_real_numbers_is_refused_by_its_layer(case):
    # A ragged weight ended in a bare ValueError from np.shape inside validate.
    value, end = _NOT_REAL[case]
    layers = [conv_layer("conv1", value, np.zeros(1)), flatten_layer("flat"),
              dense_layer("dense1", np.ones((2, 16)), np.zeros(2))]
    with pytest.raises(ParamError, match=f"^layer 'conv1': weight must hold real numbers, "
                                         f"{re.escape(end)}$"):
        Model(layers=layers, input_shape=(1, 4, 4), class_count=2)
