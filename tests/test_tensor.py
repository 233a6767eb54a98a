import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from smoothcam import (
    ParamError,
    ShapeError,
    add_gaussian_noise,
    bilinear_resize,
    conv2d,
    dense,
    forward,
    maxpool2d,
    relu,
    softmax,
)
from smoothcam.tensor import maxpool2d_gate

# ---------------------------------------------------------------------------
# Reference implementations: deliberately slow scalar loops, independent of
# the vectorized code paths they check.
# ---------------------------------------------------------------------------


def conv2d_oracle(x, kernels, bias, stride=1, padding=0):
    cin, h, w = x.shape
    kout, _, kh, kw = kernels.shape
    padded = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    padded[:, padding : padding + h, padding : padding + w] = x
    hh = (h + 2 * padding - kh) // stride + 1
    ww = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((kout, hh, ww))
    for k in range(kout):
        for i in range(hh):
            for j in range(ww):
                acc = 0.0
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += padded[c, i * stride + u, j * stride + v] * kernels[k, c, u, v]
                out[k, i, j] = acc + bias[k]
    return out


def maxpool_oracle(x, size, stride):
    c, h, w = x.shape
    hh = (h - size) // stride + 1
    ww = (w - size) // stride + 1
    out = np.zeros((c, hh, ww))
    for ch in range(c):
        for i in range(hh):
            for j in range(ww):
                window = x[ch, i * stride : i * stride + size, j * stride : j * stride + size]
                out[ch, i, j] = window.max()
    return out


def dense_oracle(x, weights, bias):
    out = np.zeros(weights.shape[0])
    for m in range(weights.shape[0]):
        acc = 0.0
        for n in range(weights.shape[1]):
            acc += weights[m, n] * x[n]
        out[m] = acc + bias[m]
    return out


def resize_oracle(src, th, tw):
    sh, sw = src.shape
    out = np.zeros((th, tw))
    for r in range(th):
        for c in range(tw):
            sr = min(max((r + 0.5) * sh / th - 0.5, 0.0), sh - 1.0)
            sc = min(max((c + 0.5) * sw / tw - 0.5, 0.0), sw - 1.0)
            r0, c0 = int(math.floor(sr)), int(math.floor(sc))
            r1, c1 = min(r0 + 1, sh - 1), min(c0 + 1, sw - 1)
            fr, fc = sr - r0, sc - c0
            top = src[r0, c0] * (1 - fc) + src[r0, c1] * fc
            bot = src[r1, c0] * (1 - fc) + src[r1, c1] * fc
            out[r, c] = top * (1 - fr) + bot * fr
    return out


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_identity_kernel(rng):
    x = rng.random((1, 5, 5))
    out = conv2d(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    assert np.array_equal(out, x)


def test_conv2d_zero_input_gives_bias_planes():
    bias = np.array([1.5, -2.0, 0.25])
    out = conv2d(np.zeros((2, 4, 4)), np.ones((3, 2, 3, 3)), bias)
    for k in range(3):
        assert np.all(out[k] == bias[k])


def test_conv2d_matches_loop_oracle(rng):
    x = rng.random((1, 8, 8))
    kernels = rng.standard_normal((2, 1, 3, 3))
    bias = rng.standard_normal(2)
    got = conv2d(x, kernels, bias)
    want = conv2d_oracle(x, kernels, bias)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (2, 1), (3, 1)])
def test_conv2d_matches_oracle_with_stride_padding(rng, stride, padding):
    x = rng.random((2, 7, 7))
    kernels = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    got = conv2d(x, kernels, bias, stride=stride, padding=padding)
    want = conv2d_oracle(x, kernels, bias, stride=stride, padding=padding)
    assert np.max(np.abs(got - want)) < 1e-12


def test_conv2d_is_linear(rng):
    x = rng.random((2, 6, 6))
    y = rng.random((2, 6, 6))
    kernels = rng.standard_normal((3, 2, 3, 3))
    zero = np.zeros(3)
    a, b = 2.5, -1.25
    lhs = conv2d(a * x + b * y, kernels, zero)
    rhs = a * conv2d(x, kernels, zero) + b * conv2d(y, kernels, zero)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))


def test_conv2d_non_integral_output():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 6, 6)), np.zeros((1, 1, 3, 3)), np.zeros(1), stride=2)


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------


def test_relu_all_negative():
    assert np.all(relu(-np.ones((2, 3))) == 0.0)


def test_relu_identity_on_positives(rng):
    x = rng.random((3, 4)) + 0.1
    assert np.array_equal(relu(x), x)


def test_relu_idempotent(rng):
    x = rng.standard_normal((4, 5))
    assert np.array_equal(relu(relu(x)), relu(x))


def test_relu_bounds(rng):
    x = rng.standard_normal((6, 6))
    out = relu(x)
    assert np.all(out >= 0.0)
    assert np.all(out <= np.abs(x))


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------


def test_maxpool_constant_halves_resolution():
    x = np.full((2, 4, 4), 3.25)
    pooled = maxpool2d(x, 2, 2)
    assert pooled.shape == (2, 2, 2)
    assert np.all(pooled == 3.25)


def test_maxpool_increasing_values_pick_bottom_right():
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    pooled = maxpool2d(x, 2, 2)
    rows, cols = np.unravel_index(maxpool2d_gate(x, pooled, 2, 2), x.shape)[1:]
    assert np.array_equal(pooled, x[:, 1::2, 1::2])
    assert np.array_equal(rows[0], [[1, 1], [3, 3]])
    assert np.array_equal(cols[0], [[1, 3], [1, 3]])


@pytest.mark.parametrize("size,stride", [(2, 2), (3, 1), (2, 1), (3, 3)])
def test_maxpool_matches_bruteforce(rng, size, stride):
    x = rng.standard_normal((1, 6, 6))
    pooled = maxpool2d(x, size, stride)
    assert np.array_equal(pooled, maxpool_oracle(x, size, stride))


def test_maxpool_tie_breaks_to_first_rowmajor():
    x = np.zeros((1, 2, 2))
    gate = maxpool2d_gate(x, maxpool2d(x, 2, 2), 2, 2)
    rows, cols = np.unravel_index(gate, x.shape)[1:]
    assert rows[0, 0, 0] == 0 and cols[0, 0, 0] == 0


def _argmax_pool_oracle(x, size, stride):
    """Per-window np.argmax over the row-major window, read back from x."""
    c, h, w = x.shape
    hh = (h - size) // stride + 1
    ww = (w - size) // stride + 1
    pooled = np.zeros((c, hh, ww))
    rows = np.zeros((c, hh, ww), dtype=np.intp)
    cols = np.zeros((c, hh, ww), dtype=np.intp)
    for ch in range(c):
        for i in range(hh):
            for j in range(ww):
                window = x[ch, i * stride : i * stride + size, j * stride : j * stride + size]
                k = int(np.argmax(window))
                rows[ch, i, j] = i * stride + k // size
                cols[ch, i, j] = j * stride + k % size
                pooled[ch, i, j] = x[ch, rows[ch, i, j], cols[ch, i, j]]
    return pooled, rows, cols


def _assert_matches_argmax(x, size, stride):
    pooled = maxpool2d(x, size, stride)
    rows, cols = np.unravel_index(maxpool2d_gate(x, pooled, size, stride), x.shape)[1:]
    want, want_rows, want_cols = _argmax_pool_oracle(x, size, stride)
    assert pooled.tobytes() == want.tobytes()  # bit-identical, NaNs and signed zeros included
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


@pytest.mark.parametrize("size,stride", [(2, 2), (3, 1), (3, 2), (2, 3), (1, 1)])
def test_maxpool_nan_windows_follow_argmax(rng, size, stride):
    x = rng.standard_normal((3, 8, 8))
    x[rng.random(x.shape) < 0.15] = np.nan
    x[0, :3, :3] = np.nan  # an all-NaN window
    x[1, 0, 0], x[1, 0, 1] = 5.0, np.nan  # NaN after the maximum still wins
    assert np.isnan(x).any()
    _assert_matches_argmax(x, size, stride)


@pytest.mark.parametrize("size,stride", [(3, 1), (3, 2), (2, 1), (4, 3)])
def test_maxpool_overlapping_ties_follow_argmax(rng, size, stride):
    x = rng.integers(-1, 2, size=(3, 9, 9)).astype(float)  # many tied maxima
    x[x == 0.0] = rng.choice([0.0, -0.0], size=int((x == 0.0).sum()))
    _assert_matches_argmax(x, size, stride)
    _assert_matches_argmax(np.full((2, 6, 6), -0.0), size, stride)


def test_maxpool_takes_the_first_maximal_tap_where_the_max_cannot(rng):
    # The max reduction alone is the first maximal tap's value, except in a window that ties
    # +0.0 with -0.0 or holds a NaN: there its pick depends on the array's layout, so each such
    # window is pooled alone, in one row of windows and planted among ReLU-like values.
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=4)))  # all 16 sign mixes
    nans = np.array(list(itertools.product([np.nan, -np.nan, 0.0, 1.0], repeat=4)))
    relu_like = np.maximum(rng.standard_normal((3, 8, 32)), 0.0)
    for ch, windows in enumerate((zeros, nans)):
        row = windows.reshape(1, -1, 2, 2).transpose(0, 2, 1, 3).reshape(1, 2, -1)
        relu_like[ch, 2:4, :] = row[0, :, :32]
        for x in (*windows.reshape(-1, 1, 2, 2), row):
            _assert_matches_argmax(x, 2, 2)
    for size, stride in ((2, 2), (2, 1), (3, 2)):
        _assert_matches_argmax(relu_like, size, stride)


def test_maxpool_gate_is_the_argmax_on_noised_wide_relu_outputs(wide_model):
    # The wide benchmark's pool1 inputs: 40 noised relu1 outputs, each 16x64x64.
    x = np.random.default_rng(5).random(wide_model.input_shape)
    c, h, w = 16, 64, 64
    channel = np.arange(c)[:, None, None]
    for s in range(40):
        relu1 = forward(wide_model, add_gaussian_noise(x, 0.15, np.random.default_rng(s)))
        relu1 = relu1.per_layer["relu1"]
        pooled = maxpool2d(relu1, 2, 2)
        windows = relu1.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
        k = np.argmax(windows.reshape(c, h // 2, w // 2, 4), axis=-1)
        rows, cols = np.arange(0, h, 2)[:, None] + k // 2, np.arange(0, w, 2) + k % 2
        want = np.ravel_multi_index((channel, rows, cols), relu1.shape)
        assert np.array_equal(maxpool2d_gate(relu1, pooled, 2, 2), want)
        assert pooled.tobytes() == np.take(relu1, want).tobytes()


# ---------------------------------------------------------------------------
# the window gather behind conv2d and maxpool2d
# ---------------------------------------------------------------------------

_SIDES = st.integers(1, 4)


def _side(kernel, stride, pad, windows):
    """An input side giving `windows` conv windows, or the fewest past that if it is below 1."""
    side = stride * (windows - 1) + kernel - 2 * pad
    while side < 1:
        side += stride
    return side


@given(c=st.integers(1, 3), kh=_SIDES, kw=_SIDES, stride=_SIDES, pad=st.integers(0, 4),
       ho=_SIDES, wo=_SIDES, seed=st.integers(0, 2**32 - 1))
def test_conv2d_gather_matches_the_oracle(c, kh, kw, stride, pad, ho, wo, seed):
    assume(kh != kw and pad <= max(kh, kw))
    h, w = _side(kh, stride, pad, ho), _side(kw, stride, pad, wo)
    rng = np.random.default_rng(seed)
    kernels, bias = rng.standard_normal((2, c, kh, kw)), rng.standard_normal(2)
    x = rng.standard_normal((c, h, w))
    want = conv2d_oracle(x, kernels, bias, stride=stride, padding=pad)
    got = conv2d(x, kernels, bias, stride, pad)
    assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12


@given(c=st.integers(1, 3), size=_SIDES, stride=_SIDES, extra_h=st.integers(0, 6),
       extra_w=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_maxpool2d_gather_matches_the_bruteforce(c, size, stride, extra_h, extra_w, seed):
    rng = np.random.default_rng(seed)
    shape = (c, size + extra_h, size + extra_w)
    for x in (rng.integers(-2, 3, shape).astype(float), rng.standard_normal(shape)):
        _assert_matches_argmax(x, size, stride)


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError):
        maxpool2d(np.zeros((1, 2, 2)), 3, 1)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def test_dense_identity():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(dense(x, np.eye(3), np.zeros(3)), x)


def test_dense_zero_weights_returns_bias():
    bias = np.array([4.0, -1.0])
    assert np.array_equal(dense(np.ones(3), np.zeros((2, 3)), bias), bias)


def test_dense_matches_loop_oracle(rng):
    x = rng.standard_normal(4)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    assert np.max(np.abs(dense(x, w, b) - dense_oracle(x, w, b))) < 1e-12


def test_dense_dimension_mismatch():
    with pytest.raises(ShapeError):
        dense(np.zeros(5), np.zeros((2, 4)), np.zeros(2))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetric_pair():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)


def test_softmax_shift_invariance(rng):
    v = rng.standard_normal(7)
    for c in (1.0, -3.5, 100.0):
        assert np.max(np.abs(softmax(v + c) - softmax(v))) < 1e-12


def test_softmax_closed_form():
    got = softmax(np.log([1.0, 2.0, 3.0]))
    assert np.max(np.abs(got - np.array([1.0, 2.0, 3.0]) / 6.0)) < 1e-12


def test_softmax_sums_to_one(rng):
    v = rng.standard_normal(11) * 10
    out = softmax(v)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_extreme_logits_stay_finite():
    out = softmax(np.array([1000.0, -1000.0, 0.0]))
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# add_gaussian_noise
# ---------------------------------------------------------------------------


def test_noise_sigma_zero_is_bitwise_identity(rng):
    x = rng.random((3, 5, 5))
    out = add_gaussian_noise(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, x)
    assert out is not x  # fresh array, inputs never aliased


def test_noise_sigma_zero_keeps_signed_zeros_and_draws_nothing():
    x = np.array([[[-0.0, 0.25], [-1.5, 0.0]]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert add_gaussian_noise(x, 0.0, rng).tobytes() == x.tobytes()
    assert rng.bit_generator.state == state


def test_noise_same_seed_same_output(rng):
    x = rng.random((2, 8, 8))
    a = add_gaussian_noise(x, 0.3, np.random.default_rng(99))
    b = add_gaussian_noise(x, 0.3, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_noise_sample_statistics():
    n = 100_000
    sigma = 0.1
    x = np.zeros((1, n, 1))
    noise = add_gaussian_noise(x, sigma, np.random.default_rng(7)) - x
    assert abs(noise.mean()) < 3 * sigma / math.sqrt(n)
    assert abs(noise.std() - sigma) < 0.05 * sigma


def test_noise_negative_sigma():
    with pytest.raises(ParamError):
        add_gaussian_noise(np.zeros((1, 2, 2)), -0.1, np.random.default_rng(0))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_noise_rejects_a_sigma_that_is_not_finite(sigma):
    # Both were accepted and gave non-finite samples.
    with pytest.raises(ParamError, match="sigma must be finite"):
        add_gaussian_noise(np.zeros((1, 2, 2)), sigma, np.random.default_rng(0))


def test_noise_refuses_a_sigma_too_large_for_a_float():
    # It passed the range check and ended in a bare OverflowError in rng.normal.
    with pytest.raises(ParamError, match="^sigma must fit a float, got an integer of 1329 bits$"):
        add_gaussian_noise(np.zeros((1, 2, 2)), 10**400, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# bilinear_resize
# ---------------------------------------------------------------------------


def test_resize_single_cell_broadcasts():
    out = bilinear_resize(np.array([[2.5]]), 3, 4)
    assert out.shape == (3, 4)
    assert np.all(out == 2.5)


def test_resize_identity_size(rng):
    x = rng.random((5, 7))
    assert np.array_equal(bilinear_resize(x, 5, 7), x)


def test_resize_2x2_checker_frozen_values():
    # Expected grid computed with resize_oracle (independent scalar loops).
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = np.array(
        [
            [0.0, 0.25, 0.75, 1.0],
            [0.25, 0.375, 0.625, 0.75],
            [0.75, 0.625, 0.375, 0.25],
            [1.0, 0.75, 0.25, 0.0],
        ]
    )
    got = bilinear_resize(src, 4, 4)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(resize_oracle(src, 4, 4) - want)) < 1e-12


@pytest.mark.parametrize("th,tw", [(3, 3), (7, 5), (16, 16), (2, 9)])
def test_resize_matches_formula_oracle(rng, th, tw):
    src = rng.random((4, 6))
    assert np.max(np.abs(bilinear_resize(src, th, tw) - resize_oracle(src, th, tw))) < 1e-12


def test_resize_respects_value_bounds(rng):
    src = rng.standard_normal((5, 5))
    out = bilinear_resize(src, 13, 11)
    assert out.min() >= src.min() - 1e-12
    assert out.max() <= src.max() + 1e-12


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: conv2d(np.zeros((4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1)),
                 "conv2d expects input [C,H,W] and kernels [K,C,kh,kw]", id="conv2d-input"),
    pytest.param(lambda: conv2d(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)), np.zeros(1)),
                 "conv2d expects input [C,H,W] and kernels [K,C,kh,kw]", id="conv2d-kernels"),
    pytest.param(lambda: maxpool2d(np.zeros((4, 4)), 2, 2),
                 "maxpool2d expects a [C,H,W] tensor", id="maxpool2d"),
    pytest.param(lambda: dense(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)),
                 "dense expects vector and matrix", id="dense-input"),
    pytest.param(lambda: dense(np.zeros(2), np.zeros(2), np.zeros(2)),
                 "dense expects vector and matrix", id="dense-weights"),
    pytest.param(lambda: softmax(np.zeros((2, 2))), "softmax expects a non-empty vector",
                 id="softmax-matrix"),
    pytest.param(lambda: softmax(np.zeros(0)), "softmax expects a non-empty vector",
                 id="softmax-empty"),
    pytest.param(lambda: bilinear_resize(np.zeros((1, 2, 2)), 4, 4),
                 "bilinear_resize expects a 2-D map", id="resize"),
    pytest.param(lambda: bilinear_resize(np.ones((0, 3)), 2, 2),  # was an IndexError
                 "bilinear_resize expects a 2-D map with values", id="resize-empty"),
])
def test_primitives_reject_the_wrong_rank(call, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        call()


def test_resize_rejects_zero_targets():
    with pytest.raises(ShapeError):
        bilinear_resize(np.zeros((2, 2)), 0, 4)


@pytest.mark.parametrize("th, tw", [(2.5, 3), (3, 3.0), (True, 3), ("3", 3)],
                         ids=["float", "float-width", "bool", "text"])
def test_resize_rejects_non_integer_targets(th, tw):
    # A 2.5 target height gave a (3, 3) map.
    with pytest.raises(ParamError, match="target"):
        bilinear_resize(np.ones((2, 2)), th, tw)
    assert bilinear_resize(np.ones((2, 2)), np.int64(3), np.int32(3)).shape == (3, 3)
