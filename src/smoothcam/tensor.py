"""Dense float64 array primitives shared by every layer kind.

All functions here operate on plain numpy arrays in row-major (C) layout and
never mutate their inputs, so values can be shared freely between threads.
They return fresh arrays unless given a workspace `work`, a dict one call
site owns: its arrays (result and temporaries) last until that site's next
call with it. Everything is computed in 64-bit floats: the higher-order
derivative products built downstream amplify rounding, and the models are
small enough that precision costs nothing.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParamError, ShapeError

Tensor = np.ndarray


def as_tensor(values) -> Tensor:
    """Coerce nested sequences or arrays to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def conv2d(
    input: Tensor,
    kernels: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    *, work: dict | None = None,
) -> Tensor:
    """Cross-correlate a [C,H,W] input with [K,C,kh,kw] kernels.

    Zero padding only. The output height (H + 2*padding - kh) / stride + 1
    must divide exactly (same for width); anything else raises ShapeError
    rather than silently truncating a partial window.
    """
    x = as_tensor(input)
    k = as_tensor(kernels)
    b = as_tensor(bias)
    kout, hh, ww = conv2d_shape(x.shape, k.shape, b.shape, stride, padding)
    kh, kw = k.shape[2:]
    # im2col: one GEMM of the flattened kernels with every window's taps.
    cols = _taps(x, kh, kw, stride, hh, ww, padding, work).reshape(-1, hh * ww)
    out = np.matmul(k.reshape(kout, -1), cols, out=scratch(work, "out", (kout, hh * ww)))
    out += b[:, None]
    return out.reshape(kout, hh, ww)


def conv2d_shape(x_shape, k_shape, b_shape, stride: int, padding: int) -> tuple[int, int, int]:
    """conv2d's output shape [K,Ho,Wo]: ParamError for a bad stride or padding, else ShapeError."""
    if len(x_shape) != 3 or len(k_shape) != 4:
        raise ShapeError(
            f"conv2d expects input [C,H,W] and kernels [K,C,kh,kw], "
            f"got {x_shape} and {k_shape}"
        )
    if stride < 1:
        raise ParamError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ParamError(f"padding must be >= 0, got {padding}")
    cin, h, w = x_shape
    kout, kc, kh, kw = k_shape
    if kout < 1 or kh < 1 or kw < 1:
        raise ShapeError(f"conv2d needs at least one kernel of at least 1x1, got {k_shape}")
    if kc != cin:
        raise ShapeError(f"kernel channel count {kc} != input channel count {cin}")
    if b_shape != (kout,):
        raise ShapeError(f"bias shape {b_shape} does not match kernel count {kout}")
    ph, pw = h + 2 * padding, w + 2 * padding
    if kh > ph or kw > pw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {ph}x{pw}")
    if (ph - kh) % stride or (pw - kw) % stride:
        raise ShapeError(
            f"non-integral output size: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return kout, (ph - kh) // stride + 1, (pw - kw) // stride + 1


def scratch(work: dict | None, key: str, shape: tuple, dtype=np.float64, fresh=np.empty):
    """fresh(shape, dtype) without a workspace, else work[key], zeroed when (re)made to fit."""
    if work is None:
        return fresh(shape, dtype)
    buf = work.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = work[key] = np.zeros(shape, dtype)
    return buf


def _taps(x, kh: int, kw: int, stride: int, hh: int, ww: int, pad: int, work) -> Tensor:
    """[C, kh*kw, hh, ww] copy of window tap (u, v) (index u*kw + v) of every window over x
    zero-padded by pad. The caller's shape rule keeps every window inside the padded input."""
    c, h, w = x.shape
    if pad:  # the border is zero when the buffer is made and is never written
        padded = scratch(work, "padded", (c, h + 2 * pad, w + 2 * pad), fresh=np.zeros)
        padded[:, pad : pad + h, pad : pad + w] = x
        x = padded
    sc, sh, sw = x.strides
    windows = as_strided(x, (c, kh, kw, hh, ww), (sc, sh, sw, stride * sh, stride * sw),
                         writeable=False)
    out = scratch(work, "taps", windows.shape)
    np.copyto(out, windows)
    return out.reshape(c, kh * kw, hh, ww)


def relu(t: Tensor, *, work: dict | None = None) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(as_tensor(t), 0.0, out=scratch(work, "out", np.shape(t)))


class PoolArgmax:
    """Pool maxima as `flat` indices into the raveled [C,H,W] input; unpacks to (rows, cols)."""

    def __init__(self, flat: np.ndarray, input_shape: tuple[int, int, int]):
        self.flat, self.input_shape = flat, input_shape

    def __iter__(self):
        return iter(np.unravel_index(self.flat, self.input_shape)[1:])


def maxpool2d(t: Tensor, size: int, stride: int, *,
              work: dict | None = None) -> tuple[Tensor, PoolArgmax]:
    """Per-window maximum over a [C,H,W] tensor.

    Returns the pooled tensor plus a PoolArgmax of each window's maximum, which
    unpacks to their (row, col) source coordinates. Ties resolve to the first
    occurrence in row-major window order, making the gradient scatter deterministic.
    """
    x = as_tensor(t)
    c, hh, ww = maxpool2d_shape(x.shape, size, stride)
    h, w = x.shape[1:]
    taps = _taps(x, size, size, stride, hh, ww, 0, work)
    # hit[:, k]: np.argmax's pick (first maximum, else first NaN) is at tap k or before.
    top = taps.max(axis=1, keepdims=True, out=scratch(work, "max", (c, 1, hh, ww)))
    hit = np.equal(taps, top, out=scratch(work, "hit", taps.shape, bool))
    hit |= np.not_equal(taps, taps, out=scratch(work, "nan", taps.shape, bool))
    for k in range(1, size * size):
        hit[:, k] |= hit[:, k - 1]
    # So the pick is tap size*size - n for n = hit.sum(); tap du*size + dv of window (i, j)
    # reads input (c, i*stride + du, j*stride + dv), du*w + dv past the window's first tap.
    small = np.min_scalar_type(size * size)
    n = hit.sum(axis=1, dtype=small, out=scratch(work, "count", (c, hh, ww), small))
    offsets = np.array([(k // size) * w + k % size for k in range(size * size, -1, -1)])
    flat = np.take(offsets, n, out=scratch(work, "flat", n.shape, np.intp), mode="wrap")
    flat += np.arange(0, c * h * w, h * w)[:, None, None]
    flat += np.arange(0, stride * hh * w, stride * w)[:, None] + np.arange(0, stride * ww, stride)
    pooled = np.take(x, flat, out=scratch(work, "out", n.shape), mode="wrap")
    return pooled, PoolArgmax(flat, x.shape)


def maxpool2d_shape(x_shape, size: int, stride: int) -> tuple[int, int, int]:
    """maxpool2d's output shape [C,Ho,Wo]; ParamError for size or stride < 1."""
    if len(x_shape) != 3:
        raise ShapeError(f"maxpool2d expects a [C,H,W] tensor, got shape {x_shape}")
    if size < 1:
        raise ParamError(f"pool size must be >= 1, got {size}")
    if stride < 1:
        raise ParamError(f"pool stride must be >= 1, got {stride}")
    c, h, w = x_shape
    if h < size or w < size:
        raise ShapeError(f"pool window {size}x{size} exceeds input {h}x{w}")
    return c, (h - size) // stride + 1, (w - size) // stride + 1


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map weights @ x + bias for a length-N vector and [M,N] weights."""
    v = as_tensor(x)
    w = as_tensor(weights)
    b = as_tensor(bias)
    dense_shape(v.shape, w.shape, b.shape)
    return w @ v + b


def dense_shape(x_shape, w_shape, b_shape) -> tuple[int]:
    """dense's output shape [M], or ShapeError."""
    if len(x_shape) != 1 or len(w_shape) != 2:
        raise ShapeError(f"dense expects vector and matrix, got {x_shape} and {w_shape}")
    if w_shape[1] != x_shape[0]:
        raise ShapeError(f"weights expect {w_shape[1]} inputs, got {x_shape[0]}")
    if b_shape != (w_shape[0],):
        raise ShapeError(f"bias shape {b_shape} does not match output count {w_shape[0]}")
    return (w_shape[0],)


def softmax(logits: Tensor) -> Tensor:
    """Numerically stable softmax of a vector (max-subtracted)."""
    v = as_tensor(logits)
    softmax_shape(v.shape)
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_shape(x_shape) -> tuple[int]:
    """softmax's output shape (its input's), or ShapeError unless a non-empty vector."""
    if len(x_shape) != 1 or x_shape[0] < 1:
        raise ShapeError(f"softmax expects a non-empty vector, got shape {x_shape}")
    return x_shape


def add_gaussian_noise(t: Tensor, sigma: float, rng: np.random.Generator, *,
                       work: dict | None = None) -> Tensor:
    """Add i.i.d. N(0, sigma^2) noise per element.

    sigma is an absolute standard deviation; callers working with a relative
    spread convert it against the input's dynamic range first. sigma == 0 is
    the exact identity (bit-for-bit, no generator draw).
    """
    if sigma < 0:
        raise ParamError(f"sigma must be >= 0, got {sigma}")
    x = as_tensor(t)
    if sigma == 0:
        return x.copy()
    noise = rng.standard_normal(out=scratch(work, "noise", x.shape))
    np.add(np.multiply(noise, sigma, out=noise), 0.0, out=noise)  # rng.normal's 0.0 + sigma*z
    return np.add(x, noise, out=noise)


def bilinear_resize(values: Tensor, target_h: int, target_w: int) -> Tensor:
    """Resize a 2-D map with half-pixel-center bilinear interpolation.

    Each destination index d samples the source at
    (d + 0.5) * (src_dim / dst_dim) - 0.5, clamped to [0, src_dim - 1].
    Output values are convex combinations of inputs, so they stay inside
    [min(values), max(values)].
    """
    src = as_tensor(values)
    if src.ndim != 2:
        raise ShapeError(f"bilinear_resize expects a 2-D map, got shape {src.shape}")
    if target_h < 1 or target_w < 1:
        raise ShapeError(f"target size {target_h}x{target_w} must be positive")
    h, w = src.shape
    rows = _source_coords(h, target_h)
    cols = _source_coords(w, target_w)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    top = src[np.ix_(r0, c0)] * (1.0 - fc) + src[np.ix_(r0, c1)] * fc
    bottom = src[np.ix_(r1, c0)] * (1.0 - fc) + src[np.ix_(r1, c1)] * fc
    return top * (1.0 - fr)[:, None] + bottom * fr[:, None]


def _source_coords(src_dim: int, dst_dim: int) -> np.ndarray:
    scale = src_dim / dst_dim
    coords = (np.arange(dst_dim) + 0.5) * scale - 0.5
    return np.clip(coords, 0.0, float(src_dim - 1))
