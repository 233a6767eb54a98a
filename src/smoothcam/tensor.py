"""Dense float64 array primitives shared by every layer kind.

All functions here operate on plain numpy arrays in row-major (C) layout,
return fresh arrays, and never mutate their inputs, so values can be shared
freely between threads. Everything is computed in 64-bit floats: the
higher-order derivative products built downstream amplify rounding, and the
models are small enough that precision costs nothing.
"""

from __future__ import annotations

import numpy as np

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
) -> Tensor:
    """Cross-correlate a [C,H,W] input with [K,C,kh,kw] kernels.

    Zero padding only. The output height (H + 2*padding - kh) / stride + 1
    must divide exactly (same for width); anything else raises ShapeError
    rather than silently truncating a partial window.
    """
    x = as_tensor(input)
    k = as_tensor(kernels)
    b = as_tensor(bias)
    if x.ndim != 3 or k.ndim != 4:
        raise ShapeError(
            f"conv2d expects input [C,H,W] and kernels [K,C,kh,kw], "
            f"got {x.shape} and {k.shape}"
        )
    if stride < 1:
        raise ParamError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ParamError(f"padding must be >= 0, got {padding}")
    cin, h, w = x.shape
    kout, kc, kh, kw = k.shape
    if kc != cin:
        raise ShapeError(f"kernel channel count {kc} != input channel count {cin}")
    if b.shape != (kout,):
        raise ShapeError(f"bias shape {b.shape} does not match kernel count {kout}")
    ph, pw = h + 2 * padding, w + 2 * padding
    if kh > ph or kw > pw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {ph}x{pw}")
    if (ph - kh) % stride or (pw - kw) % stride:
        raise ShapeError(
            f"non-integral output size: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    if padding:
        x, inner = np.zeros((cin, ph, pw)), x
        x[:, padding : padding + h, padding : padding + w] = inner
    # im2col: one GEMM of the flattened kernels with every window's taps.
    hh, ww = (ph - kh) // stride + 1, (pw - kw) // stride + 1
    cols = _taps(x, kh, kw, stride, hh, ww).reshape(-1, hh * ww)
    return (k.reshape(kout, -1) @ cols + b[:, None]).reshape(kout, hh, ww)


def _taps(x: Tensor, kh: int, kw: int, stride: int, hh: int, ww: int) -> Tensor:
    """[C, kh*kw, hh, ww] copy of window tap (u, v) (index u*kw + v) of every window."""
    out = np.empty((x.shape[0], kh, kw, hh, ww))
    for u in range(kh):
        for v in range(kw):
            out[:, u, v] = x[:, u : u + stride * hh : stride, v : v + stride * ww : stride]
    return out.reshape(x.shape[0], kh * kw, hh, ww)


def relu(t: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(as_tensor(t), 0.0)


def maxpool2d(t: Tensor, size: int, stride: int) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Per-window maximum over a [C,H,W] tensor.

    Returns the pooled tensor plus the (row, col) source coordinates of each
    window's maximum. Ties resolve to the first occurrence in row-major window
    order, which makes the gradient scatter deterministic.
    """
    x = as_tensor(t)
    if x.ndim != 3:
        raise ShapeError(f"maxpool2d expects a [C,H,W] tensor, got shape {x.shape}")
    if size < 1:
        raise ParamError(f"pool size must be >= 1, got {size}")
    if stride < 1:
        raise ParamError(f"pool stride must be >= 1, got {stride}")
    c, h, w = x.shape
    if h < size or w < size:
        raise ShapeError(f"pool window {size}x{size} exceeds input {h}x{w}")
    hh, ww = (h - size) // stride + 1, (w - size) // stride + 1
    taps = _taps(x, size, size, stride, hh, ww)
    # hit[:, k]: np.argmax's pick (first maximum, else first NaN) is at tap k or before.
    hit = (taps == taps.max(axis=1, keepdims=True)) | (taps != taps)
    for k in range(1, size * size):
        hit[:, k] |= hit[:, k - 1]
    arg = size * size - hit.sum(axis=1, dtype=np.min_scalar_type(size * size))
    du = arg // size
    rows = du + np.arange(0, stride * hh, stride)[:, None]
    cols = (arg - du * size) + np.arange(0, stride * ww, stride)
    return x[np.arange(c)[:, None, None], rows, cols], (rows, cols)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map weights @ x + bias for a length-N vector and [M,N] weights."""
    v = as_tensor(x)
    w = as_tensor(weights)
    b = as_tensor(bias)
    if v.ndim != 1 or w.ndim != 2:
        raise ShapeError(f"dense expects vector and matrix, got {v.shape} and {w.shape}")
    if w.shape[1] != v.shape[0]:
        raise ShapeError(f"weights expect {w.shape[1]} inputs, got {v.shape[0]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} does not match output count {w.shape[0]}")
    return w @ v + b


def softmax(logits: Tensor) -> Tensor:
    """Numerically stable softmax of a vector (max-subtracted)."""
    v = as_tensor(logits)
    if v.ndim != 1 or v.size < 1:
        raise ShapeError(f"softmax expects a non-empty vector, got shape {v.shape}")
    e = np.exp(v - v.max())
    return e / e.sum()


def add_gaussian_noise(t: Tensor, sigma: float, rng: np.random.Generator) -> Tensor:
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
    return x + rng.normal(0.0, sigma, size=x.shape)


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
