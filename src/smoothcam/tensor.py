"""Dense float64 array primitives shared by every layer kind.

All functions here operate on plain numpy arrays in row-major (C) layout,
never mutate their inputs and return fresh arrays, so values can be shared
freely between threads. Everything is computed in 64-bit floats: the higher-order
derivative products built downstream amplify rounding, and the models are
small enough that precision costs nothing.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParamError, ShapeError

Tensor = np.ndarray


def as_tensor(values) -> Tensor:
    """Coerce nested sequences or arrays to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def integer(value, what: str, least: int | None = None) -> int:
    """value read with operator.index, never a bool, and at least `least` if given, else
    ParamError: the one rule for every integer a caller passes (numpy integers pass)."""
    try:
        read = operator.index(None if isinstance(value, bool) else value)  # None is refused
        if least is None or read >= least:
            return read
    except TypeError:
        pass
    bound = "" if least is None else f" >= {least}"
    raise ParamError(f"{what} must be an integer{bound}, got {value!r}")


def real(value, what: str):
    """value itself if it is a real number (numpy's pass) that a float can hold and not a bool,
    else ParamError."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParamError(f"{what} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an int past 2**1024; its digits may be too many to print
        raise ParamError(f"{what} must fit a float, got an integer of {value.bit_length()} bits"
                         ) from None
    return value


def finite(values, what: str) -> Tensor:
    """values as a float64 tensor, or ParamError counting its NaN and infinite values."""
    x = as_tensor(values)
    if not np.isfinite(x).all():
        raise ParamError(f"{what} holds {np.count_nonzero(~np.isfinite(x))} NaN or infinite "
                         f"values of {x.size}")
    return x


def ints(values, what: str, count: int | None = None) -> tuple[int, ...]:
    """A tuple of `integer`s: exactly `count` of them, else at least one; else ParamError."""
    try:
        read = tuple(integer(v, what) for v in values)
    except (TypeError, ParamError):
        read = ()
    if len(read) != count if count else not read:
        raise ParamError(f"{what} must be {count or 'one or more'} integers, got {values!r}")
    return read


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
    kout, hh, ww = conv2d_shape(x.shape, k.shape, b.shape, stride, padding)
    kh, kw = k.shape[2:]
    stride = min(stride, max(x.shape[1:]) + 2 * padding)  # larger: one window, never applied
    taps = _taps(x, kh, kw, stride, hh, ww, padding).transpose(3, 0, 1, 2, 4)
    out = _per_row(k.reshape(kout, -1), taps.reshape(hh, -1, ww))  # a copy: one block per row
    out += b[:, None, None]
    return out


def conv2d_backward(grad: Tensor, x_shape, kernels: Tensor, stride: int, padding: int) -> Tensor:
    """Gradient wrt conv2d's [C,H,W] input of shape x_shape, given grad wrt its [K,Ho,Wo]
    output: kernels^T @ grad gives every im2col row's gradient, and col2im adds them back."""
    kout, c, kh, kw = kernels.shape
    _, h, w = x_shape
    hh, ww = grad.shape[1:]
    cols = _per_row(kernels.reshape(kout, -1).T, grad.transpose(1, 0, 2))
    cols = cols.reshape(c, kh, kw, hh, ww)
    dx = np.zeros((c, h + 2 * padding, w + 2 * padding))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + stride * hh : stride, v : v + stride * ww : stride] += cols[:, u, v]
    return dx[:, padding : padding + h, padding : padding + w] if padding else dx


def _per_row(m: Tensor, x: Tensor) -> Tensor:
    """[M, N] @ [Ho, N, Wo] as a fresh [M, Ho, Wo], one GEMM per output row: each is small enough
    that OpenBLAS runs it on the calling thread, so its workers sleep instead of spinning."""
    out = np.empty((m.shape[0], x.shape[0], x.shape[2]))
    np.matmul(m, x, out=out.transpose(1, 0, 2))
    return out


def conv2d_shape(x_shape, k_shape, b_shape, stride: int, padding: int) -> tuple[int, int, int]:
    """conv2d's output shape [K,Ho,Wo]: ParamError for a bad stride or padding, else ShapeError."""
    if len(x_shape) != 3 or len(k_shape) != 4:
        raise ShapeError(
            f"conv2d expects input [C,H,W] and kernels [K,C,kh,kw], "
            f"got {x_shape} and {k_shape}"
        )
    stride, padding = integer(stride, "stride", 1), integer(padding, "padding", 0)
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


def _taps(x, kh: int, kw: int, stride: int, hh: int, ww: int, pad: int) -> Tensor:
    """[C, kh, kw, hh, ww] read-only view of window tap (u, v) of every window over x zero-padded
    by pad; each caller copies it in the order it reads. The caller's shape rule keeps every
    window inside the padded input."""
    c, h, w = x.shape
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
        padded[:, pad : pad + h, pad : pad + w] = x
        x = padded
    sc, sh, sw = x.strides
    return as_strided(x, (c, kh, kw, hh, ww), (sc, sh, sw, stride * sh, stride * sw),
                      writeable=False)


def relu(t: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(as_tensor(t), 0.0)


def maxpool2d(t: Tensor, size: int, stride: int) -> Tensor:
    """Per-window maximum over a [C,H,W] tensor: the value of the window's first maximal tap in
    row-major order (np.argmax's pick), bit for bit. The max reduction gives that value unless a
    window holds a NaN or ties +0.0 with -0.0, so when the max holds a NaN or x holds a -0.0,
    each value is read at maxpool2d_gate's index instead."""
    x = as_tensor(t)
    c, hh, ww = maxpool2d_shape(x.shape, size, stride)
    stride = min(stride, max(x.shape[1:]))  # larger: one window, never applied (as in conv2d)
    top = _taps(x, size, size, stride, hh, ww, 0).reshape(c, size * size, hh, ww).max(axis=1)
    if np.isnan(top).any() or (np.signbit(x) & (x == 0.0)).any():
        return np.take(x, maxpool2d_gate(x, top, size, stride))
    return top


def maxpool2d_gate(x: Tensor, pooled: Tensor, size: int, stride: int) -> np.ndarray:
    """Each window's first maximal tap (np.argmax's pick: first maximum, else first NaN), given
    maxpool2d's output, as a flat index into the raveled input (np.unravel_index gives its
    (channel, row, col)). Only a reverse sweep or a frozen replay reads it, so only they build it.
    """
    c, hh, ww = pooled.shape
    h, w = x.shape[1:]
    stride = min(stride, max(h, w))
    taps = _taps(x, size, size, stride, hh, ww, 0).reshape(c, size * size, hh, ww)
    # hit[:, k]: the pick is at tap k or before.
    hit = taps == pooled[:, None]
    hit |= np.isnan(taps)
    for k in range(1, size * size):
        hit[:, k] |= hit[:, k - 1]
    # So the pick is tap size*size - n for n = hit.sum(); tap du*size + dv of window (i, j)
    # reads input (c, i*stride + du, j*stride + dv), du*w + dv past the window's first tap.
    n = hit.sum(axis=1, dtype=np.min_scalar_type(size * size))
    offsets = np.array([(k // size) * w + k % size for k in range(size * size, -1, -1)])
    flat = np.take(offsets, n)
    flat += np.arange(0, c * h * w, h * w)[:, None, None]
    flat += np.arange(0, stride * hh * w, stride * w)[:, None] + np.arange(0, stride * ww, stride)
    return flat


def maxpool2d_backward(grad: Tensor, gate: np.ndarray, x_shape, size: int, stride: int) -> Tensor:
    """Gradient wrt maxpool2d's input: grad sent to (summed at) the flat indices of its gate."""
    dx = np.zeros(x_shape)
    if stride >= size:  # disjoint windows hit no source twice: assign
        dx.reshape(-1)[gate] = grad
    else:
        np.add.at(dx.reshape(-1), gate, grad)
    return dx


def maxpool2d_shape(x_shape, size: int, stride: int) -> tuple[int, int, int]:
    """maxpool2d's output shape [C,Ho,Wo]; ParamError unless size and stride are integers >= 1."""
    if len(x_shape) != 3:
        raise ShapeError(f"maxpool2d expects a [C,H,W] tensor, got shape {x_shape}")
    size, stride = integer(size, "pool size", 1), integer(stride, "pool stride", 1)
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


def add_gaussian_noise(t: Tensor, sigma: float, rng: np.random.Generator) -> Tensor:
    """Add i.i.d. N(0, sigma^2) noise per element.

    sigma is a finite, absolute standard deviation; callers working with a relative
    spread convert it against the input's dynamic range first. sigma == 0 is
    the exact identity (bit-for-bit, no generator draw).
    """
    if not 0 <= real(sigma, "sigma") < np.inf:
        raise ParamError(f"sigma must be finite and >= 0, got {sigma}")
    x = as_tensor(t)
    if sigma == 0:
        return x.copy()
    noise = rng.normal(0.0, sigma, size=x.shape)
    noise += x  # in place: x + noise as a second array also lets glibc trim the heap
    return noise


def bilinear_resize(values: Tensor, target_h: int, target_w: int) -> Tensor:
    """Resize a 2-D map with half-pixel-center bilinear interpolation, one axis at a time.

    Each destination index d samples the source at
    (d + 0.5) * (src_dim / dst_dim) - 0.5, clamped to [0, src_dim - 1].
    Output values are convex combinations of inputs, so they stay inside
    [min(values), max(values)].
    """
    src = as_tensor(values)
    if src.ndim != 2 or not src.size:
        raise ShapeError(f"bilinear_resize expects a 2-D map with values, got shape {src.shape}")
    target_h, target_w = integer(target_h, "target height"), integer(target_w, "target width")
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
    across = src[:, c0] * (1.0 - fc) + src[:, c1] * fc  # each source row, once
    return across[r0] * (1.0 - fr)[:, None] + across[r1] * fr[:, None]


def _source_coords(src_dim: int, dst_dim: int) -> np.ndarray:
    scale = src_dim / dst_dim
    coords = (np.arange(dst_dim) + 0.5) * scale - 0.5
    return np.clip(coords, 0.0, float(src_dim - 1))
