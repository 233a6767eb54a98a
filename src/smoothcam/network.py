"""Straight-pipeline model definition, shape validation, and a tracing forward pass.

Models are ordered lists of layers with no branches; that covers the VGG-style
nets this library targets and keeps the reverse sweep in `gradients` simple.
A model is immutable after construction (weight arrays are frozen), so any
number of concurrent forward passes over it is safe. Each layer kind is
defined by its one entry in `KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvLayerError, ShapeError, UnknownLayerError
from .tensor import Tensor, as_tensor, conv2d, dense, maxpool2d, relu, softmax


@dataclass
class LayerSpec:
    """One pipeline stage; weight arrays are frozen once a Model owns them."""

    name: str
    kind: str
    kernels: np.ndarray | None = None  # conv: [K, C, kh, kw]
    weights: np.ndarray | None = None  # dense: [M, N]
    bias: np.ndarray | None = None     # conv: [K], dense: [M]
    stride: int = 1                    # conv, maxpool
    padding: int = 0                   # conv
    pool_size: int = 2                 # maxpool


def conv_layer(name: str, kernels, bias, stride: int = 1, padding: int = 0) -> LayerSpec:
    return LayerSpec(name, "conv", kernels=kernels, bias=bias, stride=stride, padding=padding)


def relu_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "relu")


def maxpool_layer(name: str, size: int, stride: int | None = None) -> LayerSpec:
    return LayerSpec(name, "maxpool", pool_size=size, stride=size if stride is None else stride)


def flatten_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "flatten")


def dense_layer(name: str, weights, bias) -> LayerSpec:
    return LayerSpec(name, "dense", weights=weights, bias=bias)


def softmax_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "softmax")


@dataclass
class Model:
    """An ordered layer pipeline with a fixed [C,H,W] input shape.

    Construction freezes all weight arrays (private float64 copies, marked
    read-only) and runs shape inference end to end, so an invalid topology
    fails here rather than mid-forward.
    """

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    class_count: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        self.class_count = int(self.class_count)
        for spec in self.layers:
            for attr in ("kernels", "weights", "bias"):
                arr = getattr(spec, attr)
                if arr is not None:
                    frozen = np.array(arr, dtype=np.float64, order="C")
                    frozen.flags.writeable = False
                    setattr(spec, attr, frozen)
        validate(self)

    def layer_index(self, name: str) -> int:
        for i, spec in enumerate(self.layers):
            if spec.name == name:
                return i
        raise UnknownLayerError(f"unknown layer: {name}")

    def layer(self, name: str) -> LayerSpec:
        return self.layers[self.layer_index(name)]

    def conv_index(self, name: str) -> int:
        """Index of the named conv layer; both errors list the valid conv layers."""
        valid = "valid conv layers: " + (", ".join(list_conv_layers(self)) or "(none)")
        try:
            idx = self.layer_index(name)
        except UnknownLayerError:
            raise UnknownLayerError(f"unknown layer: {name} ({valid})") from None
        kind = self.layers[idx].kind
        if kind != "conv":
            raise NonConvLayerError(f"layer '{name}' has kind '{kind}', expected conv ({valid})")
        return idx


@dataclass
class ActivationTrace:
    """Every layer's forward output plus the bookkeeping reverse sweeps need."""

    input: np.ndarray
    per_layer: dict[str, np.ndarray]
    logits: np.ndarray
    probabilities: np.ndarray
    # The branch each gated layer took: a ReLU's output (open where positive)
    # or a pool's argmax (rows, cols).
    gates: dict[str, object] = field(default_factory=dict)


def forward(model: Model, input: Tensor) -> ActivationTrace:
    """Run the pipeline, recording every layer's output and the gates it chose."""
    x = as_tensor(input)
    if x.shape != model.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match model input {model.input_shape}")
    per_layer: dict[str, np.ndarray] = {}
    gates: dict[str, object] = {}
    out = x
    for spec in model.layers:
        out, gate = KINDS[spec.kind].forward(spec, out)
        per_layer[spec.name] = out
        if gate is not None:
            gates[spec.name] = gate
    tap = logits_layer_index(model)
    logits = per_layer[model.layers[tap].name] if tap >= 0 else x
    return ActivationTrace(
        input=x,
        per_layer=per_layer,
        logits=logits,
        probabilities=softmax(logits),
        gates=gates,
    )


def list_conv_layers(model: Model) -> list[str]:
    """Names of all convolution layers in forward order."""
    return [spec.name for spec in model.layers if spec.kind == "conv"]


def logits_layer_index(model: Model) -> int:
    """Index of the layer producing the class scores (the final softmax's input)."""
    if model.layers[-1].kind == "softmax":
        return len(model.layers) - 2
    return len(model.layers) - 1


def validate(model: Model) -> dict[str, tuple[int, ...]]:
    """Infer every layer's output shape, raising ShapeError on the first bad layer."""
    if not model.layers:
        raise ShapeError("model has no layers")
    seen: set[str] = set()
    for spec in model.layers:
        if spec.name in seen:
            raise ShapeError(f"duplicate layer name: {spec.name}")
        seen.add(spec.name)
    shape = tuple(model.input_shape)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise ShapeError(f"input shape must be [C,H,W] with positive dims, got {shape}")
    table: dict[str, tuple[int, ...]] = {}
    for spec in model.layers:
        if spec.kind not in KINDS:
            raise ShapeError(f"layer '{spec.name}': unknown kind '{spec.kind}'")
        shape = KINDS[spec.kind].shape(spec, shape)
        table[spec.name] = shape
    if shape != (model.class_count,):
        raise ShapeError(
            f"final layer '{model.layers[-1].name}' produces shape {shape}, "
            f"expected ({model.class_count},)"
        )
    return table


@dataclass(frozen=True)
class LayerKind:
    """The rules of one layer kind, read by every pass and by the model files."""

    shape: Callable     # (spec, in_shape) -> out_shape; raises ShapeError
    forward: Callable   # (spec, x, gate=None) -> (out, gate); replays a given gate frozen
    backward: Callable  # (spec, grad, recorded_input, recorded_output, gate) -> input grad
    params: dict[str, str] = field(default_factory=dict)  # manifest key -> LayerSpec attribute
    weight: str | None = None  # attribute holding the weight array; None: no weight/bias spans


def _conv_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    name = spec.name
    if len(in_shape) != 3:
        raise ShapeError(f"layer '{name}': conv needs a [C,H,W] input, got {in_shape}")
    if spec.kernels is None or spec.kernels.ndim != 4:
        raise ShapeError(f"layer '{name}': conv requires [K,C,kh,kw] kernels")
    if spec.stride < 1 or spec.padding < 0:
        raise ShapeError(f"layer '{name}': conv needs stride >= 1 and padding >= 0")
    c, h, w = in_shape
    kout, kc, kh, kw = spec.kernels.shape
    if kc != c:
        raise ShapeError(f"layer '{name}': kernel channels {kc} != input channels {c}")
    ph, pw = h + 2 * spec.padding, w + 2 * spec.padding
    if kh > ph or kw > pw:
        raise ShapeError(f"layer '{name}': kernel {kh}x{kw} exceeds padded input {ph}x{pw}")
    if (ph - kh) % spec.stride or (pw - kw) % spec.stride:
        raise ShapeError(f"layer '{name}': non-integral output size")
    return (kout, (ph - kh) // spec.stride + 1, (pw - kw) // spec.stride + 1)


def _conv_input_grad(grad, spec, input_shape):
    # One GEMM gives the gradient of every im2col row; col2im adds them back.
    k = spec.kernels
    kout, _, kh, kw = k.shape
    c, h, w = input_shape
    s, p = spec.stride, spec.padding
    hh, ww = grad.shape[1], grad.shape[2]
    cols = (k.reshape(kout, -1).T @ grad.reshape(kout, -1)).reshape(c, kh, kw, hh, ww)
    dx = np.zeros((c, h + 2 * p, w + 2 * p))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + s * hh : s, v : v + s * ww : s] += cols[:, u, v]
    return dx[:, p : p + h, p : p + w] if p else dx


def _relu_forward(spec, x, gate=None):
    # The output doubles as the gate, so recording it costs no extra array.
    if gate is None:
        out = relu(x)
        return out, out
    return x * (gate > 0), gate


def _maxpool_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    name = spec.name
    if len(in_shape) != 3:
        raise ShapeError(f"layer '{name}': maxpool needs a [C,H,W] input, got {in_shape}")
    if spec.pool_size < 1 or spec.stride < 1:
        raise ShapeError(f"layer '{name}': maxpool needs size >= 1 and stride >= 1")
    c, h, w = in_shape
    if h < spec.pool_size or w < spec.pool_size:
        raise ShapeError(f"layer '{name}': pool window {spec.pool_size} exceeds input {h}x{w}")
    return (
        c,
        (h - spec.pool_size) // spec.stride + 1,
        (w - spec.pool_size) // spec.stride + 1,
    )


def _maxpool_forward(spec, x, gate=None):
    if gate is None:
        return maxpool2d(x, spec.pool_size, spec.stride)
    rows, cols = gate
    return x[np.arange(x.shape[0])[:, None, None], rows, cols], gate


def _maxpool_backward(spec, grad, x, out, gate):
    at = (np.arange(grad.shape[0])[:, None, None], *gate)
    dx = np.zeros_like(x)
    if spec.stride >= spec.pool_size:  # disjoint windows: no source is hit twice
        dx[at] = grad
    else:
        np.add.at(dx, at, grad)
    return dx


def _dense_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    if spec.weights is None or spec.weights.ndim != 2:
        raise ShapeError(f"layer '{spec.name}': dense requires [M,N] weights")
    m, n = spec.weights.shape
    if in_shape != (n,):
        raise ShapeError(f"layer '{spec.name}': dense expects {n} inputs, got {in_shape}")
    return (m,)


def _softmax_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(in_shape) != 1:
        raise ShapeError(f"layer '{spec.name}': softmax needs a vector input, got {in_shape}")
    return in_shape


# Entries call the tensor primitives through this module's globals, so
# anything that rebinds those names (such as a tracer) sees every call.
KINDS: dict[str, LayerKind] = {
    "conv": LayerKind(
        shape=_conv_shape,
        forward=lambda spec, x, gate=None: (
            conv2d(x, spec.kernels, spec.bias, spec.stride, spec.padding), None),
        backward=lambda spec, grad, x, out, gate: _conv_input_grad(grad, spec, x.shape),
        params={"stride": "stride", "padding": "padding"},
        weight="kernels",
    ),
    "relu": LayerKind(
        shape=lambda spec, in_shape: in_shape,
        forward=_relu_forward,
        backward=lambda spec, grad, x, out, gate: grad * (x > 0),
    ),
    "maxpool": LayerKind(
        shape=_maxpool_shape,
        forward=_maxpool_forward,
        backward=_maxpool_backward,
        params={"size": "pool_size", "stride": "stride"},
    ),
    "flatten": LayerKind(
        shape=lambda spec, in_shape: (int(np.prod(in_shape)),),
        forward=lambda spec, x, gate=None: (x.reshape(-1), None),
        backward=lambda spec, grad, x, out, gate: grad.reshape(x.shape),
    ),
    "dense": LayerKind(
        shape=_dense_shape,
        forward=lambda spec, x, gate=None: (dense(x, spec.weights, spec.bias), None),
        backward=lambda spec, grad, x, out, gate: spec.weights.T @ grad,
        weight="weights",
    ),
    "softmax": LayerKind(
        shape=_softmax_shape,
        forward=lambda spec, x, gate=None: (softmax(x), None),
        # ds_j/dz_i = s_j (delta_ij - s_i)
        backward=lambda spec, grad, x, out, gate: out * (grad - np.dot(grad, out)),
    ),
}
