"""Straight-pipeline model definition, shape validation, and a tracing forward pass.

Models are ordered lists of layers with no branches; that covers the VGG-style
nets this library targets and keeps the reverse sweep in `gradients` simple.
A model is immutable after construction (a frozen value holding its own checked
copies of the layers), so any number of concurrent forward passes over it is
safe. Each layer kind is defined by its one entry in `KINDS`, which names the
`LayerSpec` fields the kind takes; those names are the model file's too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import NonConvLayerError, ShapeError, SmoothCamError, UnknownLayerError
from .tensor import (Tensor, as_tensor, conv2d, conv2d_backward, conv2d_shape, dense, dense_shape,
                     finite, integer, ints, maxpool2d, maxpool2d_backward, maxpool2d_shape, relu,
                     softmax, softmax_shape)


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One pipeline stage, its fields named as in the manifest. A field its kind does not
    take stays None; the helpers hold the defaults. A Model checks it and keeps a copy."""

    name: str
    kind: str
    weight: np.ndarray | None = None  # conv: [K, C, kh, kw], dense: [M, N]
    bias: np.ndarray | None = None    # conv: [K], dense: [M]
    stride: int | None = None         # conv, maxpool
    padding: int | None = None        # conv
    size: int | None = None           # maxpool


def name_fault(name) -> str | None:
    """Why a model file cannot hold this layer name (a non-empty printable str), else None."""
    if not isinstance(name, str) or not name:
        return f"name {name!r} is not a non-empty string"
    return None if name.isprintable() else f"name {name!r} holds an unprintable character"


def conv_layer(name: str, kernels, bias, stride: int = 1, padding: int = 0) -> LayerSpec:
    return LayerSpec(name, "conv", weight=kernels, bias=bias, stride=stride, padding=padding)


def relu_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "relu")


def maxpool_layer(name: str, size: int, stride: int | None = None) -> LayerSpec:
    return LayerSpec(name, "maxpool", size=size, stride=size if stride is None else stride)


def flatten_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "flatten")


def dense_layer(name: str, weights, bias) -> LayerSpec:
    return LayerSpec(name, "dense", weight=weights, bias=bias)


def softmax_layer(name: str) -> LayerSpec:
    return LayerSpec(name, "softmax")


@dataclass(frozen=True, eq=False)
class Model:
    """An ordered layer pipeline with a fixed [C,H,W] input shape.

    Construction reads every integer with `tensor.integer` and runs shape
    inference end to end, so an invalid model fails here rather than
    mid-forward. It keeps its own checked copies of the layers (plain-int
    parameters; private, read-only float64 arrays, read by `tensor.finite`) and
    leaves the caller's specs as they were.
    """

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", ints(self.input_shape, "input shape"))
        object.__setattr__(self, "class_count", integer(self.class_count, "class count", 1))
        validate(self)  # it reads the layers' integer parameters, naming a bad one's layer
        owned = []
        for spec in self.layers:
            kept = {a: integer(getattr(spec, a), a) for a in KINDS[spec.kind].params}
            for attr in KINDS[spec.kind].arrays:  # validate has seen each one's shape
                arr = kept[attr] = finite(np.array(getattr(spec, attr), dtype=np.float64,
                                                   order="C"), f"layer '{spec.name}': {attr}")
                arr.flags.writeable = False
            owned.append(replace(spec, **kept))
        object.__setattr__(self, "layers", tuple(owned))

    def layer_index(self, name: str) -> int:
        for i, spec in enumerate(self.layers):
            if spec.name == name:
                return i
        raise UnknownLayerError(f"unknown layer: {name}")

    def layer(self, name: str) -> LayerSpec:
        return self.layers[self.layer_index(name)]

    def conv_index(self, name: str) -> int:
        """Index of the named conv layer; both errors list the valid conv layers."""
        try:
            idx = self.layer_index(name)
            kind = self.layers[idx].kind
            if kind == "conv":
                return idx
            error = NonConvLayerError(f"layer '{name}' has kind '{kind}', expected conv")
        except UnknownLayerError as exc:
            error = exc
        valid = ", ".join(list_conv_layers(self)) or "(none)"
        raise type(error)(f"{error} (valid conv layers: {valid})")


@dataclass(frozen=True, eq=False)
class ActivationTrace:
    """Every layer's forward output plus the bookkeeping reverse sweeps need, all read-only."""

    input: np.ndarray
    per_layer: MappingProxyType[str, np.ndarray]
    logits: np.ndarray
    # The branch each gated layer took: a ReLU's output (open where positive)
    # or a pool's flat argmax index into its raveled input.
    gates: MappingProxyType[str, np.ndarray]


def forward(model: Model, input: Tensor) -> ActivationTrace:
    """Run the pipeline, recording every layer's output and the gates it chose."""
    x = as_tensor(input)
    if x.shape != model.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match model input {model.input_shape}")
    per_layer, gates = {}, {}
    out = x = x.view()  # the trace's own view: marking it read-only leaves the caller's flags
    for spec in model.layers:
        out, gate = KINDS[spec.kind].forward(spec, out)
        per_layer[spec.name] = out
        if gate is not None:
            gates[spec.name] = gate
    for arr in (x, *per_layer.values(), *gates.values()):
        arr.flags.writeable = False
    logits = per_layer[model.layers[logits_layer_index(model)].name]
    return ActivationTrace(x, MappingProxyType(per_layer), logits, MappingProxyType(gates))


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
    shape = tuple(model.input_shape)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise ShapeError(f"input shape must be [C,H,W] with positive dims, got {shape}")
    table: dict[str, tuple[int, ...]] = {}
    for i, spec in enumerate(model.layers):
        if not isinstance(spec, LayerSpec):
            raise ShapeError(f"layer {i}: {spec!r} is not a LayerSpec")
        if fault := name_fault(spec.name):  # a line break or a lone surrogate garbles output
            raise ShapeError(f"layer {i}: {fault}")
        if spec.name in table:
            raise ShapeError(f"duplicate layer name: {spec.name}")
        if not isinstance(spec.kind, str) or spec.kind not in KINDS:
            raise ShapeError(f"layer '{spec.name}': unknown kind '{spec.kind}'")
        takes = KINDS[spec.kind].params + KINDS[spec.kind].arrays
        for f in fields(LayerSpec)[2:]:
            if getattr(spec, f.name) is not None and f.name not in takes:
                raise ShapeError(f"layer '{spec.name}': a {spec.kind} layer takes no {f.name}")
        try:
            shape = KINDS[spec.kind].shape(spec, shape)
        except SmoothCamError as exc:
            raise ShapeError(f"layer '{spec.name}': {exc}") from None
        table[spec.name] = shape
    if shape != (model.class_count,):
        raise ShapeError(
            f"final layer '{model.layers[-1].name}' produces shape {shape}, "
            f"expected ({model.class_count},)"
        )
    return table


@dataclass(frozen=True)
class LayerKind:
    """The rules of one layer kind, read by every pass and by the model files. `params` and
    `arrays` name the LayerSpec fields it takes: the manifest's params keys and span labels."""

    shape: Callable     # (spec, in_shape) -> out_shape; the primitive's own rule
    forward: Callable   # (spec, x, gate=None) -> (out, gate); replays a given gate frozen
    backward: Callable  # (spec, grad, recorded_input, recorded_output, gate) -> grad
    params: tuple[str, ...] = ()  # integer fields, in manifest order
    arrays: tuple[str, ...] = ()  # float array fields, in blob order


def _relu_forward(spec, x, gate=None):
    # The output doubles as the gate, so recording it costs no extra array.
    if gate is None:
        out = relu(x)
        return out, out
    return x * (gate > 0), gate


def _maxpool_forward(spec, x, gate=None):
    if gate is None:
        return maxpool2d(x, spec.size, spec.stride)
    return np.take(x, gate), gate


# Entries call the tensor primitives through this module's globals, so
# anything that rebinds those names (such as a tracer) sees every call. A
# missing array has shape (), which the primitives' shape rules reject.
KINDS: dict[str, LayerKind] = {
    "conv": LayerKind(
        shape=lambda spec, in_shape: conv2d_shape(
            in_shape, np.shape(spec.weight), np.shape(spec.bias), spec.stride, spec.padding),
        forward=lambda spec, x, gate=None: (
            conv2d(x, spec.weight, spec.bias, spec.stride, spec.padding), None),
        backward=lambda spec, grad, x, out, gate: conv2d_backward(
            grad, x.shape, spec.weight, spec.stride, spec.padding),
        params=("stride", "padding"),
        arrays=("weight", "bias"),
    ),
    "relu": LayerKind(
        shape=lambda spec, in_shape: in_shape,
        forward=_relu_forward,
        backward=lambda spec, grad, x, out, gate: grad * (x > 0.0),
    ),
    "maxpool": LayerKind(
        shape=lambda spec, in_shape: maxpool2d_shape(in_shape, spec.size, spec.stride),
        forward=_maxpool_forward,
        backward=lambda spec, grad, x, out, gate: maxpool2d_backward(
            grad, gate, x.shape, spec.size, spec.stride),
        params=("size", "stride"),
    ),
    "flatten": LayerKind(
        shape=lambda spec, in_shape: (math.prod(in_shape),),
        forward=lambda spec, x, gate=None: (x.reshape(-1), None),
        backward=lambda spec, grad, x, out, gate: grad.reshape(x.shape),
    ),
    "dense": LayerKind(
        shape=lambda spec, in_shape: dense_shape(
            in_shape, np.shape(spec.weight), np.shape(spec.bias)),
        forward=lambda spec, x, gate=None: (dense(x, spec.weight, spec.bias), None),
        backward=lambda spec, grad, x, out, gate: spec.weight.T @ grad,
        arrays=("weight", "bias"),
    ),
    "softmax": LayerKind(
        shape=lambda spec, in_shape: softmax_shape(in_shape),
        forward=lambda spec, x, gate=None: (softmax(x), None),
        # ds_j/dz_i = s_j (delta_ij - s_i)
        backward=lambda spec, grad, x, out, gate: out * (grad - np.dot(grad, out)),
    ),
}
