"""Reverse-mode gradients of a class score through a recorded forward pass.

The post-convolution tail of these pipelines is piecewise linear: ReLU gates
and pool argmax choices are the only nonlinearity, and the layer values the
trace records fix both. A single reverse sweep that reads those gates gives exact
derivatives of the raw logit, and the higher-order stacks for the exponential
score follow in closed form as powers of the first-order sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import ParamError
from .network import KINDS, ActivationTrace, Model, forward, logits_layer_index
from .tensor import Tensor, as_tensor, finite, integer, real, softmax

SCORE_MODES = ("raw-logit", "exp-logit", "probability")


@dataclass(frozen=True)
class ScoreMode:
    """Which scalar score to differentiate, and for which class.

    class_index=None means "use the argmax class of the un-noised pass".
    """

    mode: str = "exp-logit"
    class_index: int | None = None

    def __post_init__(self):
        if self.mode not in SCORE_MODES:
            raise ParamError(f"unknown score mode '{self.mode}', expected one of {SCORE_MODES}")
        if self.class_index is not None:
            object.__setattr__(self, "class_index", integer(self.class_index, "class index"))

    def resolve_class(self, trace: ActivationTrace) -> int:
        c = self.check_class(trace.logits.size)
        return int(np.argmax(softmax(trace.logits))) if c is None else c

    def check_class(self, class_count: int) -> int | None:
        """The fixed class index (None for auto), or ParamError outside [0, class_count)."""
        c = self.class_index
        if c is not None and not 0 <= c < class_count:
            raise ParamError(f"class index {c} out of range [0, {class_count})")
        return c

    def value(self, logits: Tensor, class_index: int) -> float:
        """This mode's score of a class, an integer that check_class reads against the logits."""
        c = ScoreMode(self.mode, integer(class_index, "class index")).check_class(np.size(logits))
        if self.mode == "raw-logit":
            return float(logits[c])
        if self.mode == "exp-logit":
            return float(np.exp(logits[c]))
        return float(softmax(logits)[c])


@dataclass(frozen=True, eq=False)
class GradientTriple:
    """First, second, and third derivative stacks over one [K,h,w] activation stack."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def grad_wrt_layer(model: Model, trace: ActivationTrace, score: ScoreMode, layer: str) -> Tensor:
    """Gradient of the class score with respect to a conv layer's [K,h,w] output.

    ReLU gates and pool argmax choices are read off the trace, so the sweep
    differentiates exactly the locally linear branch the forward pass took.
    The ReLU derivative at exactly 0 is taken as 0.
    """
    return _sweep(model, trace, score, model.conv_index(layer))


def grad_wrt_input(model: Model, input: Tensor, score: ScoreMode) -> Tensor:
    """Gradient of the class score with respect to the input (a sensitivity map)."""
    score.check_class(model.class_count)  # a class the model lacks, or a NaN, costs no pass
    return _sweep(model, forward(model, finite(input, "input")), score, -1)


def higher_order_triple(g: Tensor, logit: float, mode: str = "exp-logit") -> GradientTriple:
    """Derivative stacks for the score mode named `mode`, given the raw-logit gradient g.

    The logit s is piecewise linear in the activations, so for the exponential
    score y = exp(s) the chain rule collapses to elementwise powers:
    d1 = exp(s)*g, d2 = exp(s)*g^2, d3 = exp(s)*g^3. For the raw logit the
    higher orders vanish. Probability scores have no such closed form here and
    raise ParamError.
    """
    if ScoreMode(mode).mode == "probability":
        raise ParamError("higher-order stacks are not supported for probability scores")
    g, logit = as_tensor(g), real(logit, "logit")
    if mode == "raw-logit":
        return GradientTriple(g.copy(), np.zeros_like(g), np.zeros_like(g))
    d1 = np.exp(logit) * g
    d2 = d1 * g
    return GradientTriple(d1, d2, d2 * g)


def finite_diff_layer_grad(
    model: Model,
    trace: ActivationTrace,
    score: ScoreMode,
    layer: str,
    h: float = 1e-4,
) -> Tensor:
    """Central-difference estimate of the score gradient at a conv layer's output.

    ReLU gates and pool argmax choices stay pinned to their recorded states,
    so the difference probes the same locally linear branch the reverse sweep
    differentiates instead of stepping across a kink.
    """
    idx = model.conv_index(layer)
    base = trace.per_layer[layer]
    return _central_diff(model, trace, score, idx, base, h)


def finite_diff_input_grad(
    model: Model,
    trace: ActivationTrace,
    score: ScoreMode,
    h: float = 1e-4,
) -> Tensor:
    """Frozen-gate central-difference estimate of the input sensitivity map."""
    return _central_diff(model, trace, score, -1, trace.input, h)


def _central_diff(model, trace, score, start_index, base, h):
    if not 0 < (h := real(h, "step h")) < np.inf:
        raise ParamError(f"step h must be finite and > 0, got {h}")
    c = score.resolve_class(trace)
    tail = _frozen_tail(model, trace, start_index)
    probe = base.copy()
    flat = probe.reshape(-1)
    out = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = score.value(tail(probe), c)
        flat[i] = orig - h
        f_minus = score.value(tail(probe), c)
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return out.reshape(probe.shape)


def _frozen_tail(model, trace, start_index):
    """The layers after start_index up to the logits as one function, every ReLU and pool held
    to the branch the recorded pass took (each pool's gate derived once, here)."""
    steps = []
    for i in range(start_index + 1, logits_layer_index(model) + 1):
        spec = model.layers[i]
        frozen = KINDS[spec.kind].frozen
        steps.append(partial(KINDS[spec.kind].forward, spec) if frozen is None else
                     frozen(spec, _recorded_input(model, trace, i), trace.per_layer[spec.name]))
    return lambda x: reduce(lambda value, step: step(value), steps, x)


def _recorded_input(model: Model, trace: ActivationTrace, i: int) -> np.ndarray:
    return trace.per_layer[model.layers[i - 1].name] if i else trace.input


def _seed_at_logits(trace: ActivationTrace, score: ScoreMode) -> np.ndarray:
    c = score.resolve_class(trace)
    seed = np.zeros_like(trace.logits)
    seed[c] = np.exp(trace.logits[c]) if score.mode == "exp-logit" else 1.0
    if score.mode != "probability":
        return seed
    return KINDS["softmax"].backward(None, seed, trace.logits, softmax(trace.logits))


def _sweep(model: Model, trace: ActivationTrace, score: ScoreMode, stop_index: int) -> np.ndarray:
    g = _seed_at_logits(trace, score)
    for i in range(logits_layer_index(model), stop_index, -1):
        spec = model.layers[i]
        g = KINDS[spec.kind].backward(spec, g, _recorded_input(model, trace, i),
                                      trace.per_layer[spec.name])
    return g
