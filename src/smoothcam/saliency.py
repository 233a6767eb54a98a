"""Saliency map construction.

The class-activation methods all share one skeleton: derivative stacks for a
chosen conv layer (noise-averaged when smoothing), per-location importance
coefficients, one weight per feature map, and a ReLU'd weighted combination of
activation maps upsampled to input resolution. The gradient methods
(sensitivity, smoothgrad) average input-space sensitivity maps instead.

Per-sample seeds are derived from (master seed, sample index), and averages
accumulate in ascending sample order, so a run is reproducible byte for byte
regardless of how callers schedule the per-sample passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteMapError, ParamError, ShapeError
from .gradients import (
    GradientTriple,
    ScoreMode,
    grad_wrt_input,
    grad_wrt_layer,
    higher_order_triple,
)
from .network import Model, forward, validate
from .tensor import Tensor, add_gaussian_noise, as_tensor, bilinear_resize, integer, ints, real

METHODS = ("sensitivity", "smoothgrad", "gradcam", "gradcampp", "smooth-gradcampp")
CAM_METHODS = ("gradcam", "gradcampp", "smooth-gradcampp")
ACTIVATION_SOURCES = ("original", "averaged")

# Positions whose alpha denominator is smaller than this are treated as dead.
DENOMINATOR_GUARD = 1e-12


@dataclass(frozen=True)
class NeuronSelection:
    """Spatial restriction of the attribution to chosen positions of the target layer.

    Exactly one of an explicit coordinate list (coords) or an inclusive
    (top, left, bottom, right) box (box). Activations and derivative stacks
    outside the selection are clipped to zero before any downstream
    computation, including the per-map activation totals.
    """

    coords: tuple[tuple[int, int], ...] | None = None
    box: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if (self.coords is None) == (self.box is None):
            raise ParamError("a neuron selection takes exactly one of coords and box")
        if self.box is not None:
            object.__setattr__(self, "box", ints(self.box, "a region box", 4))
        elif not isinstance(self.coords, tuple):  # () stays: criterion 7 maps it to zero
            raise ParamError(f"coords must be a tuple of (row, col) pairs, got {self.coords!r}")
        else:
            coords = tuple(ints(pair, "a neuron coordinate", 2) for pair in self.coords)
            object.__setattr__(self, "coords", coords)

    def mask(self, h: int, w: int) -> np.ndarray:
        """Boolean [h,w] mask of selected positions; out-of-bounds raises ParamError."""
        keep = np.zeros((h, w), dtype=bool)
        if self.box is not None:
            top, left, bottom, right = self.box
            if not (0 <= top <= bottom < h and 0 <= left <= right < w):
                raise ParamError(f"region box {self.box} out of bounds for {h}x{w} map")
            keep[top : bottom + 1, left : right + 1] = True
        else:
            for r, c in self.coords:
                if not (0 <= r < h and 0 <= c < w):
                    raise ParamError(f"neuron coordinate ({r}, {c}) out of bounds for {h}x{w} map")
                keep[r, c] = True
        return keep


@dataclass(frozen=True)
class SaliencyRequest:
    """Everything needed to reproduce one saliency computation; build a changed copy
    with `dataclasses.replace`, which checks it again."""

    method: str
    score: ScoreMode = field(default_factory=ScoreMode)
    layer: str | None = None
    n: int = 25
    sigma_rel: float = 0.15
    filters: tuple[int, ...] | None = None
    neurons: NeuronSelection | None = None
    activation_source: str = "original"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParamError(f"unknown method '{self.method}', expected one of {METHODS}")
        if self.activation_source not in ACTIVATION_SOURCES:
            raise ParamError(f"unknown activation source '{self.activation_source}'")
        object.__setattr__(self, "n", integer(self.n, "sample count", 1))
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))
        if not 0.0 <= real(self.sigma_rel, "sigma_rel") < 1.0:
            raise ParamError(f"sigma_rel must be in [0, 1), got {self.sigma_rel}")
        if self.method in CAM_METHODS:
            if self.layer is None:
                raise ParamError(f"method '{self.method}' requires a conv layer name")
            if self.method != "gradcam" and self.score.mode == "raw-logit":
                raise ParamError(f"{self.method} needs exp-logit: raw-logit zeroes every alpha")
            if self.score.mode == "probability":
                raise ParamError(f"{self.method} has no probability score: use exp-logit")
        elif (self.layer is not None or self.filters is not None or self.neurons is not None
              or self.activation_source != "original"):  # these maps are taken at the input
            raise ParamError(
                f"a layer, filters and neuron selections, and averaged activations, only apply "
                f"to CAM methods, not '{self.method}'"
            )
        if self.filters is not None:
            object.__setattr__(self, "filters", ints(self.filters, "filters"))


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """A computed map: raw (nonnegative, method resolution) and normalized display,
    both read-only, with the request it answers and the class it explains."""

    raw: np.ndarray      # [h, w], >= 0
    display: np.ndarray  # [H, W] at input resolution, values in [0, 1]
    request: SaliencyRequest
    chosen_class: int    # the request's class, or the clean pass's argmax class


def smooth_triple(
    model: Model, input: Tensor, request: SaliencyRequest
) -> tuple[GradientTriple, Tensor]:
    """Sample-averaged derivative stacks plus the reference activation stack.

    Each of the request's samples (`_average`) is forwarded, and the raw-logit
    gradient at the target layer is expanded into the score's derivative
    triple for the un-noised pass's class. The activations come from the
    un-noised pass (activation_source="original") or their sample mean ("averaged").
    """
    model.conv_index(request.layer)
    averaged = request.activation_source == "averaged"

    def per_sample(sample, c):
        tr = forward(model, sample)
        g = grad_wrt_layer(model, tr, ScoreMode("raw-logit", c), request.layer)
        triple = higher_order_triple(g, float(tr.logits[c]), request.score.mode)
        stacks = (triple.d1, triple.d2, triple.d3)
        return stacks + (tr.per_layer[request.layer],) if averaged else stacks

    clean, _, means = _average(model, as_tensor(input), request, per_sample)
    return GradientTriple(*means[:3]), means[3] if averaged else clean


def compute_alpha(avg: GradientTriple, activations: Tensor) -> Tensor:
    """Per-location importance coefficients for each feature map.

    alpha = d1 / (2*d2 + total(A_k) * d3), where total(A_k) is the scalar sum
    of feature map k's activations. Locations whose denominator magnitude is
    below the guard get alpha = 0 instead of a blow-up on dead maps.
    """
    A, d1, d2, d3 = _stacks(activations, avg.d1, avg.d2, avg.d3)
    per_map_total = A.sum(axis=(1, 2))
    den = 2.0 * d2 + per_map_total[:, None, None] * d3
    alpha = np.zeros_like(d1)
    np.divide(d1, den, out=alpha, where=np.abs(den) >= DENOMINATOR_GUARD)
    return alpha


def gradcampp_weights(alpha: Tensor, avg_d1: Tensor) -> Tensor:
    """One weight per feature map: spatial sum of alpha * ReLU(averaged d1)."""
    a, d1 = _stacks(alpha, avg_d1)
    return (a * np.maximum(d1, 0.0)).sum(axis=(1, 2))


def gradcam_weights(g: Tensor) -> Tensor:
    """Baseline weights: the spatial mean of the gradient per feature map."""
    (grad,) = _stacks(g)
    return grad.mean(axis=(1, 2))


def cam_map(weights: Tensor, activations: Tensor, filters=None) -> Tensor:
    """ReLU'd weighted combination of feature maps, optionally over a filter subset."""
    w = as_tensor(weights)
    (A,) = _stacks(activations)
    if w.shape != A.shape[:1]:
        raise ShapeError(f"weights {w.shape} do not match activation stack {A.shape}")
    idx = _normalize_filters(filters, A.shape[0])
    combined = np.tensordot(w[idx], A[idx], axes=(0, 0))
    return np.maximum(combined, 0.0)


def apply_selection(
    activations: Tensor, triple: GradientTriple, selection: NeuronSelection
) -> tuple[Tensor, GradientTriple]:
    """Zero activations and all derivative stacks outside the selected positions."""
    A, d1, d2, d3 = _stacks(activations, triple.d1, triple.d2, triple.d3)
    keep = selection.mask(A.shape[1], A.shape[2])
    return A * keep, GradientTriple(d1 * keep, d2 * keep, d3 * keep)


def smoothgrad_map(model: Model, input: Tensor, request: SaliencyRequest) -> SaliencyMap:
    """Average input-space sensitivity maps over noised copies of the input.

    sensitivity is the degenerate case (one sample, no noise). The display map
    reduces the multi-channel averaged gradient by taking the per-pixel
    maximum of absolute values across channels, then min-max normalizing.
    """
    if request.method in CAM_METHODS:
        raise ParamError(f"smoothgrad_map does not handle method '{request.method}'")

    def per_sample(sample, c):
        return (grad_wrt_input(model, sample, ScoreMode(request.score.mode, c)),)

    _, c, (avg,) = _average(model, as_tensor(input), request, per_sample)
    return _finished(model, request, np.abs(avg).max(axis=0), c)


def postprocess(raw_map: Tensor, input_h: int, input_w: int) -> np.ndarray:
    """Upsample to input resolution and min-max normalize into [0, 1].

    A constant map has nothing to rank, so it normalizes to all zeros.
    """
    resized = bilinear_resize(raw_map, input_h, input_w)
    lo = float(resized.min())
    hi = float(resized.max())
    if hi == lo:
        return np.zeros_like(resized)
    return (resized - lo) / (hi - lo)


def run(model: Model, input: Tensor, request: SaliencyRequest) -> SaliencyMap:
    """Dispatch a request to its method pipeline, whose clean pass checks it first."""
    x = as_tensor(input)
    if request.method not in CAM_METHODS:
        return smoothgrad_map(model, x, request)
    base, c = _clean_pass(model, x, request)

    if request.method == "gradcam":
        g = grad_wrt_layer(model, base, ScoreMode("raw-logit", c), request.layer)
        triple = higher_order_triple(g, base.logits[c], "raw-logit")
        activations = base.per_layer[request.layer]
    else:
        del base  # only the class is read, so the trace dies before the noise samples
        triple, activations = smooth_triple(model, x, request)
    if request.neurons is not None:
        activations, triple = apply_selection(activations, triple, request.neurons)
    if request.method == "gradcam":
        weights = gradcam_weights(triple.d1)
    else:
        weights = gradcampp_weights(compute_alpha(triple, activations), triple.d1)

    return _finished(model, request, cam_map(weights, activations, request.filters), c)


def _finished(model: Model, request: SaliencyRequest, raw: np.ndarray, c: int) -> SaliencyMap:
    """The map with its display, unless the raw map holds NaN or infinity, which
    normalizing could hide. Inputs and weights are finite, so the score overflowed."""
    if not np.isfinite(raw).all():
        raise NonFiniteMapError(
            f"{request.method} output for class {c} is not finite: the class score overflowed")
    display = postprocess(raw, model.input_shape[1], model.input_shape[2])
    raw.flags.writeable = display.flags.writeable = False
    return SaliencyMap(raw, display, request, c)


def _clean_pass(model: Model, x: np.ndarray, request: SaliencyRequest):
    """The un-noised trace and its class, after refusing a bad target, then a non-finite input."""
    check_target(model, request)
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise ParamError(f"input holds {bad} NaN or infinite values of {x.size}")
    base = forward(model, x)
    return base, request.score.resolve_class(base)


def _average(model: Model, x: Tensor, request: SaliencyRequest, per_sample):
    """Run the clean pass, resolve the class, and average per_sample(sample, class).

    Returns the clean pass's target-layer activations (None without a layer), the
    class and the means of per_sample's arrays, summed from zero in ascending sample
    order; the clean trace dies before the first sample. smoothgrad and
    smooth-gradcampp average n copies of x, sample s noised with sigma = sigma_rel *
    (max(x) - min(x)) drawn from (master seed, s); every other method uses x itself, once.
    """
    base, c = _clean_pass(model, x, request)
    clean = None if request.layer is None else base.per_layer[request.layer]
    del base
    noised = request.method in ("smoothgrad", "smooth-gradcampp")
    n = request.n if noised else 1
    sigma_abs = request.sigma_rel * (float(x.max()) - float(x.min())) if noised else None
    for s in range(n):
        sample = x
        if noised:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=request.seed, spawn_key=(s,)))
            sample = add_gaussian_noise(x, sigma_abs, rng)
        arrays = per_sample(sample, c)
        if s == 0:
            sums = [np.zeros(np.shape(a)) for a in arrays]
        for total, a in zip(sums, arrays):
            total += a
    return clean, c, [total / float(n) for total in sums]


def check_target(model: Model, request: SaliencyRequest) -> None:
    """Raise a request's class index error, or a CAM request's layer, filter index or neuron
    selection error: the clean pass runs it before its forward, `explain` before the image."""
    request.score.check_class(model.class_count)
    if request.method in CAM_METHODS:
        conv = model.layers[model.conv_index(request.layer)]
        _normalize_filters(request.filters, len(conv.weight))
        if request.neurons is not None:
            request.neurons.mask(*validate(model)[request.layer][1:])


def _stacks(*arrays) -> list[np.ndarray]:
    """The arrays as float64 [K,h,w] stacks of one shape, else ShapeError."""
    stacks = [as_tensor(a) for a in arrays]
    if stacks[0].ndim != 3 or any(s.shape != stacks[0].shape for s in stacks):
        shapes = ", ".join(str(s.shape) for s in stacks)
        raise ShapeError(f"expected [K,h,w] stacks of one shape, got {shapes}")
    return stacks


def _normalize_filters(filters, k: int) -> np.ndarray:
    if filters is None:
        return np.arange(k)
    idx = sorted(set(ints(filters, "filters")))
    for i in idx:
        if not 0 <= i < k:
            raise ParamError(f"filter index {i} out of range [0, {k})")
    return np.asarray(idx, dtype=np.intp)

