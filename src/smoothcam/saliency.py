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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParamError, ShapeError
from .gradients import (
    GradientTriple,
    ScoreMode,
    grad_wrt_input,
    grad_wrt_layer,
    higher_order_triple,
)
from .network import Model, forward
from .tensor import Tensor, add_gaussian_noise, as_tensor, bilinear_resize

METHODS = ("sensitivity", "smoothgrad", "gradcam", "gradcampp", "smooth-gradcampp")
CAM_METHODS = ("gradcam", "gradcampp", "smooth-gradcampp")
ACTIVATION_SOURCES = ("original", "averaged")

# Positions whose alpha denominator is smaller than this are treated as dead.
DENOMINATOR_GUARD = 1e-12


@dataclass(frozen=True)
class NeuronSelection:
    """Spatial restriction of the attribution to chosen positions of the target layer.

    Either an explicit coordinate list (region=False) or an inclusive
    (top, left, bottom, right) box (region=True). Activations and derivative
    stacks outside the selection are clipped to zero before any downstream
    computation, including the per-map activation totals.
    """

    coords: tuple[tuple[int, int], ...] | None = None
    box: tuple[int, int, int, int] | None = None
    region: bool = False

    def __post_init__(self):
        if self.region:
            if self.box is None or self.coords is not None:
                raise ParamError("region selection requires box and forbids coords")
        else:
            if self.coords is None or self.box is not None:
                raise ParamError("coordinate selection requires coords and forbids box")

    def mask(self, h: int, w: int) -> np.ndarray:
        """Boolean [h,w] mask of selected positions; out-of-bounds raises ParamError."""
        keep = np.zeros((h, w), dtype=bool)
        if self.region:
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


@dataclass
class SaliencyRequest:
    """Everything needed to reproduce one saliency computation."""

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
        if self.n < 1:
            raise ParamError(f"sample count must be >= 1, got {self.n}")
        if not 0.0 <= self.sigma_rel < 1.0:
            raise ParamError(f"sigma_rel must be in [0, 1), got {self.sigma_rel}")
        if self.seed < 0:
            raise ParamError(f"seed must be non-negative, got {self.seed}")
        if self.method in CAM_METHODS:
            if self.layer is None:
                raise ParamError(f"method '{self.method}' requires a conv layer name")
            if self.method != "gradcam" and self.score.mode == "raw-logit":
                raise ParamError(f"{self.method} needs exp-logit: raw-logit zeroes every alpha")
        elif self.filters is not None or self.neurons is not None:
            raise ParamError(
                f"filters and neuron selections only apply to CAM methods, not '{self.method}'"
            )
        if self.filters is not None:
            self.filters = tuple(int(k) for k in self.filters)


@dataclass
class SaliencyMap:
    """A computed map: raw (nonnegative, method resolution) and normalized display."""

    raw: np.ndarray      # [h, w], >= 0
    display: np.ndarray  # [H, W] at input resolution, values in [0, 1]
    meta: dict


def smooth_triple(
    model: Model, input: Tensor, request: SaliencyRequest
) -> tuple[GradientTriple, Tensor]:
    """Noise-averaged derivative stacks plus the reference activation stack.

    For each sample the input is perturbed with Gaussian noise of absolute
    sigma = sigma_rel * (max(input) - min(input)), forwarded, and the
    raw-logit gradient at the target layer is expanded into the score's
    derivative triple. The elementwise means accumulate in fixed sample
    order. The returned activations are taken from the un-noised pass
    (activation_source="original") or averaged across samples ("averaged").
    """
    model.conv_index(request.layer)
    x = as_tensor(input)
    base = forward(model, x)
    c = request.score.resolve_class(base, model.class_count)
    sigma_abs = request.sigma_rel * (float(x.max()) - float(x.min()))
    layer_shape = base.per_layer[request.layer].shape
    sums = [np.zeros(layer_shape) for _ in range(3)]
    act_sum = np.zeros(layer_shape)
    raw_score = ScoreMode("raw-logit", c)
    for s in range(request.n):
        rng = _sample_rng(request.seed, s)
        noisy = add_gaussian_noise(x, sigma_abs, rng)
        tr = forward(model, noisy)
        g = grad_wrt_layer(model, tr, raw_score, request.layer)
        triple = higher_order_triple(g, float(tr.logits[c]), request.score.mode)
        sums[0] += triple.d1
        sums[1] += triple.d2
        sums[2] += triple.d3
        if request.activation_source == "averaged":
            act_sum += tr.per_layer[request.layer]
    n = float(request.n)
    averaged = GradientTriple(sums[0] / n, sums[1] / n, sums[2] / n)
    if request.activation_source == "averaged":
        activations = act_sum / n
    else:
        activations = base.per_layer[request.layer]
    return averaged, activations


def compute_alpha(avg: GradientTriple, activations: Tensor) -> Tensor:
    """Per-location importance coefficients for each feature map.

    alpha = d1 / (2*d2 + total(A_k) * d3), where total(A_k) is the scalar sum
    of feature map k's activations. Locations whose denominator magnitude is
    below the guard get alpha = 0 instead of a blow-up on dead maps.
    """
    A = as_tensor(activations)
    d1, d2, d3 = as_tensor(avg.d1), as_tensor(avg.d2), as_tensor(avg.d3)
    if not (d1.shape == d2.shape == d3.shape == A.shape) or A.ndim != 3:
        raise ShapeError(
            f"triple and activations must share one [K,h,w] shape, "
            f"got {d1.shape}/{d2.shape}/{d3.shape} and {A.shape}"
        )
    per_map_total = A.sum(axis=(1, 2))
    den = 2.0 * d2 + per_map_total[:, None, None] * d3
    alpha = np.zeros_like(d1)
    np.divide(d1, den, out=alpha, where=np.abs(den) >= DENOMINATOR_GUARD)
    return alpha


def gradcampp_weights(alpha: Tensor, avg_d1: Tensor) -> Tensor:
    """One weight per feature map: spatial sum of alpha * ReLU(averaged d1)."""
    a = as_tensor(alpha)
    d1 = as_tensor(avg_d1)
    if a.shape != d1.shape or a.ndim != 3:
        raise ShapeError(f"alpha shape {a.shape} must match d1 shape {d1.shape} as [K,h,w]")
    return (a * np.maximum(d1, 0.0)).sum(axis=(1, 2))


def gradcam_weights(g: Tensor) -> Tensor:
    """Baseline weights: the spatial mean of the gradient per feature map."""
    grad = as_tensor(g)
    if grad.ndim != 3:
        raise ShapeError(f"expected a [K,h,w] gradient stack, got shape {grad.shape}")
    return grad.mean(axis=(1, 2))


def cam_map(weights: Tensor, activations: Tensor, filters=None) -> Tensor:
    """ReLU'd weighted combination of feature maps, optionally over a filter subset."""
    w = as_tensor(weights)
    A = as_tensor(activations)
    if w.ndim != 1 or A.ndim != 3 or w.shape[0] != A.shape[0]:
        raise ShapeError(f"weights {w.shape} do not match activation stack {A.shape}")
    idx = _normalize_filters(filters, A.shape[0])
    combined = np.tensordot(w[idx], A[idx], axes=(0, 0))
    return np.maximum(combined, 0.0)


def apply_selection(
    activations: Tensor, triple: GradientTriple, selection: NeuronSelection
) -> tuple[Tensor, GradientTriple]:
    """Zero activations and all derivative stacks outside the selected positions."""
    A = as_tensor(activations)
    if A.ndim != 3:
        raise ShapeError(f"expected a [K,h,w] activation stack, got shape {A.shape}")
    keep = selection.mask(A.shape[1], A.shape[2])
    masked = GradientTriple(
        as_tensor(triple.d1) * keep,
        as_tensor(triple.d2) * keep,
        as_tensor(triple.d3) * keep,
    )
    return A * keep, masked


def smoothgrad_map(model: Model, input: Tensor, request: SaliencyRequest) -> SaliencyMap:
    """Average input-space sensitivity maps over noised copies of the input.

    sensitivity is the degenerate case (one sample, no noise). The display map
    reduces the multi-channel averaged gradient by taking the per-pixel
    maximum of absolute values across channels, then min-max normalizing.
    """
    if request.method not in ("sensitivity", "smoothgrad"):
        raise ParamError(f"smoothgrad_map does not handle method '{request.method}'")
    x = as_tensor(input)
    base = forward(model, x)
    c = request.score.resolve_class(base, model.class_count)
    n, sigma_rel = (1, 0.0) if request.method == "sensitivity" else (request.n, request.sigma_rel)
    sigma_abs = sigma_rel * (float(x.max()) - float(x.min()))
    score = ScoreMode(request.score.mode, c)
    acc = np.zeros_like(x)
    for s in range(n):
        rng = _sample_rng(request.seed, s)
        noisy = add_gaussian_noise(x, sigma_abs, rng)
        acc += grad_wrt_input(model, noisy, score)
    avg = acc / float(n)
    raw = np.abs(avg).max(axis=0)
    display = postprocess(raw, x.shape[1], x.shape[2])
    return SaliencyMap(raw=raw, display=display, meta=_meta(request, c))


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
    """Dispatch a request to its method pipeline and return the finished map."""
    if request.method in ("sensitivity", "smoothgrad"):
        return smoothgrad_map(model, input, request)
    x = as_tensor(input)
    base = forward(model, x)
    c = request.score.resolve_class(base, model.class_count)

    if request.method == "gradcam":
        g = grad_wrt_layer(model, base, ScoreMode("raw-logit", c), request.layer)
        # Grad-CAM reads d1 only, so no higher-order stacks are formed.
        triple, activations = GradientTriple(g, g, g), base.per_layer[request.layer]
    else:
        effective = request
        if request.method == "gradcampp":
            effective = replace(request, n=1, sigma_rel=0.0)
        pinned = replace(effective, score=ScoreMode(request.score.mode, c))
        triple, activations = smooth_triple(model, x, pinned)
    if request.neurons is not None:
        activations, triple = apply_selection(activations, triple, request.neurons)
    if request.method == "gradcam":
        weights = gradcam_weights(triple.d1)
    else:
        weights = gradcampp_weights(compute_alpha(triple, activations), triple.d1)

    raw = cam_map(weights, activations, request.filters)
    display = postprocess(raw, model.input_shape[1], model.input_shape[2])
    return SaliencyMap(raw=raw, display=display, meta=_meta(request, c))


def _sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    """Independent generator for one sample, derived from (master seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(sample_index,)))


def _normalize_filters(filters, k: int) -> np.ndarray:
    if filters is None:
        return np.arange(k)
    idx = sorted({int(i) for i in filters})
    for i in idx:
        if not 0 <= i < k:
            raise ParamError(f"filter index {i} out of range [0, {k})")
    return np.asarray(idx, dtype=np.intp)


def _meta(request: SaliencyRequest, class_index: int) -> dict:
    neurons = None
    if request.neurons is not None:
        sel = request.neurons
        if sel.region:
            neurons = "box=" + ":".join(str(v) for v in sel.box)
        else:
            neurons = "coords=" + ",".join(f"{r}:{c}" for r, c in sel.coords)
    return {
        "method": request.method,
        "class": class_index,
        "layer": request.layer,
        "score": request.score.mode,
        "samples": request.n,
        "sigma": request.sigma_rel,
        "activation_source": request.activation_source,
        "filters": None if request.filters is None else list(request.filters),
        "neurons": neurons,
        "seed": request.seed,
    }
