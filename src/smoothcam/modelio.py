"""Model serialization and ready-made fixture models.

A model on disk is a UTF-8 JSON manifest plus a raw weight blob. The blob is
a headerless stream of little-endian IEEE-754 binary32 values, laid out
exactly as the manifest's byte offsets declare; weights are widened to
float64 when loaded. Both writers are bit-deterministic so identical models
produce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormatError, LengthError, ParamError
from .network import (
    KINDS,
    LayerSpec,
    Model,
    conv_layer,
    dense_layer,
    flatten_layer,
    maxpool_layer,
    relu_layer,
    softmax_layer,
)

FORMAT_VERSION = 1

_ITEM_BYTES = 4  # float32 storage


def save_model(model: Model, manifest_path, weights_path) -> None:
    """Write the manifest JSON and float32 weight blob for a model."""
    layers = []
    blob = bytearray()
    for spec in model.layers:
        rules = KINDS[spec.kind]
        params = {key: getattr(spec, attr) for key, attr in rules.params.items()}
        entry = {"name": spec.name, "kind": spec.kind, "params": params}
        main = getattr(spec, rules.weight) if rules.weight else None
        for label, arr in (("weight", main), ("bias", spec.bias)):
            if arr is None:
                continue
            entry[f"{label}_offset"] = len(blob)
            entry[f"{label}_shape"] = list(arr.shape)
            blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
        layers.append(entry)
    manifest = {
        "format_version": FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "class_count": model.class_count,
        "layers": layers,
    }
    Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    Path(weights_path).write_bytes(bytes(blob))


def load_model(manifest_path, weights_path) -> Model:
    """Load a manifest + blob pair, validating structure before touching weights."""
    try:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("manifest root must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        input_shape = tuple(int(d) for d in doc["input_shape"])
        class_count = int(doc["class_count"])
        entries = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"manifest missing or malformed field: {exc}") from exc
    if not isinstance(entries, list):
        raise FormatError("manifest field 'layers' must be a list of layer objects")

    spans = []  # (offset, nbytes, layer name, label)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"layer {i}: entry must be a JSON object, got {entry!r}")
        kind = entry.get("kind")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise FormatError(f"layer entry missing a name: {entry!r}")
        if kind not in KINDS:
            raise FormatError(f"layer '{name}': unknown kind '{kind}'")
        for label in ("weight", "bias"):
            has_offset = f"{label}_offset" in entry
            has_shape = f"{label}_shape" in entry
            if has_offset != has_shape:
                raise FormatError(f"layer '{name}': {label} offset/shape must appear together")
            if not has_offset:
                continue
            if KINDS[kind].weight is None:
                raise FormatError(f"layer '{name}': kind '{kind}' carries no weights")
            offset = entry[f"{label}_offset"]
            shape = entry[f"{label}_shape"]
            if not isinstance(offset, int) or offset < 0:
                raise FormatError(f"layer '{name}': bad {label}_offset {offset!r}")
            if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
                raise FormatError(f"layer '{name}': bad {label}_shape {shape!r}")
            spans.append((offset, int(np.prod(shape, dtype=np.int64)) * _ITEM_BYTES, name, label))

    total = 0
    for offset, nbytes, name, label in spans:
        if offset != total:
            raise FormatError(
                f"layer '{name}': {label}_offset {offset} overlaps or leaves a gap "
                f"(expected {total})"
            )
        total += nbytes

    blob = Path(weights_path).read_bytes()
    if len(blob) != total:
        raise LengthError(f"weight blob is {len(blob)} bytes, expected {total}")

    layers = []
    for entry in entries:
        layers.append(_build_layer(entry, blob))
    return Model(layers=layers, input_shape=input_shape, class_count=class_count)


def build_fixture(kind: str, seed: int = 0, class_count: int = 10) -> Model:
    """Construct a small ready-made model.

    "random": conv(4@3x3) -> relu -> maxpool(2) -> flatten -> dense -> softmax
    over 1x16x16 inputs, with weights drawn from a generator seeded by `seed`;
    class_count may be 2..10.

    "detector": a fixed 2-class net on 1x16x16 inputs whose first conv filter
    is an all-positive 3x3 brightness average (the second filter is zero) and
    whose class-0 dense row uniformly averages that feature map while class 1
    gets nothing. The class-0 salient region is therefore exactly the bright
    part of the image, which makes localization checkable without training.
    """
    if kind == "random":
        if not 2 <= class_count <= 10:
            raise ParamError(f"random fixture supports 2..10 classes, got {class_count}")
        rng = np.random.default_rng(seed)
        features = 4 * 7 * 7
        layers = [
            conv_layer("conv1", rng.normal(0.0, 0.5, size=(4, 1, 3, 3)),
                       rng.normal(0.0, 0.1, size=4)),
            relu_layer("relu1"),
            maxpool_layer("pool1", 2),
            flatten_layer("flatten1"),
            dense_layer("dense1", rng.normal(0.0, 1.0 / np.sqrt(features), size=(class_count, features)),
                        rng.normal(0.0, 0.1, size=class_count)),
            softmax_layer("softmax1"),
        ]
        return Model(layers=layers, input_shape=(1, 16, 16), class_count=class_count)
    if kind == "detector":
        kernels = np.zeros((2, 1, 3, 3))
        kernels[0] = 1.0 / 9.0
        map_cells = 14 * 14
        dense_w = np.zeros((2, 2 * map_cells))
        dense_w[0, :map_cells] = 1.0 / map_cells
        layers = [
            conv_layer("conv1", kernels, np.zeros(2)),
            flatten_layer("flatten1"),
            dense_layer("dense1", dense_w, np.array([0.25, -0.25])),
            softmax_layer("softmax1"),
        ]
        return Model(layers=layers, input_shape=(1, 16, 16), class_count=2)
    raise ParamError(f"unknown fixture kind '{kind}', expected 'random' or 'detector'")


def detector_scene(quadrant: str = "top-left") -> np.ndarray:
    """A 1x16x16 input for the detector fixture: an 8x8 bright square, black elsewhere."""
    spans = {
        "top-left": (slice(0, 8), slice(0, 8)),
        "top-right": (slice(0, 8), slice(8, 16)),
        "bottom-left": (slice(8, 16), slice(0, 8)),
        "bottom-right": (slice(8, 16), slice(8, 16)),
    }
    if quadrant not in spans:
        raise ParamError(f"unknown quadrant '{quadrant}', expected one of {sorted(spans)}")
    img = np.zeros((1, 16, 16))
    rs, cs = spans[quadrant]
    img[0, rs, cs] = 1.0
    return img


def _read_array(blob: bytes, entry: dict, label: str, name: str) -> np.ndarray:
    shape = entry[f"{label}_shape"]
    arr = np.frombuffer(blob, dtype="<f4", count=int(np.prod(shape, dtype=np.int64)),
                        offset=entry[f"{label}_offset"])
    if not np.isfinite(arr).all():
        raise FormatError(f"layer '{name}': {label} values must be finite")
    return arr.astype(np.float64).reshape(shape)


def _build_layer(entry: dict, blob: bytes) -> LayerSpec:
    name = entry["name"]
    kind = entry["kind"]
    rules = KINDS[kind]
    fields = {}
    if rules.weight is not None:
        if "weight_offset" not in entry or "bias_offset" not in entry:
            raise FormatError(f"layer '{name}': {kind} requires weight and bias spans")
        fields[rules.weight] = _read_array(blob, entry, "weight", name)
        fields["bias"] = _read_array(blob, entry, "bias", name)
    params = entry.get("params", {})
    for key, attr in rules.params.items():
        fields[attr] = _int_param(params, key, name)
    return LayerSpec(name, kind, **fields)


def _int_param(params: dict, key: str, name: str) -> int:
    try:
        return int(params[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"layer '{name}': missing or malformed param '{key}'") from exc
