"""Model serialization and ready-made fixture models.

A model on disk is a UTF-8 JSON manifest plus a raw weight blob. The blob is
a headerless stream of little-endian IEEE-754 binary32 values, laid out
exactly as the manifest's byte offsets declare; weights are widened to
float64 when loaded. Both writers are bit-deterministic so identical models
produce identical files.
"""

from __future__ import annotations

import json
import math
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
from .tensor import integer

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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("manifest nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise FormatError("manifest root must be a JSON object")
    if _json_int(doc.get("format_version"), "format_version", "manifest") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {doc['format_version']!r}")
    input_shape = tuple(_int_list(doc.get("input_shape"), "input_shape", "manifest"))
    class_count = _json_int(doc.get("class_count"), "class_count", "manifest")
    entries = doc.get("layers")
    if not isinstance(entries, list):
        raise FormatError("manifest field 'layers' must be a list of layer objects")

    total = 0
    specs = []  # (name, kind, integer fields, {array attribute: (label, offset, shape)})
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"layer {i}: entry must be a JSON object, got {entry!r}")
        kind = entry.get("kind")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise FormatError(f"layer entry missing a name: {entry!r}")
        if not name.isprintable():  # a line break or a lone surrogate would garble the output
            raise FormatError(f"layer {i}: name {name!r} holds an unprintable character")
        if not isinstance(kind, str) or kind not in KINDS:
            raise FormatError(f"layer '{name}': unknown kind '{kind}'")
        rules = KINDS[kind]
        where = f"layer '{name}'"
        arrays = {}
        for label, attr in (("weight", rules.weight), ("bias", "bias")):
            has_offset = f"{label}_offset" in entry
            if has_offset != (f"{label}_shape" in entry):
                raise FormatError(f"{where}: {label} offset/shape must appear together")
            if not has_offset:
                continue
            if rules.weight is None:
                raise FormatError(f"{where}: kind '{kind}' carries no weights")
            offset = _json_int(entry[f"{label}_offset"], f"{label}_offset", where)
            shape = _int_list(entry[f"{label}_shape"], f"{label}_shape", where)
            if offset != total:
                raise FormatError(
                    f"{where}: {label}_offset {offset} overlaps or leaves a gap "
                    f"(expected {total})"
                )
            total += math.prod(shape) * _ITEM_BYTES
            arrays[attr] = (label, offset, shape)
        if rules.weight is not None and len(arrays) != 2:
            raise FormatError(f"{where}: {kind} requires weight and bias spans")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise FormatError(f"{where}: params must be a JSON object, got {params!r}")
        fields = {attr: _json_int(params.get(key), f"param '{key}'", where)
                  for key, attr in rules.params.items()}
        specs.append((name, kind, fields, arrays))

    blob = Path(weights_path).read_bytes()
    if len(blob) != total:
        raise LengthError(f"weight blob is {len(blob)} bytes, expected {total}")

    layers = []
    for name, kind, fields, arrays in specs:
        for attr, (label, offset, shape) in arrays.items():
            arr = np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=offset)
            if not np.isfinite(arr).all():
                raise FormatError(f"layer '{name}': {label} values must be finite")
            try:
                fields[attr] = arr.reshape(shape)  # Model makes the one float64 copy
            except ValueError as exc:  # an empty array with a dimension numpy cannot hold
                raise FormatError(f"layer '{name}': bad {label}_shape {shape}: {exc}") from None
        layers.append(LayerSpec(name, kind, **fields))
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
    seed, class_count = integer(seed, "seed", 0), integer(class_count, "class count")
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


def _json_int(value, field: str, where: str) -> int:
    """A manifest integer: a JSON integer only, never a float, string or bool."""
    if type(value) is not int:
        raise FormatError(f"{where}: {field} must be an integer, got {value!r}")
    return value


def _int_list(value, field: str, where: str) -> list[int]:
    """A manifest shape: a JSON list of non-negative integers."""
    if not isinstance(value, list) or any(type(d) is not int for d in value):
        raise FormatError(f"{where}: {field} must be a list of integers, got {value!r}")
    if any(d < 0 for d in value):
        raise FormatError(f"{where}: {field} must not be negative, got {value!r}")
    return value
