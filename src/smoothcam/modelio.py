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

from .errors import FormatError, ParamError
from .imageio import write_new
from .network import (
    KINDS,
    LayerSpec,
    Model,
    conv_layer,
    dense_layer,
    flatten_layer,
    maxpool_layer,
    name_fault,
    relu_layer,
    softmax_layer,
)
from .tensor import integer

FORMAT_VERSION = 1

_ITEM_BYTES = 4  # float32 storage


def save_model(model: Model, manifest_path, weights_path) -> None:
    """Write the manifest JSON and float32 weight blob for a model, each as a new file."""
    layers = []
    blob = bytearray()
    for spec in model.layers:
        rules = KINDS[spec.kind]
        params = {key: getattr(spec, key) for key in rules.params}
        entry = {"name": spec.name, "kind": spec.kind, "params": params}
        for label in rules.arrays:
            arr = getattr(spec, label)
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
    write_new(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    write_new(weights_path, bytes(blob))


def load_model(manifest_path, weights_path) -> Model:
    """Load a manifest + blob pair. Every manifest object holds exactly the keys `save_model`
    writes there, each once; each weight span is checked and sliced as its entry is read."""
    try:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"),
                         object_pairs_hook=_each_key_once)
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past int()'s 4,300 digits
        raise FormatError(f"manifest is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("manifest nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise FormatError("manifest root must be a JSON object")
    if _json_int(doc.get("format_version"), "format_version", "manifest") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {doc['format_version']!r}")
    _exact_keys(doc, ("format_version", "input_shape", "class_count", "layers"), "manifest")
    input_shape = tuple(_int_list(doc["input_shape"], "input_shape", "manifest"))
    class_count = _json_int(doc["class_count"], "class_count", "manifest")
    if not isinstance(doc["layers"], list):
        raise FormatError("manifest field 'layers' must be a list of layer objects")

    blob = Path(weights_path).read_bytes()
    total, layers = 0, []
    for i, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict):
            raise FormatError(f"layer {i}: entry must be a JSON object, got {entry!r}")
        name, kind = entry.get("name"), entry.get("kind")
        if fault := name_fault(name):  # Model's rule too, so each model it accepts loads back
            raise FormatError(f"layer {i}: {fault}")
        if not isinstance(kind, str) or kind not in KINDS:
            raise FormatError(f"layer '{name}': unknown kind '{kind}'")
        rules, where = KINDS[kind], f"layer '{name}'"
        spans = [f"{label}_{part}" for label in rules.arrays for part in ("offset", "shape")]
        _exact_keys(entry, ("name", "kind", "params", *spans), where)
        params = entry["params"]
        if not isinstance(params, dict):
            raise FormatError(f"{where}: params must be a JSON object, got {params!r}")
        _exact_keys(params, rules.params, f"{where} params")
        fields = {key: _json_int(params[key], f"param '{key}'", where) for key in rules.params}
        for label in rules.arrays:
            offset = _json_int(entry[f"{label}_offset"], f"{label}_offset", where)
            shape = _int_list(entry[f"{label}_shape"], f"{label}_shape", where)
            if offset != total:
                raise FormatError(
                    f"{where}: {label}_offset {offset} overlaps or leaves a gap "
                    f"(expected {total})"
                )
            total += math.prod(shape) * _ITEM_BYTES
            if total > len(blob):
                continue  # a short blob is reported below, with the length every span adds to
            try:  # Model makes the one float64 copy
                fields[label] = np.frombuffer(blob, "<f4", math.prod(shape), offset).reshape(shape)
            except ValueError as exc:  # an empty array with a dimension numpy cannot hold
                raise FormatError(f"{where}: bad {label}_shape {shape}: {exc}") from None
        layers.append(LayerSpec(name, kind, **fields))
    if len(blob) != total:
        raise FormatError(f"weight blob is {len(blob)} bytes, expected {total}")
    return Model(layers=layers, input_shape=input_shape, class_count=class_count)


def build_fixture(kind: str, seed: int = 0, class_count: int | None = None) -> Model:
    """Construct a small ready-made model.

    "random": conv(4@3x3) -> relu -> maxpool(2) -> flatten -> dense -> softmax
    over 1x16x16 inputs, with weights drawn from a generator seeded by `seed`;
    class_count may be 2..10 and defaults to 10.

    "detector": a fixed 2-class net on 1x16x16 inputs whose first conv filter
    is an all-positive 3x3 brightness average (the second filter is zero) and
    whose class-0 dense row uniformly averages that feature map while class 1
    gets nothing. The class-0 salient region is therefore exactly the bright
    part of the image, which makes localization checkable without training.
    Its class_count, if given, must be 2.
    """
    seed = integer(seed, "seed", 0)
    if kind == "random":
        class_count = integer(10 if class_count is None else class_count, "class count")
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
        if class_count is not None and integer(class_count, "class count") != 2:
            raise ParamError(f"detector fixture has 2 classes, got {class_count}")
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


def _each_key_once(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a repeated key (json alone keeps its last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"manifest: key {key!r} appears more than once in one object")
        obj[key] = value
    return obj


def _exact_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """A manifest object holds exactly `keys`, the ones save_model writes there."""
    for key in obj:
        if key not in keys:
            raise FormatError(f"{where}: unknown key {key!r}")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key {key!r}")


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
