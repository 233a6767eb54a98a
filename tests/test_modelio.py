import json

import numpy as np
import pytest

from smoothcam import (
    FormatError,
    LengthError,
    Model,
    ParamError,
    ScoreMode,
    build_fixture,
    conv_layer,
    dense_layer,
    detector_scene,
    flatten_layer,
    forward,
    grad_wrt_layer,
    load_model,
    maxpool_layer,
    relu_layer,
    save_model,
    softmax_layer,
    validate,
)


@pytest.fixture
def saved_fixture(tmp_path, random_model):
    manifest = tmp_path / "model.json"
    weights = tmp_path / "model.bin"
    save_model(random_model, manifest, weights)
    return manifest, weights


def test_roundtrip_preserves_forward_outputs(tmp_path, random_model, rng, saved_fixture):
    manifest, weights = saved_fixture
    loaded = load_model(manifest, weights)
    x = rng.random((1, 16, 16))
    original = forward(random_model, x)
    reloaded = forward(loaded, x)
    # Storage is float32, so only narrowing loss is allowed.
    assert np.allclose(original.logits, reloaded.logits, rtol=1e-6, atol=1e-6)
    assert np.allclose(original.per_layer["softmax1"], reloaded.per_layer["softmax1"],
                       rtol=1e-6, atol=1e-6)


def test_truncated_blob_names_byte_counts(saved_fixture):
    manifest, weights = saved_fixture
    blob = weights.read_bytes()
    weights.write_bytes(blob[:-8])
    with pytest.raises(LengthError) as err:
        load_model(manifest, weights)
    message = str(err.value)
    assert str(len(blob)) in message
    assert str(len(blob) - 8) in message


def test_unknown_layer_kind_rejected(saved_fixture):
    manifest, weights = saved_fixture
    doc = manifest.read_text()
    manifest.write_text(doc.replace('"kind": "conv"', '"kind": "convv"'))
    with pytest.raises(FormatError, match="convv"):
        load_model(manifest, weights)


def test_wrong_format_version_rejected(saved_fixture):
    manifest, weights = saved_fixture
    doc = json.loads(manifest.read_text())
    doc["format_version"] = 2
    manifest.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="format_version"):
        load_model(manifest, weights)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_weights_rejected(saved_fixture, bad):
    manifest, weights = saved_fixture
    bias = next(e for e in json.loads(manifest.read_text())["layers"] if e["name"] == "conv1")
    blob = bytearray(weights.read_bytes())
    blob[bias["bias_offset"] : bias["bias_offset"] + 4] = np.array([bad], dtype="<f4").tobytes()
    weights.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="layer 'conv1': bias"):
        load_model(manifest, weights)


def test_empty_shape_too_large_for_numpy_rejected(saved_fixture):
    # dense1's bias is the last span: a zero-size shape keeps offsets and blob length
    # consistent, but numpy cannot hold an array with a dimension of 2**62.
    manifest, weights = saved_fixture
    doc = json.loads(manifest.read_text())
    dense = next(e for e in doc["layers"] if e["name"] == "dense1")
    dense["bias_shape"] = [0, 2**62]
    manifest.write_text(json.dumps(doc))
    weights.write_bytes(weights.read_bytes()[: dense["bias_offset"]])
    with pytest.raises(FormatError, match="layer 'dense1': bad bias_shape"):
        load_model(manifest, weights)


def test_layer_name_not_encodable_as_utf8_rejected(saved_fixture):
    manifest, weights = saved_fixture
    doc = json.loads(manifest.read_text())
    doc["layers"][2]["name"] = "\ud800"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="layer 2: name"):
        load_model(manifest, weights)


def _break_manifest(doc, case):
    conv, relu = doc["layers"][0], doc["layers"][1]
    if case == "relu-with-weight":
        relu["weight_offset"], relu["weight_shape"] = 0, [1]
    elif case == "conv-without-bias":
        del conv["bias_offset"], conv["bias_shape"]
    elif case == "negative-dimension":
        conv["weight_shape"] = [-4, 1, 3, 3]
    elif case == "root-list":
        return [doc]
    elif case == "nested-dimension":
        conv["weight_shape"] = [[1]]
    elif case == "input-shape-string":
        doc["input_shape"] = "abc"
    else:
        conv["name"] = "conv\n1"
    return doc


# What each broken manifest's FormatError message starts with.
_BROKEN = {
    "relu-with-weight": "layer 'relu1': kind 'relu' carries no weights",
    "conv-without-bias": "layer 'conv1': conv requires weight and bias spans",
    "negative-dimension": "layer 'conv1': weight_shape must not be negative",
    "root-list": "manifest root must be a JSON object",
    "nested-dimension": "layer 'conv1': weight_shape must be a list of integers, got [[1]]",
    "input-shape-string": "manifest: input_shape must be a list of integers, got 'abc'",
    "name-line-break": "layer 0: name 'conv\\n1' holds an unprintable character",
}


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_malformed_manifest_rejected(saved_fixture, case):
    manifest, weights = saved_fixture
    doc = _break_manifest(json.loads(manifest.read_text()), case)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_model(manifest, weights)
    assert str(err.value).startswith(_BROKEN[case])


def test_overlapping_offsets_rejected(saved_fixture):
    manifest, weights = saved_fixture
    doc = json.loads(manifest.read_text())
    doc["layers"][0]["bias_offset"] -= 4
    manifest.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="overlap"):
        load_model(manifest, weights)


def test_save_is_bit_deterministic(tmp_path, random_model):
    paths = [(tmp_path / f"m{i}.json", tmp_path / f"m{i}.bin") for i in range(2)]
    for manifest, weights in paths:
        save_model(random_model, manifest, weights)
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_weightless_layers_have_no_blob_span(saved_fixture):
    manifest, _ = saved_fixture
    doc = json.loads(manifest.read_text())
    by_kind = {entry["kind"]: entry for entry in doc["layers"]}
    for kind in ("relu", "maxpool", "flatten", "softmax"):
        entry = by_kind[kind]
        assert "weight_offset" not in entry
        assert "bias_offset" not in entry


def test_fixture_blob_length(saved_fixture):
    _, weights = saved_fixture
    # 4 bytes per value: conv 4*1*3*3 + 4 bias, dense 10*196 + 10 bias.
    assert len(weights.read_bytes()) == 4 * (4 * 1 * 3 * 3 + 4 + 10 * 196 + 10)


def test_manifest_is_self_describing(saved_fixture):
    # Shape inference must succeed from declared shapes alone, before any
    # weight bytes are read.
    manifest, _ = saved_fixture
    doc = json.loads(manifest.read_text())
    layers = []
    for entry in doc["layers"]:
        kind, name, params = entry["kind"], entry["name"], entry["params"]
        if kind == "conv":
            layers.append(conv_layer(name, np.zeros(entry["weight_shape"]),
                                     np.zeros(entry["bias_shape"]),
                                     stride=params["stride"], padding=params["padding"]))
        elif kind == "dense":
            layers.append(dense_layer(name, np.zeros(entry["weight_shape"]),
                                      np.zeros(entry["bias_shape"])))
        elif kind == "maxpool":
            layers.append(maxpool_layer(name, params["size"], params["stride"]))
        elif kind == "relu":
            layers.append(relu_layer(name))
        elif kind == "flatten":
            layers.append(flatten_layer(name))
        else:
            layers.append(softmax_layer(name))
    model = Model(layers=layers, input_shape=tuple(doc["input_shape"]),
                  class_count=doc["class_count"])
    assert validate(model)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_random_fixture_is_seed_deterministic():
    a = build_fixture("random", seed=7)
    b = build_fixture("random", seed=7)
    for la, lb in zip(a.layers, b.layers):
        for attr in ("kernels", "weights", "bias"):
            xa, xb = getattr(la, attr), getattr(lb, attr)
            if xa is not None:
                assert np.array_equal(xa, xb)


def test_random_fixture_seeds_differ():
    a = build_fixture("random", seed=1)
    b = build_fixture("random", seed=2)
    assert not np.array_equal(a.layer("conv1").kernels, b.layer("conv1").kernels)


def test_detector_gradient_constant_on_first_map(detector_model, scene_top_left):
    trace = forward(detector_model, scene_top_left)
    g = grad_wrt_layer(detector_model, trace, ScoreMode("raw-logit", 0), "conv1")
    first = g[0]
    assert np.all(first > 0.0)
    assert np.max(np.abs(first - first[0, 0])) == 0.0
    assert np.all(g[1] == 0.0)


def test_detector_all_black_logit_is_bias_only(detector_model):
    trace = forward(detector_model, np.zeros((1, 16, 16)))
    assert trace.logits[0] == 0.25
    assert trace.logits[1] == -0.25


def test_detector_prefers_class_zero_on_bright_scene(detector_model, scene_top_left):
    trace = forward(detector_model, scene_top_left)
    assert int(np.argmax(trace.logits)) == 0


def test_detector_scene_quadrants():
    for quadrant, (r, c) in {
        "top-left": (0, 0),
        "top-right": (0, 8),
        "bottom-left": (8, 0),
        "bottom-right": (8, 8),
    }.items():
        scene = detector_scene(quadrant)
        assert scene.shape == (1, 16, 16)
        assert scene.sum() == 64.0
        assert np.all(scene[0, r : r + 8, c : c + 8] == 1.0)
    with pytest.raises(ParamError):
        detector_scene("center")


def test_build_fixture_validates_arguments():
    with pytest.raises(ParamError):
        build_fixture("random", class_count=1)
    with pytest.raises(ParamError):
        build_fixture("random", class_count=11)
    with pytest.raises(ParamError):
        build_fixture("vgg16")


def test_random_fixture_class_count_variants():
    for classes in (2, 5, 10):
        model = build_fixture("random", seed=3, class_count=classes)
        assert validate(model)[model.layers[-1].name] == (classes,)
