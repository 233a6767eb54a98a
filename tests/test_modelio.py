import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from smoothcam import (
    FormatError,
    LayerSpec,
    Model,
    ParamError,
    ScoreMode,
    SmoothCamError,
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
from smoothcam.network import KINDS


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
    with pytest.raises(FormatError) as err:
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
    with pytest.raises(ParamError, match="layer 'conv1': bias"):
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
    elif case == "conv-with-dilation":
        conv["params"]["dilation"] = 2
    elif case == "relu-with-stride":
        relu["params"]["stride"] = 5
    elif case == "root-extra":
        doc["mean"] = [0.5]
    else:
        conv["name"] = "conv\n1"
    return doc


# What each broken manifest's FormatError message starts with.
_BROKEN = {
    "relu-with-weight": "layer 'relu1': unknown key 'weight_offset'",
    "conv-without-bias": "layer 'conv1': missing key 'bias_offset'",
    "conv-with-dilation": "layer 'conv1' params: unknown key 'dilation'",
    "relu-with-stride": "layer 'relu1' params: unknown key 'stride'",
    "root-extra": "manifest: unknown key 'mean'",
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


@given(data=st.data())
def test_a_key_save_model_does_not_write_is_refused(data):
    # Add one key save_model never writes, at the root, in an entry or in its params, or
    # delete one it does write: the FormatError names that key and the object it was in.
    model = build_fixture("random", seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        manifest, weights = Path(tmp) / "m.json", Path(tmp) / "m.bin"
        save_model(model, manifest, weights)
        doc = json.loads(manifest.read_text())
        i = data.draw(st.integers(-1, len(doc["layers"]) - 1), label="entry (-1: root)")
        where = "manifest" if i < 0 else f"layer '{doc['layers'][i]['name']}'"
        obj = doc if i < 0 else doc["layers"][i]
        if i >= 0 and data.draw(st.booleans(), label="in params"):
            obj, where = obj["params"], f"{where} params"
        added = not obj or data.draw(st.booleans(), label="add")
        if not added:
            key = data.draw(st.sampled_from(sorted(obj)), label="deleted")
            del obj[key]
        else:
            key = data.draw(st.text(min_size=1).filter(lambda k: k not in obj), label="added")
            obj[key] = data.draw(st.sampled_from([0, 1, [1], {}, None]), label="value")
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load_model(manifest, weights)
    message = str(err.value)
    assert repr(key) in message if added else key in message
    # An entry without a name is named by its contents instead.
    assert message.startswith(where) or key == "name"


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
        for attr in ("weight", "bias"):
            xa, xb = getattr(la, attr), getattr(lb, attr)
            if xa is not None:
                assert np.array_equal(xa, xb)


def test_random_fixture_seeds_differ():
    a = build_fixture("random", seed=1)
    b = build_fixture("random", seed=2)
    assert not np.array_equal(a.layer("conv1").weight, b.layer("conv1").weight)


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
    # The detector has 2 classes: another count is refused, not silently replaced.
    assert build_fixture("detector", class_count=2).class_count == 2
    with pytest.raises(ParamError, match="detector fixture has 2 classes, got 5"):
        build_fixture("detector", class_count=5)


def test_random_fixture_class_count_variants():
    for classes in (2, 5, 10):
        model = build_fixture("random", seed=3, class_count=classes)
        assert validate(model)[model.layers[-1].name] == (classes,)


def _float32(spec):
    return replace(spec, **{a: getattr(spec, a).astype(np.float32) for a in KINDS[spec.kind].arrays})


@given(data=st.data())
def test_every_accepted_model_survives_save_and_load(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    layers = []
    for i in range(draw(st.integers(0, 2))):
        count, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        layers.append(conv_layer(f"conv{i}", rng.standard_normal((count, shape[0], k, k)),
                                 rng.standard_normal(count), draw(st.integers(1, 2)),
                                 draw(st.integers(0, 1))))
        if draw(st.booleans()):
            layers.append(relu_layer(f"relu{i}"))
        if draw(st.booleans()):
            layers.append(maxpool_layer(f"pool{i}", draw(st.integers(1, 3)),
                                        draw(st.none() | st.integers(1, 2))))
    out = shape
    try:
        for spec in layers:
            out = KINDS[spec.kind].shape(spec, out)
    except SmoothCamError:
        assume(False)
    classes = draw(st.integers(1, 3))
    layers += [flatten_layer("flatten1"),
               dense_layer("dense1", rng.standard_normal((classes, math.prod(out))),
                           rng.standard_normal(classes))]
    if draw(st.booleans()):
        layers.append(softmax_layer("softmax1"))
    model = Model(layers, shape, classes)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.json", Path(tmp) / "m.bin")
        loaded = load_model(Path(tmp) / "m.json", Path(tmp) / "m.bin")
    want = Model([_float32(spec) for spec in model.layers], shape, classes)
    assert (loaded.input_shape, loaded.class_count) == (shape, classes)
    for got, spec in zip(loaded.layers, want.layers, strict=True):
        for f in fields(LayerSpec):
            a, b = getattr(got, f.name), getattr(spec, f.name)
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, f.name
    x = rng.random(shape)
    assert np.array_equal(forward(loaded, x).logits, forward(want, x).logits)


def test_kinds_and_manifest_use_the_layer_spec_field_names(saved_fixture):
    # Each name a kind takes is a LayerSpec field, each value field is taken by some kind,
    # and the manifest writes exactly a layer's params keys and spans: no name to translate.
    values = [f.name for f in fields(LayerSpec)][2:]
    assert [f.name for f in fields(LayerSpec)][:2] == ["name", "kind"]
    taken = [name for rules in KINDS.values() for name in (*rules.params, *rules.arrays)]
    assert set(taken) <= set(values) and set(values) <= set(taken)
    manifest, _ = saved_fixture
    entries = json.loads(manifest.read_text())["layers"]
    assert {entry["kind"] for entry in entries} == set(KINDS)
    for entry in entries:
        rules = KINDS[entry["kind"]]
        assert list(entry["params"]) == list(rules.params)
        spans = {f"{label}_{part}" for label in rules.arrays for part in ("offset", "shape")}
        assert set(entry) == {"name", "kind", "params", *spans}
