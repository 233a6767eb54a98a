"""Checked values stay checked: every dataclass in the package is frozen, a Model
keeps its own copies of the layers it was given, and traces and maps are read-only.
Values that hold arrays compare by identity."""

import dataclasses
import importlib
import pkgutil
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import smoothcam
from smoothcam import (Model, RgbImage, SaliencyRequest, ShapeError, build_fixture, conv_layer,
                       dense_layer, flatten_layer, forward, relu_layer, run, smooth_triple)


def _package_dataclasses():
    found = {}
    for info in pkgutil.iter_modules(smoothcam.__path__):
        module = importlib.import_module(f"smoothcam.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[obj.__qualname__] = obj
    return found


def test_every_dataclass_in_the_package_is_frozen():
    found = _package_dataclasses()
    assert {"LayerSpec", "Model", "ActivationTrace", "LayerKind", "ScoreMode", "GradientTriple",
            "NeuronSelection", "SaliencyRequest", "SaliencyMap", "RgbImage"} <= set(found)
    assert [name for name, cls in found.items() if not cls.__dataclass_params__.frozen] == []


def test_no_dataclass_field_is_a_mutable_container():
    # Freezing a value does not freeze a dict, list or set inside it.
    mutable = re.compile(r"\b(dict|list|set|Dict|List|Set)\b")
    assert [f"{name}.{f.name}" for name, cls in _package_dataclasses().items()
            for f in dataclasses.fields(cls) if mutable.search(str(f.type))] == []


def test_every_dataclass_holding_arrays_is_eq_false():
    # A generated __eq__ compares arrays elementwise and has no truth value; its __hash__
    # hashes an array. A value holding another such value holds arrays too.
    found = _package_dataclasses()
    holders, grown = set(), True
    while grown:
        words = "|".join(["ndarray", *sorted(holders)])
        now = {name for name, cls in found.items()
               if any(re.search(rf"\b({words})\b", str(f.type)) for f in dataclasses.fields(cls))}
        grown, holders = now != holders, now
    assert holders == {"LayerSpec", "Model", "ActivationTrace", "GradientTriple", "SaliencyMap"}
    assert sorted(name for name in holders if found[name].__dataclass_params__.eq) == []


def test_a_weight_array_cannot_be_swapped_past_the_finite_check(random_model):
    # A NaN kernel set after construction ended in a false "the class score overflowed".
    conv = random_model.layers[0]
    with pytest.raises(FrozenInstanceError):
        conv.weight = np.full(conv.weight.shape, np.nan)
    assert np.isfinite(random_model.layers[0].weight).all()


def test_a_changed_input_shape_is_checked_again(random_model):
    # Setting the shape on the model failed mid-forward; replace checks it at construction.
    with pytest.raises(FrozenInstanceError):
        random_model.input_shape = (1, 8, 8)
    with pytest.raises(ShapeError, match=re.escape("layer 'dense1': weights expect 196 inputs, "
                                                   "got 36")):
        replace(random_model, input_shape=(1, 8, 8))


def test_model_layers_cannot_grow(random_model):
    with pytest.raises(AttributeError):
        random_model.layers.append(relu_layer("relu9"))
    assert len(random_model.layers) == 6


def test_image_pixels_cannot_be_swapped_past_the_size_check():
    # A shorter buffer set after construction made overlay die with a bare numpy ValueError.
    img = RgbImage(width=2, height=2, pixels=bytes(12))
    with pytest.raises(FrozenInstanceError):
        img.pixels = bytes(3)
    assert len(img.pixels) == 12


def test_model_leaves_the_callers_specs_alone(rng):
    kernels = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    spec = conv_layer("conv1", kernels, np.zeros(2))
    model = Model([spec, flatten_layer("flatten1"), dense_layer("dense1", np.ones((2, 8)),
                                                                np.zeros(2))],
                  input_shape=(1, 4, 4), class_count=2)
    assert spec.weight is kernels and kernels.dtype == np.float32
    assert kernels.flags.writeable
    owned = model.layers[0].weight
    assert owned.dtype == np.float64 and not owned.flags.writeable
    assert np.array_equal(owned, kernels)


def test_a_trace_is_read_only_and_leaves_the_callers_input_alone(random_model, rng):
    # A trace is shared by every reverse sweep over it; a write into it would change them all.
    x = rng.random(random_model.input_shape)
    t = forward(random_model, x)
    with pytest.raises(ValueError):
        t.logits[3] = np.nan
    with pytest.raises(TypeError):
        t.per_layer["conv1"] = np.zeros((4, 14, 14))
    assert not any(a.flags.writeable for a in (t.input, *t.per_layer.values()))
    assert x.flags.writeable and t.input.base is x
    x[0, 0, 0] = 0.5  # the caller's array stays theirs to change
    request = SaliencyRequest(method="smooth-gradcampp", layer="conv1", n=2)
    _, activations = smooth_triple(random_model, x, request)
    assert not activations.flags.writeable


def test_values_holding_arrays_compare_and_hash_by_identity(rng):
    # A generated __eq__ or __hash__ would raise here: an array comparison has no truth value.
    models = [build_fixture("random", seed=7), build_fixture("random", seed=7)]
    x = rng.random(models[0].input_shape)
    request = SaliencyRequest(method="gradcam", layer="conv1")
    for a, b in (models, [forward(m, x) for m in models], [run(m, x, request) for m in models]):
        assert a in [a] and a not in [b]
        assert {a: 1}[a] == 1 and b not in {a: 1}


@pytest.mark.parametrize("method, layer", [("smooth-gradcampp", "conv1"), ("smoothgrad", None)])
def test_a_map_is_read_only_and_records_its_class(random_model, rng, method, layer):
    x = rng.random(random_model.input_shape)
    request = SaliencyRequest(method=method, layer=layer, n=2)
    smap = run(random_model, x, request)
    with pytest.raises(ValueError):
        smap.raw[0, 0] = 7.0
    with pytest.raises(ValueError):
        smap.display[0, 0] = 7.0
    with pytest.raises(FrozenInstanceError):
        smap.chosen_class = 99
    assert type(smap.chosen_class) is int
    assert smap.chosen_class == int(np.argmax(forward(random_model, x).logits))
    assert smap.request is request
