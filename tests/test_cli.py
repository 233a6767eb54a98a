import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import smoothcam
from smoothcam import (Model, RgbImage, build_fixture, detector_scene, flatten_layer,
                       maxpool_layer, read_ppm, save_model, saliency, write_ppm)
from smoothcam.cli import main, run_cli


@pytest.fixture
def model_files(tmp_path, random_model):
    manifest = tmp_path / "model.json"
    weights = tmp_path / "model.bin"
    save_model(random_model, manifest, weights)
    return str(manifest), str(weights)


@pytest.fixture
def scene_ppm(tmp_path):
    gray = np.floor(255.0 * detector_scene("top-left")[0] + 0.5).astype(np.uint8)
    pixels = np.repeat(gray[:, :, None], 3, axis=2).tobytes()
    path = tmp_path / "scene.ppm"
    write_ppm(RgbImage(width=16, height=16, pixels=pixels), path)
    return str(path)


def _explain_args(model_files, scene_ppm, out, extra=()):
    manifest, weights = model_files
    return [
        "explain", "--model", manifest, "--weights", weights, "--image", scene_ppm,
        "--method", "smooth-gradcampp", "--layer", "conv1",
        "--samples", "5", "--sigma", "0.15", "--seed", "42", "--out", out,
        *extra,
    ]


def test_explain_writes_three_files(tmp_path, model_files, scene_ppm, capsys):
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out))) == 0
    assert (out / "heatmap.ppm").exists()
    assert (out / "overlay.ppm").exists()
    assert (out / "map.csv").exists()
    stdout = capsys.readouterr().out
    assert "class " in stdout and "score " in stdout


def test_explain_unknown_layer(tmp_path, model_files, scene_ppm, capsys):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out))
    args[args.index("--layer") + 1] = "nosuch"
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "unknown layer: nosuch" in err
    assert "conv1" in err
    assert not out.exists()  # data errors never leave partial output


def test_explain_non_conv_layer(tmp_path, model_files, scene_ppm, capsys):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out))
    args[args.index("--layer") + 1] = "pool1"
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "pool1" in err and "valid conv layers: conv1" in err
    assert not out.exists()


def test_explain_is_byte_deterministic(tmp_path, model_files, scene_ppm):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli(_explain_args(model_files, scene_ppm, str(out))) == 0
    for name in ("heatmap.ppm", "overlay.ppm", "map.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_usage_error_bad_method(tmp_path, model_files, scene_ppm, capsys):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out))
    args[args.index("--method") + 1] = "occlusion"
    assert run_cli(args) == 1
    assert not out.exists()
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--sigma", "1.0"),
                                         ("--seed", "-1")])
def test_usage_error_bad_samples(tmp_path, model_files, scene_ppm, flag, value):
    args = _explain_args(model_files, scene_ppm, str(tmp_path / "out"),
                         extra=())
    args[args.index(flag) + 1] = value
    assert run_cli(args) == 1


def test_usage_error_missing_layer_for_cam(tmp_path, model_files, scene_ppm):
    manifest, weights = model_files
    args = ["explain", "--model", manifest, "--weights", weights, "--image", scene_ppm,
            "--method", "gradcam", "--out", str(tmp_path / "out")]
    assert run_cli(args) == 1


def test_usage_error_neurons_and_region_box(tmp_path, model_files, scene_ppm):
    args = _explain_args(model_files, scene_ppm, str(tmp_path / "out"),
                         extra=["--neurons", "1:1", "--region-box", "0:0:3:3"])
    assert run_cli(args) == 1


@pytest.mark.parametrize("argv", [
    ["--class", "x"], ["--class", "x\n"], ["--blend", "2"], ["--neurons", "1:2:3"],
    ["--region-box", "1:2"], ["--filters", ","], ["--filters", "a"], ["--filters", "a\n"],
    ["--method", "sensitivity"], ["--method", "smoothgrad"],
    ["--neurons", "1:1", "--region-box", "0:0:3:3"],
    ["make-fixture", "--kind", "random", "--seed", "-1"],
    ["--neurons", "3"], ["--neurons", "1::2"], ["--neurons", ","], ["--region-box", "1:2:3"],
    ["--class", "3:4"], ["--filters", "0,,1"],
    ["make-fixture", "--kind", "random", "--classes", "1"],
    ["make-fixture", "--kind", "detector", "--classes", "5"],
], ids=" ".join)
def test_usage_errors_print_one_line(tmp_path, model_files, scene_ppm, capsys, argv):
    # Explain flags come after the defaults, which hold "--layer conv1", and override them.
    out = tmp_path / "out"
    if argv[0] == "make-fixture":
        argv = [*argv, "--model", str(out / "m.json"), "--weights", str(out / "m.bin")]
    else:
        argv = _explain_args(model_files, scene_ppm, str(out), extra=argv)
    assert run_cli(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    pytest.param(["--filters", "0,1,9"], "error: filter index 9 out of range [0, 4)", id="filter"),
    pytest.param(["--layer", "nosuch"], "error: unknown layer: nosuch", id="unknown-layer"),
    pytest.param(["--layer", "relu1"], "error: layer 'relu1' has kind 'relu'", id="relu-layer"),
    pytest.param(["--neurons", "99:99"],
                 "error: neuron coordinate (99, 99) out of bounds for 14x14 map", id="neuron"),
    pytest.param(["--region-box", "0:0:99:99"],
                 "error: region box (0, 0, 99, 99) out of bounds for 14x14 map", id="region-box"),
    pytest.param(["--class", "10"], "error: class index 10 out of range [0, 10)", id="class"),
    pytest.param(["--class", "10", "--filters", "0,1"],
                 "error: class index 10 out of range [0, 10)", id="class-filters"),
])
def test_bad_target_fails_before_any_pass(tmp_path, model_files, scene_ppm, capsys, monkeypatch,
                                          extra, message):
    # explain's own check refuses each --filters index before any per-filter job, and before
    # the image is read.
    passes, reads = [], []
    for module in (saliency, smoothcam.cli):
        monkeypatch.setattr(module, "forward", lambda *args, **kwargs: passes.append(args))
    monkeypatch.setattr(smoothcam.cli.imageio, "read_ppm", lambda *args: reads.append(args))
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out), extra=extra)) == 2
    assert passes == [] and reads == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("layer", ["no\nsuch", "conv1\n", "conv1\r"])
def test_data_error_prints_one_line(tmp_path, model_files, scene_ppm, capsys, layer):
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out), extra=["--layer", layer])) == 2
    lines = capsys.readouterr().err.splitlines()
    escaped = layer.replace("\r", "\\r").replace("\n", "\\n")
    assert lines == [f"error: unknown layer: {escaped} (valid conv layers: conv1)"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--class", "3"), ("--filters", "0"),
                                         ("--neurons", "3:5"), ("--region-box", "0:0:6:6")])
def test_line_break_in_a_flag_stays_out_of_the_files(tmp_path, model_files, scene_ppm, flag,
                                                     value):
    # int() reads "0\n" as 0, so the value is valid; the header echoes the parsed 0.
    name = "map_f0.csv" if flag == "--filters" else "map.csv"
    files = []
    for raw in (value, value + "\n"):
        out = tmp_path / f"out{len(files)}"
        assert run_cli(_explain_args(model_files, scene_ppm, str(out), extra=[flag, raw])) == 0
        files.append(out / name)
    assert files[1].read_bytes() == files[0].read_bytes()
    assert np.loadtxt(files[1], delimiter=",", comments="#").shape == (16, 16)


def test_repeated_filters_are_computed_once(tmp_path, model_files, scene_ppm, monkeypatch):
    real, seen = saliency.run, []

    def counting_run(model, x, request):
        seen.append(request.filters)
        return real(model, x, request)

    monkeypatch.setattr(saliency, "run", counting_run)
    twice, once = tmp_path / "twice", tmp_path / "once"
    for out, filters in ((twice, "2,0,2,2,0"), (once, "2,0")):
        extra = ["--filters", filters]
        assert run_cli(_explain_args(model_files, scene_ppm, str(out), extra=extra)) == 0
    assert seen == [(2,), (0,)] * 2
    assert sorted(p.name for p in twice.iterdir()) == sorted(p.name for p in once.iterdir())
    for path in once.iterdir():
        assert (twice / path.name).read_bytes() == path.read_bytes()


def test_filters_write_per_filter_maps(tmp_path, model_files, scene_ppm):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out), extra=["--filters", "0,2"])
    assert run_cli(args) == 0
    for k in (0, 2):
        assert (out / f"heatmap_f{k}.ppm").exists()
        assert (out / f"overlay_f{k}.ppm").exists()
        assert (out / f"map_f{k}.csv").exists()
    assert not (out / "heatmap.ppm").exists()


def test_map_csv_header_roundtrips_every_flag(tmp_path, model_files, scene_ppm):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out),
                         extra=["--class", "3", "--blend", "0.25",
                                "--activation-source", "averaged", "--score", "logit"])
    args[args.index("smooth-gradcampp")] = "gradcam"  # the only CAM method taking a raw logit
    assert run_cli(args) == 0
    header = (out / "map.csv").read_text().splitlines()[0]
    assert header.startswith("# ")
    assert "method=gradcam" in header
    for key in ("method=", "class=", "layer=", "samples=", "sigma=", "filters=",
                "neurons=", "region-box=", "activation-source=", "score=",
                "seed=", "blend="):
        assert key in header
    assert "class=3" in header
    assert "score=logit" in header


@pytest.mark.parametrize("flag, value, fields", [
    ("--neurons", "3:5,5:5", "neurons=3:5,5:5 region-box=-"),
    ("--region-box", "0:0:6:6", "neurons=- region-box=0:0:6:6"),
])
def test_map_csv_header_writes_a_selection_as_its_flag(tmp_path, model_files, scene_ppm,
                                                       flag, value, fields):
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out), extra=[flag, value])) == 0
    header = (out / "map.csv").read_text().splitlines()[0]
    assert f" filters=- {fields} activation-source=" in header


def test_explain_without_request_flags_uses_the_request_defaults(tmp_path, model_files,
                                                                  scene_ppm, monkeypatch):
    # SaliencyRequest alone states the defaults of --samples, --sigma, --seed and
    # --activation-source; spelling them out changes no byte.
    real, seen = saliency.run, []
    monkeypatch.setattr(saliency, "run", lambda model, x, request: seen.append(request)
                        or real(model, x, request))
    manifest, weights = model_files
    bare = ["explain", "--model", manifest, "--weights", weights, "--image", scene_ppm,
            "--method", "smooth-gradcampp", "--layer", "conv1"]
    spelled = ["--samples", "25", "--sigma", "0.15", "--seed", "0",
               "--activation-source", "original"]
    for out, extra in (("bare", []), ("spelled", spelled)):
        assert run_cli([*bare, *extra, "--out", str(tmp_path / out)]) == 0
    assert seen == [saliency.SaliencyRequest(method="smooth-gradcampp", layer="conv1")] * 2
    header = (tmp_path / "bare" / "map.csv").read_text().splitlines()[0]
    for field in ("samples=25", "sigma=0.15", "activation-source=original", "seed=0"):
        assert f" {field} " in header
    for path in (tmp_path / "bare").iterdir():
        assert (tmp_path / "spelled" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("method", ["gradcampp", "smooth-gradcampp"])
def test_usage_error_raw_logit_for_gradcampp(tmp_path, model_files, scene_ppm, capsys, method):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out), extra=["--score", "logit"])
    args[args.index("smooth-gradcampp")] = method
    assert run_cli(args) == 1
    assert "raw-logit" in capsys.readouterr().err
    assert not out.exists()


def test_explain_neuron_selection_runs(tmp_path, model_files, scene_ppm):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out), extra=["--neurons", "3:5,5:5"])
    assert run_cli(args) == 0
    assert (out / "heatmap.ppm").exists()


def test_explain_region_box_runs(tmp_path, model_files, scene_ppm):
    out = tmp_path / "out"
    args = _explain_args(model_files, scene_ppm, str(out), extra=["--region-box", "0:0:6:6"])
    assert run_cli(args) == 0


def test_explain_missing_model_file(tmp_path, scene_ppm, capsys):
    args = ["explain", "--model", str(tmp_path / "absent.json"),
            "--weights", str(tmp_path / "absent.bin"), "--image", scene_ppm,
            "--method", "gradcam", "--layer", "conv1", "--out", str(tmp_path / "out")]
    assert run_cli(args) == 2
    assert capsys.readouterr().err != ""


def test_list_layers(model_files, capsys):
    manifest, weights = model_files
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 0
    assert capsys.readouterr().out.splitlines() == ["conv1"]


@pytest.mark.parametrize("layer, key, value", [
    ("conv1", "stride", 0),
    ("conv1", "padding", -1),
    ("pool1", "stride", 0),
    ("pool1", "size", 0),
])
def test_list_layers_rejects_bad_window_params(model_files, capsys, layer, key, value):
    manifest, weights = model_files
    doc = json.loads(Path(manifest).read_text())
    entry = next(e for e in doc["layers"] if e["name"] == layer)
    entry["params"][key] = value
    Path(manifest).write_text(json.dumps(doc))
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"layer '{layer}'" in err


def _break_entry(doc, case):
    layers = doc["layers"]
    if case == "entry-not-object":
        layers[2] = "pool1"
    elif case == "layers-object":
        doc["layers"] = {entry["name"]: entry for entry in layers}
    elif case == "shape-string":
        layers[0]["weight_shape"] = "4x1x3x3"
    else:
        layers[0]["weight_shape"] = [4.5, 1, 3, 3]


_NAMED = {"entry-not-object": "layer 2", "layers-object": "'layers'",
          "shape-string": "layer 'conv1'", "shape-float": "layer 'conv1'"}


@pytest.mark.parametrize("case", sorted(_NAMED))
def test_malformed_manifest_is_a_data_error(tmp_path, model_files, scene_ppm, capsys, case):
    named = _NAMED[case]
    manifest, _ = model_files
    doc = json.loads(Path(manifest).read_text())
    _break_entry(doc, case)
    Path(manifest).write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_are_a_data_error(tmp_path, model_files, scene_ppm, capsys, bad):
    manifest, weights = model_files
    doc = json.loads(Path(manifest).read_text())
    dense = next(e for e in doc["layers"] if e["name"] == "dense1")
    blob = bytearray(Path(weights).read_bytes())
    at = dense["weight_offset"] + 4 * 5
    blob[at : at + 4] = np.array([bad], dtype="<f4").tobytes()
    Path(weights).write_bytes(bytes(blob))
    out = tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "layer 'dense1'" in err and "finite" in err
    assert not out.exists()


# +800 on every logit leaves the softmax alone but overflows exp(score).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method,layer", [
    ("smooth-gradcampp", "conv1"), ("gradcampp", "conv1"), ("smoothgrad", None),
    ("sensitivity", None), ("gradcam", "conv1"),
])
def test_non_finite_map_is_a_data_error(tmp_path, random_model, scene_ppm, capsys, method, layer):
    shifted = Model(
        [replace(s, bias=s.bias + 800.0) if s.kind == "dense" else s for s in random_model.layers],
        random_model.input_shape, random_model.class_count,
    )
    manifest, weights = tmp_path / "model.json", tmp_path / "model.bin"
    save_model(shifted, manifest, weights)
    out = tmp_path / "out"
    args = ["explain", "--model", str(manifest), "--weights", str(weights), "--image", scene_ppm,
            "--method", method, "--samples", "3", "--seed", "1", "--out", str(out)]
    if layer is not None:
        args += ["--layer", layer]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert method in lines[0] and "class " in lines[0] and "overflowed" in lines[0]
    assert captured.out == ""
    assert not (out / "map.csv").exists()


def test_usage_error_leaves_no_state_for_the_next_call(tmp_path, model_files, scene_ppm, capsys):
    # The parser is built once per process, so every call in this test shares it.
    alone = tmp_path / "alone"
    assert run_cli(_explain_args(model_files, scene_ppm, str(alone))) == 0
    expected = capsys.readouterr().out

    bad = _explain_args(model_files, scene_ppm, str(tmp_path / "bad"), extra=["--score", "nope"])
    assert run_cli(bad) == 1
    capsys.readouterr()
    after = tmp_path / "after"
    assert run_cli(_explain_args(model_files, scene_ppm, str(after))) == 0
    assert capsys.readouterr().out == expected
    assert sorted(p.name for p in after.iterdir()) == sorted(p.name for p in alone.iterdir())
    for path in alone.iterdir():
        assert (after / path.name).read_bytes() == path.read_bytes()


def test_make_fixture_and_scene(tmp_path, capsys):
    manifest = tmp_path / "det.json"
    weights = tmp_path / "det.bin"
    scene = tmp_path / "det.ppm"
    rc = run_cli(["make-fixture", "--kind", "detector",
                  "--model", str(manifest), "--weights", str(weights),
                  "--scene", str(scene)])
    assert rc == 0
    assert manifest.exists() and weights.exists()
    img = read_ppm(scene)
    assert (img.width, img.height) == (16, 16)
    rc = run_cli(["explain", "--model", str(manifest), "--weights", str(weights),
                  "--image", str(scene), "--method", "gradcam", "--layer", "conv1",
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "class 0" in capsys.readouterr().out


def test_smoothgrad_needs_no_layer(tmp_path, model_files, scene_ppm):
    manifest, weights = model_files
    args = ["explain", "--model", manifest, "--weights", weights, "--image", scene_ppm,
            "--method", "smoothgrad", "--samples", "3", "--seed", "1",
            "--out", str(tmp_path / "out")]
    assert run_cli(args) == 0
    assert (tmp_path / "out" / "heatmap.ppm").exists()


def _write_conv_dense(tmp_path, conv, dense, input_shape, conv_name="conv1"):
    """A conv -> flatten -> dense manifest and blob, written by hand.

    save_model needs a valid Model, so this writes models that Model rejects.
    """
    arrays = {"conv": conv, "dense": dense}
    layers, blob = [], b""
    for name, kind, params in [(conv_name, "conv", {"stride": 1, "padding": 0}),
                               ("flatten1", "flatten", {}), ("dense1", "dense", {})]:
        entry = {"name": name, "kind": kind, "params": params}
        for label, arr in zip(("weight", "bias"), arrays.get(kind, ())):
            entry[f"{label}_offset"], entry[f"{label}_shape"] = len(blob), list(arr.shape)
            blob += arr.astype("<f4").tobytes()
        layers.append(entry)
    manifest, weights = tmp_path / "model.json", tmp_path / "model.bin"
    manifest.write_text(json.dumps({"format_version": 1, "input_shape": input_shape,
                                    "class_count": 2, "layers": layers}))
    weights.write_bytes(blob)
    return str(manifest), str(weights)


def test_list_layers_rejects_wrong_length_conv_bias(tmp_path, capsys):
    # conv1 has 2 kernels but 3 biases.
    manifest, weights = _write_conv_dense(tmp_path, (np.ones((2, 1, 3, 3)), np.zeros(3)),
                                          (np.ones((2, 8)), np.zeros(2)), [1, 4, 4])
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: layer 'conv1': bias") and len(err.splitlines()) == 1


@pytest.mark.parametrize("method", ["sensitivity", "gradcampp", "smooth-gradcampp"])
def test_console_script_prints_one_line_when_the_class_score_overflows(tmp_path, random_model,
                                                                       scene_ppm, method):
    # numpy warns several times on the way to the non-finite map; run_cli keeps those
    # warnings (pytest turns them into errors), the console script must not print them.
    dense = next(s for s in random_model.layers if s.kind == "dense")
    bias = dense.bias.copy()
    bias[9] += 3e38  # float32 still holds it; exp of the class-9 logit overflows
    shifted = Model([replace(s, bias=bias) if s is dense else s for s in random_model.layers],
                    random_model.input_shape, random_model.class_count)
    manifest, weights = tmp_path / "model.json", tmp_path / "model.bin"
    save_model(shifted, manifest, weights)
    out = tmp_path / "out"
    args = ["explain", "--model", str(manifest), "--weights", str(weights), "--image", scene_ppm,
            "--method", method, "--class", "9", "--samples", "3", "--out", str(out)]
    if method != "sensitivity":
        args += ["--layer", "conv1"]
    env = {**os.environ, "PYTHONPATH": str(Path(smoothcam.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "from smoothcam.cli import main; main()", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {method} output for class 9")


def test_console_script_refuses_a_manifest_key_save_model_does_not_write(
        tmp_path, model_files, scene_ppm, capsys, monkeypatch):
    # A dilation the loader dropped would explain a different network from the file's.
    manifest, _ = model_files
    doc = json.loads(Path(manifest).read_text())
    doc["layers"][0]["params"]["dilation"] = 2
    Path(manifest).write_text(json.dumps(doc))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["smoothcam", *_explain_args(model_files, scene_ppm,
                                                                  str(out))])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: layer 'conv1' params: unknown key 'dilation'"]
    assert not out.exists()


def test_console_script_refuses_a_manifest_key_written_twice(tmp_path, model_files, scene_ppm,
                                                            capsys, monkeypatch):
    # json.loads alone would keep the second stride, 2, and explain that network.
    manifest, _ = model_files
    text = Path(manifest).read_text()
    params = '"params": {\n        "stride": 1,'
    assert text.count(params) == 1  # conv1's
    Path(manifest).write_text(text.replace(params, params + ' "stride": 2,'))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["smoothcam", *_explain_args(model_files, scene_ppm,
                                                                  str(out))])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: manifest: key 'stride' appears more than once in one object"]
    assert not out.exists()


@pytest.mark.parametrize("broken", ["ppm-width", "manifest-class-count"])
def test_console_script_refuses_an_integer_too_long_for_text(tmp_path, model_files, scene_ppm,
                                                             capsys, monkeypatch, broken):
    # Python turns no integer of more than 4,300 digits into text or back: a PPM whose pixel
    # count is that long, or a manifest holding such an integer, ends in one error line.
    manifest, _ = model_files
    if broken == "ppm-width":
        Path(scene_ppm).write_bytes(b"P6 " + b"9" * 4300 + b" 9 255\n" + bytes(48))
        expected = "error: pixel data truncated at byte offset"
    else:
        text = Path(manifest).read_text()
        assert text.count('"class_count": 10,') == 1
        Path(manifest).write_text(text.replace('"class_count": 10,',
                                               f'"class_count": {"1" * 4301},'))
        expected = "error: manifest is not valid UTF-8 JSON: "
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["smoothcam", *_explain_args(model_files, scene_ppm,
                                                                  str(out))])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(expected)
    assert "Traceback" not in captured.err
    assert not out.exists()


def _pool_stride_model(stride: int) -> Model:
    """conv1 -> a 14x14 pool1 with the given stride -> flatten -> dense, on 1x16x16 inputs."""
    fixture = build_fixture("random", seed=7, class_count=2)
    conv, dense = fixture.layer("conv1"), fixture.layer("dense1")
    return Model([conv, maxpool_layer("pool1", 14, stride), flatten_layer("flatten1"),
                  replace(dense, weight=dense.weight[:, :4])], (1, 16, 16), 2)


def test_explain_ignores_a_pool_stride_past_its_one_window(tmp_path, scene_ppm):
    # A pool over a single window never applies its stride, so 10**30 must give the map
    # stride 14 gives, not overflow a byte stride.
    outputs = []
    for stride in (14, 10**30):
        manifest, weights = tmp_path / f"{stride}.json", tmp_path / f"{stride}.bin"
        save_model(_pool_stride_model(stride), manifest, weights)
        out = tmp_path / f"out{stride}"
        args = ["explain", "--model", str(manifest), "--weights", str(weights),
                "--image", scene_ppm, "--method", "smooth-gradcampp", "--layer", "conv1",
                "--samples", "3", "--seed", "1", "--out", str(out)]
        assert run_cli(args) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("heatmap.ppm", "overlay.ppm", "map.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("method", ["sensitivity", "smoothgrad"])
def test_averaged_activations_are_a_usage_error_without_a_cam(tmp_path, model_files, scene_ppm,
                                                              capsys, method):
    # These maps have no activations to average: the map would equal the original one
    # while its header claimed activation-source=averaged.
    manifest, weights = model_files
    out = tmp_path / "out"
    args = ["explain", "--model", manifest, "--weights", weights, "--image", scene_ppm,
            "--method", method, "--activation-source", "averaged", "--seed", "1",
            "--out", str(out)]
    assert run_cli(args) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "averaged activations" in lines[0] and f"not '{method}'" in lines[0]
    assert not out.exists()


def test_make_fixture_classes_reach_the_random_model_only(tmp_path, capsys):
    manifest, weights = tmp_path / "m.json", tmp_path / "m.bin"
    for kind, classes, count in [("random", [], 10), ("random", ["--classes", "5"], 5),
                                 ("detector", [], 2), ("detector", ["--classes", "2"], 2)]:
        assert run_cli(["make-fixture", "--kind", kind, *classes, "--model", str(manifest),
                        "--weights", str(weights)]) == 0
        assert json.loads(manifest.read_text())["class_count"] == count
    assert capsys.readouterr().err == ""


def test_console_script_lists_layers(model_files, capsys, monkeypatch):
    manifest, weights = model_files
    monkeypatch.setattr(sys, "argv", ["smoothcam", "list-layers", "--model", manifest,
                                      "--weights", weights])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 0
    assert capsys.readouterr().out == "conv1\n"


def test_zero_kernel_conv_is_a_data_error(tmp_path, scene_ppm, capsys):
    # No kernels: conv1's maps are empty and dense1 reads zero features.
    manifest, weights = _write_conv_dense(tmp_path, (np.ones((0, 1, 3, 3)), np.zeros(0)),
                                          (np.ones((2, 0)), np.zeros(2)), [1, 16, 16])
    out = tmp_path / "out"
    for argv in (["list-layers"], ["explain", "--image", scene_ppm, "--method", "gradcam",
                                   "--layer", "conv1", "--out", str(out)]):
        assert run_cli([*argv, "--model", manifest, "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: layer 'conv1': ")
    assert not out.exists()


def test_list_layers_rejects_a_layer_name_not_encodable_as_utf8(tmp_path):
    # A lone surrogate is valid JSON but cannot be printed to a UTF-8 stdout, which an
    # in-process capture into a StringIO would not show, so this runs the real command.
    manifest, weights = _write_conv_dense(tmp_path, (np.ones((1, 1, 3, 3)), np.zeros(1)),
                                          (np.ones((2, 4)), np.zeros(2)), [1, 4, 4],
                                          conv_name="\ud800")
    env = {**os.environ, "PYTHONPATH": str(Path(smoothcam.__file__).parents[1]),
           "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-c", "from smoothcam.cli import main; main()",
                           "list-layers", "--model", manifest, "--weights", weights],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: layer 0: ")


def test_list_layers_rejects_a_layer_name_with_a_line_break(tmp_path, capsys):
    manifest, weights = _write_conv_dense(tmp_path, (np.ones((1, 1, 3, 3)), np.zeros(1)),
                                          (np.ones((2, 4)), np.zeros(2)), [1, 4, 4],
                                          conv_name="conv\n1")
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: layer 0: ")


# (field path in the manifest, raw JSON text put there): each is not a JSON integer.
_NOT_INTEGERS = {
    "format_version-1.0": (("format_version",), "1.0"),
    "format_version-bool": (("format_version",), "true"),
    "input_shape-1e400": (("input_shape", 1), "1e400"),
    "class_count-1e400": (("class_count",), "1e400"),
    "conv-stride-1e400": (("layers", 0, "params", "stride"), "1e400"),
    "conv-padding-1e400": (("layers", 0, "params", "padding"), "1e400"),
    "pool-size-1e400": (("layers", 2, "params", "size"), "1e400"),
    "pool-stride-1e400": (("layers", 2, "params", "stride"), "1e400"),
    "input_shape-16.7": (("input_shape", 1), "16.7"),
    "class_count-10.5": (("class_count",), "10.5"),
    "conv-stride-1.9": (("layers", 0, "params", "stride"), "1.9"),
    "conv-stride-string": (("layers", 0, "params", "stride"), '"1"'),
    "conv-stride-bool": (("layers", 0, "params", "stride"), "true"),
}


@pytest.mark.parametrize("case", sorted(_NOT_INTEGERS))
def test_list_layers_rejects_non_integer_manifest_fields(model_files, capsys, case):
    path, raw = _NOT_INTEGERS[case]
    manifest, weights = model_files
    doc = json.loads(Path(manifest).read_text())
    _set_field(doc, path, "@RAW@")
    Path(manifest).write_text(json.dumps(doc).replace('"@RAW@"', raw))
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    field = path[-1] if isinstance(path[-1], str) else path[0]
    assert field in err
    if path[0] == "layers":
        assert f"layer '{doc['layers'][path[1]]['name']}'" in err


def test_list_layers_rejects_a_deeply_nested_manifest(model_files, capsys):
    manifest, weights = model_files
    Path(manifest).write_text("[" * 200_000)  # the JSON parser gives up with RecursionError
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: manifest nests too deeply to parse\n"


def test_list_layers_rejects_non_utf8_manifest(model_files, capsys):
    manifest, weights = model_files
    Path(manifest).write_bytes(Path(manifest).read_bytes().replace(b'"conv1"', b'"conv\xff1"'))
    assert run_cli(["list-layers", "--model", manifest, "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest is not valid UTF-8") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["heatmap.ppm", "overlay.ppm", "map.csv"])
def test_explain_replaces_a_symlinked_output_file(tmp_path, model_files, scene_ppm, name):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli(_explain_args(model_files, scene_ppm, str(fresh))) == 0
    target = tmp_path / "target"
    target.write_bytes(b"not an output\n")
    out.mkdir()
    (out / name).symlink_to(target)
    assert run_cli(_explain_args(model_files, scene_ppm, str(out))) == 0
    assert not (out / name).is_symlink()
    assert target.read_bytes() == b"not an output\n"
    assert (out / name).read_bytes() == (fresh / name).read_bytes()


# Front-door fuzzing: any JSON value (or none) in one field must end in exit 0, 1 or 2,
# with one stderr line on failure and no exception escaping run_cli.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8,
)
_DELETE = object()


def _set_field(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


def _field_paths(node, prefix=()):
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _field_paths(node[key], prefix + (key,))


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1, err


@given(data=st.data())
def test_list_layers_survives_any_manifest_field(data):
    with tempfile.TemporaryDirectory() as tmp:
        saved, weights = Path(tmp) / "model.json", Path(tmp) / "model.bin"
        save_model(build_fixture("random", seed=7), saved, weights)
        doc = json.loads(saved.read_text())
        path = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
        _set_field(doc, path, data.draw(st.just(_DELETE) | _JSON, label="value"))
        # A new file: rewriting one in place can wait on a filesystem flush.
        manifest = Path(tmp) / "mutated.json"
        manifest.write_text(json.dumps(doc))
        _assert_clean_exit(*_run_quiet(["list-layers", "--model", str(manifest),
                                        "--weights", str(weights)]))


@given(field=st.sampled_from(["magic", "width", "height", "maxval"]),
       value=st.just(_DELETE) | _JSON)
@example(field="width", value="9" * 4300)  # 3 * width * height is too long to print
def test_explain_survives_any_ppm_header_field(field, value):
    tokens = {"magic": "P6", "width": "16", "height": "16", "maxval": "255"}
    if value is _DELETE:
        tokens[field] = ""
    else:
        tokens[field] = value if isinstance(value, str) else json.dumps(value)
    header = "{magic}\n{width} {height}\n{maxval}\n".format(**tokens)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_model(build_fixture("random", seed=7), tmp / "model.json", tmp / "model.bin")
        (tmp / "scene.ppm").write_bytes(header.encode("utf-8") + bytes(range(256)) * 3)
        _assert_clean_exit(*_run_quiet([
            "explain", "--model", str(tmp / "model.json"), "--weights", str(tmp / "model.bin"),
            "--image", str(tmp / "scene.ppm"), "--method", "gradcam", "--layer", "conv1",
            "--out", str(tmp / "out")]))
