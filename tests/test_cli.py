import json
from pathlib import Path

import numpy as np
import pytest

from smoothcam import detector_scene, read_ppm, save_model, write_ppm, RgbImage
from smoothcam.cli import run_cli


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
    assert run_cli(args) == 0
    header = (out / "map.csv").read_text().splitlines()[0]
    assert header.startswith("# ")
    for key in ("method=", "class=", "layer=", "samples=", "sigma=", "filters=",
                "neurons=", "region-box=", "activation-source=", "score=",
                "seed=", "blend="):
        assert key in header
    assert "class=3" in header
    assert "score=logit" in header


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
