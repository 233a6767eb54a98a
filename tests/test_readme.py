"""README's examples run as written, so the README cannot drift from the API or the format."""

import importlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np

from smoothcam import build_fixture, cli, forward, load_model, save_model

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:  # in order, in one namespace: each block goes on from the last
        exec(compile(block, str(README), "exec"), scope)
    display = scope["smap"].display
    assert display.shape == (16, 16)
    assert 0.0 <= display.min() and display.max() <= 1.0
    # The re-drawn model maps differently, and the model it came from keeps its kernels.
    randomized = scope["smap_random"].display
    assert randomized.shape == (16, 16) and not np.array_equal(randomized, display)
    assert np.array_equal(scope["model"].layer("conv1").weight,
                          build_fixture("random", seed=7).layer("conv1").weight)


def test_readme_model_file_example_loads(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    manifest, weights = tmp_path / "model.json", tmp_path / "model.bin"
    manifest.write_text(blocks[0], encoding="utf-8")
    doc = json.loads(blocks[0])
    values = sum(math.prod(entry[key]) for entry in doc["layers"]
                 for key in entry if key.endswith("_shape"))
    weights.write_bytes(bytes(4 * values))
    model = load_model(manifest, weights)
    assert np.array_equal(forward(model, np.ones(model.input_shape)).logits, [0.0, 0.0])
    # save_model writes the documented layout back, key for key.
    save_model(model, tmp_path / "again.json", tmp_path / "again.bin")
    assert json.loads((tmp_path / "again.json").read_text()) == doc
    assert (tmp_path / "again.bin").read_bytes() == weights.read_bytes()


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"## CLI walkthrough\n\n```sh\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert [command[0] for command in commands] == ["smoothcam"] * 3
    monkeypatch.chdir(tmp_path)
    printed = []
    for command in commands:
        assert cli.run_cli(command[1:]) == 0, command
        printed.append(capsys.readouterr().out)
    assert "conv1" in printed[1].split()
    for name in ("heatmap.ppm", "overlay.ppm", "map.csv"):
        assert (tmp_path / "out" / name).is_file(), name


def test_readme_names_only_attributes_that_exist():
    # Every `module.name` README quotes, for the package's own modules, resolves; file names
    # such as `tensor.py` are not attributes.
    modules = ("cli", "errors", "gradients", "imageio", "modelio", "network", "saliency", "tensor")
    quoted = set(re.findall(rf"`({'|'.join(modules)})\.([A-Za-z_]\w*)",
                            README.read_text(encoding="utf-8")))
    names = sorted((module, name) for module, name in quoted if name != "py")
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"smoothcam.{module}"), name)]
    assert missing == []
