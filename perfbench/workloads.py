"""The benchmark's workloads: inputs generated from a seed, the calls to time, output checks.

Each workload is a cycle of calls that one closed-loop caller repeats. A call
is one ``saliency.run(...)`` or one in-process ``cli.run_cli(["explain", ...])``
with library defaults. Every call is checked: the display map is finite, lies
in [0, 1] and has the input's resolution, and its digest must equal the digest
of the first run of the same (input, request). CLI calls must exit 0, print
the same lines and rewrite byte-identical output files.

Why these workloads (see also ``metrics.json``):
  smooth-fixture  tiny 1x16x16 tensors, so per-sample Python work (noise
                  draws, per-layer dispatch, loop overhead) is most of a call.
                  Not in BENCHMARK.json: on a shared 2-vCPU VM this
                  interpreter-bound loop drifted with host load by more than
                  the 0.25 bound between two sets of runs; run it by hand;
  smooth-wide     a 3x64x64 conv net, so conv and pool kernels and BLAS
                  threading dominate;
  cli-explain     the whole explain command: model load, redundant clean
                  passes, per-filter recomputation and three file writes per map.

Two latency modes mixed half and half would put the median in the gap
between them, where it flips with the parity of the sample count. The
library workloads therefore mix their two request kinds two to one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from smoothcam import cli, imageio, modelio, network, saliency
from smoothcam.saliency import SaliencyRequest

WORKLOADS = ("smooth-fixture", "smooth-wide", "cli-explain")
SAMPLES = 25
SIGMA = 0.15
FIXTURE_SEED = 7
FIXTURE_INPUTS = 8
WIDE_INPUTS = 2
SMOOTH_METHODS = ("smoothgrad", "smooth-gradcampp")


class CheckFailed(Exception):
    """An output broke one of the benchmark's correctness checks."""


@dataclass
class Call:
    key: str            # (input, request) identity; its digest must not change
    label: str          # request kind; calls with one label make equal pass counts
    min_forwards: int   # fewest forward passes the request needs
    invoke: Callable[[], object]
    check: Callable[[object, bool], str]  # (result, full) -> digest, or CheckFailed
    prepare: Callable[[], None] | None = None  # untimed, before each invoke


def min_forwards(method: str, n: int) -> int:
    """n noised passes plus one clean pass for smooth methods, one pass otherwise."""
    return n + 1 if method in SMOOTH_METHODS else 1


def build(name: str, seed: int, work_dir: Path) -> list[Call]:
    """The cycle of calls for one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(name)]))
    if name == "smooth-fixture":
        model = modelio.build_fixture("random", seed=FIXTURE_SEED)
        plan = [("smooth-gradcampp", "conv1"), ("smooth-gradcampp", "conv1"), ("smoothgrad", None)]
        return _library_cycle(model, rng, FIXTURE_INPUTS, plan)
    if name == "smooth-wide":
        model = wide_model(int(rng.integers(2**31)))
        plan = [("smooth-gradcampp", "conv2"), ("smooth-gradcampp", "conv1"),
                ("smooth-gradcampp", "conv2")]
        return _library_cycle(model, rng, WIDE_INPUTS, plan)
    if name == "cli-explain":
        return _cli_cycle(rng, work_dir)
    raise ValueError(f"unknown workload '{name}', expected one of {WORKLOADS}")


def wide_model(seed: int) -> network.Model:
    """conv16(3x3, pad 1), relu, pool2, conv32(3x3, pad 1), relu, pool2, flatten,
    dense10, softmax over 3x64x64 inputs, He-scaled weights drawn from `seed`."""
    rng = np.random.default_rng(seed)

    def he(shape):
        return rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)

    layers = [
        network.conv_layer("conv1", he((16, 3, 3, 3)), rng.normal(0.0, 0.05, 16), padding=1),
        network.relu_layer("relu1"),
        network.maxpool_layer("pool1", 2),
        network.conv_layer("conv2", he((32, 16, 3, 3)), rng.normal(0.0, 0.05, 32), padding=1),
        network.relu_layer("relu2"),
        network.maxpool_layer("pool2", 2),
        network.flatten_layer("flatten1"),
        network.dense_layer("dense1", rng.normal(0.0, 1.0 / np.sqrt(8192), size=(10, 8192)),
                            rng.normal(0.0, 0.1, 10)),
        network.softmax_layer("softmax1"),
    ]
    return network.Model(layers=layers, input_shape=(3, 64, 64), class_count=10)


def check_display(display, shape: tuple[int, int]) -> str:
    """Validate one display map and return its digest."""
    arr = np.asarray(display)
    if arr.shape != shape:
        raise CheckFailed(f"display shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise CheckFailed("display map has non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise CheckFailed(f"display map leaves [0, 1]: [{arr.min()}, {arr.max()}]")
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _library_cycle(model, rng, input_count, plan) -> list[Call]:
    shape = model.input_shape
    calls = []
    for i in range(input_count):
        x = rng.random(shape)
        for j, (method, layer) in enumerate(plan):
            request = SaliencyRequest(method=method, layer=layer, n=SAMPLES, sigma_rel=SIGMA,
                                      seed=int(rng.integers(2**31)))
            calls.append(_library_call(f"input{i}/slot{j}", model, x, request))
    return calls


def _library_call(key, model, x, request) -> Call:
    hw = tuple(model.input_shape[1:])
    return Call(
        key=key,
        label=f"{request.method} {request.layer or '-'} n={request.n}",
        min_forwards=min_forwards(request.method, request.n),
        invoke=lambda: saliency.run(model, x, request),
        check=lambda smap, full: check_display(smap.display, hw),
    )


# The five explain commands of cli-explain: (method, extra flags, sample count).
CLI_COMMANDS = [
    ("gradcam", ["--layer", "conv2"], SAMPLES),
    ("gradcampp", ["--layer", "conv1", "--filters", "0,1,2,3"], SAMPLES),
    ("gradcampp", ["--layer", "conv2", "--region-box", "4:4:20:20"], SAMPLES),
    ("sensitivity", [], SAMPLES),
    ("smooth-gradcampp", ["--layer", "conv2", "--samples", "4", "--filters", "0,1,2,3"], 4),
]


def _cli_cycle(rng, work_dir: Path) -> list[Call]:
    model = wide_model(int(rng.integers(2**31)))
    manifest, weights = work_dir / "model.json", work_dir / "model.bin"
    modelio.save_model(model, manifest, weights)
    _, h, w = model.input_shape
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    image = work_dir / "input.ppm"
    imageio.write_ppm(imageio.RgbImage(width=w, height=h, pixels=pixels.tobytes()), image)
    calls = []
    for k, (method, flags, n) in enumerate(CLI_COMMANDS):
        out_dir = work_dir / f"out{k}"
        argv = ["explain", "--model", str(manifest), "--weights", str(weights),
                "--image", str(image), "--method", method, *flags,
                "--seed", str(int(rng.integers(2**31))), "--out", str(out_dir)]
        calls.append(_cli_call(f"cmd{k}", " ".join([method, *flags]), min_forwards(method, n),
                               argv, out_dir, (h, w)))
    return calls


def _cli_call(key, label, needed, argv, out_dir: Path, hw) -> Call:
    def prepare():
        # A call that failed to write a file must not pass on the previous call's copy.
        shutil.rmtree(out_dir, ignore_errors=True)

    def invoke():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run_cli(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(result, full):
        code, out, err = result
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()}")
        files = sorted(out_dir.iterdir())
        if full:
            _check_cli_files(files, hw)
        digest = hashlib.sha256(out.encode("utf-8"))
        for path in files:
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()

    return Call(key=key, label=label, min_forwards=needed, invoke=invoke, check=check,
                prepare=prepare)


def _check_cli_files(files: list[Path], hw) -> None:
    """Every map CSV is a valid display map and every map has both images."""
    h, w = hw
    maps = [p for p in files if p.name.startswith("map")]
    if not maps:
        raise CheckFailed("explain wrote no map.csv")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    for path in maps:
        suffix = path.name[len("map"):-len(".csv")]
        check_display(np.loadtxt(path, delimiter=",", comments="#", ndmin=2), hw)
        for image in (f"heatmap{suffix}.ppm", f"overlay{suffix}.ppm"):
            data = (path.parent / image).read_bytes() if (path.parent / image).exists() else b""
            if not data.startswith(header) or len(data) != len(header) + 3 * h * w:
                raise CheckFailed(f"{image} is missing or not a {w}x{h} PPM")
