"""Command-line front door: explain an image, list conv layers, build fixtures.

Exit codes: 0 success, 1 usage error, 2 data or model error. User mistakes are
reported as one-line stderr messages, never tracebacks.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import imageio, modelio, saliency
from .errors import NonFiniteMapError, ParamError, SmoothCamError
from .gradients import ScoreMode
from .network import forward, list_conv_layers
from .saliency import NeuronSelection, SaliencyRequest
from .tensor import as_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_SCORE_FLAGS = {"logit": "raw-logit", "exp": "exp-logit"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise _UsageError(message)


def main() -> None:
    # An overflowing class score is reported by run_cli's one error line; numpy's
    # floating-point warnings on the way there would only add lines to stderr.
    with np.errstate(all="ignore"):
        sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "explain":
            _cmd_explain(args)
        elif args.command == "list-layers":
            _cmd_list_layers(args)
        else:
            _cmd_make_fixture(args)
    except _UsageError as exc:
        message, code = f"usage error: {exc}", EXIT_USAGE
    except (SmoothCamError, OSError) as exc:
        message, code = f"error: {exc}", EXIT_DATA
    else:
        return EXIT_OK
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)  # one line
    return code


@functools.cache  # parse_args only reads the parser and returns a fresh Namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="smoothcam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explain", help="compute a saliency map for one image")
    ex.add_argument("--model", required=True, help="manifest JSON path")
    ex.add_argument("--weights", required=True, help="weight blob path")
    ex.add_argument("--image", required=True, help="input image (binary PPM)")
    ex.add_argument("--method", required=True, choices=saliency.METHODS)
    ex.add_argument("--class", dest="class_spec", default="auto",
                    help="class index, or 'auto' for the argmax class")
    ex.add_argument("--layer", default=None, help="conv layer to visualize (CAM methods)")
    # --samples, --sigma, --activation-source and --seed default to SaliencyRequest's values.
    ex.add_argument("--samples", type=int, help="noise sample count n")
    ex.add_argument("--sigma", type=float,
                    help="noise std as a fraction of the input dynamic range")
    ex.add_argument("--filters", default=None, help="feature map indices, e.g. 0,2,5")
    picks = ex.add_mutually_exclusive_group()
    picks.add_argument("--neurons", default=None, help="neuron coordinates, e.g. 3:5,5:5")
    picks.add_argument("--region-box", dest="region_box", default=None,
                       help="inclusive neuron region top:left:bottom:right")
    ex.add_argument("--activation-source", dest="activation_source",
                    choices=saliency.ACTIVATION_SOURCES)
    ex.add_argument("--score", default="exp", choices=sorted(_SCORE_FLAGS))
    ex.add_argument("--seed", type=int, help="master seed (non-negative)")
    ex.add_argument("--blend", type=float, default=0.5, help="overlay blend in [0,1]")
    ex.add_argument("--out", required=True, help="output directory")

    ls = sub.add_parser("list-layers", help="print the model's conv layer names")
    ls.add_argument("--model", required=True)
    ls.add_argument("--weights", required=True)

    mk = sub.add_parser("make-fixture", help="write a fixture model to disk")
    mk.add_argument("--kind", required=True, choices=["random", "detector"])
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--classes", type=int, help="class count for the random kind (default 10)")
    mk.add_argument("--model", required=True, help="manifest output path")
    mk.add_argument("--weights", required=True, help="blob output path")
    mk.add_argument("--scene", default=None,
                    help="optionally write a matching demo input image (PPM)")
    return parser


def _cmd_explain(args) -> None:
    request, blend = _parse_request(args)
    model = modelio.load_model(args.model, args.weights)
    saliency.check_target(model, request)  # before any per-filter job makes a pass
    image = imageio.read_ppm(args.image)
    x = imageio.to_input_tensor(image, model.input_shape)

    if request.filters is not None:
        jobs = [(f"_f{k}", replace(request, filters=(k,))) for k in request.filters]
    else:
        jobs = [("", request)]
    results = [(suffix, saliency.run(model, x, req)) for suffix, req in jobs]
    chosen = results[0][1].chosen_class
    score_value = request.score.value(forward(model, x).logits, chosen)
    if not np.isfinite(score_value):  # run refuses a non-finite map; gradcam's survives
        raise NonFiniteMapError(
            f"{request.method} output for class {chosen} is not finite: the class score overflowed"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _meta_header(request, blend, chosen)
    for suffix, smap in results:
        heat = imageio.heat_image(smap.display)
        imageio.write_ppm(heat, out_dir / f"heatmap{suffix}.ppm")
        imageio.write_ppm(imageio.overlay(image, heat, blend), out_dir / f"overlay{suffix}.ppm")
        imageio.write_map_csv(smap.display, out_dir / f"map{suffix}.csv", header=header)

    print(f"class {chosen}")
    print(f"score {score_value:.9f}")


def _cmd_list_layers(args) -> None:
    model = modelio.load_model(args.model, args.weights)
    for name in list_conv_layers(model):
        print(name)


def _cmd_make_fixture(args) -> None:
    try:
        model = modelio.build_fixture(args.kind, seed=args.seed, class_count=args.classes)
    except ParamError as exc:
        raise _UsageError(str(exc)) from None
    modelio.save_model(model, args.model, args.weights)
    if args.scene is not None:
        if args.kind == "detector":
            scene = modelio.detector_scene("top-left")
        else:
            rng = np.random.default_rng(args.seed)
            scene = rng.random(model.input_shape)
        gray = np.floor(255.0 * np.clip(as_tensor(scene)[0], 0.0, 1.0) + 0.5).astype(np.uint8)
        pixels = np.repeat(gray[:, :, None], 3, axis=2).tobytes()
        imageio.write_ppm(
            imageio.RgbImage(width=gray.shape[1], height=gray.shape[0], pixels=pixels),
            args.scene,
        )


def _parse_request(args) -> tuple[SaliencyRequest, float]:
    class_index = filters = neurons = None
    if not 0.0 <= args.blend <= 1.0:
        raise _UsageError("--blend must be in [0, 1]")
    try:
        if args.class_spec != "auto":
            class_index = _read_ints(args.class_spec, "--class", "an integer or 'auto'")
        if args.filters is not None:
            # Repeats name the same maps: each filter is computed once, in first-seen order.
            filters = tuple(dict.fromkeys(_read_ints(k, "--filters", "integers")
                                          for k in args.filters.split(",")))
        if args.neurons is not None:
            neurons = NeuronSelection(coords=tuple(
                _read_ints(rc, "--neurons", "row:col integers") for rc in args.neurons.split(",")))
        elif args.region_box is not None:
            box = _read_ints(args.region_box, "--region-box", "top:left:bottom:right integers")
            neurons = NeuronSelection(box=box)
        given = {"n": args.samples, "sigma_rel": args.sigma, "seed": args.seed,
                 "activation_source": args.activation_source}
        request = SaliencyRequest(
            method=args.method,
            score=ScoreMode(_SCORE_FLAGS[args.score], class_index),
            layer=args.layer,
            filters=filters,
            neurons=neurons,
            **{key: value for key, value in given.items() if value is not None},
        )
    except ParamError as exc:
        raise _UsageError(str(exc)) from None
    return request, args.blend


def _meta_header(request: SaliencyRequest, blend: float, chosen_class: int) -> str:
    """The map CSV's `#` line, echoing parsed values: raw flag text could break the line."""
    sel = request.neurons
    coords = ",".join(f"{r}:{c}" for r, c in sel.coords) if sel and sel.box is None else "-"
    box = ":".join(str(v) for v in sel.box) if sel and sel.box is not None else "-"
    fields = [
        ("method", request.method),
        ("class", "auto" if request.score.class_index is None else request.score.class_index),
        ("chosen-class", chosen_class),
        ("layer", request.layer or "-"),
        ("samples", request.n),
        ("sigma", request.sigma_rel),
        ("filters", ",".join(str(k) for k in request.filters) if request.filters else "-"),
        ("neurons", coords),
        ("region-box", box),
        ("activation-source", request.activation_source),
        ("score", {mode: flag for flag, mode in _SCORE_FLAGS.items()}[request.score.mode]),
        ("seed", request.seed),
        ("blend", blend),
    ]
    return " ".join(f"{key}={value}" for key, value in fields)


def _read_ints(raw: str, flag: str, form: str) -> int | tuple[int, ...]:
    """One flag entry as an int, or its colon-separated fields as a tuple of ints: "3" is 3,
    "3:5" is (3, 5). Text that is not `form` is a usage error; the library checks the values."""
    try:
        values = tuple(int(field) for field in raw.split(":"))
    except ValueError:
        raise _UsageError(f"{flag} expects {form}, got {raw!r}") from None
    return values[0] if len(values) == 1 else values
