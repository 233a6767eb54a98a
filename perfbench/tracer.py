"""Spans around calls into smoothcam's modules, recorded from outside the program.

The package binds names such as ``forward``, ``conv2d`` and ``grad_wrt_layer``
at import time (``from .network import forward``), so patching the defining
module alone would miss most calls. ``Tracer.install`` therefore replaces the
function object under every name that refers to it in every loaded smoothcam
module, and ``uninstall`` puts the originals back. The program's source is not
touched.

A span is (parent span id, call id, name, start, end). Spans stay in memory
and are written out by ``dump`` when the run ends. Calls nest strictly (one
thread, no callbacks), so a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Public functions timed per module. Unlisted functions (such as
# ``as_tensor`` or the private reverse sweep) count as self time of their
# traced caller.
TRACED = {
    "tensor": ("conv2d", "maxpool2d", "relu", "dense", "softmax",
               "add_gaussian_noise", "bilinear_resize"),
    "network": ("forward",),
    "gradients": ("grad_wrt_layer", "grad_wrt_input", "higher_order_triple"),
    "saliency": ("run", "smooth_triple", "smoothgrad_map", "compute_alpha", "cam_map",
                 "postprocess"),
    "imageio": ("read_ppm", "heat_image", "overlay", "write_ppm", "write_map_csv"),
    "modelio": ("load_model",),
    "cli": ("run_cli",),
}

# (name, unit, better) for every per-layer metric, in report order.
# "ms_per_call" is inclusive time per benchmark call, "self_ms_per_call"
# excludes traced children, "count_per_call" is an exact span count.
LAYER_METRICS = [
    ("network.forward.count_per_call", "count", "lower"),
    ("network.forward.useful_ratio", "ratio", "higher"),
    ("network.forward.self_ms_per_call", "ms", "lower"),
    ("saliency.run.self_ms_per_call", "ms", "lower"),
    ("saliency.smooth_triple.self_ms_per_call", "ms", "lower"),
    ("saliency.smoothgrad_map.self_ms_per_call", "ms", "lower"),
    ("tensor.add_gaussian_noise.ms_per_call", "ms", "lower"),
    ("tensor.conv2d.ms_per_call", "ms", "lower"),
    ("tensor.conv2d.mflop_per_call", "MFLOP", "lower"),
    ("tensor.maxpool2d.ms_per_call", "ms", "lower"),
    ("tensor.relu.ms_per_call", "ms", "lower"),
    ("tensor.dense.ms_per_call", "ms", "lower"),
    ("tensor.softmax.ms_per_call", "ms", "lower"),
    ("gradients.grad_wrt_layer.count_per_call", "count", "lower"),
    ("gradients.grad_wrt_layer.self_ms_per_call", "ms", "lower"),
    ("gradients.grad_wrt_input.count_per_call", "count", "lower"),
    ("gradients.grad_wrt_input.self_ms_per_call", "ms", "lower"),
    ("gradients.higher_order_triple.ms_per_call", "ms", "lower"),
    ("saliency.compute_alpha.ms_per_call", "ms", "lower"),
    ("saliency.cam_map.ms_per_call", "ms", "lower"),
    ("saliency.postprocess.ms_per_call", "ms", "lower"),
    ("tensor.bilinear_resize.ms_per_call", "ms", "lower"),
    ("imageio.read_ppm.ms_per_call", "ms", "lower"),
    ("imageio.heat_image.ms_per_call", "ms", "lower"),
    ("imageio.overlay.ms_per_call", "ms", "lower"),
    ("imageio.write_ppm.ms_per_call", "ms", "lower"),
    ("imageio.write_map_csv.ms_per_call", "ms", "lower"),
    ("imageio.bytes_written_per_call", "bytes", "lower"),
    ("modelio.load_model.ms_per_call", "ms", "lower"),
    ("cli.run_cli.self_ms_per_call", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _conv_mflop(tracer, args, kwargs, result):
    """Forward conv work computed from shapes: 2 * outputs * C * kh * kw."""
    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
    _, c, kh, kw = kernels.shape
    tracer.add("tensor.conv2d.mflop", 2 * result.size * c * kh * kw / 1e6)


def _bytes_written(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("imageio.bytes_written", os.stat(path).st_size)


# Per-call quantities that must repeat exactly for every call of one label.
SPAN_COUNTS = ("network.forward", "gradients.grad_wrt_layer", "gradients.grad_wrt_input")
COMPUTED = ("tensor.conv2d.mflop", "imageio.bytes_written")


_AFTER = {
    "tensor.conv2d": _conv_mflop,
    "imageio.write_ppm": _bytes_written,
    "imageio.write_map_csv": _bytes_written,
}


class Tracer:
    """Records a span for every call into the TRACED functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.totals: dict = defaultdict(float)  # (call id, quantity) -> e.g. conv MFLOP
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def add(self, key: str, value: float) -> None:
        self.totals[(self.call_id, key)] += value

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smoothcam" or n.startswith("smoothcam."))]
        for module_name, names in TRACED.items():
            module = sys.modules[f"smoothcam.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, self.call_id, name, start, end)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def summarize(self):
        """Per span name: inclusive and self nanoseconds; per (call, name): span counts."""
        child_time = [0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict = defaultdict(int)
        self_time: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        for sid, (_, call, name, start, end) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[sid]
            counts[(call, name)] += 1
        return inclusive, self_time, counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["parent", "call", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, calls, labels_of_calls, untraced_rate, traced_rate):
    """Per-layer metrics from one traced loop.

    calls: the workload's cycle of Call objects (one full cycle, in order);
    labels_of_calls: the label of each traced call, indexed by call id.
    Counts and computed quantities come per call label and are averaged over
    one cycle, so they do not depend on where the timed loop happened to stop.
    """
    inclusive, self_time, counts = tracer.summarize()
    n = len(labels_of_calls)
    per_label: dict = {}
    for call_id, label in enumerate(labels_of_calls):
        seen = {name: counts.get((call_id, name), 0) for name in SPAN_COUNTS}
        seen.update({key: tracer.totals.get((call_id, key), 0.0) for key in COMPUTED})
        previous = per_label.setdefault(label, seen)
        if previous != seen:
            raise RuntimeError(f"per-call counts differ between calls of '{label}': "
                               f"{previous} vs {seen}")

    def cycle_mean(name):
        return sum(per_label[c.label][name] for c in calls) / len(calls)

    forwards = sum(per_label[c.label]["network.forward"] for c in calls)
    needed = sum(c.min_forwards for c in calls)
    values = {
        "network.forward.count_per_call": cycle_mean("network.forward"),
        "network.forward.useful_ratio": needed / forwards,
        "gradients.grad_wrt_layer.count_per_call": cycle_mean("gradients.grad_wrt_layer"),
        "gradients.grad_wrt_input.count_per_call": cycle_mean("gradients.grad_wrt_input"),
        "tensor.conv2d.mflop_per_call": cycle_mean("tensor.conv2d.mflop"),
        "imageio.bytes_written_per_call": cycle_mean("imageio.bytes_written"),
        "trace.overhead_ratio": untraced_rate / traced_rate,
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        source = self_time if kind == "self_ms_per_call" else inclusive
        values[metric] = source.get(span, 0) / 1e6 / n
    return values, per_label
