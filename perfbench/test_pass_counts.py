"""Fast checks of the benchmark itself.

The forward-pass counts are pinned to the table in ROADMAP.md, so a change
that removes redundant passes shows its gain here as an exact count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from smoothcam import cli, modelio, network, saliency  # noqa: E402
from smoothcam.saliency import SaliencyRequest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _forward_count(fn) -> int:
    t = tracer.Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return sum(1 for span in t.spans if span[2] == "network.forward")


@pytest.mark.parametrize("method, layer, passes", [
    ("sensitivity", None, 2),
    ("smoothgrad", None, 26),
    ("gradcam", "conv1", 1),
    ("gradcampp", "conv1", 3),
    ("smooth-gradcampp", "conv1", 27),
])
def test_library_forward_counts(method, layer, passes):
    model = modelio.build_fixture("random", seed=7)
    x = np.random.default_rng(0).random(model.input_shape)
    request = SaliencyRequest(method=method, layer=layer, n=25, sigma_rel=0.15, seed=3)
    assert _forward_count(lambda: saliency.run(model, x, request)) == passes


@pytest.mark.parametrize("flags, passes", [([], 28), (["--filters", "0,1,2,3"], 109)])
def test_cli_explain_forward_counts(tmp_path, capsys, flags, passes):
    paths = {k: str(tmp_path / name) for k, name in
             (("model", "m.json"), ("weights", "m.bin"), ("image", "in.ppm"))}
    assert cli.run_cli(["make-fixture", "--kind", "random", "--seed", "7",
                        "--model", paths["model"], "--weights", paths["weights"],
                        "--scene", paths["image"]]) == 0
    argv = ["explain", "--model", paths["model"], "--weights", paths["weights"],
            "--image", paths["image"], "--method", "smooth-gradcampp", "--layer", "conv1",
            "--samples", "25", *flags, "--out", str(tmp_path / "out")]
    codes = []
    assert _forward_count(lambda: codes.append(cli.run_cli(argv))) == passes
    assert codes == [0]


def test_uninstall_restores_every_binding():
    originals = (network.forward, saliency.forward, cli.forward, saliency.run)
    t = tracer.Tracer()
    t.install()
    assert saliency.forward is network.forward is cli.forward is not originals[0]
    t.uninstall()
    assert (network.forward, saliency.forward, cli.forward, saliency.run) == originals


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_cycle_reports_every_layer_metric(tmp_path, name):
    calls = workloads.build(name, seed=1, work_dir=tmp_path)[:2]
    digests, failures = {}, []
    t = tracer.Tracer()
    t.install()
    try:
        traced = worker.loop(calls, digests, failures, seconds=0.0, spans=t)
    finally:
        t.uninstall()
    again = worker.loop(calls, digests, failures, seconds=0.0)
    assert failures == [] and traced["failed"] == again["failed"] == 0
    values, _ = tracer.layer_metrics(t, calls, traced["labels"], 1.0, 1.0)
    assert set(values) == {m for m, _, _ in tracer.LAYER_METRICS}
    assert values["network.forward.count_per_call"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.LAYER_METRICS
    doc = json.loads((HERE / "metrics.json").read_text())
    mapped = [name for group in doc["per_layer"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
