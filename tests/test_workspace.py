"""The workspace contract: a multi-sample loop reuses one set of arrays across its samples.

With `work` given, the primitives, passes and sweeps write into arrays kept in
that dict instead of fresh ones. The results must be the same bytes as the
fresh path, the arrays must really be reused, and nothing a public call returns
may alias them.
"""

import sys
import threading

import numpy as np
import pytest

from smoothcam import (Model, SaliencyRequest, ScoreMode, add_gaussian_noise, conv_layer,
                       dense_layer, flatten_layer, forward, grad_wrt_input, grad_wrt_layer,
                       higher_order_triple, maxpool_layer, relu_layer, run, smooth_triple,
                       smoothgrad_map)
from smoothcam import gradients, saliency
from smoothcam.network import KINDS


@pytest.fixture
def strided_model(rng):
    """3 channels, two padded convs (the first of stride 2), a disjoint and an overlapping pool."""
    layers = [
        conv_layer("conv1", rng.standard_normal((4, 3, 3, 3)), rng.normal(0.0, 0.1, 4),
                   stride=2, padding=1),
        relu_layer("relu1"),
        maxpool_layer("pool1", 2),
        conv_layer("conv2", rng.standard_normal((5, 4, 3, 3)), rng.normal(0.0, 0.1, 5),
                   padding=1),
        relu_layer("relu2"),
        maxpool_layer("pool2", 2, stride=1),
        flatten_layer("flatten1"),
        dense_layer("dense1", rng.standard_normal((3, 20)), rng.normal(0.0, 0.1, 3)),
    ]
    return Model(layers=layers, input_shape=(3, 13, 13), class_count=3)


@pytest.fixture(params=["random", "strided"])
def model(request, random_model, strided_model):
    return random_model if request.param == "random" else strided_model


def _conv_names(model):
    return [spec.name for spec in model.layers if spec.kind == "conv"]


def _gate_bytes(gate):
    # A ReLU's gate is its output; a pool's is a PoolArgmax.
    return gate.tobytes() if isinstance(gate, np.ndarray) else gate.flat.tobytes()


def _trace_bytes(trace):
    layers = {name: out.tobytes() for name, out in trace.per_layer.items()}
    gates = {name: _gate_bytes(gate) for name, gate in trace.gates.items()}
    return layers, gates, trace.logits.tobytes(), trace.probabilities.tobytes()


def test_forward_and_sweeps_match_the_fresh_path(model, rng):
    work = {}
    score = ScoreMode("raw-logit", 1)
    for _ in range(3):  # the first call fills the workspace, the later ones reuse it
        x = rng.random(model.input_shape)
        fresh = forward(model, x)
        reused = forward(model, x, work=work)
        assert _trace_bytes(reused) == _trace_bytes(fresh)
        for layer in _conv_names(model):
            want = grad_wrt_layer(model, fresh, score, layer).tobytes()
            assert grad_wrt_layer(model, reused, score, layer, work=work).tobytes() == want
        want = grad_wrt_input(model, x, ScoreMode("exp-logit", 2)).tobytes()
        assert grad_wrt_input(model, x, ScoreMode("exp-logit", 2), work=work).tobytes() == want


def test_higher_order_triple_matches_the_fresh_path(rng):
    work = {}
    for _ in range(3):
        g = rng.standard_normal((4, 5, 5))
        fresh = higher_order_triple(g, 0.7)
        reused = higher_order_triple(g, 0.7, work=work)
        for a, b in ((fresh.d1, reused.d1), (fresh.d2, reused.d2), (fresh.d3, reused.d3)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size, stride", [(2, 2), (3, 3), (2, 3), (2, 1), (3, 2)])
def test_pool_forward_and_backward_match_the_fresh_path(rng, size, stride):
    spec = maxpool_layer("pool1", size, stride=stride)
    work = {}
    for _ in range(3):
        x = rng.standard_normal((3, 11, 11))
        x[rng.random(x.shape) < 0.1] = 0.0  # ties
        out, gate = KINDS["maxpool"].forward(spec, x)
        out_w, gate_w = KINDS["maxpool"].forward(spec, x, work=work)
        assert out_w.tobytes() == out.tobytes() and gate_w.flat.tobytes() == gate.flat.tobytes()
        replay, _ = KINDS["maxpool"].forward(spec, x, gate_w)
        assert replay.tobytes() == out.tobytes()
        grad = rng.standard_normal(out.shape)
        want = KINDS["maxpool"].backward(spec, grad, x, out, gate)
        got = KINDS["maxpool"].backward(spec, grad, x, out_w, gate_w, work)
        assert got.tobytes() == want.tobytes()


def test_noise_matches_rng_normal(rng):
    x = rng.random((3, 8, 8))
    work = {}
    for seed in range(50):
        want = x + np.random.default_rng(seed).normal(0.0, 0.3, size=x.shape)
        assert add_gaussian_noise(x, 0.3, np.random.default_rng(seed)).tobytes() == want.tobytes()
        got = add_gaussian_noise(x, 0.3, np.random.default_rng(seed), work=work)
        assert got.tobytes() == want.tobytes()


def test_a_workspace_is_reused(strided_model, rng):
    # Guards against a silent fall-back to fresh arrays on every use.
    work = {}
    score = ScoreMode("raw-logit", 0)
    traces = [forward(strided_model, rng.random(strided_model.input_shape), work=work)
              for _ in range(2)]
    for spec in strided_model.layers:
        if spec.kind in ("conv", "relu", "maxpool"):
            assert np.shares_memory(traces[0].per_layer[spec.name], traces[1].per_layer[spec.name])
    assert np.shares_memory(traces[0].gates["pool2"].flat, traces[1].gates["pool2"].flat)
    grads = [grad_wrt_layer(strided_model, t, score, "conv1", work=work) for t in traces]
    assert np.shares_memory(*grads)
    triples = [higher_order_triple(g, 0.0, work=work) for g in grads]
    assert np.shares_memory(triples[0].d3, triples[1].d3)
    x = rng.random(strided_model.input_shape)
    noised = [add_gaussian_noise(x, 0.1, np.random.default_rng(s), work=work) for s in (1, 2)]
    assert np.shares_memory(*noised) and not np.shares_memory(noised[0], x)


def _requests():
    return [
        SaliencyRequest(method="smooth-gradcampp", layer="conv1", n=4, seed=3),
        SaliencyRequest(method="smooth-gradcampp", layer="conv2", n=4, seed=4,
                        activation_source="averaged"),
        SaliencyRequest(method="smoothgrad", n=4, seed=5),
        SaliencyRequest(method="gradcampp", layer="conv2"),
        SaliencyRequest(method="sensitivity"),
    ]


def _map_bytes(smap):
    return smap.raw.tobytes(), smap.display.tobytes(), smap.meta


def _returned_arrays(model, x):
    """Every array that run, smooth_triple and smoothgrad_map return for x."""
    arrays = []
    for request in _requests():
        smap = run(model, x, request)
        arrays += [smap.raw, smap.display]
    triple, activations = smooth_triple(model, x, _requests()[0])
    arrays += [triple.d1, triple.d2, triple.d3, activations]
    return arrays + [smoothgrad_map(model, x, _requests()[2]).raw]


def test_results_do_not_alias_a_workspace(strided_model, rng):
    arrays = _returned_arrays(strided_model, rng.random(strided_model.input_shape))
    kept = [a.tobytes() for a in arrays]
    _returned_arrays(strided_model, rng.random(strided_model.input_shape))
    assert [a.tobytes() for a in arrays] == kept


def test_concurrent_runs_on_one_model_match_sequential_runs(strided_model, rng):
    x = rng.random(strided_model.input_shape)
    requests = _requests()[:3]
    want = [_map_bytes(run(strided_model, x, r)) for r in requests]
    results, errors = {}, []

    def worker(tid):
        try:
            results[tid] = [_map_bytes(run(strided_model, x, requests[i % 3])) for i in range(10)]
        except Exception as exc:  # reported below; a thread's exception would be lost
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-sample
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for tid in range(2):
        assert results[tid] == [want[i % 3] for i in range(10)]


@pytest.mark.parametrize("request_", [
    SaliencyRequest(method="gradcam", layer="conv1"),
    SaliencyRequest(method="gradcampp", layer="conv1"),
    SaliencyRequest(method="sensitivity"),
    SaliencyRequest(method="smoothgrad", n=1),
    SaliencyRequest(method="smooth-gradcampp", layer="conv1", n=1),
], ids=lambda r: f"{r.method}-n{r.n}")
def test_a_one_sample_loop_passes_no_workspace(strided_model, rng, monkeypatch, request_):
    seen = []
    for module in (saliency, gradients):
        real = module.forward
        monkeypatch.setattr(module, "forward", lambda *args, real=real, **kwargs: (
            seen.append(kwargs.get("work")), real(*args, **kwargs))[1])
    run(strided_model, rng.random(strided_model.input_shape), request_)
    assert seen and all(work is None for work in seen)


def test_a_multi_sample_loop_shares_one_workspace(strided_model, rng, monkeypatch):
    seen = []
    real = saliency.forward
    monkeypatch.setattr(saliency, "forward", lambda *args, **kwargs: (
        seen.append(kwargs.get("work")), real(*args, **kwargs))[1])
    request = SaliencyRequest(method="smooth-gradcampp", layer="conv1", n=3)
    run(strided_model, rng.random(strided_model.input_shape), request)
    clean, samples = seen[:2], seen[2:]
    assert clean == [None, None] and len(samples) == 3
    assert isinstance(samples[0], dict) and all(work is samples[0] for work in samples)
