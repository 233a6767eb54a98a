"""Kernel results are fresh arrays, shared by nothing a later call writes.

Pool replay and backward agree with a scatter over the recorded argmax, the
noise is rng.normal's, nothing a public call returns changes when later calls
run, and concurrent runs on one model give the sequential results.
"""

import sys
import threading

import numpy as np
import pytest

from smoothcam import (SaliencyRequest, add_gaussian_noise, maxpool_layer, run, smooth_triple,
                       smoothgrad_map)
from smoothcam.network import KINDS


@pytest.mark.parametrize("size, stride", [(2, 2), (3, 3), (2, 3), (2, 1), (3, 2)])
def test_pool_forward_and_backward_match_the_fresh_path(rng, size, stride):
    spec = maxpool_layer("pool1", size, stride=stride)
    for _ in range(3):
        x = rng.standard_normal((3, 11, 11))
        x[rng.random(x.shape) < 0.1] = 0.0  # ties
        out, gate = KINDS["maxpool"].forward(spec, x)
        replay, _ = KINDS["maxpool"].forward(spec, x, gate)
        assert replay.tobytes() == out.tobytes()
        grad = rng.standard_normal(out.shape)
        want = np.zeros(x.shape)
        rows, cols = np.unravel_index(gate, x.shape)[1:]
        for ch, i, j in np.ndindex(out.shape):  # overlapping windows add up
            want[ch, rows[ch, i, j], cols[ch, i, j]] += grad[ch, i, j]
        got = KINDS["maxpool"].backward(spec, grad, x, out, gate)
        assert got.tobytes() == want.tobytes()


def test_noise_matches_rng_normal(rng):
    x = rng.random((3, 8, 8))
    for seed in range(50):
        want = x + np.random.default_rng(seed).normal(0.0, 0.3, size=x.shape)
        assert add_gaussian_noise(x, 0.3, np.random.default_rng(seed)).tobytes() == want.tobytes()


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
    return smap.raw.tobytes(), smap.display.tobytes(), smap.request, smap.chosen_class


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
