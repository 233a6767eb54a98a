"""The conv products: one GEMM per output row, the same bytes as one GEMM over all windows,
and small enough that OpenBLAS keeps them on the calling thread."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothcam
from smoothcam import build_fixture, conv2d, conv_layer
from smoothcam.network import KINDS
from smoothcam.tensor import conv2d_backward


def _columns(x, kh, kw, stride, padding):
    """The [C*kh*kw, Ho, Wo] im2col taps, built tap by tap."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    cols = np.empty((c, kh, kw, ho, wo))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = padded[:, u : u + stride * ho : stride, v : v + stride * wo : stride]
    return cols.reshape(c * kh * kw, ho, wo)


def single_gemm_conv(x, kernels, bias, stride, padding):
    """conv2d as one [K, C*kh*kw] @ [C*kh*kw, Ho*Wo] product."""
    kout, _, kh, kw = kernels.shape
    cols = _columns(x, kh, kw, stride, padding)
    out = kernels.reshape(kout, -1) @ cols.reshape(len(cols), -1)
    out += bias[:, None]
    return out.reshape(kout, *cols.shape[1:])


def single_gemm_conv_backward(kernels, grad, x_shape, stride, padding):
    """The conv input gradient from one kernels^T @ grad product, then col2im."""
    kout, c, kh, kw = kernels.shape
    _, h, w = x_shape
    hh, ww = grad.shape[1:]
    cols = (kernels.reshape(kout, -1).T @ grad.reshape(kout, -1)).reshape(c, kh, kw, hh, ww)
    dx = np.zeros((c, h + 2 * padding, w + 2 * padding))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + stride * hh : stride, v : v + stride * ww : stride] += cols[:, u, v]
    return dx[:, padding : padding + h, padding : padding + w]


def _case(kernels, bias, x_shape, stride, padding, seed):
    """(conv2d, its one-GEMM value, the conv backward, its one-GEMM value) on random data."""
    rng = np.random.default_rng(seed)
    x = rng.random(x_shape)
    out = conv2d(x, kernels, bias, stride, padding)
    grad = rng.standard_normal(out.shape)
    dx = conv2d_backward(grad, x_shape, kernels, stride, padding)
    swept = KINDS["conv"].backward(conv_layer("conv", kernels, bias, stride, padding), grad, x,
                                   out)
    assert swept.tobytes() == dx.tobytes()  # the reverse sweep runs the same kernel
    return (out, single_gemm_conv(x, kernels, bias, stride, padding),
            dx, single_gemm_conv_backward(kernels, grad, x_shape, stride, padding))


def _wide_shapes():
    rng = np.random.default_rng(11)
    return [(rng.standard_normal((16, 3, 3, 3)), rng.standard_normal(16), (3, 64, 64), 1, 1),
            (rng.standard_normal((32, 16, 3, 3)), rng.standard_normal(32), (16, 32, 32), 1, 1)]


def _fixture_shapes():
    shapes = []
    for model in (build_fixture("random", seed=7), build_fixture("detector")):
        conv = model.layer("conv1")
        shapes.append((conv.weight, conv.bias, model.input_shape, conv.stride, conv.padding))
    return shapes


@pytest.mark.parametrize("case", _wide_shapes() + _fixture_shapes(),
                         ids=["wide-conv1", "wide-conv2", "random-fixture", "detector"])
def test_conv_products_match_one_gemm_byte_for_byte(case):
    for seed in range(3):
        out, want_out, dx, want_dx = _case(*case, seed)
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


def test_conv_products_match_one_gemm_on_odd_rows():
    # 3x33x33, 5x5 kernels, stride 2, padding 2: 17-wide output rows, not a multiple of the
    # BLAS kernel's column block, so the last bits may differ from one wide product.
    rng = np.random.default_rng(5)
    for seed in range(3):
        out, want_out, dx, want_dx = _case(rng.standard_normal((8, 3, 5, 5)),
                                           rng.standard_normal(8), (3, 33, 33), 2, 2, seed)
        assert out.shape == (8, 17, 17) and dx.shape == (3, 33, 33)
        for got, want in ((out, want_out), (dx, want_dx)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_WORKER_SHARE = """
import resource
import numpy as np
from smoothcam import (Model, SaliencyRequest, conv_layer, dense_layer, flatten_layer,
                       maxpool_layer, relu_layer, run, softmax_layer)

rng = np.random.default_rng(0)
he = lambda shape: rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)
model = Model([conv_layer("conv1", he((16, 3, 3, 3)), rng.normal(0.0, 0.05, 16), padding=1),
               relu_layer("relu1"), maxpool_layer("pool1", 2),
               conv_layer("conv2", he((32, 16, 3, 3)), rng.normal(0.0, 0.05, 32), padding=1),
               relu_layer("relu2"), maxpool_layer("pool2", 2), flatten_layer("flatten1"),
               dense_layer("dense1", he((10, 8192)), rng.normal(0.0, 0.1, 10)),
               softmax_layer("softmax1")], (3, 64, 64), 10)
x = rng.random((3, 64, 64))
requests = [SaliencyRequest("smooth-gradcampp", layer="conv1", n=10, seed=1),
            SaliencyRequest("smooth-gradcampp", layer="conv2", n=10, seed=2),
            SaliencyRequest("smoothgrad", n=10, seed=3)]
run(model, x, requests[0])

def cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime

total, main = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_THREAD)
for request in requests * 2:
    run(model, x, request)
main = cpu(resource.RUSAGE_THREAD) - main
print(cpu(resource.RUSAGE_SELF) - total - main, main)
"""


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD") or (os.cpu_count() or 1) == 1,
                    reason="needs per-thread CPU times and more than one CPU")
def test_wide_smooth_calls_leave_blas_workers_idle():
    # A fresh process with the BLAS library's default thread count: threads other than the
    # main one (the BLAS workers) should use almost no CPU while the calls run.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(smoothcam.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _WORKER_SHARE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    others, main = map(float, done.stdout.split())
    assert others < 0.25 * main, f"other threads {others:.3f} s against main {main:.3f} s"
