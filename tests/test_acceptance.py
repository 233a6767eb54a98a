"""Acceptance gate: every release criterion, one test each, at its pinned tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them on success).
"""

import time

import numpy as np

from smoothcam import (
    GradientTriple,
    SaliencyRequest,
    ScoreMode,
    build_fixture,
    cam_map,
    colormap,
    compute_alpha,
    detector_scene,
    finite_diff_input_grad,
    finite_diff_layer_grad,
    forward,
    grad_wrt_input,
    grad_wrt_layer,
    gradcampp_weights,
    higher_order_triple,
    load_model,
    postprocess,
    read_ppm,
    run,
    save_model,
    smooth_triple,
    write_ppm,
    RgbImage,
)
from smoothcam.cli import run_cli

QUADRANTS = {
    "top-left": (slice(0, 8), slice(0, 8)),
    "top-right": (slice(0, 8), slice(8, 16)),
    "bottom-left": (slice(8, 16), slice(0, 8)),
    "bottom-right": (slice(8, 16), slice(8, 16)),
}


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _scene_ppm(path):
    gray = np.floor(255.0 * detector_scene("top-left")[0] + 0.5).astype(np.uint8)
    pixels = np.repeat(gray[:, :, None], 3, axis=2).tobytes()
    write_ppm(RgbImage(width=16, height=16, pixels=pixels), path)
    return str(path)


def test_criterion_1_reduction_identity():
    model = build_fixture("random", seed=11)
    x = np.random.default_rng(100).random((1, 16, 16))
    worst = 0.0
    for c in range(model.class_count):
        for source in ("original", "averaged"):
            smooth = run(model, x, SaliencyRequest(
                method="smooth-gradcampp", score=ScoreMode("exp-logit", c),
                layer="conv1", n=1, sigma_rel=0.0, activation_source=source, seed=1))
            plain = run(model, x, SaliencyRequest(
                method="gradcampp", score=ScoreMode("exp-logit", c),
                layer="conv1", activation_source=source, seed=1))
            worst = max(worst,
                        float(np.max(np.abs(smooth.raw - plain.raw))),
                        float(np.max(np.abs(smooth.display - plain.display))))
    _report(1, "smooth-gradcampp(n=1, sigma=0) == gradcampp for every class/source",
            worst <= 1e-10, f"max abs diff {worst:.3e}")


def test_criterion_2_gradient_oracle():
    worst = 0.0
    for seed in (1, 2, 3, 4, 5):
        model = build_fixture("random", seed=seed)
        x = np.random.default_rng(1000 + seed).random((1, 16, 16))
        trace = forward(model, x)
        score = ScoreMode("raw-logit", int(np.argmax(trace.logits)))

        g = grad_wrt_layer(model, trace, score, "conv1")
        fd = finite_diff_layer_grad(model, trace, score, "conv1", h=1e-4)
        mask = np.abs(g) > 1e-6
        assert mask.any()
        worst = max(worst, float((np.abs(g - fd)[mask] / np.abs(g)[mask]).max()))

        gi = grad_wrt_input(model, x, score)
        fdi = finite_diff_input_grad(model, trace, score, h=1e-4)
        mask = np.abs(gi) > 1e-6
        assert mask.any()
        worst = max(worst, float((np.abs(gi - fdi)[mask] / np.abs(gi)[mask]).max()))
    _report(2, "reverse mode matches frozen-gate central differences on 5 fixtures",
            worst < 1e-3, f"max rel err {worst:.3e}")


def test_criterion_3_higher_order_consistency():
    model = build_fixture("random", seed=21)
    x = np.random.default_rng(210).random((1, 16, 16))
    trace = forward(model, x)
    c = int(np.argmax(trace.logits))
    g = grad_wrt_layer(model, trace, ScoreMode("raw-logit", c), "conv1")
    t = higher_order_triple(g, float(trace.logits[c]), "exp-logit")
    alg = max(float(np.max(np.abs(t.d2 - t.d1 * g))),
              float(np.max(np.abs(t.d3 - t.d1 * g * g))))
    fd = finite_diff_layer_grad(model, trace, ScoreMode("exp-logit", c), "conv1", h=1e-4)
    mask = np.abs(t.d1) > 1e-6
    rel = float((np.abs(t.d1 - fd)[mask] / np.abs(t.d1)[mask]).max())
    _report(3, "exp-logit triple: d2=d1*g, d3=d1*g^2 and d1 matches exp finite differences",
            alg <= 1e-10 and rel < 1e-3, f"algebra {alg:.3e}, fd rel {rel:.3e}")


def test_criterion_4_hand_worked_alpha_weight():
    triple = GradientTriple(np.full((1, 2, 2), 0.5), np.full((1, 2, 2), 0.25),
                            np.full((1, 2, 2), 0.1))
    alpha = compute_alpha(triple, np.ones((1, 2, 2)))
    weights = gradcampp_weights(alpha, triple.d1)
    err = max(float(np.max(np.abs(alpha - 5.0 / 9.0))), abs(float(weights[0]) - 10.0 / 9.0))
    _report(4, "worked example gives alpha=5/9 and W=10/9", err <= 1e-12, f"max err {err:.3e}")


def test_criterion_5_detector_localization():
    model = build_fixture("detector")
    ok = True
    details = []
    for quadrant, (rs, cs) in QUADRANTS.items():
        scene = detector_scene(quadrant)
        for method in ("gradcam", "gradcampp", "smooth-gradcampp"):
            smap = run(model, scene, SaliencyRequest(
                method=method, score=ScoreMode("exp-logit", 0), layer="conv1", seed=5))
            total = smap.display.sum()
            frac = float(smap.display[rs, cs].sum() / total) if total > 0 else 0.0
            r, c = np.unravel_index(int(np.argmax(smap.display)), smap.display.shape)
            inside = rs.start <= r < rs.stop and cs.start <= c < cs.stop
            if frac < 0.70 or not inside:
                ok = False
            details.append(f"{method}@{quadrant}:{frac:.3f}")
    _report(5, ">=70% of display mass and the argmax fall in the bright quadrant",
            ok, min(details, key=lambda s: float(s.rsplit(':', 1)[1])))


def test_criterion_6_smoothing_variance_law():
    model = build_fixture("random", seed=7)
    x = np.random.default_rng(123).random((1, 16, 16))

    def averaged_d1(n, master_seed):
        request = SaliencyRequest(method="smooth-gradcampp", score=ScoreMode("exp-logit", 0),
                                  layer="conv1", n=n, sigma_rel=0.1, seed=master_seed)
        triple, _ = smooth_triple(model, x, request)
        return triple.d1

    seeds = range(20)
    single = np.stack([averaged_d1(1, s) for s in seeds])
    averaged = np.stack([averaged_d1(16, s) for s in seeds])
    std_1 = single.std(axis=0).mean()
    std_16 = averaged.std(axis=0).mean()
    ratio = float(std_16 / std_1)
    _report(6, "std of averaged d1 at n=16 is ~1/4 of n=1 over 20 seeds",
            0.125 <= ratio <= 0.5, f"ratio {ratio:.3f}")


def test_criterion_7_selection_identities():
    model = build_fixture("random", seed=9)
    x = np.random.default_rng(900).random((1, 16, 16))
    score = ScoreMode("exp-logit", 2)
    base = run(model, x, SaliencyRequest(method="gradcampp", score=score,
                                         layer="conv1", seed=3))

    from smoothcam import NeuronSelection

    full_coords = tuple((r, c) for r in range(14) for c in range(14))
    full_sel = run(model, x, SaliencyRequest(
        method="gradcampp", score=score, layer="conv1", seed=3,
        neurons=NeuronSelection(coords=full_coords)))
    full_box = run(model, x, SaliencyRequest(
        method="gradcampp", score=score, layer="conv1", seed=3,
        neurons=NeuronSelection(box=(0, 0, 13, 13))))
    full_filters = run(model, x, SaliencyRequest(
        method="gradcampp", score=score, layer="conv1", seed=3, filters=tuple(range(4))))
    identity_err = max(
        float(np.max(np.abs(full_sel.display - base.display))),
        float(np.max(np.abs(full_box.display - base.display))),
        float(np.max(np.abs(full_filters.display - base.display))),
    )

    empty = run(model, x, SaliencyRequest(
        method="gradcampp", score=score, layer="conv1", seed=3,
        neurons=NeuronSelection(coords=())))
    empty_ok = bool(np.all(empty.raw == 0.0) and np.all(empty.display == 0.0))

    single = run(model, x, SaliencyRequest(
        method="gradcampp", score=score, layer="conv1", seed=3,
        neurons=NeuronSelection(coords=((3, 5),))))
    triple, A = smooth_triple(model, x, SaliencyRequest(
        method="smooth-gradcampp", score=score, layer="conv1", n=1, sigma_rel=0.0, seed=3))
    keep = np.zeros((14, 14))
    keep[3, 5] = 1.0
    masked = GradientTriple(triple.d1 * keep, triple.d2 * keep, triple.d3 * keep)
    raw = cam_map(gradcampp_weights(compute_alpha(masked, A * keep), masked.d1), A * keep)
    oracle_err = max(float(np.max(np.abs(single.raw - raw))),
                     float(np.max(np.abs(single.display - postprocess(raw, 16, 16)))))

    _report(7, "full selections are identities, empty is zero, single matches oracle",
            identity_err == 0.0 and empty_ok and oracle_err <= 1e-12,
            f"identity {identity_err:.1e}, oracle {oracle_err:.1e}")


def test_criterion_8_cli_end_to_end_determinism(tmp_path):
    manifest = tmp_path / "m.json"
    weights = tmp_path / "m.bin"
    save_model(build_fixture("random", seed=4), manifest, weights)
    image = _scene_ppm(tmp_path / "scene.ppm")
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        rc = run_cli(["explain", "--model", str(manifest), "--weights", str(weights),
                      "--image", image, "--method", "smooth-gradcampp", "--layer", "conv1",
                      "--samples", "25", "--sigma", "0.15", "--seed", "42",
                      "--out", str(out)])
        assert rc == 0
    same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in ("heatmap.ppm", "overlay.ppm", "map.csv"))
    _report(8, "identical CLI invocation + seed produces byte-identical outputs", same)


def test_criterion_9_format_goldens(tmp_path):
    cmap_ok = (colormap(0.0) == (0, 0, 128) and colormap(0.25) == (0, 128, 255)
               and colormap(0.5) == (128, 255, 128) and colormap(0.75) == (255, 128, 0)
               and colormap(1.0) == (128, 0, 0))

    pixels = bytes(np.random.default_rng(5).integers(0, 256, size=3 * 5 * 4, dtype=np.uint8))
    first = tmp_path / "img.ppm"
    write_ppm(RgbImage(width=5, height=4, pixels=pixels), first)
    second = tmp_path / "img2.ppm"
    write_ppm(read_ppm(first), second)
    ppm_ok = first.read_bytes() == second.read_bytes()

    model = build_fixture("random", seed=6)
    save_model(model, tmp_path / "m.json", tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.json", tmp_path / "m.bin")
    x = np.random.default_rng(60).random((1, 16, 16))
    model_ok = np.allclose(forward(model, x).logits, forward(loaded, x).logits,
                           rtol=1e-6, atol=1e-6)

    _report(9, "colormap bytes, PPM roundtrip, and model roundtrip goldens",
            cmap_ok and ppm_ok and bool(model_ok))


def test_criterion_10_performance_floor(tmp_path):
    manifest = tmp_path / "m.json"
    weights = tmp_path / "m.bin"
    save_model(build_fixture("random", seed=2), manifest, weights)
    image = _scene_ppm(tmp_path / "scene.ppm")
    start = time.perf_counter()
    rc = run_cli(["explain", "--model", str(manifest), "--weights", str(weights),
                  "--image", image, "--method", "smooth-gradcampp", "--layer", "conv1",
                  "--samples", "25", "--sigma", "0.15", "--seed", "0",
                  "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    _report(10, "explain with n=25 completes in under 5 s",
            rc == 0 and elapsed < 5.0, f"{elapsed:.2f} s")
