"""Fast self-tests of the benchmark's checks: each must pass a right result
and reject a wrong one.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import bench
import fdcheck
import pngcodec
import reference

ts = bench.import_tilesplat()
synth = importlib.import_module("tilesplat.synth")


def _tiny_render_case(**cfg):
    rng = np.random.default_rng(5)
    cam = synth.orbit_camera(48, 40, 6.0, 5.0, 5.0)
    scene = synth.random_scene(rng, 60, synth.make_camera(48, 40), z_range=(3.0, 7.0))
    res = ts.render(scene, cam, ts.RenderConfig(tile_size=(16, 16), **cfg))
    params = {k: getattr(scene, k) for k in bench.PARAMS}
    camd = dict(world_to_cam=cam.world_to_cam, fx=cam.fx, fy=cam.fy, cx=cam.cx,
                cy=cam.cy, width=cam.width, height=cam.height, near=cam.near)
    return res, reference.project(params, camd), scene


@pytest.mark.parametrize(
    "cfg",
    [{}, {"z_tiles": 3, "hybrid": "occlusion_threshold", "background": (0.2, 0.5, 0.1)},
     {"dtype": np.float64, "eps_t": 0.0}],
)
def test_reference_agrees_with_render_and_rejects_a_perturbed_image(cfg):
    res, splats, scene = _tiny_render_case(**cfg)
    c = ts.RenderConfig(**cfg)
    u = 2.0 ** -(np.finfo(np.dtype(c.dtype)).nmant + 1)
    yy, xx = np.mgrid[0:40, 0:48]
    px, py = xx.ravel(), yy.ravel()
    assert splats["n_culled"] + res.stats.n_splats == scene.n
    bad, _, _ = reference.check_view(res.image.data, splats, px, py, c.background, c.eps_t, u)
    assert len(bad) == 0
    off = res.image.data + 2e-3
    bad, _, _ = reference.check_view(off, splats, px, py, c.background, c.eps_t, u)
    assert len(bad) == len(px)
    one = res.image.data.copy()
    one[20, 30, 1] -= 2e-3
    bad, _, _ = reference.check_view(one, splats, px, py, c.background, c.eps_t, u)
    assert list(bad) == [20 * 48 + 30]


def test_gradient_check_accepts_train_step_and_rejects_a_scaled_gradient():
    rng = np.random.default_rng(3)
    base = synth.make_camera(32, 32)
    target = synth.random_scene(rng, 25, base, degree=1, margin=0.25)
    scene = target.copy()
    scene.means = scene.means + rng.normal(scale=0.03, size=scene.means.shape)
    cfg = ts.TrainConfig()
    views = []
    for angle in (-8.0, 8.0):
        cam = synth.orbit_camera(32, 32, angle, 6.0, 6.0)
        views.append((cam, ts.render(target, cam, cfg.render_config()).image))
    first, grads = bench.first_step_gradient(ts, scene, views, cfg)
    loss = bench.l1_loss(ts, views, cfg)
    params = {k: getattr(scene, k).copy() for k in bench.PARAMS}
    assert loss(params) == pytest.approx(first.loss, rel=1e-12)
    pairs = fdcheck.directional_checks(loss, params, grads, np.random.default_rng(1))
    assert len(pairs) == 3
    assert all(fdcheck.agrees(a, f, bench.FD_RTOL) for a, f in pairs)
    scaled = {k: 1.01 * g for k, g in grads.items()}
    pairs = fdcheck.directional_checks(loss, params, scaled, np.random.default_rng(1))
    assert pairs and not any(fdcheck.agrees(a, f, bench.FD_RTOL) for a, f in pairs)


def _all_filter_image() -> np.ndarray:
    """Rows that the minimum-sum rule files under None, None, Up, Average,
    Sub and then Paeth."""
    rng = np.random.default_rng(0)
    w = 12
    noise = rng.integers(0, 256, (w, 3))
    avg = np.zeros((w, 3), int)
    left = np.zeros(3, int)
    for i in range(w):
        avg[i] = left = (left + noise[i]) // 2
    ramp = np.tile(np.arange(w)[:, None] * 9 + 40, (1, 3))
    yy, xx = np.mgrid[0:3, 0:w]
    plane = (30 + 5 * xx + 7 * yy)[..., None].repeat(3, 2)
    rows = [np.zeros((1, w, 3)), noise[None], noise[None], avg[None], ramp[None], plane]
    return np.concatenate(rows).astype(np.uint8)


def _min_sum_filter(rows_u8: np.ndarray) -> list[int]:
    """The row filter rule written out per row, for comparison."""
    h = rows_u8.shape[0]
    x = rows_u8.reshape(h, -1).astype(int)
    kinds = []
    for y in range(h):
        up = x[y - 1] if y else np.zeros_like(x[y])
        costs = []
        for k in range(5):
            out = []
            for i, v in enumerate(x[y]):
                a = x[y, i - 3] if i >= 3 else 0
                b = up[i]
                c = up[i - 3] if i >= 3 else 0
                p = a + b - c
                pred = [0, a, b, (a + b) // 2,
                        a if abs(p - a) <= abs(p - b) and abs(p - a) <= abs(p - c)
                        else (b if abs(p - b) <= abs(p - c) else c)][k]
                r = (v - pred) % 256
                out.append(r if r < 128 else 256 - r)
            costs.append(sum(out))
        kinds.append(costs.index(min(costs)))
    return kinds


@pytest.mark.parametrize("seed", [0, 1])
def test_png_encoder_round_trips_through_own_decoder_and_tilesplat(seed):
    img = _all_filter_image() if seed == 0 else (
        np.random.default_rng(seed).integers(0, 256, (9, 7, 3)).astype(np.uint8))
    data, kinds = pngcodec.encode(img)
    assert list(kinds) == _min_sum_filter(img)
    if seed == 0:
        assert sorted(set(kinds.tolist())) == [0, 1, 2, 3, 4]
    assert np.array_equal(pngcodec.decode(data), img)
    got = ts.sceneio.image_from_png_bytes(data).data
    assert np.array_equal(got, img / 255.0)


def _names(section):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(bench.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _names("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
