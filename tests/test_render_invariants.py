"""Render invariants over small generated scenes.

Counters balance, culling accounts for every input Gaussian, pixels are
finite and non-negative, and the thread count changes no byte of the
image or the stats text, for every schedule and with renders spread over
one group or several.  The hybrid schedules give the pure sweep's color,
T and stop bit for bit, and depth chunks at eps_t = 0 give the global
sweep's image within rounding.  The blend steps a traced render records
can be replayed back to front, as the backward pass does.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tile_kernel import render_tiles
from tilesplat import forward
from tilesplat.forward import RenderConfig, render
from tilesplat.preprocess import bin_and_sort, preprocess
from tilesplat.synth import make_camera, random_scene

SMALL = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def scene_and_camera(seed: int, n: int, w: int, h: int):
    cam = make_camera(w, h, focal=float(max(w, h)))
    rng = np.random.default_rng(seed)
    return random_scene(rng, n, cam, px_sigma=(0.5, 8.0), logit_range=(-3.0, 6.0)), cam


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 40),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    z_tiles=st.integers(1, 3),
    hybrid=st.sampled_from(["off", "fixed_fraction", "occlusion_threshold"]),
    eps_t=st.sampled_from([0.0, 1e-4, 0.5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    group_px=st.sampled_from([forward.GROUP_MAX_PX, 1, 500]),
)
def test_render_invariants(seed, n, w, h, tile, z_tiles, hybrid, eps_t, dtype, group_px):
    rng = np.random.default_rng(seed)
    cam = make_camera(w, h, focal=float(max(w, h)))
    # a negative margin scatters some splats off screen
    scene = random_scene(rng, n, cam, px_sigma=(0.5, 8.0), margin=-1.0)
    behind = rng.uniform(size=n) < 0.2
    scene.means[behind, 2] *= -1.0  # behind the camera: culled as too near
    cfg = RenderConfig(
        tile_size=tile, z_tiles=z_tiles, hybrid=hybrid, eps_t=eps_t,
        background=(0.3, 0.0, 0.6), dtype=dtype,
    )
    with mock.patch.object(forward, "GROUP_MAX_PX", group_px):
        runs = [render(scene, cam, dataclasses.replace(cfg, threads=t)) for t in (1, 2, 4)]

    stats = runs[0].stats
    c = stats.counters
    assert c.performed + c.skipped == c.candidates
    culled = stats.culled_near + stats.culled_degenerate + stats.culled_offscreen
    assert culled + stats.n_splats == stats.n_input == n
    img = runs[0].image.data
    assert np.all(np.isfinite(img)) and np.all(img >= 0)
    for res in runs[1:]:
        assert res.image.data.tobytes() == img.tobytes()
        assert res.stats.to_text() == stats.to_text()


@SMALL
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    hybrid=st.sampled_from(["fixed_fraction", "occlusion_threshold"]),
    fraction=st.sampled_from([0.1, 0.5, 0.9]),
    theta=st.sampled_from([0.05, 0.5, 0.9]),
    eps_t=st.sampled_from([0.0, 1e-4, 0.5]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_hybrid_equals_pure(seed, n, w, h, tile, hybrid, fraction, theta, eps_t, dtype):
    """The pixel-centric tail changes no bit of color, T or stop."""
    scene, cam = scene_and_camera(seed, n, w, h)
    cfg = RenderConfig(tile_size=tile, eps_t=eps_t, dtype=dtype)
    pure = render(scene, cam, cfg, want_trace=True)
    batch64, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch64, tile, (w, h))
    hyb = dataclasses.replace(
        cfg, hybrid=hybrid, hybrid_fraction=fraction, occlusion_threshold=theta
    )
    rgb, T, stop, _ = render_tiles(batch64.astype(dtype), binning, hyb)
    assert np.array_equal(rgb, pure.image.data)  # black background: the color itself
    assert np.array_equal(T, pure.trace.t_final)
    assert np.array_equal(stop, pure.trace.stop)


@SMALL
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 60),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    z_tiles=st.integers(2, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_chunked_equals_global(seed, n, w, h, tile, z_tiles, dtype):
    """At eps_t = 0 the chunk merge is exact up to rounding (criterion 01's bound)."""
    scene, cam = scene_and_camera(seed, n, w, h)
    rel, floor = (1e-5, 1e-7) if dtype == np.float32 else (1e-12, 1e-15)
    cfg = RenderConfig(tile_size=tile, eps_t=0.0, background=(0.1, 0.2, 0.3), dtype=dtype)
    a = render(scene, cam, cfg).image.data.astype(np.float64)
    b = render(scene, cam, dataclasses.replace(cfg, z_tiles=z_tiles)).image.data
    b = b.astype(np.float64)
    assert np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor)


@SMALL
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 40),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    eps_t=st.sampled_from([0.0, 1e-4, 0.5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    group_px=st.sampled_from([forward.GROUP_MAX_PX, 1, 500]),
)
def test_recorded_steps_replay_back_to_front(seed, n, w, h, tile, eps_t, dtype, group_px):
    """What the backward relies on: no recorded step repeats a pixel, and at
    every pixel the list positions of the entries it blended strictly
    increase from step to step.  The record reproduces T bit for bit and
    does not depend on the thread count."""
    scene, cam = scene_and_camera(seed, n, w, h)
    cfg = RenderConfig(tile_size=tile, eps_t=eps_t, dtype=dtype)
    with mock.patch.object(forward, "GROUP_MAX_PX", group_px):
        traces = [
            render(scene, cam, dataclasses.replace(cfg, threads=t), want_trace=True).trace
            for t in (1, 2)
        ]
    tr = traces[0]
    for (tiles, grp, steps), (tiles2, _, steps2) in zip(tr.groups, traces[1].groups):
        assert tiles == tiles2 and len(steps) == len(steps2)
        for step, step2 in zip(steps, steps2):
            assert all(np.array_equal(a, b) for a, b in zip(step, step2))
        T = np.ones(grp.valid.size, dtype=dtype)
        T[~grp.valid.reshape(-1)] = 0
        last = np.full(grp.valid.size, -1)
        for pixels, alpha, entries in steps:
            assert pixels.dtype == entries.dtype == np.int32 and alpha.dtype == dtype
            assert len(np.unique(pixels)) == len(pixels)
            tile = np.searchsorted(grp.entry_off, entries, side="right") - 1
            pos = entries - grp.entry_off[tile]
            assert np.all(pos > last[pixels])
            last[pixels] = pos
            T[pixels] *= 1 - alpha
        got = tr.t_final.copy()
        got[:] = np.nan  # every pixel of the group's tiles is written
        grp.paste(T.reshape(grp.valid.shape), got)
        for x0, y0, x1, y1 in grp.rects:
            assert np.array_equal(got[y0:y1, x0:x1], tr.t_final[y0:y1, x0:x1])
