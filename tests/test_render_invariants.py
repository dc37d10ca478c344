"""Render invariants over small generated scenes.

Counters balance, culling accounts for every input Gaussian, pixels are
finite and non-negative, and the thread count changes no byte of the
image or the stats text, for every schedule and with renders spread over
one group or several, nor does the group size.  The hybrid schedules give the pure sweep's color,
T and stop bit for bit, and depth chunks at eps_t = 0 give the global
sweep's image within rounding.  The blend steps a traced render records
can be replayed back to front, as the backward pass does.  None of this
depends on the largest block side a render picks.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tile_kernel import brute_force_lists, picking, render_tiles
from tilesplat import forward
from tilesplat.forward import RenderConfig, render
from tilesplat.preprocess import bin_and_sort, preprocess
from tilesplat.synth import make_camera, random_scene

SMALL = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SIDE = st.sampled_from([forward.BLOCK, forward.BLOCK // 2])



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
    n=st.integers(0, 40),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 24), st.integers(4, 24)),
    z_tiles=st.integers(1, 3),
    hybrid=st.sampled_from(["off", "fixed_fraction", "occlusion_threshold"]),
    theta=st.sampled_from([0.05, 0.5]),
    eps_t=st.sampled_from([1e-4, 0.3]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_grouping_changes_no_output(seed, n, w, h, tile, z_tiles, hybrid, theta, eps_t, dtype):
    """A view's tile lists are one array, of which each tile group blends
    a slice while the counters are taken over the whole view.  The lists
    are the brute-force ones, and the image and the full stats text
    (counters, hybrid splits, occlusion) are the same whether the groups
    are as large as GROUP_MAX_PX allows or hold 1024 block pixels, on one
    thread or two."""
    scene, cam = scene_and_camera(seed, n, w, h)
    batch64, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch64, tile, (w, h))
    want = brute_force_lists(batch64, tile, (w, h))
    assert np.array_equal(binning.offsets, np.cumsum([0] + [len(lst) for lst in want]))
    assert np.array_equal(binning.order, np.concatenate(want))
    assert binning.order.dtype == binning.offsets.dtype == np.int64
    cfg = RenderConfig(
        tile_size=tile, z_tiles=z_tiles, hybrid=hybrid, occlusion_threshold=theta,
        eps_t=eps_t, background=(0.3, 0.0, 0.6), dtype=dtype, record_occlusion=True,
    )
    runs = []
    for group_px in (forward.GROUP_MAX_PX, 1024):
        for threads in (1, 2):
            with mock.patch.object(forward, "GROUP_MAX_PX", group_px):
                res = render(scene, cam, dataclasses.replace(cfg, threads=threads))
            runs.append((res.image.data.tobytes(), res.stats.to_text()))
    assert all(run == runs[0] for run in runs[1:])


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
    sides=st.tuples(SIDE, SIDE),
)
def test_hybrid_equals_pure(
    seed, n, w, h, tile, hybrid, fraction, theta, eps_t, dtype, sides
):
    """The pixel-centric tail changes no bit of color, T or stop, whatever
    block side either render blends."""
    scene, cam = scene_and_camera(seed, n, w, h)
    cfg = RenderConfig(tile_size=tile, eps_t=eps_t, dtype=dtype)
    with picking(sides[0]):
        pure = render(scene, cam, cfg, want_trace=True)
    batch64, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch64, tile, (w, h))
    hyb = dataclasses.replace(
        cfg, hybrid=hybrid, hybrid_fraction=fraction, occlusion_threshold=theta
    )
    rgb, T, stop, _ = render_tiles(batch64.astype(dtype), binning, hyb, sides[1])
    assert np.array_equal(rgb, pure.image.data)  # black background: the color itself
    assert np.array_equal(T, pure.trace.t_final)
    _, _, pure_stop, _ = render_tiles(batch64.astype(dtype), binning, cfg, sides[0])
    assert np.array_equal(stop, pure_stop)


@SMALL
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 60),
    w=st.integers(8, 64),
    h=st.integers(8, 64),
    tile=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    z_tiles=st.integers(2, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
    sides=st.tuples(SIDE, SIDE),
)
def test_chunked_equals_global(seed, n, w, h, tile, z_tiles, dtype, sides):
    """At eps_t = 0 the chunk merge is exact up to rounding (criterion 01's
    bound), whatever block side either render blends."""
    scene, cam = scene_and_camera(seed, n, w, h)
    rel, floor = (1e-5, 1e-7) if dtype == np.float32 else (1e-12, 1e-15)
    cfg = RenderConfig(tile_size=tile, eps_t=0.0, background=(0.1, 0.2, 0.3), dtype=dtype)
    with picking(sides[0]):
        a = render(scene, cam, cfg).image.data.astype(np.float64)
    with picking(sides[1]):
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
    side=SIDE,
)
def test_recorded_steps_replay_back_to_front(
    seed, n, w, h, tile, eps_t, dtype, group_px, side
):
    """What the backward relies on: each recorded step is a list of block
    rows, one view-wide entry and a positive pair count each, whose image
    pixels lie in one block of the entry's tile; no step repeats a pixel,
    and at every pixel the list positions of the entries it blended
    strictly increase from step to step.  The record reproduces T bit for
    bit and does not depend on the thread count, over blocks of either
    side and renders of one group or several."""
    scene, cam = scene_and_camera(seed, n, w, h)
    cfg = RenderConfig(tile_size=tile, eps_t=eps_t, dtype=dtype)
    with mock.patch.object(forward, "GROUP_MAX_PX", group_px), picking(side):
        traces = [
            render(scene, cam, dataclasses.replace(cfg, threads=t), want_trace=True).trace
            for t in (1, 2)
        ]
    tr = traces[0]
    assert len(tr.steps) == len(traces[1].steps)
    for step, step2 in zip(tr.steps, traces[1].steps):
        assert len(step) == len(step2) == 4
        assert all(np.array_equal(a, b) for a, b in zip(step, step2))
    tw, th = tile
    bw, bh = (forward._block_side(t, side) for t in tile)
    list_off = tr.binning.offsets
    T = np.ones(w * h, dtype=dtype)
    last = np.full(w * h, -1)
    for pixels, alpha, row_entry, row_count in tr.steps:
        assert pixels.dtype == row_entry.dtype == row_count.dtype == np.int32
        assert alpha.dtype == dtype
        assert len(row_entry) == len(row_count)
        assert np.all(row_count > 0) and row_count.sum() == len(pixels) == len(alpha)
        assert np.all((pixels >= 0) & (pixels < w * h))
        assert len(np.unique(pixels)) == len(pixels)
        entries = np.repeat(row_entry, row_count)
        assert np.all((entries >= 0) & (entries < list_off[-1]))
        tile_of = np.searchsorted(list_off, entries, side="right") - 1
        ty, tx = np.divmod(tile_of, tr.binning.nx)
        y, x = np.divmod(pixels, w)
        lx, ly = x - tx * tw, y - ty * th  # in the entry's tile
        assert np.all((lx >= 0) & (lx < tw) & (ly >= 0) & (ly < th))
        blk = ly // bh * tw + lx // bw
        first = np.cumsum(row_count) - row_count
        row = np.repeat(np.arange(len(row_count)), row_count)
        assert np.array_equal(blk, blk[first][row])  # one block per row
        pos = entries - list_off[tile_of]
        assert np.all(pos > last[pixels])
        last[pixels] = pos
        T[pixels] *= 1 - alpha
    assert np.array_equal(T.reshape(h, w), tr.t_final)
