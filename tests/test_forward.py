"""Forward blending: alpha kernel, compositing, z-chunks, hybrid schedules."""

import copy
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesplat import forward
from tilesplat.execmodel import EvalCounters
from tilesplat.forward import (
    ALPHA_MIN,
    RenderConfig,
    _chunk_bounds,
    _merge_partial,
    clip_windows,
    composite_background,
    render,
    splat_alpha,
)
from tilesplat.preprocess import SplatBatch, TileBinning
from tilesplat.synth import make_camera, opaque_foreground_scene, random_scene

from forward_oracle import occlusion_switch
from tile_kernel import (
    blend_tile_span, fresh_state, one_tile, picking, render_tiles, spying_groups, tile_lists,
    view_table,
)


def hand_batch(splats, dtype=np.float64, image=(8, 8)) -> SplatBatch:
    """Build a SplatBatch directly from (mean2, conic, depth, rgb, opacity)."""
    w, h = image
    m = len(splats)
    conic = np.array([s["conic"] for s in splats], dtype=np.float64)
    # cov2 as the exact inverse of each conic
    det = conic[:, 0] * conic[:, 2] - conic[:, 1] ** 2
    cov2 = np.stack([conic[:, 2], -conic[:, 1], conic[:, 0]], axis=1) / det[:, None]
    return SplatBatch(
        mean2=np.array([s["mean2"] for s in splats], dtype=dtype),
        cov2=cov2.astype(dtype),
        conic=conic.astype(dtype),
        depth=np.array([s["depth"] for s in splats], dtype=dtype),
        rgb=np.array([s["rgb"] for s in splats], dtype=dtype),
        rgb_clamped=np.zeros((m, 3), dtype=bool),
        opacity=np.array([s["opacity"] for s in splats], dtype=dtype),
        aabb=np.tile([0, 0, w, h], (m, 1)).astype(np.int64),
        gaussian_index=np.arange(m, dtype=np.int64),
    )


def rect_alpha(batch: SplatBatch, idx, x0: int, x1: int, y0: int, y1: int):
    """``splat_alpha`` of splats ``idx`` (a slice or index array) over a pixel rectangle.

    Centres are (1, 1, w) and (1, h, 1) in the batch dtype, so the
    result is (g, h, w) alpha.
    """
    dt = batch.mean2.dtype.type
    xc = (np.arange(x0, x1).astype(dt) + dt(0.5))[None, None, :]
    yc = (np.arange(y0, y1).astype(dt) + dt(0.5))[None, :, None]
    return splat_alpha(xc, yc, batch.mean2[idx], batch.conic[idx], batch.opacity[idx])


def test_splat_alpha_values():
    batch = hand_batch(
        [dict(mean2=(2.5, 2.5), conic=(1.0, 0.0, 1.0), depth=1, rgb=(1, 1, 1), opacity=0.8)]
    )
    alpha = rect_alpha(batch, slice(0, 1), 2, 4, 2, 4)  # pixels x, y in {2, 3}
    assert alpha[0, 0, 0] == pytest.approx(0.8)  # at the mean
    assert alpha[0, 0, 1] == pytest.approx(0.8 * np.exp(-0.5))  # q = 1
    assert alpha[0, 1, 1] == pytest.approx(0.8 * np.exp(-1.0))  # q = 2


def test_splat_alpha_clamps_and_dtype():
    batch = hand_batch(
        [dict(mean2=(1.5, 1.5), conic=(0.5, 0, 0.5), depth=1, rgb=(1, 0, 0), opacity=0.99)],
        dtype=np.float32,
    )
    alpha = rect_alpha(batch, slice(0, 1), 0, 4, 0, 4)
    assert alpha.dtype == np.float32
    assert alpha.max() <= np.float32(0.99)
    assert alpha.shape == (1, 4, 4)


def test_splat_alpha_batched_matches_single_windows():
    rng = np.random.default_rng(3)
    cam = make_camera(32, 32)
    from tilesplat.preprocess import preprocess

    batch = preprocess(random_scene(rng, 12, cam), cam)[0].astype(np.float32)
    idx = np.arange(batch.n)
    alpha = rect_alpha(batch, idx, 3, 30, 5, 27)
    assert alpha.shape == (batch.n, 22, 27)
    for i in idx:
        sub = rect_alpha(batch, slice(i, i + 1), 10, 17, 8, 20)  # a window in the slab
        assert np.array_equal(sub[0], alpha[i, 3:15, 7:14])
    # the block kernel's layout: (g, P) pixel centres, one row per splat
    xs, ys = (np.arange(lo, hi, dtype=np.float32) + np.float32(0.5) for lo, hi in ((3, 30), (5, 27)))
    xc, yc = np.meshgrid(xs, ys)
    centres = [np.tile(v.reshape(1, -1), (batch.n, 1)) for v in (xc, yc)]
    flat = splat_alpha(*centres, batch.mean2, batch.conic, batch.opacity)
    assert np.array_equal(flat.reshape(alpha.shape), alpha)


def blend(batch, order, rect, eps_t, *, carry=None):
    """Fresh (or copied) state with order blended into it."""
    x0, y0, x1, y1 = rect
    if carry is None:
        state = fresh_state(y1 - y0, x1 - x0, batch.mean2.dtype, len(order))
    else:
        state = copy.deepcopy(carry)
    blend_tile_span(state, batch, order, rect, 0, len(order), eps_t)
    return state


def until_of(state, m, eps_t, carry=None):
    """Each pixel's until: stop if it terminated, m if not, 0 if dead on arrival."""
    until = np.where(state.T < eps_t, state.stop, m)
    if carry is not None:
        until[carry.T < eps_t] = 0
    return until


def count(batch, order, rect, split, until):
    """``forward._count`` of one tile ``rect`` at the image origin listing ``order``.

    ``until`` (``until_of``) is the tile's image of stops: a pixel dead
    before the list has stop 0.
    """
    table = one_tile(batch, order, rect, rect[2])
    cfg = RenderConfig(hybrid="fixed_fraction")
    return forward._count(table, cfg, np.array([split]), until.astype(np.int32))


def per_entry_count(win, area, offsets, split, stop) -> EvalCounters:
    """The hybrid rule entry by entry: from its tile's ``split`` on, an entry
    at list position p skips the window pixels whose ``stop`` is at most p."""
    want = EvalCounters(candidates=int(area.sum()))
    for t in range(len(offsets) - 1):
        for p, e in enumerate(range(offsets[t], offsets[t + 1])):
            x0, y0, x1, y1 = win[e]
            live = p < split[t] or not area[e]
            dead = 0 if live else int(np.count_nonzero(stop[y0:y1, x0:x1] <= p))
            want.performed += int(area[e]) - dead
            want.skipped += dead
    return want


def count_table(win, area, offsets, rects, tile_size):
    """What ``forward._count`` reads of a ``SplatTable``."""
    return SimpleNamespace(win=win, area=area, offsets=offsets, rects=rects, tile_size=tile_size)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    tile=st.tuples(st.integers(1, 48), st.integers(1, 48)),
)
def test_count_matches_a_per_entry_count(seed, size, tile):
    """``forward._count`` over a whole view equals the rule applied entry by
    entry: tiles clipped at the image edge and larger than the image, empty
    windows, stops at 0 and at the list end, splits from 0 to the list end,
    tiles all live or all dead at their split, several death positions per
    tile, and one tile among many with a long list and many ranks."""
    (w, h), (tw, th) = size, tile
    rng = np.random.default_rng(seed)
    nx, ny = -(-w // tw), -(-h // th)
    m = rng.choice([0, 1, 2, 5, 9], size=nx * ny)
    m[rng.integers(nx * ny)] = 40
    offsets = np.concatenate(([0], np.cumsum(m)))
    binning = TileBinning(tw, th, nx, ny, w, h, np.zeros(offsets[-1], np.int64), offsets)
    rects = binning.rects()
    etile = np.repeat(np.arange(nx * ny), m)
    start = rng.integers(rects[etile, :2] - 3, rects[etile, 2:] + 2)
    boxes = np.hstack((start, start + rng.integers(0, [tw + 4, th + 4], size=start.shape)))
    win, area = clip_windows(boxes, rects[etile])
    split = rng.integers(0, m + 1)
    lo, hi = np.sort(rng.integers(0, m + 1, size=(2, len(m))), axis=0)  # each tile's stops
    stop = forward._stop_image(binning)
    for t, (x0, y0, x1, y1) in enumerate(rects):
        stop[y0:y1, x0:x1] = rng.integers(lo[t], hi[t] + 1, size=(y1 - y0, x1 - x0))
    table = count_table(win, area, offsets, rects, forward._tile_extent(binning))
    got = forward._count(table, RenderConfig(hybrid="occlusion_threshold"), split, stop)
    assert got == per_entry_count(win, area, offsets, split, stop)


def test_count_matches_per_entry_count_on_long_lists():
    """Long lists on a 64x64 tile away from the origin span several ranks;
    pixels die in and between them, and some were dead before the list."""
    rng = np.random.default_rng(4)
    rect = (64, 128, 128, 192)
    for n in (1, 17, 150):
        x0 = rng.integers(40, 140, size=n)
        y0 = rng.integers(100, 210, size=n)
        boxes = np.stack([x0, y0, x0 + rng.integers(1, 40, size=n),
                          y0 + rng.integers(1, 40, size=n)], axis=1)
        win, area = clip_windows(boxes, rect)
        stop = np.full((192, 128), n, np.int32)  # other tiles: never dead
        stop[128:, 64:] = rng.integers(0, n + 1, size=(64, 64))
        table = count_table(win, area, np.array([0, n]), np.array([rect]), (64, 64))
        for split in (0, n // 3, n):
            cfg = RenderConfig(hybrid="fixed_fraction")
            got = forward._count(table, cfg, np.array([split]), stop)
            assert got == per_entry_count(win, area, [0, n], [split], stop)


def test_chunk_bounds_partition():
    assert _chunk_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert _chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert _chunk_bounds(3, 8)[-1] == (0, 3)  # K > m: empty leading chunks
    bounds = _chunk_bounds(3, 8)
    assert bounds[0] == (0, 0) and bounds[-1][1] == 3


def test_two_splat_compositing_hand_unrolled():
    batch = hand_batch(
        [
            dict(mean2=(2.5, 2.5), conic=(0.5, 0, 0.5), depth=1.0,
                 rgb=(1.0, 0.0, 0.25), opacity=0.6),
            dict(mean2=(2.5, 2.5), conic=(0.25, 0, 0.25), depth=2.0,
                 rgb=(0.0, 1.0, 0.5), opacity=0.9),
        ]
    )
    order = np.array([0, 1])
    state = blend(batch, order, (0, 0, 8, 8), eps_t=0.0)
    bg = np.array([0.2, 0.3, 0.4])
    img = composite_background(state, bg)

    # pixel at both means: straight front-to-back arithmetic
    aA, aB = 0.6, 0.9
    want = aA * np.array([1.0, 0.0, 0.25]) + (1 - aA) * aB * np.array([0.0, 1.0, 0.5])
    want = want + (1 - aA) * (1 - aB) * bg
    np.testing.assert_allclose(img[2, 2], want, rtol=1e-12)
    assert state.T[2, 2] == pytest.approx((1 - aA) * (1 - aB), rel=1e-12)
    assert state.stop[2, 2] == 2  # eps_t = 0: nothing terminates

    # off-center pixel: same identity with the gaussian falloff applied
    aA = 0.6 * np.exp(-0.5 * (0.5 * 2.0))  # dx = dy = 1
    aB = 0.9 * np.exp(-0.5 * (0.25 * 2.0))
    want = aA * np.array([1.0, 0.0, 0.25]) + (1 - aA) * aB * np.array([0.0, 1.0, 0.5])
    want = want + (1 - aA) * (1 - aB) * bg
    np.testing.assert_allclose(img[3, 3], want, rtol=1e-12)


def test_below_threshold_alpha_does_not_blend():
    batch = hand_batch(
        [dict(mean2=(2.5, 2.5), conic=(1, 0, 1), depth=1, rgb=(1, 1, 1),
              opacity=ALPHA_MIN * 0.5)]
    )
    state = blend(batch, np.array([0]), (0, 0, 8, 8), eps_t=0.0)
    assert np.all(state.rgb == 0)
    assert np.all(state.T == 1)
    assert np.all(state.stop == 1)


def test_termination_stop_positions():
    splats = [
        dict(mean2=(1.5, 1.5), conic=(2.0, 0, 2.0), depth=float(k + 1),
             rgb=(1, 1, 1), opacity=0.99)
        for k in range(3)
    ]
    batch = hand_batch(splats, image=(4, 4))
    state = blend(batch, np.arange(3), (0, 0, 4, 4), eps_t=0.05)
    counters = count(batch, np.arange(3), (0, 0, 4, 4), 3, until_of(state, 3, 0.05))
    # the center pixel saturates on the first splat: T = 0.01 < 0.05
    assert state.stop[1, 1] == 1
    assert state.T[1, 1] == pytest.approx(0.01)  # only that splat blended
    np.testing.assert_allclose(state.rgb[:, 1, 1], 0.99)
    # gaussian-centric traversal still evaluates every candidate
    assert counters.performed == counters.candidates == 3 * 16


def test_pixel_centric_skips_terminated():
    splats = [
        dict(mean2=(1.5, 1.5), conic=(2.0, 0, 2.0), depth=float(k + 1),
             rgb=(1, 1, 1), opacity=0.99)
        for k in range(3)
    ]
    batch = hand_batch(splats, image=(4, 4))
    order = np.arange(3)
    rect = (0, 0, 4, 4)
    ref = blend(batch, order, rect, eps_t=0.05)
    counters = count(batch, order, rect, 0, until_of(ref, 3, 0.05))
    # the center pixel ends on splat 0, so splats 1 and 2 skip it
    assert ref.stop[1, 1] == 1
    assert counters.skipped >= 2
    assert counters.performed + counters.skipped == counters.candidates


def test_pixel_centric_saturated_carry_performs_nothing():
    batch = hand_batch(
        [dict(mean2=(1.5, 1.5), conic=(1, 0, 1), depth=1, rgb=(1, 1, 1), opacity=0.9)],
        image=(4, 4),
    )
    carry = fresh_state(4, 4, np.float64, 1)
    carry.T[:] = 0.5e-4  # every pixel already below eps_t
    out = blend(batch, np.arange(1), (0, 0, 4, 4), 1e-4, carry=carry)
    counters = count(batch, np.arange(1), (0, 0, 4, 4), 0, until_of(out, 1, 1e-4, carry))
    assert counters.performed == 0
    assert counters.skipped == counters.candidates == 16
    np.testing.assert_array_equal(out.rgb, carry.rgb)
    np.testing.assert_array_equal(out.T, carry.T)
    np.testing.assert_array_equal(out.stop, carry.stop)


def test_theta_switch_waits_for_an_entry_that_reaches_the_tile():
    splats = [
        dict(mean2=(1.5, 1.5), conic=(1.0, 0, 1.0), depth=float(k + 1),
             rgb=(1, 1, 1), opacity=0.5)
        for k in range(3)
    ]
    batch = hand_batch(splats, image=(4, 4))
    batch.aabb[0] = (8, 8, 12, 12)  # misses the tile
    carry = fresh_state(4, 4, np.float64, 3)
    carry.T[:2] = 0.5e-4  # half the tile already below eps_t, past theta
    state = blend(batch, np.arange(3), (0, 0, 4, 4), 1e-4, carry=carry)
    until = until_of(state, 3, 1e-4, carry)
    win, area = clip_windows(batch.aabb[:3], (0, 0, 4, 4))
    switch = occlusion_switch(area, until, 0.25)
    assert switch == 2  # after splat 1, the first one with pixels here
    counters = count(batch, np.arange(3), (0, 0, 4, 4), switch, until)
    assert counters.candidates == 32
    assert counters.performed == 16 + 8 and counters.skipped == 8


def test_pixel_at_exactly_eps_t_is_still_live():
    batch = hand_batch(
        [dict(mean2=(1.5, 1.5), conic=(1, 0, 1), depth=1, rgb=(1, 1, 1), opacity=0.5)],
        image=(4, 4),
    )
    carry = fresh_state(4, 4, np.float64, 1)
    carry.T[:] = 0.25  # not below eps_t, so not terminated
    out = blend(batch, np.arange(1), (0, 0, 4, 4), 0.25, carry=carry)
    alpha = rect_alpha(batch, slice(0, 1), 0, 4, 0, 4)[0]  # above 1/255 on the whole tile
    np.testing.assert_allclose(out.rgb, np.broadcast_to(0.25 * alpha, (3, 4, 4)))
    np.testing.assert_allclose(out.T, 0.25 * (1 - alpha))
    assert np.all(out.T < 0.25) and np.all(out.stop == 1)


def test_single_chunk_merge_is_bitwise_global():
    rng = np.random.default_rng(0)
    cam = make_camera(32, 32)
    scene = random_scene(rng, 40, cam)
    from tilesplat.preprocess import bin_and_sort, preprocess

    batch64, _ = preprocess(scene, cam)
    batch = batch64.astype(np.float32)
    binning = bin_and_sort(batch64, (32, 32), (32, 32))
    order = binning.order  # the only tile's list
    rect = (0, 0, 32, 32)
    ref = blend(batch, order, rect, eps_t=1e-4)
    part = blend(batch, order, rect, eps_t=0.0)
    merged = fresh_state(32, 32, np.float32, len(order))
    _merge_partial(merged, part, 1e-4, len(order))
    np.testing.assert_array_equal(ref.rgb, merged.rgb)
    np.testing.assert_array_equal(ref.T, merged.T)
    np.testing.assert_array_equal(ref.stop, merged.stop)


@pytest.mark.parametrize("K", [2, 3, 4, 8])
def test_ztile_merge_equals_global_eps0(K):
    rng = np.random.default_rng(K)
    cam = make_camera(64, 64)
    scene = random_scene(rng, 96, cam)
    base = dict(tile_size=(32, 32), eps_t=0.0, background=(0.1, 0.2, 0.3))
    a = render(scene, cam, RenderConfig(**base, dtype=np.float64, z_tiles=1))
    b = render(scene, cam, RenderConfig(**base, dtype=np.float64, z_tiles=K))
    assert float(np.abs(a.image.data - b.image.data).max()) <= 1e-12

    a32 = render(scene, cam, RenderConfig(**base, dtype=np.float32, z_tiles=1))
    b32 = render(scene, cam, RenderConfig(**base, dtype=np.float32, z_tiles=K))
    x, y = a32.image.data, b32.image.data
    assert np.all(np.abs(x - y) <= 1e-5 * np.maximum(np.abs(x), np.abs(y)) + 1e-7)


def test_hybrid_modes_bit_identical():
    rng = np.random.default_rng(5)
    cam = make_camera(96, 96)
    scene = opaque_foreground_scene(rng, cam)
    base = dict(tile_size=(32, 32), eps_t=1e-4)
    pure = render(scene, cam, RenderConfig(**base))
    for mode, extra in (
        ("fixed_fraction", dict(hybrid_fraction=0.25)),
        ("occlusion_threshold", dict(occlusion_threshold=0.9)),
    ):
        hyb = render(scene, cam, RenderConfig(**base, hybrid=mode, **extra))
        assert np.array_equal(pure.image.data, hyb.image.data), mode
        assert hyb.stats.hybrid_splits is not None
        assert hyb.stats.counters.performed < pure.stats.counters.performed
        assert hyb.stats.counters.candidates == pure.stats.counters.candidates


def test_count_writes_neither_splits_nor_stops():
    """At K = 1 the occlusion-threshold hybrid's splits come from
    ``_blend_group``; ``_count`` reads them and the stops, and writes
    neither."""
    from tilesplat import forward
    from tilesplat.preprocess import bin_and_sort, preprocess

    rng = np.random.default_rng(5)
    cam = make_camera(96, 64)
    scene = opaque_foreground_scene(rng, cam)
    cfg = RenderConfig(tile_size=(32, 32), hybrid="occlusion_threshold", occlusion_threshold=0.5)
    res = render(scene, cam, cfg)
    batch = preprocess(scene, cam)[0].astype(np.float32)
    binning = bin_and_sort(batch, cfg.tile_size, (96, 64))
    _, _, stop, tiles = render_tiles(batch, binning, cfg)
    split = np.array([s for _, s, _ in tiles])
    assert split.tolist() == res.stats.hybrid_splits
    assert np.any(split < np.diff(binning.offsets))  # some tile turned before its end
    padded = forward._stop_image(binning)
    padded[:64, :96] = stop
    split.setflags(write=False)
    padded.setflags(write=False)
    assert forward._count(view_table(batch, binning), cfg, split, padded) == res.stats.counters


def test_hybrid_split_position_fixed_fraction():
    rng = np.random.default_rng(6)
    cam = make_camera(32, 32)
    scene = random_scene(rng, 50, cam)
    res = render(
        scene, cam,
        RenderConfig(tile_size=(32, 32), hybrid="fixed_fraction", hybrid_fraction=0.25),
    )
    m = res.stats.invocations  # the only tile's list length
    assert res.stats.hybrid_splits[0] == int(np.ceil(0.75 * m))


def test_empty_scene_renders_background():
    cam = make_camera(16, 16, focal=10.0)
    # single gaussian behind the camera: everything culls
    from tilesplat.model import GaussianScene

    scene = GaussianScene(
        means=np.array([[0.0, 0.0, -5.0]]),
        log_scales=np.zeros((1, 3)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        opacity_logits=np.zeros(1),
        sh=np.zeros((1, 1, 3)),
    )
    res = render(scene, cam, RenderConfig(background=(0.25, 0.5, 0.75)))
    want = np.broadcast_to([0.25, 0.5, 0.75], (16, 16, 3)).astype(np.float32)
    np.testing.assert_array_equal(res.image.data, want)
    assert res.stats.n_splats == 0


def test_trace_contents():
    rng = np.random.default_rng(7)
    cam = make_camera(32, 32)
    scene = random_scene(rng, 20, cam)
    cfg = RenderConfig(tile_size=(16, 16), eps_t=0.0, dtype=np.float64)
    res = render(scene, cam, cfg, want_trace=True)
    tr = res.trace
    assert tr is not None
    assert tr.t_final.shape == (32, 32)
    # with eps_t = 0 nothing terminates: stop equals each tile's list length
    _, _, stop, _ = render_tiles(tr.batch, tr.binning, cfg)
    for order, (x0, y0, x1, y1) in zip(tile_lists(tr.binning), tr.binning.rects()):
        assert np.all(stop[y0:y1, x0:x1] == len(order))
    assert np.all(tr.t_final > 0) and np.all(tr.t_final <= 1)


def test_trace_requires_plain_schedule():
    rng = np.random.default_rng(8)
    cam = make_camera(16, 16)
    scene = random_scene(rng, 4, cam)
    with pytest.raises(ValueError, match="trac"):
        render(scene, cam, RenderConfig(z_tiles=2), want_trace=True)
    with pytest.raises(ValueError, match="trac"):
        render(scene, cam, RenderConfig(hybrid="fixed_fraction"), want_trace=True)


def test_config_validation():
    bad = [
        dict(tile_size=(0, 16)),
        dict(z_tiles=0),
        dict(eps_t=-1.0),
        dict(eps_t=1.5),
        dict(eps_t=float("nan")),
        dict(hybrid="maybe"),
        dict(hybrid_fraction=0.0),
        dict(occlusion_threshold=1.0),
        dict(dtype=np.int32),
        dict(background=(0.1, 0.2)),
        dict(background=(-0.1, 0.2, 0.3)),
        dict(threads=0),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            RenderConfig(**kw).validate()


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(z_tiles=2.5), "z_tiles"),
        (dict(z_tiles=True), "z_tiles"),
        (dict(z_tiles=np.float64(2.0)), "z_tiles"),
        (dict(tile_size=(16.5, 16)), "tile_size"),
        (dict(tile_size=(16, np.float32(16))), "tile_size"),
        (dict(tile_size=(16,)), "tile_size"),
        (dict(tile_size=(16, 16, 16)), "tile_size"),
        (dict(tile_size=16), "tile_size"),
        (dict(tile_size="ab"), "tile_size"),
        (dict(threads=2.5), "threads"),
        (dict(threads=np.bool_(True)), "threads"),
    ],
)
def test_config_rejects_non_integers(kw, field):
    """Integer fields reject floats and bools with a ValueError naming the field."""
    with pytest.raises(ValueError, match=field):
        RenderConfig(**kw).validate()


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(eps_t="0.1"), "eps_t"),
        (dict(eps_t=None), "eps_t"),
        (dict(eps_t=True), "eps_t"),
        (dict(hybrid_fraction=None), "hybrid_fraction"),
        (dict(occlusion_threshold=[0.5]), "occlusion_threshold"),
        (dict(background=5), "background"),
        (dict(background=(1.0, None, 2.0)), "background"),
        (dict(background=(True, 0.0, 0.0)), "background"),
        (dict(background="abc"), "background"),
        (dict(record_occlusion="yes"), "record_occlusion"),
    ],
)
def test_config_rejects_non_numbers(kw, field):
    """Number fields reject strings, None and bools, and the background
    anything but three numbers, with a ValueError naming the field."""
    with pytest.raises(ValueError, match=field):
        RenderConfig(**kw).validate()


@pytest.mark.parametrize("dtype", [None, "foo", "float16", np.int32, object(), [np.float32]])
def test_config_rejects_other_dtypes(dtype):
    """dtype takes float32 or float64 only; anything else, None and names
    NumPy does not know included, is a ValueError that names the value,
    from RenderConfig and from TrainConfig alike."""
    from tilesplat.backward import TrainConfig

    for cfg in RenderConfig(dtype=dtype), TrainConfig(dtype=dtype):
        want = "dtype must be float32 or float64, got " + re.escape(repr(dtype))
        with pytest.raises(ValueError, match=want):
            cfg.validate()


@pytest.mark.parametrize(
    "dtype, want",
    [
        (np.float32, np.float32), ("float32", np.float32), ("f4", np.float32),
        (np.dtype(np.float32), np.float32), (np.float64, np.float64), ("float64", np.float64),
        (np.dtype("f8"), np.float64), (float, np.float64),
    ],
)
def test_config_accepts_float_dtypes(dtype, want):
    """Every spelling of the two blend dtypes that NumPy reads is taken, and renders in it."""
    cam = make_camera(16, 16)
    scene = random_scene(np.random.default_rng(2), 6, cam)
    cfg = RenderConfig(tile_size=(16, 16), dtype=dtype)
    cfg.validate()
    assert render(scene, cam, cfg).image.data.dtype == want


def test_config_accepts_numpy_integers():
    rng = np.random.default_rng(3)
    cam = make_camera(40, 24)
    scene = random_scene(rng, 12, cam)
    plain = RenderConfig(tile_size=(16, 8), z_tiles=2, threads=2)
    numpy_ints = RenderConfig(
        tile_size=(np.int32(16), np.int64(8)), z_tiles=np.int64(2), threads=np.uint8(2)
    )
    numpy_ints.validate()
    a, b = render(scene, cam, plain), render(scene, cam, numpy_ints)
    assert np.array_equal(a.image.data, b.image.data)
    assert a.stats.to_text() == b.stats.to_text()


def test_threads_bit_identical():
    rng = np.random.default_rng(9)
    cam = make_camera(64, 64)
    scene = random_scene(rng, 128, cam)
    cfg1 = RenderConfig(tile_size=(16, 16), threads=1)
    cfg8 = RenderConfig(tile_size=(16, 16), threads=8)
    a = render(scene, cam, cfg1)
    b = render(scene, cam, cfg8)
    assert np.array_equal(a.image.data, b.image.data)
    assert a.stats.to_text() == b.stats.to_text()


def test_occlusion_trace_recording():
    rng = np.random.default_rng(10)
    cam = make_camera(64, 64)
    scene = random_scene(rng, 64, cam, logit_range=(2.0, 3.0))
    cfg = RenderConfig(tile_size=(32, 32), z_tiles=4, eps_t=1e-2, record_occlusion=True)
    res = render(scene, cam, cfg)
    occ = res.stats.occlusion
    assert occ is not None
    assert occ.n_chunks == 4
    assert occ.total_pixels == 64 * 64
    counts = occ.occluded_after_chunk
    assert np.all(np.diff(counts) >= 0)  # occlusion only grows
    assert counts[-1] > 0


def test_partial_edge_tiles():
    rng = np.random.default_rng(12)
    cam = make_camera(50, 30)
    scene = random_scene(rng, 30, cam)
    res = render(scene, cam, RenderConfig(tile_size=(16, 16)))
    assert res.image.data.shape == (30, 50, 3)
    full = render(scene, cam, RenderConfig(tile_size=(64, 64)))
    np.testing.assert_allclose(res.image.data, full.image.data, atol=2e-7)


@pytest.mark.parametrize("side", [16, 8])
@pytest.mark.parametrize(
    "tile", [(16, 16), (20, 20), (32, 32), (24, 40), (200, 200), (320, 320)]
)
def test_tile_groups_hold_at_most_the_cap_per_pass(tile, side):
    """Every lockstep pass blends one row per block of its group, so it
    holds at most GROUP_MAX_PX block pixels, padding included, under
    every schedule.  Only a lone tile that exceeds the cap by itself
    holds more.  20 px tiles pad to 21 px in 8 px blocks (3 of 7 px) but
    not in 16 px ones (2 of 10 px), so groups sized for the wrong side
    overflow the cap: the image has more 20 px tiles than fit in one
    group."""
    from unittest import mock

    from tilesplat import forward
    from tilesplat.preprocess import bin_and_sort, preprocess

    rng = np.random.default_rng(4)
    cam = make_camera(320, 256)
    scene = random_scene(rng, 50, cam)
    binning = bin_and_sort(preprocess(scene, cam)[0], tile, (320, 256))
    block = (forward._block_side(tile[1], side), forward._block_side(tile[0], side))
    tile_px = -(-tile[1] // block[0]) * block[0] * -(-tile[0] // block[1]) * block[1]
    groups = forward._tile_groups(binning, side)
    assert [t for g in groups for t in g] == list(range(binning.n_tiles))
    for g in groups:
        assert len(g) * tile_px <= forward.GROUP_MAX_PX or len(g) == 1

    lockstep = forward.BlockGroup._lockstep
    passes = []

    def spy(self, blocks, *args):
        one_row_each = len(np.unique(blocks)) == len(blocks)
        passes.append((len(self.m), self.valid.size, one_row_each, self.block))
        return lockstep(self, blocks, *args)

    for z_tiles in (1, 2, 4, 8):
        for hybrid in ("off", "fixed_fraction", "occlusion_threshold"):
            passes.clear()
            cfg = RenderConfig(tile_size=tile, z_tiles=z_tiles, hybrid=hybrid)
            with mock.patch.object(forward.BlockGroup, "_lockstep", spy), picking(side):
                render(scene, cam, cfg)
            assert passes
            for tiles, px, one_row_each, got in passes:
                assert got == block and one_row_each
                assert px <= forward.GROUP_MAX_PX or tiles == 1


@pytest.mark.parametrize("z_tiles, hybrid", [(1, "off"), (2, "occlusion_threshold")])
def test_tiles_larger_than_the_image_cost_only_the_image(z_tiles, hybrid):
    """A tile larger than the image holds only the image's pixels, so its
    blocks, state and group are laid out on the tile clipped to the
    image.  A 32 px image renders the same pixels, counters and recorded
    steps at 1024 px tiles as at 32 px ones, stats text naming the
    configured tile, and its tracemalloc peak stays within 2x.  Laid out
    on the nominal tile, the 1024 px render peaked at some 80 MB, 750x
    the 32 px one."""
    import gc
    import tracemalloc

    cam = make_camera(32, 32)
    scene = random_scene(np.random.default_rng(5), 40, cam)
    traced = hybrid == "off"
    got = {}
    for t in (32, 1024):
        cfg = RenderConfig(tile_size=(t, t), z_tiles=z_tiles, hybrid=hybrid)
        render(scene, cam, cfg, want_trace=traced)  # warms this thread's workspace
        gc.collect()
        tracemalloc.start()
        try:
            res = render(scene, cam, cfg, want_trace=traced)
            got[t] = res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (small, small_peak), (big, big_peak) = got[32], got[1024]
    assert np.array_equal(big.image.data, small.image.data)
    text = small.stats.to_text()
    assert "tile_size 32x32" in text
    assert big.stats.to_text() == text.replace("tile_size 32x32", "tile_size 1024x1024")
    if traced:
        assert np.array_equal(big.trace.t_final, small.trace.t_final)
        assert len(big.trace.steps) == len(small.trace.steps)
        for a, b in zip(big.trace.steps, small.trace.steps):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert big_peak <= 2 * small_peak, (big_peak, small_peak)


def workload_views(kind: str, seed: int):
    """A scene and three orbit views shaped like one of the benchmark's workloads."""
    from tilesplat.synth import orbit_camera, outdoor_scene

    size, n, orbit = {
        "train": (128, 300, 6.0),
        "many_tiles": (256, 1000, 6.0),
        "large_splats": (512, 1000, 8.0),
        "occluded": (256, 600, 2.0),
    }[kind]
    rng = np.random.default_rng(seed)
    base = make_camera(size, size)
    if kind == "train":
        scene = random_scene(rng, n, base, degree=3, margin=0.25)
    elif kind == "many_tiles":
        scene = random_scene(rng, n, base)
    elif kind == "large_splats":
        scene = outdoor_scene(rng, base, n)
    else:
        scene = opaque_foreground_scene(rng, base, n_back=n)
    return scene, [orbit_camera(size, size, a, orbit, orbit) for a in (-9.0, 0.0, 9.0)]


@pytest.mark.parametrize(
    "kind, want",
    [("train", 8), ("many_tiles", 8), ("large_splats", 16), ("occluded", 16)],
)
def test_pick_block_follows_splat_size(kind, want):
    """Small splats fill a corner of a 16 px block and get 8 px blocks;
    large splats and the opaque wall keep 16 px blocks, whose block lists
    hold fewer rows."""
    from tilesplat import forward
    from tilesplat.preprocess import preprocess

    for seed in range(3):
        scene, cams = workload_views(kind, seed)
        for cam in cams:
            assert forward._pick_block(preprocess(scene, cam)[0].aabb) == want


@pytest.mark.parametrize("side", [16, 8])
@pytest.mark.parametrize("tile", [(16, 16), (32, 64), (48, 48)])
def test_block_pairs_count_the_groups_pairs(tile, side):
    """Where the block side divides the tile side, the image-wide count of
    (splat, block) pairs is the groups' count."""
    from tilesplat import forward
    from tilesplat.preprocess import preprocess

    scene, cams = workload_views("train", 1)
    for cam in cams:
        cfg = RenderConfig(tile_size=tile)
        with picking(side):
            pairs = sum(grp.aabb_pairs for grp in forward.block_groups(scene, cam, cfg))
        assert forward._block_pairs(preprocess(scene, cam)[0].aabb, side) == pairs > 0


def test_pick_block_is_the_same_for_any_threads_and_rerun():
    """The side depends on the splats alone, and every group of a render
    blends blocks of it."""
    from unittest import mock

    from tilesplat import forward

    pick = forward._pick_block
    picks, groups = [], []

    def spy(aabb):
        picks.append(pick(aabb))
        return picks[-1]

    for kind, want, tile in (("train", 8, (32, 64)), ("occluded", 16, (32, 32))):
        scene, cams = workload_views(kind, 2)
        for threads in (1, 2, 1, 2):
            picks.clear()
            groups.clear()
            cfg = RenderConfig(tile_size=tile, threads=threads)
            with (
                mock.patch.object(forward, "_pick_block", spy),
                spying_groups(groups),
                mock.patch.object(forward, "GROUP_MAX_PX", 4096),  # several groups
            ):
                render(scene, cams[0], cfg, want_trace=True)
            assert picks == [want] and len(groups) > 1
            assert {grp.block for grp in groups} == {(want, want)}


@pytest.mark.parametrize("side", [16, 8])
def test_block_list_key_finds_the_starts_of_an_int64_key(side):
    """The (block, list position) key is int32 where it fits, and finds
    every block's first entry at a tile list position as an int64 key does."""
    import copy

    from tilesplat import forward
    from tilesplat.preprocess import bin_and_sort, preprocess

    scene, cams = workload_views("train", 3)
    batch = preprocess(scene, cams[1])[0]
    binning = bin_and_sort(batch, (32, 64), (128, 128))
    grp = forward.BlockGroup(view_table(batch, binning), range(binning.n_tiles), side)
    assert grp._key.dtype == np.int32
    wide = copy.copy(grp)
    wide._key = grp._key.astype(np.int64)
    rng = np.random.default_rng(0)
    for pos in [np.zeros_like(grp.m), grp.m] + [rng.integers(0, grp.m + 1) for _ in range(5)]:
        assert np.array_equal(grp._at(pos), wide._at(pos))


def test_block_list_setup_peaks_near_what_the_group_keeps():
    """Building the block lists of a render_many_tiles-shaped view (about
    23 k (entry, block) pairs in one group) peaks at most 4x the memory the
    group keeps, because pairs are expanded and pruned a run at a time;
    expanding the whole group at once peaked at 7.3x.  The lists are the
    whole-group expansion's all the same."""
    import gc
    import tracemalloc

    import forward_oracle as oracle
    from tilesplat import forward

    scene, cams = workload_views("many_tiles", 901)
    cfg = RenderConfig(tile_size=(16, 16))
    _, _, binning, _, table, side = forward._prepare(scene, cams[1], cfg)
    (tiles,) = forward._tile_groups(binning, side)
    gc.collect()
    tracemalloc.start()
    try:
        grp = forward.BlockGroup(table, tiles, side)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grp.aabb_pairs > 20_000
    assert peak <= 4 * kept, f"peak {peak / 1024:.0f} KiB, kept {kept / 1024:.0f} KiB"
    want = oracle.block_lists(table, tiles, side)
    for name in ("entry", "lwin", "pos", "_key"):
        assert np.array_equal(getattr(grp, name), getattr(want, name)), name


def test_block_groups_are_the_groups_render_blends():
    """``block_groups`` builds, without blending, the block lists that a
    traced render records its steps over."""
    from unittest import mock

    from tilesplat import forward

    rng = np.random.default_rng(6)
    cam = make_camera(160, 96)
    scene = random_scene(rng, 90, cam)
    cfg = RenderConfig(tile_size=(32, 16))
    traced = []
    with mock.patch.object(forward, "GROUP_MAX_PX", 4 * 32 * 16):
        with spying_groups(traced):
            render(scene, cam, cfg, want_trace=True)
        built = list(forward.block_groups(scene, cam, cfg))
    assert len(built) == len(traced) > 1
    for a, b in zip(built, traced):
        assert a.aabb_pairs == b.aabb_pairs
        assert np.array_equal(a._at(a.m), b._at(b.m))  # where each block's list ends
        for name in ("entry", "pos", "lwin", "folded", "win", "area", "m", "first_entry"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _copied_outputs(res) -> list:
    """Copies of everything a render hands back: image, stats text and any trace."""
    out = [res.image.data.copy(), res.stats.to_text()]
    if res.trace is not None:
        out += [res.trace.t_final.copy(), len(res.trace.steps)]
        out += [a.copy() for step in res.trace.steps for a in step]
    return out


def _same_outputs(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x == y if isinstance(x, (str, int)) else np.array_equal(x, y) for x, y in zip(a, b)
    )


def test_workspace_reuse_cannot_be_seen():
    """Lockstep passes keep their buffers in a per-thread workspace that
    outlives every call and render, sized for a group of GROUP_MAX_PX block
    pixels per dtype.  Renders of every shape that share it, interleaved in
    one process, give what they gave the first time, and what a render
    returned does not change as later renders reuse the workspace: 8 px
    float32 renders shaped like render_many_tiles, 16 px renders whose
    K = 4 chunk passes (fresh rows) are followed by a tail, a float64
    traced train view, lone tiles over the cap (buffers of their own) and
    a 2-thread pool (a workspace per pool thread)."""
    from unittest import mock

    from tilesplat import forward
    from tilesplat.backward import TrainConfig
    from tilesplat.synth import indoor_scene

    cam = make_camera(128, 96)
    rng = np.random.default_rng(24)
    small = random_scene(rng, 250, cam)
    wall, room = opaque_foreground_scene(rng, cam), indoor_scene(rng, cam)

    def lone_tile():
        with mock.patch.object(forward, "GROUP_MAX_PX", 32 * 32):
            return render(wall, cam, RenderConfig(tile_size=(64, 48), z_tiles=2, eps_t=1e-4))

    def two_threads():
        with mock.patch.object(forward, "GROUP_MAX_PX", 16 * 16 * 8):
            return render(room, cam, RenderConfig(tile_size=(16, 16), threads=2))

    def with_side(side, *args, **kw):
        with picking(side):
            return render(*args, **kw)

    renders = {
        "many_tiles": lambda: with_side(8, small, cam, RenderConfig(tile_size=(16, 16))),
        "chunks_then_tail": lambda: with_side(16, wall, cam, RenderConfig(
            tile_size=(32, 32), z_tiles=4, hybrid="fixed_fraction", hybrid_fraction=0.5,
            record_occlusion=True,
        )),
        "occluded": lambda: with_side(16, wall, cam, RenderConfig(
            tile_size=(32, 32), z_tiles=4, hybrid="occlusion_threshold", eps_t=0.3,
        )),
        "train_view": lambda: render(room, cam, TrainConfig().render_config(), want_trace=True),
        "lone_tile": lone_tile,
        "two_threads": two_threads,
    }
    first = {name: _copied_outputs(make()) for name, make in renders.items()}
    kept = []
    order = list(renders) + list(reversed(renders)) + list(renders)[::2] + list(renders)[1::2]
    for name in order:
        res = renders[name]()
        assert _same_outputs(_copied_outputs(res), first[name]), name
        kept.append((name, res))
    for name, res in kept:  # nothing returned aliases what later renders wrote
        assert _same_outputs(_copied_outputs(res), first[name]), name


@pytest.mark.parametrize("kind", ["many_tiles", "occluded"])
def test_warm_lockstep_allocates_no_pixel_arrays(kind):
    """A warm lockstep pass writes its per-step arrays (q, blend mask,
    alpha, hit, the comparisons, T times alpha, the colour product, the
    stop update) and its held rows' T, colour and stop into the thread's
    workspace.  What it still takes from the allocator is per block-list
    entry (parameter rows, in-window columns and rows, the step layout)
    plus a few small fixed-size arrays, so its tracemalloc peak over its
    entry stays under 16 B per block pixel plus 128 B per entry plus
    64 KiB.  Before the workspace, the float32 passes of these views peaked
    at 43-60 B per block pixel over 0.03-0.24 entries per pixel: each
    per-step temporary takes 4 B per pixel, colour 12 B."""
    import tracemalloc
    from unittest import mock

    from tilesplat import forward

    scene, cams = workload_views(kind, 901)
    cfg = RenderConfig(tile_size=(16, 16)) if kind == "many_tiles" else RenderConfig(
        tile_size=(32, 32), z_tiles=4, hybrid="occlusion_threshold"
    )
    lockstep = forward.BlockGroup._lockstep
    calls = []

    def spy(self, blocks, first, n, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = lockstep(self, blocks, first, n, *args)
        bh, bw = self.block
        peak = tracemalloc.get_traced_memory()[1] - base
        calls.append((peak, len(blocks) * bh * bw, int(n.sum())))
        return out

    render(scene, cams[0], cfg)  # warms this thread's workspace
    tracemalloc.start()
    try:
        with mock.patch.object(forward.BlockGroup, "_lockstep", spy):
            render(scene, cams[1], cfg)
    finally:
        tracemalloc.stop()
    assert max(px for _, px, _ in calls) > 16_000
    for peak, px, entries in calls:
        assert peak <= 16 * px + 128 * entries + 65_536, (peak, px, entries)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["opaque", "indoor"])
def test_dead_blocks_leave_the_lockstep(kind, seed):
    """Behind opaque layers most blocks die within a few entries, and the
    kernel drops them from the pass: a K = 1 render evaluates alpha for at
    most half of its block-list entries, where keeping every block to the
    end of its list would evaluate one row per entry.  The rows are
    counted at ``forward._block_alpha``, which evaluates each one once."""
    from unittest import mock

    from tilesplat import forward
    from tilesplat.synth import indoor_scene

    rng = np.random.default_rng(seed)
    cam = make_camera(128, 128)
    scene = (opaque_foreground_scene if kind == "opaque" else indoor_scene)(rng, cam)
    cfg = RenderConfig(tile_size=(32, 32), z_tiles=1, eps_t=1e-4)
    rows = []
    block_alpha = forward._block_alpha

    def spy(*args):
        alpha = block_alpha(*args)
        rows.append(len(alpha))
        return alpha

    with mock.patch.object(forward, "_block_alpha", spy):
        render(scene, cam, cfg)
    entries = sum(len(g.pos) for g in forward.block_groups(scene, cam, cfg))
    assert 0 < sum(rows) <= entries / 2, (sum(rows), entries)


@pytest.mark.parametrize("hybrid", ["off", "fixed_fraction"])
@pytest.mark.parametrize("kind", ["opaque", "indoor"])
def test_blocks_an_earlier_chunk_kills_blend_no_later_chunk(kind, hybrid):
    """Depth chunks blend one per pass and a pass leaves out the blocks
    with no live pixel, so behind opaque layers the chunk passes hand
    ``_lockstep`` fewer block rows than there are (block, chunk) pairs
    with an entry, which is what blending every chunk would cost."""
    from unittest import mock

    from tilesplat import forward
    from tilesplat.synth import indoor_scene

    cam = make_camera(128, 128)
    scene = (opaque_foreground_scene if kind == "opaque" else indoor_scene)(
        np.random.default_rng(0), cam
    )
    cfg = RenderConfig(tile_size=(32, 32), z_tiles=4, eps_t=1e-4, hybrid=hybrid)
    lockstep = forward.BlockGroup._lockstep
    rows = []

    def spy(self, blocks, first, n, eps_t, state=None, record=None):
        if state is None:  # a chunk pass: its rows start from the fresh state
            rows.append(len(blocks))
        return lockstep(self, blocks, first, n, eps_t, state, record)

    with mock.patch.object(forward.BlockGroup, "_lockstep", spy):
        render(scene, cam, cfg)
    pairs = 0
    for grp in forward.block_groups(scene, cam, cfg):
        split = grp.m
        if hybrid == "fixed_fraction":
            split = np.ceil((1.0 - cfg.hybrid_fraction) * grp.m).astype(np.int64)
        for lo, hi in _chunk_bounds(split, cfg.z_tiles):
            pairs += np.count_nonzero(grp._at(hi) > grp._at(lo))
    assert 0 < sum(rows) < pairs, (sum(rows), pairs)
