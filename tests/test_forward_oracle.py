"""The lockstep block kernel against the per-splat reference loop, bit for bit."""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import forward_oracle as oracle
from tile_kernel import (
    blend_tile_span, fresh_state, picking, render_tiles, tile_lists, view_table,
)
from tilesplat import forward
from tilesplat.execmodel import EvalCounters, count_evals
from tilesplat.forward import RenderConfig, clip_windows, render
from tilesplat.preprocess import bin_and_sort, preprocess
from tilesplat.synth import make_camera, opaque_foreground_scene, random_scene

EXAMPLES = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_scene(seed: int, n: int, w: int, h: int):
    """Few splats from sharp to wide, opaque enough that pixels terminate."""
    cam = make_camera(w, h, focal=float(max(w, h)))
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, cam, px_sigma=(0.6, 9.0), logit_range=(-3.0, 6.0))
    return scene, cam


def assert_states_equal(got, want, eps_t):
    """Equal color, T and stop; the kernel's dead pixels are the oracle's mask."""
    assert np.array_equal(got.rgb, want.rgb)
    assert np.array_equal(got.T, want.T)
    assert np.array_equal(got.stop, want.stop)
    assert np.array_equal(got.T < eps_t, want.terminated)


EPS = st.sampled_from([0.0, 1e-4, 1.0])
DTYPE = st.sampled_from([np.float32, np.float64])
# Tile sides that are multiples of the 8 and 16 px blocks, that are not
# (so blocks overhang the tile), and that are smaller than one block.
TILE = st.one_of(
    st.sampled_from([(16, 16), (20, 20), (24, 40), (17, 64), (64, 32), (5, 9), (8, 8)]),
    st.tuples(st.integers(3, 64), st.integers(3, 64)),
)
# The largest block sides a render can pick (``forward._pick_block``).
SIDE = st.sampled_from([forward.BLOCK, forward.BLOCK // 2])



@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    w=st.integers(8, 72),
    h=st.integers(8, 72),
    tile=TILE,
    dtype=DTYPE,
    eps_t=EPS,
    z_tiles=st.integers(1, 4),
    hybrid=st.sampled_from(["off", "fixed_fraction", "occlusion_threshold"]),
    fraction=st.sampled_from([0.25, 0.6]),
    theta=st.sampled_from([0.05, 0.5, 0.9]),
    occlusion=st.booleans(),
    group_px=st.sampled_from([forward.GROUP_MAX_PX, 1, 700]),
    side=SIDE,
)
def test_schedules_match_oracle(
    seed, n, w, h, tile, dtype, eps_t, z_tiles, hybrid, fraction, theta, occlusion,
    group_px, side,
):
    """Images, stats and occlusion counts, with groups of the default size,
    of one tile and of a few tiles; then every tile's color, T, stop,
    counters, split and occlusion counts, over blocks of either side."""
    scene, cam = small_scene(seed, n, w, h)
    cfg = RenderConfig(
        tile_size=tile, z_tiles=z_tiles, eps_t=eps_t, hybrid=hybrid,
        hybrid_fraction=fraction, occlusion_threshold=theta,
        background=(0.2, 0.1, 0.4), dtype=dtype,
        record_occlusion=occlusion,
    )
    with mock.patch.object(forward, "GROUP_MAX_PX", group_px), picking(side):
        res = render(scene, cam, cfg)
    img, stats, t_final, stop = oracle.render(scene, cam, cfg)
    assert np.array_equal(res.image.data, img)
    assert res.stats.to_text() == stats.to_text()
    if occlusion:
        occ = res.stats.occlusion.occluded_after_chunk
        assert np.array_equal(occ, stats.occlusion.occluded_after_chunk)

    # With a black background the image is the accumulated color itself.
    batch64, _ = preprocess(scene, cam)
    batch = batch64.astype(dtype)
    binning = bin_and_sort(batch64, tile, (w, h))
    black = dataclasses.replace(cfg, background=(0.0, 0.0, 0.0))
    rgb, got_t, got_stop, tiles = render_tiles(batch, binning, black, side)
    assert np.array_equal(got_t, t_final)
    assert np.array_equal(got_stop, stop)
    for order, rect, (counters, split, occluded) in zip(
        tile_lists(binning), binning.rects().tolist(), tiles
    ):
        x0, y0, x1, y1 = rect
        state, want_counters, want_split, want_occluded = oracle.blend_tile(
            batch, order, rect, cfg
        )
        assert np.array_equal(rgb[y0:y1, x0:x1], state.rgb)
        assert np.array_equal(got_t[y0:y1, x0:x1] < eps_t, state.terminated)
        assert counters == want_counters
        assert split == want_split
        assert occluded == want_occluded

    if z_tiles == 1 and hybrid == "off":
        with picking(side):
            traced = render(scene, cam, cfg, want_trace=True).trace
        assert np.array_equal(traced.t_final, t_final)


@pytest.mark.parametrize(
    "z_tiles, hybrid", [(1, "off"), (1, "occlusion_threshold"), (3, "fixed_fraction")]
)
def test_opaque_scene_matches_oracle(z_tiles, hybrid):
    """Blocks die at different list positions behind an opaque wall, so
    the kernel drops dead blocks in the middle of a pass."""
    rng = np.random.default_rng(11)
    cam = make_camera(48, 40)
    scene = opaque_foreground_scene(rng, cam, n_back=60)
    cfg = RenderConfig(
        tile_size=(24, 20), z_tiles=z_tiles, hybrid=hybrid, eps_t=1e-4,
        background=(0.2, 0.1, 0.4), record_occlusion=True,
    )
    res = render(scene, cam, cfg, want_trace=z_tiles == 1 and hybrid == "off")
    img, stats, t_final, stop = oracle.render(scene, cam, cfg)
    assert np.array_equal(res.image.data, img)
    assert res.stats.to_text() == stats.to_text()
    if res.trace is not None:
        assert np.array_equal(res.trace.t_final, t_final)
    batch64, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height))
    _, got_t, got_stop, _ = render_tiles(batch64.astype(cfg.dtype), binning, cfg)
    assert np.array_equal(got_t, t_final)
    assert np.array_equal(got_stop, stop)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    tile=TILE,
    dtype=DTYPE,
    eps_t=st.sampled_from([0.0, 1e-4, 0.3, 1.0]),
    span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    mode=st.sampled_from(["centric_from", "theta"]),
    at=st.floats(0.0, 1.0),
    p_term=st.sampled_from([0.0, 0.3, 0.97, 1.0]),
    side=SIDE,
)
def test_span_with_carried_state_matches_oracle(
    seed, n, tile, dtype, eps_t, span, mode, at, p_term, side
):
    """Any carried state: dead pixels below eps_t, live ones anywhere above.

    The list is every splat in depth order, so some entries miss the
    tile entirely.  The span's counters and switch are computed from the
    blended state as for a list of its own, order[start:end].
    """
    scene, cam = small_scene(seed, n, 48, 40)
    batch = preprocess(scene, cam)[0].astype(dtype)
    order = np.argsort(batch.depth, kind="stable")
    m = len(order)
    start, end = sorted(int(round(f * m)) for f in span)
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, 48 - min(tile[0], 48) + 1))
    y0 = int(rng.integers(0, 40 - min(tile[1], 40) + 1))
    rect = (x0, y0, min(x0 + tile[0], 48), min(y0 + tile[1], 40))
    h, w = rect[3] - rect[1], rect[2] - rect[0]

    carry = oracle.fresh_state(h, w, dtype, m)
    carry.rgb[:] = rng.uniform(0.0, 2.0, size=(h, w, 3))
    live_T = rng.uniform(eps_t, 1.0, size=(h, w))
    live_T[rng.uniform(size=(h, w)) < 0.3] = 1.0
    dead = rng.uniform(size=(h, w)) < p_term
    carry.T[:] = np.where(dead, rng.uniform(0.0, eps_t, size=(h, w)), live_T)
    carry.terminated[:] = carry.T < eps_t  # after the cast to the blend dtype
    carry.stop[:] = rng.integers(0, m + 1, size=(h, w))

    want = copy.deepcopy(carry)
    want_counters = EvalCounters()
    theta = 0.4 * at
    if mode == "theta":
        switch = oracle.sweep(
            want, batch, order, rect, start, end, eps_t=eps_t, pixel_centric=False,
            counters=want_counters, theta=theta,
        )
    else:
        switch = oracle.sweep(
            want, batch, order, rect, start, start + int(round(at * (end - start))),
            eps_t=eps_t, pixel_centric=False, counters=want_counters,
        )
    oracle.sweep(
        want, batch, order, rect, switch, end, eps_t=eps_t, pixel_centric=True,
        counters=want_counters,
    )

    got = fresh_state(h, w, dtype, m)
    got.rgb[:] = carry.planar().rgb
    got.T[:] = carry.T
    got.stop[:] = carry.stop
    blend_tile_span(got, batch, order, rect, start, end, eps_t, side)
    assert_states_equal(got, want.planar(), eps_t)

    until = np.where(got.T < eps_t, got.stop - start, m - start)
    until[carry.terminated] = 0  # dead before the span began
    win, area = clip_windows(batch.aabb[order], rect)
    win, area = win[start:end], area[start:end]
    if mode == "theta":
        assert start + oracle.occlusion_switch(area, until, theta) == switch
    assert count_evals(win, area, rect, switch - start, until) == want_counters


def needle_scene(seed: int, n: int, w: int, h: int):
    """Round splats and needles, some with opacity within a hair of 1/255."""
    cam = make_camera(w, h, focal=float(max(w, h)))
    rng = np.random.default_rng(seed)
    scene = random_scene(
        rng, n, cam, px_sigma=(0.3, 12.0), logit_range=(-6.5, 3.0), margin=-0.2
    )
    needle = rng.uniform(size=n) < 0.5
    scene.log_scales[needle, 0] += np.log(rng.uniform(2.0, 8.0, size=needle.sum()))
    scene.log_scales[needle, 1] -= 3.0
    edge = rng.uniform(size=n) < 0.3  # opacity 1/255, give or take a little
    scene.opacity_logits[edge] = -np.log(254.0) + rng.normal(scale=1e-4, size=edge.sum())
    return scene, cam


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    tile=st.tuples(*[st.integers(0, 7).map(lambda v: 2 * v + 1)] * 2),  # odd sides
    nudge=st.sampled_from([-1, 0, 1]),
)
def test_occlusion_splits_match_the_per_tile_switch(data, seed, size, tile, nudge):
    """``forward._occlusion_splits`` over a whole image of tiles equals
    the per-tile oracle on every tile: odd tile sides clipped at the
    image edge, lists of length 0, 1 and longer, entries whose window
    misses the tile, stops anywhere in 0 ... m, and theta within an ulp
    of one tile's stopped fraction after one of its entries."""
    (w, h), (tw, th) = size, tile
    rng = np.random.default_rng(seed)
    nx, ny = -(-w // tw), -(-h // th)
    m = rng.choice([0, 1, 2, 5, 9], size=nx * ny)
    area = rng.integers(1, 5, size=m.sum()) * (rng.uniform(size=m.sum()) < 0.7)
    rects, tile_img, stop = [], np.empty((h, w), dtype=np.int64), np.empty((h, w), dtype=np.int32)
    for t in range(nx * ny):
        ty, tx = divmod(t, nx)
        x0, y0 = tx * tw, ty * th
        rects.append((x0, y0, min(x0 + tw, w), min(y0 + th, h)))
        tile_img[y0 : y0 + th, x0 : x0 + tw] = t
        stop[y0 : y0 + th, x0 : x0 + tw] = rng.integers(0, m[t] + 1, size=(th, tw))[
            : h - y0, : w - x0
        ]
    t = data.draw(st.integers(0, nx * ny - 1))
    x0, y0, x1, y1 = rects[t]
    at = np.count_nonzero(stop[y0:y1, x0:x1] <= data.draw(st.integers(1, max(m[t], 1))))
    theta = at / ((x1 - x0) * (y1 - y0))
    if nudge:
        theta = float(np.nextafter(theta, np.inf * nudge))

    got = forward._occlusion_splits(area, m, tile_img.ravel(), stop.ravel(), theta)
    off = np.cumsum(m) - m
    want = [
        oracle.occlusion_switch(area[o : o + n], stop[y0:y1, x0:x1], theta)
        for o, n, (x0, y0, x1, y1) in zip(off, m, rects)
    ]
    assert got.tolist() == want


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 25),
    w=st.integers(4, 72),
    h=st.integers(4, 72),
    tile=TILE,
    dtype=DTYPE,
    side=SIDE,
)
def test_block_lists_keep_every_entry_that_blends(seed, n, w, h, tile, dtype, side):
    """Brute force over every block pixel of every (entry, block) pair that
    the windows meet: a pair with a window pixel where alpha reaches
    ALPHA_MIN is in the block's list, in list order, and nothing else is."""
    scene, cam = needle_scene(seed, n, w, h)
    batch64, _ = preprocess(scene, cam)
    batch = batch64.astype(dtype)
    binning = bin_and_sort(batch64, tile, (w, h))
    tiles = range(binning.n_tiles)
    grp = forward.BlockGroup(view_table(batch, binning), tiles, side)
    first, end = grp._at(np.zeros_like(grp.m)), grp._at(grp.m)
    lists = tile_lists(binning)
    for b in range(len(grp.valid)):
        order = lists[grp.block_tile[b]]
        kept = grp.pos[first[b] : end[b]]
        assert np.all(np.diff(kept) > 0)
        xc = np.broadcast_to(grp.xcol[b], grp.block).ravel()[grp.valid[b]]
        yc = np.broadcast_to(grp.yrow[b][:, None], grp.block).ravel()[grp.valid[b]]
        cols, rows = xc.astype(np.int64), yc.astype(np.int64)  # floor of the centres
        alpha = forward.splat_alpha(
            xc[None], yc[None], batch.mean2[order], batch.conic[order], batch.opacity[order]
        )
        win = grp.win[grp.entry_off[grp.block_tile[b]] :][: len(order)]
        inside = (cols >= win[:, 0, None]) & (cols < win[:, 2, None])
        inside &= (rows >= win[:, 1, None]) & (rows < win[:, 3, None])
        blends = np.flatnonzero(((alpha >= forward.ALPHA_MIN) & inside).any(axis=1))
        assert np.isin(blends, kept).all()
        assert inside[kept].any(axis=1).all()


def opaque_or_small_scene(seed: int, n: int, w: int, h: int, opaque: bool):
    """``small_scene``, or an opaque wall over n background splats."""
    if not opaque:
        return small_scene(seed, n, w, h)
    cam = make_camera(w, h, focal=float(max(w, h)))
    return opaque_foreground_scene(np.random.default_rng(seed), cam, n_back=n), cam


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 24),
    w=st.integers(8, 72),
    h=st.integers(8, 72),
    tile=TILE,
    dtype=DTYPE,
    eps_t=st.sampled_from([0.0, 1e-4, 0.3]),
    z_tiles=st.integers(2, 8),
    hybrid=st.sampled_from(["off", "fixed_fraction", "occlusion_threshold"]),
    theta=st.sampled_from([0.05, 0.5, 0.9]),
    threads=st.sampled_from([1, 2]),
    group_px=st.sampled_from([forward.GROUP_MAX_PX, 1, 2000]),
    opaque=st.booleans(),
    side=SIDE,
)
def test_chunk_folds_match_oracle(
    seed, n, w, h, tile, dtype, eps_t, z_tiles, hybrid, theta, threads, group_px, opaque,
    side,
):
    """Depth chunks folded at write-back, all K in one pass unless the
    occlusion-threshold hybrid is on, give the oracle's chunk-by-chunk
    merge bit for bit: image, stats, occlusion counts, and every tile's
    T, stop, counters and split.  Few splats make lists shorter than K;
    group caps of one tile and of a few tiles split K-row passes across
    groups, which threads=2 blends on a pool.  Blocks of either side
    give the same bits."""
    scene, cam = opaque_or_small_scene(seed, n, w, h, opaque)
    cfg = RenderConfig(
        tile_size=tile, z_tiles=z_tiles, eps_t=eps_t, hybrid=hybrid,
        occlusion_threshold=theta, background=(0.2, 0.1, 0.4), dtype=dtype,
        threads=threads, record_occlusion=True,
    )
    with mock.patch.object(forward, "GROUP_MAX_PX", group_px), picking(side):
        res = render(scene, cam, cfg)
    img, stats, t_final, stop = oracle.render(scene, cam, cfg)
    assert np.array_equal(res.image.data, img)
    assert res.stats.to_text() == stats.to_text()
    assert np.array_equal(
        res.stats.occlusion.occluded_after_chunk, stats.occlusion.occluded_after_chunk
    )

    batch64, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch64, tile, (w, h))
    black = dataclasses.replace(cfg, background=(0.0, 0.0, 0.0))
    _, got_t, got_stop, tiles = render_tiles(batch64.astype(dtype), binning, black, side)
    assert np.array_equal(got_t, t_final)
    assert np.array_equal(got_stop, stop)
    for order, rect, got in zip(tile_lists(binning), binning.rects().tolist(), tiles):
        _, want_counters, want_split, want_occluded = oracle.blend_tile(
            batch64.astype(dtype), order, rect, cfg
        )
        assert got == (want_counters, want_split, want_occluded)


@pytest.mark.parametrize("threads", [1, 2])
def test_switch_after_first_chunk_matches_oracle(threads):
    """Behind an opaque wall most tiles switch to pixel-centric after the
    first of K chunks, so the later chunk passes hold only the tiles that
    still chunk."""
    rng = np.random.default_rng(5)
    cam = make_camera(96, 64)
    scene = opaque_foreground_scene(rng, cam, n_back=120)
    cfg = RenderConfig(
        tile_size=(16, 16), z_tiles=4, hybrid="occlusion_threshold", eps_t=1e-4,
        occlusion_threshold=0.5, background=(0.2, 0.1, 0.4), threads=threads,
        record_occlusion=True,
    )
    with mock.patch.object(forward, "GROUP_MAX_PX", 4 * 256):  # 4 tiles per group
        res = render(scene, cam, cfg)
    img, stats, _, _ = oracle.render(scene, cam, cfg)
    assert np.array_equal(res.image.data, img)
    assert res.stats.to_text() == stats.to_text()
    batch64, _ = preprocess(scene, cam)
    lengths = np.diff(bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height)).offsets)
    splits = np.array(res.stats.hybrid_splits)
    after_first = (splits == lengths // 4) & (lengths >= 4)
    assert after_first.sum() >= 4 and not after_first.all()


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 40),
    w=st.integers(40, 64),
    h=st.integers(40, 64),
    tile=st.sampled_from([(16, 16), (20, 20), (32, 32), (24, 40)]),
    z_tiles=st.sampled_from([1, 2, 3]),
    dtype=DTYPE,
    side=SIDE,
)
def test_dead_block_drop_matches_oracle(seed, n, w, h, tile, z_tiles, dtype, side):
    """Three stacked opaque quilts over n background splats kill whole
    blocks part-way through their lists, so the kernel drops them from
    the pass: it evaluates fewer block-list rows than its spans hold.
    K > 1 blends the first tenth of each list in chunks and the rest on
    the merged state (fixed_fraction 0.9), where blocks die and drop.
    Image, stats text, T and stop stay the oracle's."""
    # The quilts are sized by the width, so they cover the height; pixels
    # in the image corners may outlive them, but at 40 px and more some
    # blocks hold no corner.
    h = min(h, w)
    cam = make_camera(w, h, focal=float(w))
    scene = opaque_foreground_scene(np.random.default_rng(seed), cam, n_back=n)
    cfg = RenderConfig(
        tile_size=tile, z_tiles=z_tiles, eps_t=1e-4,
        hybrid="off" if z_tiles == 1 else "fixed_fraction", hybrid_fraction=0.9,
        background=(0.2, 0.1, 0.4), dtype=dtype,
    )
    spans, rows = [], []
    got_t, got_stop = np.zeros((h, w), dtype=dtype), np.zeros((h, w), dtype=np.int32)
    lockstep, block_alpha, blend_group = (
        forward.BlockGroup._lockstep, forward._block_alpha, forward._blend_group
    )

    def spy_lockstep(self, blocks, first, n, *args):
        spans.append(int(n.sum()))
        return lockstep(self, blocks, first, n, *args)

    def spy_alpha(*args):
        alpha = block_alpha(*args)
        rows.append(len(alpha))
        return alpha

    def spy_group(grp, cfg, record=None):
        state, split, occluded = blend_group(grp, cfg, record)
        grp.paste(state.T, got_t)
        grp.paste(state.stop, got_stop)
        return state, split, occluded

    with (
        mock.patch.object(forward.BlockGroup, "_lockstep", spy_lockstep),
        mock.patch.object(forward, "_block_alpha", spy_alpha),
        mock.patch.object(forward, "_blend_group", spy_group),
        picking(side),
    ):
        res = render(scene, cam, cfg)
    assert sum(rows) < sum(spans)
    img, stats, t_final, stop = oracle.render(scene, cam, cfg)
    assert np.array_equal(res.image.data, img)
    assert res.stats.to_text() == stats.to_text()
    assert np.array_equal(got_t, t_final)
    assert np.array_equal(got_stop, stop)
