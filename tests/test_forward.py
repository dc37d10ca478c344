"""Forward blending: alpha kernel, compositing, z-chunks, hybrid schedules."""

import copy

import numpy as np
import pytest

from tilesplat.execmodel import count_evals
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
from tilesplat.preprocess import SplatBatch
from tilesplat.synth import make_camera, opaque_foreground_scene, random_scene

from forward_oracle import occlusion_switch
from tile_kernel import (
    blend_tile_span, fresh_state, picking, render_tiles, spying_groups, tile_lists, view_table,
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


def count(batch, order, rect, switch, until):
    win, area = clip_windows(batch.aabb[order], rect)
    return count_evals(win, area, rect, switch, until)


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
    counters = count_evals(win, area, (0, 0, 4, 4), switch, until)
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
    split.setflags(write=False)
    stop.setflags(write=False)
    assert forward._count(view_table(batch, binning), cfg, split, stop) == res.stats.counters


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
    """Every lockstep pass holds at most GROUP_MAX_PX block pixels: a
    group's blocks, padding included, times the depth chunks it blends at
    once.  Only a lone tile that exceeds the cap by itself, blending one
    chunk, holds more.  20 px tiles pad to 21 px in 8 px blocks (3 of 7
    px) but not in 16 px ones (2 of 10 px), so groups sized for the wrong
    side overflow the cap: the image has more 20 px tiles than fit in
    one group."""
    from unittest import mock

    from tilesplat import forward
    from tilesplat.preprocess import bin_and_sort, preprocess

    rng = np.random.default_rng(4)
    cam = make_camera(320, 256)
    scene = random_scene(rng, 50, cam)
    binning = bin_and_sort(preprocess(scene, cam)[0], tile, (320, 256))
    blend, blend_chunks = forward.BlockGroup.blend, forward.BlockGroup.blend_chunks
    block = (forward._block_side(tile[1], side), forward._block_side(tile[0], side))
    tile_px = -(-tile[1] // block[0]) * block[0] * -(-tile[0] // block[1]) * block[1]
    passes = []

    def spy_blend(self, state, *args):
        passes.append((len(self.m), self.valid.size, 1, self.block))
        return blend(self, state, *args)

    def spy_blend_chunks(self, state, chunks, *args):
        passes.append((len(self.m), self.valid.size, len(chunks), self.block))
        return blend_chunks(self, state, chunks, *args)

    for z_tiles in (1, 2, 4, 8):
        groups = forward._tile_groups(binning, side, z_tiles)
        assert [t for g in groups for t in g] == list(range(binning.n_tiles))
        for g in groups:
            assert len(g) * tile_px * z_tiles <= forward.GROUP_MAX_PX or len(g) == 1
        passes.clear()
        with (
            mock.patch.object(forward.BlockGroup, "blend", spy_blend),
            mock.patch.object(forward.BlockGroup, "blend_chunks", spy_blend_chunks),
            picking(side),
        ):
            render(scene, cam, RenderConfig(tile_size=tile, z_tiles=z_tiles))
        assert len(passes) >= len(groups)
        for tiles, px, chunks, got in passes:
            assert got == block
            assert px * chunks <= forward.GROUP_MAX_PX or (tiles == 1 and chunks == 1)


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
        for name in ("entry", "pos", "lwin", "params", "win", "area", "m", "first_entry"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
