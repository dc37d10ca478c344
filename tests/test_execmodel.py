"""Workload analyses: tile sweeps, occlusion curves, bank conflicts, savings."""

import numpy as np
import pytest

from tilesplat.execmodel import (
    BankModel,
    OcclusionTrace,
    bank_conflicts,
    hybrid_savings,
    occlusion_curve,
    sweep_reduction,
    tile_sweep,
)
from tilesplat.forward import RenderConfig, _occlusion_splits, render
from tilesplat.synth import make_camera, random_scene

from test_forward import hand_batch


def test_tile_sweep_single_splat_nesting():
    # one splat straddling a 16px grid corner touches 4 tiles at 16,
    # and lands inside a single 64px tile
    batch = hand_batch(
        [dict(mean2=(16.0, 16.0), conic=(0.5, 0, 0.5), depth=1, rgb=(1, 1, 1),
              opacity=0.9)],
        image=(64, 64),
    )
    batch.aabb[0] = [12, 12, 20, 20]
    sweep = tile_sweep(batch, (64, 64), sizes=(16, 32, 64))
    assert sweep == [(16, 4), (32, 1), (64, 1)]
    assert sweep_reduction(sweep, 16, 64) == pytest.approx(3 / 4)


def test_tile_sweep_monotone_random():
    rng = np.random.default_rng(0)
    cam = make_camera(256, 256)
    scene = random_scene(rng, 200, cam, px_sigma=(2.0, 12.0))
    from tilesplat.preprocess import preprocess

    batch, _ = preprocess(scene, cam)
    counts = [inv for _, inv in tile_sweep(batch, (256, 256))]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


def test_sweep_reduction_arithmetic():
    assert sweep_reduction([(16, 100), (64, 20)], 16, 64) == pytest.approx(0.8)
    assert sweep_reduction([(16, 0), (64, 0)], 16, 64) == 0.0


def test_bank_model_column_group():
    col = np.stack([np.full(16, 3), np.arange(16)], axis=1)  # one pixel column
    assert BankModel(skewed=True).conflicts(col) == 0
    assert BankModel(skewed=False).conflicts(col) == 15
    row = np.stack([np.arange(16), np.full(16, 3)], axis=1)
    assert BankModel(skewed=True).conflicts(row) == 0
    assert BankModel(skewed=False).conflicts(row) == 0


def test_bank_model_edge_cases():
    model = BankModel()
    assert model.conflicts(np.zeros((0, 2))) == 0
    with pytest.raises(ValueError, match="exceeds"):
        model.conflicts(np.zeros((17, 2)))
    with pytest.raises(ValueError, match="coordinates"):
        model.conflicts(np.zeros((4, 3)))
    # worst case: every lane hits one bank
    same = np.tile([[0, 0]], (16, 1))
    assert model.conflicts(same) == 15


def test_bank_conflicts_skew_never_worse_on_contiguous_runs():
    rng = np.random.default_rng(1)
    groups = []
    for _ in range(500):
        x0, y0 = rng.integers(0, 48, size=2)
        n = int(rng.integers(1, 17))
        horizontal = bool(rng.integers(0, 2))
        xs = x0 + (np.arange(n) if horizontal else 0)
        ys = y0 + (0 if horizontal else np.arange(n))
        groups.append(np.stack(np.broadcast_arrays(xs, ys), axis=1))
    sk = bank_conflicts(groups, BankModel(skewed=True))
    un = bank_conflicts(groups, BankModel(skewed=False))
    assert np.all(sk <= un)
    assert np.all(sk == 0)  # contiguous runs never collide under the skew


def test_occlusion_curve_hand_trace():
    trace = OcclusionTrace(
        n_chunks=4,
        total_pixels=100,
        occluded_after_chunk=np.array([10, 40, 90, 95], dtype=np.int64),
    )
    curve = occlusion_curve(trace)
    assert curve == [(0.25, 0.10), (0.5, 0.40), (0.75, 0.90), (1.0, 0.95)]
    fracs = [f for _, f in curve]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    with pytest.raises(ValueError, match="chunks"):
        occlusion_curve(OcclusionTrace(0, 0, np.zeros(0, dtype=np.int64)))


def test_hybrid_savings_and_mismatch():
    rng = np.random.default_rng(2)
    cam = make_camera(64, 64)
    scene = random_scene(rng, 80, cam, logit_range=(1.0, 3.0))
    pure = render(scene, cam, RenderConfig(tile_size=(16, 16)))
    hyb = render(
        scene, cam,
        RenderConfig(tile_size=(16, 16), hybrid="fixed_fraction", hybrid_fraction=0.5),
    )
    saved, frac = hybrid_savings(pure.stats, hyb.stats)
    assert saved >= 0 and 0.0 <= frac < 1.0
    # candidate counts are tiling-invariant, so retiling the same scene agrees
    other_tiles = render(scene, cam, RenderConfig(tile_size=(32, 32)))
    assert other_tiles.stats.counters.candidates == pure.stats.counters.candidates
    other_scene = random_scene(np.random.default_rng(99), 80, cam)
    bad = render(other_scene, cam, RenderConfig(tile_size=(16, 16)))
    with pytest.raises(ValueError, match="mismatched renders"):
        hybrid_savings(pure.stats, bad.stats)


def test_render_stats_text_keys():
    rng = np.random.default_rng(3)
    cam = make_camera(32, 32)
    scene = random_scene(rng, 16, cam)
    res = render(scene, cam, RenderConfig(tile_size=(16, 16)))
    text = res.stats.to_text()
    for key in (
        "image_size", "tile_size", "n_tiles", "gaussians_in", "splats_rendered",
        "invocations", "alpha_candidates", "alpha_performed", "alpha_skipped",
    ):
        assert key in text, key
    occ = render(
        scene, cam, RenderConfig(tile_size=(16, 16), z_tiles=2, record_occlusion=True)
    )
    assert "occluded_after_chunk" in occ.stats.to_text()


def test_occlusion_splits_from_stop_histogram():
    until = np.array([0, 1, 3, 5])  # dead on arrival, ends at entries 0 and 2, never
    area = np.array([4, 4, 4, 4, 4])

    def splits(area, m, tile, stop, theta):
        return _occlusion_splits(area, np.array(m), np.array(tile), stop, theta).tolist()

    one = [0, 0, 0, 0]
    assert splits(area, [5], one, until, 0.3) == [1]  # 2 of 4 ended after entry 0
    assert splits(area, [5], one, until, 0.5) == [3]  # 3 of 4 after entry 2
    assert splits(area, [5], one, until, 0.8) == [5]  # never before the last entry
    missed = area.copy()
    missed[:2] = 0  # entries 0 and 1 miss the tile
    assert splits(missed, [5], one, until, 0.3) == [3]
    # one call over several tiles: each reads only its own entries and pixels
    both = np.concatenate([missed, area])
    tiles = [0] * 4 + [1] * 4 + [2] * 4
    stops = np.concatenate([until, [0, 0, 0, 0], until])
    assert splits(both, [5, 0, 5], tiles, stops, 0.3) == [3, 0, 1]
