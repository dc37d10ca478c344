"""Adam stepping, moment remapping, and clone/split/prune density control."""

from types import SimpleNamespace

import numpy as np
import pytest

from tilesplat.model import GaussianScene, stable_sigmoid
from tilesplat.optim import (
    OPACITY_FLOOR,
    SPLIT_COUNT,
    SPLIT_FACTOR,
    AdamState,
    DensifyStats,
    adam_step,
    density_control,
    remap_adam_state,
    scene_adam_step,
    scene_extent,
)


def test_adam_first_step_closed_form():
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -1.0, 2.0])
    state = AdamState(lr=0.01)
    adam_step({"position": p}, {"position": g}, state)
    # t = 1: bias correction makes m_hat = g, v_hat = g^2
    want = np.array([1.0, -2.0, 3.0]) - 0.01 * 0.5 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, want, rtol=1e-12)
    assert state.t == 1


def test_adam_two_steps_scalar():
    p = np.array([0.0])
    state = AdamState(lr=0.1)
    g1, g2 = 1.0, -0.5
    adam_step({"w": p}, {"w": np.array([g1])}, state)
    adam_step({"w": p}, {"w": np.array([g2])}, state)
    # replay the recurrence in plain floats
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = -0.1 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x -= 0.1 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert p[0] == pytest.approx(x, rel=1e-12)


def test_adam_missing_group_lr_defaults_to_one():
    p = np.array([1.0])
    state = AdamState(lr=0.1)
    adam_step({"custom": p}, {"custom": np.array([1.0])}, state)
    assert p[0] == pytest.approx(1.0 - 0.1 * 1.0 / (1.0 + 1e-8))


def test_adam_rejects_non_finite():
    state = AdamState()
    with pytest.raises(ValueError, match="non-finite"):
        adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, state)


def one_splat_scene(n=2):
    return GaussianScene(
        means=np.zeros((n, 3)) + np.arange(n)[:, None],
        log_scales=np.zeros((n, 3)),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        opacity_logits=np.zeros(n),
        sh=np.zeros((n, 1, 3)),
    )


def test_scene_adam_step_renormalizes_quats():
    scene = one_splat_scene()
    grads = {
        "position": np.ones((2, 3)),
        "scale": np.zeros((2, 3)),
        "rotation": np.full((2, 4), 0.3),
        "opacity": np.zeros(2),
        "sh": np.zeros((2, 1, 3)),
    }
    scene_adam_step(scene, grads, AdamState(lr=0.05))
    np.testing.assert_allclose(np.linalg.norm(scene.rotations, axis=1), 1.0, rtol=1e-12)
    assert not np.allclose(scene.means, one_splat_scene().means)


def test_remap_adam_state():
    state = AdamState()
    state.m["position"] = np.arange(15.0).reshape(5, 3)
    state.v["position"] = np.arange(15.0).reshape(5, 3) * 2
    remap_adam_state(state, np.array([0, 2, 4]), n_new=2)
    assert state.m["position"].shape == (5, 3)
    np.testing.assert_array_equal(state.m["position"][:3], [[0, 1, 2], [6, 7, 8], [12, 13, 14]])
    assert np.all(state.m["position"][3:] == 0)
    np.testing.assert_array_equal(state.v["position"][1], [12, 14, 16])


def test_densify_stats_observe():
    stats = DensifyStats.zeros(3)
    screen = {
        "hit_count": np.array([2, 0]),
        "d_mean2": np.array([[3.0, 4.0], [1.0, 0.0]]),
    }
    batch = SimpleNamespace(
        gaussian_index=np.array([2, 0]),
        radius=np.array([7, 5], dtype=np.int64),
    )
    stats.observe(screen, batch)
    stats.observe(screen, batch)
    assert stats.grad_norm_sum[2] == pytest.approx(10.0)  # |(3,4)| twice
    assert stats.grad_norm_sum[0] == 0.0  # no hits: not observed
    assert stats.obs_count[2] == 2 and stats.obs_count[0] == 0
    assert stats.max_radius[2] == 7 and stats.max_radius[0] == 5


def test_scene_extent():
    scene = one_splat_scene(1)
    assert scene_extent(scene) == 1.0  # point scene falls back
    two = one_splat_scene(2)
    two.means[:] = [[0, 0, 0], [2, 2, 1]]
    assert scene_extent(two) == pytest.approx(1.5)


def test_density_control_semantics():
    scene = GaussianScene(
        means=np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10]], dtype=float),
        log_scales=np.array(
            [[0.0, 0, 0], [np.log(0.05)] * 3, [0.0, 0, 0], [np.log(0.02)] * 3]
        ),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
        opacity_logits=np.array([-8.0, 1.0, 1.0, 1.0]),
        sh=np.arange(12.0).reshape(4, 1, 3),
    )
    stats = DensifyStats.zeros(4)
    stats.grad_norm_sum[:] = [10.0, 10.0, 10.0, 0.0]
    stats.obs_count[:] = 1
    assert stable_sigmoid(scene.opacity_logits[0]) < OPACITY_FLOOR

    new_scene, report, keep = density_control(scene, stats, np.random.default_rng(0))
    # row 0 prunes, row 1 clones (small scale), row 2 splits (large), row 3 idles
    assert report.pruned == 1 and report.cloned == 1 and report.split == 1
    assert report.n_before == 4
    assert report.n_after == 2 + 1 + SPLIT_COUNT == new_scene.n
    np.testing.assert_array_equal(keep, [1, 3])

    # order: survivors, then clone copies, then split children
    np.testing.assert_array_equal(new_scene.means[0], scene.means[1])
    np.testing.assert_array_equal(new_scene.means[1], scene.means[3])
    np.testing.assert_array_equal(new_scene.means[2], scene.means[1])  # exact clone
    np.testing.assert_array_equal(new_scene.sh[2], scene.sh[1])

    children = slice(3, 5)
    np.testing.assert_allclose(
        new_scene.log_scales[children],
        np.tile(scene.log_scales[2] - np.log(SPLIT_FACTOR), (2, 1)),
        rtol=1e-12,
    )
    np.testing.assert_array_equal(
        new_scene.rotations[children], np.tile(scene.rotations[2], (2, 1))
    )
    np.testing.assert_array_equal(new_scene.sh[children], np.tile(scene.sh[2], (2, 1, 1)))
    # children scatter around the parent within a few parent sigmas
    d = np.linalg.norm(new_scene.means[children] - scene.means[2], axis=1)
    assert np.all(d < 5.0) and np.all(d > 0)

    # moment remap lines up with the new layout
    state = AdamState()
    state.m["position"] = np.arange(12.0).reshape(4, 3)
    state.v["position"] = np.arange(12.0).reshape(4, 3)
    remap_adam_state(state, keep, new_scene.n - len(keep))
    assert state.m["position"].shape == (new_scene.n, 3)
    np.testing.assert_array_equal(state.m["position"][0], [3, 4, 5])
    assert np.all(state.m["position"][2:] == 0)


def test_density_control_noop_scene():
    scene = one_splat_scene(3)
    stats = DensifyStats.zeros(3)
    new_scene, report, keep = density_control(scene, stats, np.random.default_rng(1))
    assert report.n_after == 3 and report.cloned == report.split == report.pruned == 0
    np.testing.assert_array_equal(keep, [0, 1, 2])
    np.testing.assert_array_equal(new_scene.means, scene.means)
