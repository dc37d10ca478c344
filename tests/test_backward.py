"""Backward pass: per-tile sweeps, cross-tile folds, parameter chain."""

from unittest import mock

import numpy as np
import pytest

import backward_oracle
from tilesplat import backward, forward
from tilesplat.backward import (
    OFFLOAD_BATCH,
    TrainConfig,
    _normalize_vjp,
    _quat_to_rotmat_vjp,
    accumulate_cross_tile,
    backward_tile,
    loss_and_pixel_grads,
    scene_backward,
)
from tilesplat.gradcheck import analytic_grads, make_fd_case, reference_config
from tilesplat.model import ImageRGB, quat_to_rotmat
from tilesplat.preprocess import preprocess
from tilesplat.sh import SH_C0
from tilesplat.synth import make_camera, random_scene

from test_forward import hand_batch, workload_views
from tile_kernel import traced_tile


def run_backward(batch, order, rect, grad_img, bg=(0, 0, 0), eps_t=1e-4):
    """Blend ``order`` over one tile with a record, then replay it.

    Returns the tile's per-entry sums and the traced (T, stop) images.
    """
    order = np.asarray(order)
    h, w = np.shape(grad_img)[:2]
    steps, t_final, stop = traced_tile(batch, order, rect, eps_t, (w, h))
    part = backward_tile(
        batch, order, steps, t_final,
        np.asarray(grad_img, dtype=np.float64),
        np.asarray(bg, dtype=np.float64),
        "exact",
    )
    return part, t_final, stop


def test_single_splat_closed_forms():
    o = 0.6
    c = np.array([0.8, 0.5, 0.2])
    bg = np.array([0.1, 0.2, 0.3])
    batch = hand_batch(
        [dict(mean2=(0.5, 0.5), conic=(1.0, 0.0, 1.0), depth=1.0, rgb=tuple(c),
              opacity=o)],
        image=(2, 1),
    )
    a0 = o                      # at the mean
    a1 = o * np.exp(-0.5)       # dx = 1
    g = np.array([[[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]])
    part, t_final, stop = run_backward(batch, [0], (0, 0, 2, 1), g, bg)
    np.testing.assert_allclose(t_final, [[1 - a0, 1 - a1]], rtol=1e-15)
    assert np.all(stop == 1)

    np.testing.assert_allclose(part["d_rgb"][0], a0 * g[0, 0] + a1 * g[0, 1], rtol=1e-12)
    # d(out)/d(alpha) = (color - background) . pixel grad, transmittance 1
    dla = np.array([(c - bg) @ g[0, 0], (c - bg) @ g[0, 1]])
    # alpha = opacity * exp(-q/2)
    np.testing.assert_allclose(
        part["d_opacity"][0], (a0 * dla[0] + a1 * dla[1]) / o, rtol=1e-12
    )
    # q grads: only the off-center pixel has dx != 0
    dq1 = -0.5 * a1 * dla[1]
    np.testing.assert_allclose(part["d_conic"][0], [dq1, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(part["d_mean2"][0], [-2.0 * dq1, 0.0], atol=1e-15)
    assert part["hit_count"][0] == 2


def test_two_splat_suffix_accumulator():
    c1 = np.array([1.0, 0.0, 0.0])
    c2 = np.array([0.0, 1.0, 0.0])
    batch = hand_batch(
        [
            dict(mean2=(0.5, 0.5), conic=(1, 0, 1), depth=1.0, rgb=tuple(c1), opacity=0.5),
            dict(mean2=(0.5, 0.5), conic=(1, 0, 1), depth=2.0, rgb=tuple(c2), opacity=0.8),
        ],
        image=(1, 1),
    )
    g = np.ones((1, 1, 3))
    part, t_final, stop = run_backward(batch, [0, 1], (0, 0, 1, 1), g)
    assert t_final[0, 0] == pytest.approx(0.5 * 0.2, rel=1e-15)
    assert stop[0, 0] == 2

    np.testing.assert_allclose(part["d_rgb"][0], 0.5 * np.ones(3), rtol=1e-12)
    np.testing.assert_allclose(part["d_rgb"][1], 0.5 * 0.8 * np.ones(3), rtol=1e-12)
    # alpha equals opacity at the mean, so d_opacity is the alpha grad here;
    # the front splat sees the composited color behind it
    assert part["d_opacity"][0] == pytest.approx((c1 - 0.8 * c2) @ np.ones(3), rel=1e-12)
    assert part["d_opacity"][1] == pytest.approx(0.5 * (c2 @ np.ones(3)), rel=1e-12)


def test_stop_masks_gradient():
    splats = [
        dict(mean2=(0.5, 0.5), conic=(1, 0, 1), depth=float(k + 1),
             rgb=(1, 1, 1), opacity=0.99)
        for k in range(3)
    ]
    batch = hand_batch(splats, image=(1, 1))
    # T = 0.01 after splat 1, below eps_t: the pixel stops there
    part, t_final, stop = run_backward(
        batch, [0, 1, 2], (0, 0, 1, 1), np.ones((1, 1, 3)), eps_t=0.05
    )
    assert t_final[0, 0] == pytest.approx(0.01) and stop[0, 0] == 1
    assert part["hit_count"][0] == 1
    assert part["hit_count"][1] == part["hit_count"][2] == 0
    assert np.all(part["d_rgb"][1:] == 0)
    assert np.all(part["d_opacity"][1:] == 0)


def test_entry_gets_gradient_only_inside_its_window():
    """Two overlapping entries: the first one's AABB covers half the tile."""
    wide = dict(conic=(0.01, 0.0, 0.01), rgb=(0.3, 0.6, 0.9), opacity=0.7)
    batch = hand_batch(
        [dict(mean2=(4.0, 4.0), depth=1.0, **wide), dict(mean2=(3.0, 5.0), depth=2.0, **wide)]
    )
    batch.aabb[0] = (0, 0, 4, 8)  # alpha stays far above 1/255 beyond it
    rng = np.random.default_rng(0)
    order, rect, bg = np.array([0, 1]), (0, 0, 8, 8), (0.1, 0.2, 0.3)
    g = rng.normal(size=(8, 8, 3))
    part, t_final, stop = run_backward(batch, order, rect, g, bg, eps_t=0.0)
    want = backward_oracle.backward_tile(
        batch, order, rect, 0, t_final, stop, g, np.asarray(bg), "exact"
    )
    assert list(part["hit_count"]) == [32, 64]
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        np.testing.assert_allclose(part[key], getattr(want, key), rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("bg", [(0.0, 0.0, 0.0), (0.2, 0.1, 0.4)])
@pytest.mark.parametrize("recip_mode", ["exact", "approx"])
@pytest.mark.parametrize("eps_t", [0.0, 1e-4])
def test_replay_runs_find_rows_across_steps(seed, bg, recip_mode, eps_t):
    """A replay run concatenates several recorded steps, so each row's first
    pair is found from the run's row counts.  Replaying one step per run
    must give the same hits, and the same sums up to summation order."""
    cam = make_camera(40, 36, focal=40.0)
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, 80, cam, px_sigma=(0.6, 4.0), logit_range=(-3.0, 6.0))
    batch = preprocess(scene, cam)[0]
    order = np.argsort(batch.depth, kind="stable")
    steps, t_final, _ = traced_tile(batch, order, (4, 2, 36, 34), eps_t, (40, 36))
    sizes = [len(step[0]) for step in steps]
    cap = min(backward.GROUP_MAX_PX, t_final.size)  # the replay's run cap
    assert max(k1 - k0 for k0, k1 in backward._step_runs(sizes, cap)) > 1
    args = (batch, order, steps, t_final, rng.normal(size=(36, 40, 3)),
            np.asarray(bg), recip_mode)
    runs = backward_tile(*args)
    with mock.patch.object(
        backward, "_step_runs", lambda sizes, cap: [[k, k + 1] for k in range(len(sizes))]
    ):
        single = backward_tile(*args)
    assert np.array_equal(runs["hit_count"], single["hit_count"])
    assert runs["hit_count"].sum() == sum(sizes)
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        scale = np.abs(single[key]).max()
        assert np.abs(runs[key] - single[key]).max() <= 1e-13 * scale, key


def test_entries_are_numbered_view_wide_across_groups():
    """Each tile group records its entries by their place in the view's
    lists.  A train-shaped view cut into several groups replays to the hits
    of one group, and to its sums and gradients up to summation order, and
    the thread count changes no bit."""
    scene, cams = workload_views("train", 5)
    cam = cams[1]
    grad_img = np.random.default_rng(5).normal(scale=1e-4, size=(cam.height, cam.width, 3))

    def run(group_px, threads):
        tcfg = TrainConfig(threads=threads)
        with (
            mock.patch.object(forward, "GROUP_MAX_PX", group_px),
            mock.patch.object(forward, "BlockGroup", wraps=forward.BlockGroup) as spy,
        ):
            trace = forward.render(scene, cam, tcfg.render_config(), want_trace=True).trace
        screen, grads, ops, drains = scene_backward(scene, cam, trace, grad_img, tcfg)
        return spy.call_count, {**screen, **grads}, (ops, drains)

    groups, want, counts = run(forward.GROUP_MAX_PX, 1)
    assert groups == 1
    # two 32x64 px tiles per group
    (groups, got, got_counts), (_, got2, counts2) = run(4096, 1), run(4096, 2)
    assert groups >= 3 and got_counts == counts2 == counts
    for key, value in want.items():
        assert np.array_equal(got[key], got2[key]), key
        if key == "hit_count":
            assert np.array_equal(got[key], value)
        else:
            assert np.abs(got[key] - value).max() <= 1e-13 * np.abs(value).max(), key


@pytest.mark.parametrize("eps_t", [-1.0, 1.5, float("nan")])
def test_train_config_rejects_eps_t_outside_unit_interval(eps_t):
    with pytest.raises(ValueError, match="eps_t"):
        TrainConfig(eps_t=eps_t).validate()


@pytest.mark.parametrize("kw, field", [
    (dict(tile_size=(8.5, 8)), "tile_size"),
    (dict(threads=1.0), "threads"),
])
def test_train_config_rejects_non_integers(kw, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kw).validate()
    TrainConfig(tile_size=(np.int64(8), 8)).validate()


def test_loss_and_pixel_grads():
    rendered = ImageRGB(np.array([[[0.5, 0.25, 0.0]]], dtype=np.float32))
    target = ImageRGB(np.array([[[0.25, 0.25, 0.5]]], dtype=np.float32))
    loss, grad = loss_and_pixel_grads(rendered, target, "l1")
    assert loss == pytest.approx(0.75 / 3)
    np.testing.assert_allclose(grad, [[[1 / 3, 0.0, -1 / 3]]])
    loss, grad = loss_and_pixel_grads(rendered, target, "l2")
    assert loss == pytest.approx((0.0625 + 0.25) / 3)
    np.testing.assert_allclose(grad, [[[2 * 0.25 / 3, 0.0, 2 * -0.5 / 3]]])
    with pytest.raises(ValueError, match="mismatch"):
        loss_and_pixel_grads(rendered, ImageRGB(np.zeros((2, 1, 3), np.float32)))
    with pytest.raises(ValueError, match="loss"):
        loss_and_pixel_grads(rendered, target, "huber")


def make_part(order, value):
    """Entries ``order`` and sums over them: every sum ``value``, one hit per entry."""
    p = len(order)
    return np.asarray(order, dtype=np.int64), {
        "d_rgb": np.full((p, 3), value),
        "d_opacity": np.full(p, value),
        "d_mean2": np.full((p, 2), value),
        "d_conic": np.full((p, 3), value),
        "hit_count": np.ones(p, dtype=np.int64),
    }


def test_accumulate_cross_tile_fold():
    # three tiles, tile order: [0, 0, 5], [] and range(20)
    order, sums = make_part([0, 0, 5] + list(range(20)), 1.0)
    offsets = np.array([0, 3, 3, 23])
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        sums[key][:3] = 2.0  # the first tile's; duplicate rows fold additively
    acc, ops, drains = accumulate_cross_tile(order, sums, offsets, 24)
    assert ops == 23
    assert OFFLOAD_BATCH == 16
    assert drains == 1 + 0 + 2  # ceil(3/16) + ceil(0/16) + ceil(20/16)
    assert acc["d_opacity"][0] == pytest.approx(2.0 + 2.0 + 1.0)
    assert acc["d_opacity"][5] == pytest.approx(2.0 + 1.0)
    assert acc["d_opacity"][19] == pytest.approx(1.0)
    assert np.all(acc["d_opacity"][20:] == 0)
    assert acc["hit_count"][0] == 3
    assert acc["hit_count"].dtype == np.int64
    empty, ops, drains = accumulate_cross_tile(*make_part([], 0.0), np.array([0, 0]), 2)
    assert (ops, drains) == (0, 0)
    assert all(not v.any() for v in empty.values())


def test_param_grads_keys_and_culled_rows():
    from tilesplat.forward import render

    cam = make_camera(16, 16, focal=12.0)
    rng = np.random.default_rng(3)
    scene = random_scene(rng, 3, cam)
    scene.means[2, 2] = -5.0  # push one gaussian behind the camera
    tcfg = reference_config()
    res = render(scene, cam, tcfg.render_config(), want_trace=True)
    grad_img = np.ones((16, 16, 3)) / (16 * 16 * 3)
    screen, grads, ops, drains = scene_backward(scene, cam, res.trace, grad_img, tcfg)
    params = scene.params()
    assert list(grads) == list(params)
    for key, arr in grads.items():
        assert arr.shape == params[key].shape, key
        assert arr.dtype == np.float64, key
        assert np.all(np.isfinite(arr)), key
        assert np.all(arr[2] == 0), key
    assert 2 not in res.trace.batch.gaussian_index
    assert all(len(v) == res.trace.batch.n for v in screen.values())
    assert ops > 0 and drains > 0


def test_sh_dc_grad_tracks_color_grad():
    cam = make_camera(16, 16, focal=12.0)
    rng = np.random.default_rng(4)
    scene = random_scene(rng, 4, cam, logit_range=(0.0, 1.0))
    tcfg = reference_config()
    from tilesplat.forward import render

    res = render(scene, cam, tcfg.render_config(), want_trace=True)
    grad_img = rng.normal(size=(16, 16, 3))
    screen, grads, _, _ = scene_backward(scene, cam, res.trace, grad_img, tcfg)
    batch = res.trace.batch64
    unclamped = ~batch.rgb_clamped
    want = np.zeros_like(grads["sh"][:, 0, :])
    want[batch.gaussian_index] = np.where(unclamped, SH_C0 * screen["d_rgb"], 0.0)
    np.testing.assert_allclose(grads["sh"][:, 0, :], want, rtol=1e-12, atol=1e-15)


def test_clamped_channel_gets_zero_sh_grad():
    cam = make_camera(8, 8, focal=6.0)
    scene, views, _ = make_fd_case(0, n=3, size=8)
    scene.sh[:, 0, 2] = -2.0  # raw blue goes negative: clamped to zero
    tcfg = reference_config()
    from tilesplat.forward import render

    res = render(scene, views[0][0], tcfg.render_config(), want_trace=True)
    assert np.all(res.trace.batch64.rgb_clamped[:, 2])
    _, grads, _, _ = scene_backward(
        scene, views[0][0], res.trace, np.ones((8, 8, 3)), tcfg
    )
    assert np.all(grads["sh"][:, :, 2] == 0)


def test_approx_recip_backward_close_to_exact():
    scene, views, _ = make_fd_case(11, n=6, size=16)
    exact = analytic_grads(scene, views, reference_config(recip_mode="exact"))
    approx = analytic_grads(scene, views, reference_config(recip_mode="approx"))
    for key in exact:
        a, b = exact[key], approx[key]
        scale = np.abs(a).max() + 1e-12
        assert np.abs(a - b).max() / scale < 2e-2, key


def central_fd(f, x, h):
    """Central differences of scalar f at every entry of x."""
    out = np.empty_like(x)
    for j in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (f(xp) - f(xm)) / (2 * h)
    return out


def test_normalize_grad_matches_fd():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(6, 4))
    g = rng.normal(size=(6, 4))
    got = _normalize_vjp(v, g)
    want = central_fd(
        lambda x: ((x / np.linalg.norm(x, axis=1, keepdims=True)) * g).sum(), v, 1e-7
    )
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_quat_rotmat_grad_matches_fd():
    """Rotation backward of several rows: raw quaternion -> unit -> matrix."""
    rng = np.random.default_rng(6)
    q_raw = rng.normal(size=(5, 4))
    G = rng.normal(size=(5, 3, 3))
    q = q_raw / np.linalg.norm(q_raw, axis=1, keepdims=True)
    got_unit = _quat_to_rotmat_vjp(q, G)
    want_unit = central_fd(lambda x: (quat_to_rotmat(x) * G).sum(), q, 1e-6)
    np.testing.assert_allclose(got_unit, want_unit, rtol=1e-6, atol=1e-9)
    got = _normalize_vjp(q_raw, got_unit)
    want = central_fd(
        lambda x: (quat_to_rotmat(x / np.linalg.norm(x, axis=1, keepdims=True)) * G).sum(),
        q_raw,
        1e-6,
    )
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_backward_thread_determinism():
    scene, views, _ = make_fd_case(12, n=8, size=16)
    grads = []
    for threads in (1, 4):
        tcfg = reference_config()
        tcfg.threads = threads
        grads.append(analytic_grads(scene, views, tcfg))
    for key in grads[0]:
        np.testing.assert_array_equal(grads[0][key], grads[1][key])
