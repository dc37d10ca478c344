"""The replayed backward against the splat-at-a-time reference loops.

Both read traces the forward pass made, or, for the chain alone,
random screen-space totals.  Counts (hits, accumulate ops, drain
events) must be equal.  Gradients are sums taken in another order
(per-entry bincounts over replayed pairs, a projected suffix color,
batched Jacobians), so each array must be within 1e-12 of the oracle's
largest magnitude in that array.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import backward_oracle as oracle
from tilesplat import forward
from tilesplat.backward import (
    TrainConfig,
    backward_tile,
    chain_to_3d,
    loss_and_pixel_grads,
    scene_backward,
)
from tilesplat.forward import render
from tilesplat.model import ImageRGB
from tilesplat.preprocess import preprocess
from tilesplat.synth import make_camera, orbit_camera, random_scene

from tile_kernel import picking, render_tiles, traced_tile

EXAMPLES = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
REL = 1e-12

DTYPE = st.sampled_from([np.float32, np.float64])
RECIP = st.sampled_from(["exact", "approx"])
BACKGROUND = st.sampled_from([(0.0, 0.0, 0.0), (0.2, 0.1, 0.4)])
SIDE = st.sampled_from([forward.BLOCK, forward.BLOCK // 2])


def small_scene(seed: int, n: int, w: int, h: int):
    """Few splats from sharp to wide, opaque enough that pixels terminate."""
    cam = make_camera(w, h, focal=float(max(w, h)))
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, cam, px_sigma=(0.6, 9.0), logit_range=(-3.0, 6.0))
    return scene, cam


def assert_close(got, want, what):
    scale = np.abs(want).max(initial=0.0)
    err = np.abs(got - want).max(initial=0.0)
    assert err <= REL * scale, f"{what}: max error {err:.3e} vs scale {scale:.3e}"


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    w=st.integers(8, 48),
    h=st.integers(8, 48),
    tile=st.tuples(st.integers(8, 64), st.integers(8, 64)),
    dtype=DTYPE,
    recip_mode=RECIP,
    loss=st.sampled_from(["l1", "l2"]),
    background=BACKGROUND,
    eps_t=st.sampled_from([0.0, 1e-4, 0.3]),
    side=SIDE,
)
def test_scene_backward_matches_oracle(
    seed, n, w, h, tile, dtype, recip_mode, loss, background, eps_t, side
):
    scene, cam = small_scene(seed, n, w, h)
    tcfg = TrainConfig(
        tile_size=tile, loss=loss, background=background, eps_t=eps_t,
        recip_mode=recip_mode, dtype=dtype,
    )
    with picking(side):
        res = render(scene, cam, tcfg.render_config(), want_trace=True)
    rng = np.random.default_rng(seed)
    target = ImageRGB(rng.uniform(0.0, 1.0, size=(h, w, 3)))
    _, grad_img = loss_and_pixel_grads(res.image, target, loss)

    screen, grads, ops, drains = scene_backward(scene, cam, res.trace, grad_img, tcfg)
    _, _, stop, _ = render_tiles(res.trace.batch, res.trace.binning, tcfg.render_config(), side)
    want_screen, want_grads, want_ops, want_drains = oracle.scene_backward(
        scene, cam, res.trace, stop, grad_img, np.asarray(background), recip_mode
    )
    assert ops == want_ops
    assert drains == want_drains
    assert screen.keys() == want_screen.keys()
    assert np.array_equal(screen["hit_count"], want_screen["hit_count"])
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        assert_close(screen[key], want_screen[key], key)
    assert grads.keys() == want_grads.keys()
    for key, val in grads.items():
        assert_close(val, want_grads[key], key)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    tile=st.integers(8, 64),
    dtype=DTYPE,
    recip_mode=RECIP,
    background=BACKGROUND,
    eps_t=st.sampled_from([0.0, 1e-4, 0.3]),
    side=SIDE,
)
def test_backward_tile_matches_oracle(
    seed, n, tile, dtype, recip_mode, background, eps_t, side
):
    """One tile blended with a record: pixels stop wherever eps_t takes them.

    The list is every splat in depth order, so some entries miss the
    tile entirely.
    """
    scene, cam = small_scene(seed, n, 48, 40)
    batch = preprocess(scene, cam)[0].astype(dtype)
    order = np.argsort(batch.depth, kind="stable")
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, 48 - min(tile, 48) + 1))
    y0 = int(rng.integers(0, 40 - min(tile, 40) + 1))
    rect = (x0, y0, min(x0 + tile, 48), min(y0 + tile, 40))
    steps, t_final, stop = traced_tile(batch, order, rect, eps_t, (48, 40), side)
    grad_img = rng.normal(size=(40, 48, 3))
    bg = np.asarray(background)

    got = backward_tile(batch, order, steps, t_final, grad_img, bg, recip_mode)
    want = oracle.backward_tile(batch, order, rect, 3, t_final, stop, grad_img, bg, recip_mode)
    assert np.array_equal(got["hit_count"], want.hits)
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        assert_close(got[key], getattr(want, key), key)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    degree=st.integers(0, 3),
    angle=st.floats(-60.0, 60.0),
)
def test_chain_to_3d_matches_oracle(seed, n, degree, angle):
    """The batched chain against the per-Gaussian one on random screen totals.

    Each Gaussian is plain, above the 0.99 opacity ceiling, has one SH
    channel clamped at zero, or sits behind the camera (culled, so not
    in the batch); batch rows with hit_count 0 must get no gradient.
    """
    rng = np.random.default_rng(seed)
    scene = random_scene(
        rng, n, make_camera(40, 32), degree=degree, px_sigma=(0.6, 9.0),
        logit_range=(-3.0, 6.0),
    )
    cam = orbit_camera(40, 32, angle, radius=6.0, target_z=6.0)
    # the scene was made in camera space: move it to world space
    scene.means = (scene.means - cam.translation) @ cam.rotation
    kind = rng.integers(0, 4, size=n)
    scene.opacity_logits[kind == 1] = 6.0  # sigmoid 0.9975
    scene.sh[kind == 2, 0, rng.integers(0, 3)] = -3.0
    scene.means[kind == 3] = (np.array([0.0, 0.0, -2.0]) - cam.translation) @ cam.rotation
    batch = preprocess(scene, cam)[0]
    assert not np.isin(np.flatnonzero(kind == 3), batch.gaussian_index).any()
    assert batch.rgb_clamped[kind[batch.gaussian_index] == 2].any(axis=1).all()
    m = batch.n
    screen = {
        "d_rgb": rng.normal(size=(m, 3)),
        "d_opacity": rng.normal(size=m),
        "d_mean2": rng.normal(size=(m, 2)),
        "d_conic": rng.normal(size=(m, 3)),
        "hit_count": rng.integers(0, 3, size=m),
    }

    got = chain_to_3d(scene, cam, batch, screen)
    want = oracle.chain_to_3d(scene, cam, batch, screen)
    assert got.keys() == want.keys()
    for key, val in got.items():
        assert_close(val, want[key], key)
