"""The replayed backward against the splat-at-a-time reference loops.

Both read traces the forward pass made.  Counts (hits, accumulate ops,
drain events) must be equal.  Gradients are sums taken in another order
(per-entry bincounts over replayed pairs, a projected suffix color,
batched Jacobians), so each array must be within 1e-12 of the oracle's
largest magnitude in that array.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import backward_oracle as oracle
from tilesplat import forward
from tilesplat.backward import TrainConfig, backward_tile, loss_and_pixel_grads, scene_backward
from tilesplat.forward import render
from tilesplat.model import ImageRGB
from tilesplat.preprocess import preprocess
from tilesplat.synth import make_camera, random_scene

from tile_kernel import picking, traced_tile

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

    gacc, ops, drains = scene_backward(scene, cam, res.trace, grad_img, tcfg)
    screen, params, want_ops, want_drains = oracle.scene_backward(
        scene, cam, res.trace, grad_img, np.asarray(background), recip_mode,
        tcfg.offload_batch,
    )
    assert ops == want_ops
    assert drains == want_drains
    assert np.array_equal(gacc.hit_count, screen["hit_count"])
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        assert_close(getattr(gacc, key), screen[key], key)
    for key, val in gacc.param_grads().items():
        assert_close(val, params[key], key)


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
    tile entirely.  The replay reads the block side from the group.
    """
    scene, cam = small_scene(seed, n, 48, 40)
    batch = preprocess(scene, cam)[0].astype(dtype)
    order = np.argsort(batch.depth, kind="stable")
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, 48 - min(tile, 48) + 1))
    y0 = int(rng.integers(0, 40 - min(tile, 40) + 1))
    rect = (x0, y0, min(x0 + tile, 48), min(y0 + tile, 40))
    grp, steps, t_final, stop = traced_tile(batch, order, rect, eps_t, (48, 40), side)
    grad_img = rng.normal(size=(40, 48, 3))
    bg = np.asarray(background)

    got = backward_tile(batch, order, grp, steps, 3, t_final, grad_img, bg, recip_mode)
    want = oracle.backward_tile(batch, order, rect, 3, t_final, stop, grad_img, bg, recip_mode)
    assert got.tile_index == want.tile_index
    assert np.array_equal(got.order, want.order)
    assert np.array_equal(got.hits, want.hits)
    for key in ("d_rgb", "d_opacity", "d_mean2", "d_conic"):
        assert_close(getattr(got, key), getattr(want, key), key)
