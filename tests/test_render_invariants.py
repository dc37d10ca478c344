"""Render invariants over small generated scenes.

Counters balance, culling accounts for every input Gaussian, pixels are
finite and non-negative, and the thread count changes no byte of the
image or the stats text, for every schedule and with renders spread over
one group or several.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilesplat import forward
from tilesplat.forward import RenderConfig, render
from tilesplat.synth import make_camera, random_scene


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
