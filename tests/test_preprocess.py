"""Projection, culling, AABB, and tile binning against brute-force oracles."""

import numpy as np
import pytest

from tilesplat.model import Camera, GaussianScene, opacity_to_logit
from tilesplat.preprocess import (
    BOUNDING_SIGMAS,
    LOW_PASS_DILATION,
    bin_and_sort,
    preprocess,
)
from tilesplat.synth import make_camera, random_scene

from tile_kernel import brute_force_lists, tile_lists


def _single_scene(mean, log_scale=None, rotation=None, opacity=0.8, rgb_dc=None):
    return GaussianScene(
        means=np.array([mean], dtype=np.float64),
        log_scales=np.array([log_scale if log_scale is not None else [0.0] * 3]),
        rotations=np.array([rotation if rotation is not None else [1.0, 0, 0, 0]]),
        opacity_logits=np.array([float(opacity_to_logit(opacity))]),
        sh=np.array([[rgb_dc if rgb_dc is not None else [0.0, 0.0, 0.0]]]),
    )


def test_near_plane_cull():
    cam = make_camera(64, 64)
    scene = _single_scene([0.0, 0.0, 0.1])  # closer than near = 0.2
    batch, stats = preprocess(scene, cam)
    assert batch.n == 0
    assert stats.culled_near == 1
    assert stats.n_visible == 0


def test_projection_center_and_depth():
    cam = make_camera(64, 64, focal=100.0)
    scene = _single_scene([0.0, 0.0, 4.0], log_scale=[np.log(0.1)] * 3)
    batch, stats = preprocess(scene, cam)
    assert batch.n == 1 and stats.n_visible == 1
    np.testing.assert_allclose(batch.mean2[0], [32.0, 32.0])
    assert batch.depth[0] == 4.0
    assert batch.opacity[0] == pytest.approx(0.8)


def test_cov2_matches_numeric_jacobian():
    """The projected covariance must equal J Sigma_cam J^T + dilation with J
    the numeric Jacobian of the pinhole map at the mean."""
    rng = np.random.default_rng(0)
    cam = make_camera(64, 64, focal=90.0)
    scene = random_scene(rng, 6, cam)
    batch, _ = preprocess(scene, cam)

    from tilesplat.model import activate, covariance3

    scales, rots, _ = activate(scene.log_scales, scene.rotations, scene.opacity_logits)
    cov3 = covariance3(scales, rots)

    def pinhole(t):
        return np.array(
            [cam.fx * t[0] / t[2] + cam.cx, cam.fy * t[1] / t[2] + cam.cy]
        )

    R, tr = cam.rotation, cam.translation
    for row in range(batch.n):
        g = batch.gaussian_index[row]
        t = R @ scene.means[g] + tr
        h = 1e-6
        J = np.zeros((2, 3))
        for axis in range(3):
            dp, dm = t.copy(), t.copy()
            dp[axis] += h
            dm[axis] -= h
            J[:, axis] = (pinhole(dp) - pinhole(dm)) / (2 * h)
        cov_cam = R @ cov3[g] @ R.T
        want = J @ cov_cam @ J.T + LOW_PASS_DILATION * np.eye(2)
        got = np.array(
            [
                [batch.cov2[row, 0], batch.cov2[row, 1]],
                [batch.cov2[row, 1], batch.cov2[row, 2]],
            ]
        )
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
        # conic is the exact inverse of the dilated covariance
        conic = np.array(
            [
                [batch.conic[row, 0], batch.conic[row, 1]],
                [batch.conic[row, 1], batch.conic[row, 2]],
            ]
        )
        np.testing.assert_allclose(conic @ got, np.eye(2), atol=1e-9)


def aabb_oracle(mean2, cov2, width: int, height: int):
    """Half-open 3-sigma pixel box around floor(mean), clipped; None if empty.

    The scalar formula written out apart from preprocess, as the oracle
    for its batched bounds.
    """
    a, b, c = (float(v) for v in cov2)
    lam_max = 0.5 * (a + c) + np.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))
    r = int(np.ceil(BOUNDING_SIGMAS * np.sqrt(lam_max)))
    cx, cy = int(np.floor(mean2[0])), int(np.floor(mean2[1]))
    x0, x1 = max(cx - r, 0), min(cx + r + 1, width)
    y0, y1 = max(cy - r, 0), min(cy + r + 1, height)
    if x0 >= x1 or y0 >= y1:
        return None
    return np.array([x0, y0, x1, y1], dtype=np.int64), r


def test_aabb_oracle_examples():
    # isotropic cov with lam_max = 4: radius ceil(3*2) = 6 around floor(mean)
    box, r = aabb_oracle([32.3, 20.7], [4.0, 0.0, 4.0], 64, 64)
    np.testing.assert_array_equal(box, [26, 14, 39, 27])
    assert r == 6
    box, _ = aabb_oracle([1.0, 1.0], [4.0, 0.0, 4.0], 64, 64)
    np.testing.assert_array_equal(box, [0, 0, 8, 8])
    assert aabb_oracle([-50.0, 30.0], [4.0, 0.0, 4.0], 64, 64) is None


@pytest.mark.parametrize("seed", range(6))
def test_aabb_matches_scalar_oracle_across_image_edges(seed):
    """preprocess's clipped boxes, radii and off-screen culls equal the oracle.

    The scene is projected twice with the same intrinsics: onto the image
    and onto a much larger one that extends it to the right and below, so
    every splat the image culls off-screen is still a row to check.
    """
    w, h = 48, 40
    cam = make_camera(w, h, focal=60.0)
    big = Camera(np.eye(4), cam.fx, cam.fy, cam.cx, cam.cy, 8 * w, 8 * h)
    # means up to 40% of a side beyond each edge, sigmas up to 10 px
    scene = random_scene(np.random.default_rng(seed), 300, cam,
                         px_sigma=(0.5, 10.0), margin=-0.4)
    small, stats = preprocess(scene, cam)
    wide, _ = preprocess(scene, big)
    rows = {int(g): i for i, g in enumerate(small.gaussian_index)}
    straddles = np.zeros(4, dtype=bool)  # left, top, right, bottom
    culled = checked = 0
    for j, g in enumerate(wide.gaussian_index):
        want = aabb_oracle(wide.mean2[j], wide.cov2[j], w, h)
        if want is None:
            assert int(g) not in rows
            culled += 1
            continue
        box, r = want
        i = rows[int(g)]
        checked += 1
        np.testing.assert_array_equal(small.aabb[i], box)
        cx, cy = np.floor(wide.mean2[j])
        straddles |= [cx - r < 0, cy - r < 0, cx + r + 1 > w, cy + r + 1 > h]
    assert checked == small.n
    assert straddles.all()
    assert 0 < culled <= stats.culled_offscreen


def test_offscreen_cull_in_preprocess():
    cam = make_camera(64, 64, focal=100.0)
    scene = _single_scene([100.0, 0.0, 4.0], log_scale=[np.log(0.05)] * 3)
    batch, stats = preprocess(scene, cam)
    assert batch.n == 0
    assert stats.culled_offscreen == 1


def test_unclipped_boxes_reach_three_sigma():
    rng = np.random.default_rng(1)
    cam = make_camera(128, 128)
    scene = random_scene(rng, 30, cam)
    batch, _ = preprocess(scene, cam)
    a, b, c = batch.cov2[:, 0], batch.cov2[:, 1], batch.cov2[:, 2]
    lam = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)
    reach = BOUNDING_SIGMAS * np.sqrt(lam)[:, None] - 1e-9
    x0, y0, x1, y1 = batch.aabb.T
    inside = (x0 > 0) & (y0 > 0) & (x1 < 128) & (y1 < 128)
    assert inside.sum() >= 10
    assert np.all(batch.mean2[inside] - batch.aabb[inside, :2] >= reach[inside])
    assert np.all(batch.aabb[inside, 2:] - batch.mean2[inside] >= reach[inside])


def test_batch_astype_shares_metadata():
    rng = np.random.default_rng(2)
    cam = make_camera(64, 64)
    scene = random_scene(rng, 10, cam)
    batch, _ = preprocess(scene, cam)
    b32 = batch.astype(np.float32)
    assert b32.mean2.dtype == np.float32
    assert b32.aabb is batch.aabb
    assert b32.gaussian_index is batch.gaussian_index


@pytest.mark.parametrize("tile_size", [(16, 16), (32, 32), (16, 32), (64, 64)])
def test_binning_matches_brute_force(tile_size):
    rng = np.random.default_rng(3)
    cam = make_camera(48, 48)
    scene = random_scene(rng, 40, cam, px_sigma=(1.0, 8.0))
    batch, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch, tile_size, (48, 48))
    want = brute_force_lists(batch, tile_size, (48, 48))
    assert binning.n_tiles == len(want)
    assert binning.offsets[0] == 0 and binning.offsets[-1] == len(binning.order)
    for got, exp in zip(tile_lists(binning), want):
        np.testing.assert_array_equal(got, exp)
    # each splat is listed once per tile its AABB's tile span covers
    tw, th = tile_size
    x0, y0, x1, y1 = batch.aabb.T
    spans = ((x1 - 1) // tw - x0 // tw + 1) * ((y1 - 1) // th - y0 // th + 1)
    np.testing.assert_array_equal(
        np.bincount(binning.order, minlength=batch.n), spans
    )
    assert binning.total_invocations == sum(len(l) for l in want)


def test_binning_depth_ties_by_index():
    # two identical-depth splats must list in index order everywhere
    cam = make_camera(32, 32, focal=50.0)
    scene = GaussianScene(
        means=np.array([[0.1, 0.0, 5.0], [-0.1, 0.0, 5.0]]),
        log_scales=np.full((2, 3), np.log(0.2)),
        rotations=np.array([[1.0, 0, 0, 0]] * 2),
        opacity_logits=np.zeros(2),
        sh=np.zeros((2, 1, 3)),
    )
    batch, _ = preprocess(scene, cam)
    assert batch.depth[0] == batch.depth[1]
    binning = bin_and_sort(batch, (32, 32), (32, 32))
    np.testing.assert_array_equal(binning.order, [0, 1])  # the only tile's list


def test_tile_rect_partial_edges():
    rng = np.random.default_rng(4)
    cam = make_camera(50, 30)
    scene = random_scene(rng, 5, cam)
    batch, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch, (16, 16), (50, 30))
    assert (binning.nx, binning.ny) == (4, 2)
    rects = binning.rects()
    assert rects.shape == (8, 4)
    assert rects[3].tolist() == [48, 0, 50, 16]
    assert rects[7].tolist() == [48, 16, 50, 30]
    assert rects[4].tolist() == [0, 16, 16, 30]


def test_empty_batch_binning():
    cam = make_camera(32, 32)
    scene = _single_scene([0.0, 0.0, 0.05])  # culled
    batch, _ = preprocess(scene, cam)
    binning = bin_and_sort(batch, (16, 16), (32, 32))
    assert binning.total_invocations == 0
    assert len(binning.order) == 0
    assert binning.offsets.tolist() == [0] * (binning.n_tiles + 1)


def test_screen_covering_splat_is_binned_without_overflow():
    """A splat far larger than the screen covers every tile; no int64 overflow."""
    import warnings

    cam = make_camera(64, 48, focal=60.0)
    rng = np.random.default_rng(8)
    scene = random_scene(rng, 5, cam)
    scene.log_scales[0] = 50.0  # 3 sigma is about 1e24 px
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch, stats = preprocess(scene, cam)
        binning = bin_and_sort(batch, (16, 16), (cam.width, cam.height))
    assert stats.culled_offscreen == 0 and stats.culled_degenerate == 0
    row = int(np.flatnonzero(batch.gaussian_index == 0)[0])
    np.testing.assert_array_equal(batch.aabb[row], [0, 0, 64, 48])
    assert np.bincount(binning.order)[row] == binning.n_tiles
    assert all(row in lst for lst in tile_lists(binning))


@pytest.mark.parametrize("log_scale", [200.0, 400.0, 800.0])
def test_overflowing_scale_is_rejected_not_culled(log_scale):
    """A finite log scale whose 2D covariance overflows names the field and
    the Gaussian; it is not counted as degenerate."""
    import warnings

    cam = make_camera(64, 64)
    scene = random_scene(np.random.default_rng(1), 4, cam)
    scene.log_scales[0] = log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^log_scales of Gaussian 0 "):
            preprocess(scene, cam)


def test_non_finite_scene_is_rejected_not_culled():
    cam = make_camera(32, 32)
    scene = random_scene(np.random.default_rng(9), 4, cam)
    scene.means[1, 2] = np.nan  # changed after construction
    with pytest.raises(ValueError, match="^means contains non-finite"):
        preprocess(scene, cam)
