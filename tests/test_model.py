"""Parameter activations, quaternion math, covariance, scene/camera types."""

import numpy as np
import pytest

from tilesplat.model import (
    OPACITY_MAX,
    Camera,
    GaussianScene,
    ImageRGB,
    activate,
    covariance3,
    opacity_to_logit,
    quat_normalize,
    quat_to_rotmat,
    stable_sigmoid,
)

SQ2 = np.sqrt(2.0) / 2.0


def test_sigmoid_extremes_and_inverse():
    assert stable_sigmoid(800.0) == pytest.approx(1.0)
    assert stable_sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
    x = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(opacity_to_logit(stable_sigmoid(x)), x, atol=1e-12)


def test_activate_clamps_opacity():
    _, _, opac = activate(np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]), np.array([10.0]))
    assert opac[0] == OPACITY_MAX
    _, _, opac = activate(np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]), np.array([0.0]))
    assert opac[0] == 0.5


def test_quat_normalize_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        quat_normalize(np.array([[0.0, 0.0, 0.0, 0.0]]))


def test_quat_to_rotmat_known_rotations():
    # identity
    np.testing.assert_allclose(quat_to_rotmat(np.array([1.0, 0, 0, 0])), np.eye(3))
    # 90 degrees about z maps x to y
    q = np.array([SQ2, 0.0, 0.0, SQ2])
    R = quat_to_rotmat(q)
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(R @ [0, 1, 0], [-1, 0, 0], atol=1e-12)
    # 180 degrees about x
    q = np.array([0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        quat_to_rotmat(q), np.diag([1.0, -1.0, -1.0]), atol=1e-12
    )


def test_quat_to_rotmat_orthonormal_batch():
    rng = np.random.default_rng(0)
    q = quat_normalize(rng.normal(size=(50, 4)))
    R = quat_to_rotmat(q)
    eye = np.broadcast_to(np.eye(3), (50, 3, 3))
    np.testing.assert_allclose(R @ np.swapaxes(R, 1, 2), eye, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_covariance3_axis_aligned_rotation():
    # scales (2,1,1) rotated 90 degrees about z swap the x/y variances
    scales = np.array([2.0, 1.0, 1.0])
    q = np.array([SQ2, 0.0, 0.0, SQ2])
    np.testing.assert_allclose(
        covariance3(scales, q), np.diag([1.0, 4.0, 1.0]), atol=1e-12
    )


def test_covariance3_matches_dense_formula():
    rng = np.random.default_rng(1)
    scales = np.exp(rng.normal(size=(10, 3)))
    q = quat_normalize(rng.normal(size=(10, 4)))
    got = covariance3(scales, q)
    for i in range(10):
        R = quat_to_rotmat(q[i])
        want = R @ np.diag(scales[i] ** 2) @ R.T
        np.testing.assert_allclose(got[i], want, atol=1e-12)
    # symmetric PSD
    np.testing.assert_allclose(got, np.swapaxes(got, 1, 2), atol=0)
    assert np.all(np.linalg.eigvalsh(got) > 0)


def test_scene_validation_and_degree():
    rng = np.random.default_rng(2)
    scene = GaussianScene(
        means=rng.normal(size=(4, 3)),
        log_scales=rng.normal(size=(4, 3)),
        rotations=rng.normal(size=(4, 4)),
        opacity_logits=rng.normal(size=4),
        sh=rng.normal(size=(4, 9, 3)),
    )
    assert scene.n == 4
    assert scene.degree == 2
    assert scene.sh_coeff_count == 9
    assert scene.means.dtype == np.float64

    with pytest.raises(ValueError, match="log_scales"):
        GaussianScene(
            means=np.zeros((2, 3)),
            log_scales=np.zeros((3, 3)),
            rotations=np.zeros((2, 4)),
            opacity_logits=np.zeros(2),
            sh=np.zeros((2, 1, 3)),
        )
    with pytest.raises(ValueError, match="coefficient count"):
        GaussianScene(
            means=np.zeros((2, 3)),
            log_scales=np.zeros((2, 3)),
            rotations=np.zeros((2, 4)),
            opacity_logits=np.zeros(2),
            sh=np.zeros((2, 5, 3)),
        )


def test_scene_params_are_the_raw_arrays_by_group():
    scene = GaussianScene(
        means=np.zeros((2, 3)),
        log_scales=np.zeros((2, 3)),
        rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
        opacity_logits=np.zeros(2),
        sh=np.zeros((2, 4, 3)),
    )
    params = scene.params()
    assert list(params) == ["position", "scale", "rotation", "opacity", "sh"]
    assert params["position"] is scene.means
    assert params["scale"] is scene.log_scales
    assert params["rotation"] is scene.rotations
    assert params["opacity"] is scene.opacity_logits
    assert params["sh"] is scene.sh


def test_scene_copy_is_deep():
    scene = GaussianScene(
        means=np.zeros((1, 3)),
        log_scales=np.zeros((1, 3)),
        rotations=np.array([[1.0, 0, 0, 0]]),
        opacity_logits=np.zeros(1),
        sh=np.zeros((1, 1, 3)),
    )
    dup = scene.copy()
    dup.means[0, 0] = 7.0
    assert scene.means[0, 0] == 0.0


def test_camera_properties_and_validation():
    cam = Camera(
        world_to_cam=np.eye(4), fx=100, fy=100, cx=32, cy=32, width=64, height=64
    )
    np.testing.assert_array_equal(cam.center, [0, 0, 0])

    wtc = np.eye(4)
    wtc[:3, 3] = [1.0, 2.0, 3.0]
    cam = Camera(world_to_cam=wtc, fx=100, fy=100, cx=32, cy=32, width=64, height=64)
    np.testing.assert_allclose(cam.center, [-1.0, -2.0, -3.0])

    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="orthonormal"):
        Camera(world_to_cam=bad, fx=100, fy=100, cx=32, cy=32, width=64, height=64)
    with pytest.raises(ValueError, match="focal"):
        Camera(world_to_cam=np.eye(4), fx=0, fy=100, cx=32, cy=32, width=64, height=64)


def test_image_type():
    img = ImageRGB.zeros(8, 4)
    assert img.width == 8 and img.height == 4
    assert img.data.shape == (4, 8, 3)
    with pytest.raises(ValueError, match=r"\(h, w, 3\)"):
        ImageRGB(np.zeros((4, 8)))
    bad = ImageRGB(np.full((2, 2, 3), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        bad.validate()


def _good_scene_arrays():
    rng = np.random.default_rng(7)
    return {
        "means": rng.normal(size=(3, 3)),
        "log_scales": rng.normal(size=(3, 3)),
        "rotations": rng.normal(size=(3, 4)),
        "opacity_logits": rng.normal(size=3),
        "sh": rng.normal(size=(3, 4, 3)),
    }


@pytest.mark.parametrize("field", ["means", "log_scales", "rotations", "opacity_logits", "sh"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scene_rejects_non_finite(field, value):
    arrays = _good_scene_arrays()
    arrays[field].flat[1] = value
    with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
        GaussianScene(**arrays)
    # an in-place change after construction is caught by the next validate
    scene = GaussianScene(**_good_scene_arrays())
    getattr(scene, field).flat[1] = value
    with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
        scene.validate()


def test_camera_rejects_non_finite_and_bad_near():
    from dataclasses import replace

    from tilesplat.synth import make_camera

    cam = make_camera(32, 32)
    for field in ("fx", "fy", "cx", "cy", "near"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                replace(cam, **{field: value})
    for near in (-1.0, 0.0):
        with pytest.raises(ValueError, match="^near must be positive"):
            replace(cam, near=near)
    wtc = cam.world_to_cam.copy()
    wtc[0, 3] = np.nan
    with pytest.raises(ValueError, match="^world_to_cam contains non-finite"):
        replace(cam, world_to_cam=wtc)
    assert replace(cam, near=0.5).near == 0.5
