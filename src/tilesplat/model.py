"""Gaussian primitives, cameras, and image buffers.

Raw parameters live in unconstrained space (log scales, unnormalized
quaternions, opacity logits) so gradient steps stay unconstrained; the
activation layer maps them to the constrained values the renderer uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Opacity ceiling keeps (1 - alpha) >= 0.01 so the backward reciprocal
# stays bounded.
OPACITY_MAX = 0.99


def stable_sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def opacity_to_logit(o):
    """Inverse of the sigmoid activation, for building test scenes."""
    o = np.asarray(o, dtype=np.float64)
    return np.log(o) - np.log1p(-o)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize quaternions along the last axis; zero norm is an error."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise ValueError("degenerate rotation: quaternion norm is zero")
    return q / norm


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to rotation matrix; batched over leading dims."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def activate(log_scales, rotations, opacity_logits):
    """Map raw parameters to (scales, unit quaternions, clamped opacities)."""
    scales = np.exp(np.asarray(log_scales, dtype=np.float64))
    rots = quat_normalize(rotations)
    opac = np.minimum(stable_sigmoid(opacity_logits), OPACITY_MAX)
    return scales, rots, opac


def covariance3(scales, rotations) -> np.ndarray:
    """3D covariance R * diag(s^2) * R^T from activated scale and unit quaternion.

    Accepts (..., 3) scales and (..., 4) quaternions; returns (..., 3, 3).
    The product is formed as M M^T with M = R * diag(s), which keeps the
    result symmetric positive semidefinite by construction.
    """
    R = quat_to_rotmat(rotations)
    M = R * np.asarray(scales, dtype=np.float64)[..., None, :]
    return M @ np.swapaxes(M, -1, -2)


_DEGREE_BY_COUNT = {1: 0, 4: 1, 9: 2, 16: 3}


@dataclass
class GaussianScene:
    """Gaussians in raw (unactivated) parameters, one row per Gaussian."""

    means: np.ndarray  # (n, 3)
    log_scales: np.ndarray  # (n, 3)
    rotations: np.ndarray  # (n, 4) quaternions, w first, need not be unit
    opacity_logits: np.ndarray  # (n,)
    sh: np.ndarray  # (n, k, 3) SH coefficients, k = (degree+1)^2

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.log_scales = np.atleast_2d(np.asarray(self.log_scales, dtype=np.float64))
        self.rotations = np.atleast_2d(np.asarray(self.rotations, dtype=np.float64))
        self.opacity_logits = np.atleast_1d(
            np.asarray(self.opacity_logits, dtype=np.float64)
        )
        self.sh = np.asarray(self.sh, dtype=np.float64)
        if self.sh.ndim == 2:
            self.sh = self.sh[None]
        self.validate()

    @property
    def n(self) -> int:
        return self.means.shape[0]

    @property
    def sh_coeff_count(self) -> int:
        return self.sh.shape[1]

    @property
    def degree(self) -> int:
        return _DEGREE_BY_COUNT[self.sh_coeff_count]

    def validate(self) -> None:
        n = self.means.shape[0]
        if self.means.shape != (n, 3):
            raise ValueError(f"means must be (n, 3), got {self.means.shape}")
        if self.log_scales.shape != (n, 3):
            raise ValueError(f"log_scales must be (n, 3), got {self.log_scales.shape}")
        if self.rotations.shape != (n, 4):
            raise ValueError(f"rotations must be (n, 4), got {self.rotations.shape}")
        if self.opacity_logits.shape != (n,):
            raise ValueError(
                f"opacity_logits must be (n,), got {self.opacity_logits.shape}"
            )
        if self.sh.ndim != 3 or self.sh.shape[0] != n or self.sh.shape[2] != 3:
            raise ValueError(f"sh must be (n, k, 3), got {self.sh.shape}")
        if self.sh.shape[1] not in _DEGREE_BY_COUNT:
            raise ValueError(
                f"sh coefficient count {self.sh.shape[1]} is not (d+1)^2 for d in 0..3"
            )
        for name in ("means", "log_scales", "rotations", "opacity_logits", "sh"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")

    def copy(self) -> "GaussianScene":
        return GaussianScene(
            means=self.means.copy(),
            log_scales=self.log_scales.copy(),
            rotations=self.rotations.copy(),
            opacity_logits=self.opacity_logits.copy(),
            sh=self.sh.copy(),
        )


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with a rigid world-to-camera transform."""

    world_to_cam: np.ndarray  # (4, 4), last row (0, 0, 0, 1)
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.2

    def __post_init__(self):
        object.__setattr__(
            self, "world_to_cam", np.asarray(self.world_to_cam, dtype=np.float64)
        )
        self.validate()

    def validate(self) -> None:
        if self.world_to_cam.shape != (4, 4):
            raise ValueError("world_to_cam must be 4x4")
        if not np.all(np.isfinite(self.world_to_cam)):
            raise ValueError("world_to_cam contains non-finite values")
        for name in ("fx", "fy", "cx", "cy", "near"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        R = self.world_to_cam[:3, :3]
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-5):
            raise ValueError("world_to_cam rotation block is not orthonormal")
        if not np.allclose(self.world_to_cam[3], [0, 0, 0, 1], atol=1e-9):
            raise ValueError("world_to_cam last row must be (0, 0, 0, 1)")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.near <= 0:
            raise ValueError(f"near must be positive, got {self.near}")

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_cam[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_cam[:3, 3]

    @property
    def center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -self.rotation.T @ self.translation


@dataclass
class ImageRGB:
    """Float RGB raster, shape (height, width, 3), linear values."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[2] != 3:
            raise ValueError(f"image data must be (h, w, 3), got {self.data.shape}")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def validate(self) -> None:
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image contains non-finite values")
        if np.any(self.data < 0):
            raise ValueError("image contains negative values")

    @classmethod
    def zeros(cls, width: int, height: int, dtype=np.float32) -> "ImageRGB":
        return cls(np.zeros((height, width, 3), dtype=dtype))
