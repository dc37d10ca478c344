"""Projection of 3D Gaussians to screen-space splats and tile binning.

Projection transforms each Gaussian's mean and covariance into camera
space, applies the perspective Jacobian at the mean (the standard local
affine approximation), dilates the 2D covariance by 0.3 px^2 on the
diagonal as a low-pass guard, and inverts it to the conic used by the
blend kernels.  Splats behind the near plane, with numerically singular
2D covariance, or with no on-screen footprint are culled.

Binning assigns each surviving splat to every tile its 3-sigma AABB
overlaps and sorts each tile's list by (depth, gaussian index).
``can_blend`` tells whether a splat can blend at all (alpha =
opacity * exp(-q/2) at least ALPHA_MIN) somewhere in a pixel rectangle;
the forward pass uses it to prune its block lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Camera, GaussianScene, activate, covariance3
from .sh import eval_sh_batch

# Alpha below which a splat does not blend at a pixel.
ALPHA_MIN = 1.0 / 255.0
# Screen-space covariance dilation (px^2) and the AABB extent in sigmas.
LOW_PASS_DILATION = 0.3
BOUNDING_SIGMAS = 3.0
# 2x2 determinant floor below which a splat is dropped as degenerate.
DET_EPS = 1e-12


@dataclass
class SplatBatch:
    """Projected splats in struct-of-arrays form, one row per visible splat."""

    mean2: np.ndarray  # (m, 2)
    cov2: np.ndarray  # (m, 3) upper triangle (a, b, c) of the dilated covariance
    conic: np.ndarray  # (m, 3)
    depth: np.ndarray  # (m,)
    rgb: np.ndarray  # (m, 3)
    rgb_clamped: np.ndarray  # (m, 3) bool, channels pinned at zero by the SH clamp
    opacity: np.ndarray  # (m,)
    radius: np.ndarray  # (m,) int64 3-sigma radius in pixels, at most the larger image side
    aabb: np.ndarray  # (m, 4) int64, half-open [x0, y0, x1, y1]
    gaussian_index: np.ndarray  # (m,) int64 row in the source scene

    @property
    def n(self) -> int:
        return self.mean2.shape[0]

    def astype(self, dtype) -> "SplatBatch":
        """Cast the float fields to the blending dtype; metadata is shared."""
        return SplatBatch(
            mean2=self.mean2.astype(dtype),
            cov2=self.cov2.astype(dtype),
            conic=self.conic.astype(dtype),
            depth=self.depth.astype(dtype),
            rgb=self.rgb.astype(dtype),
            rgb_clamped=self.rgb_clamped,
            opacity=self.opacity.astype(dtype),
            radius=self.radius,
            aabb=self.aabb,
            gaussian_index=self.gaussian_index,
        )


@dataclass
class PreprocessStats:
    n_input: int = 0
    culled_near: int = 0
    culled_degenerate: int = 0
    culled_offscreen: int = 0

    @property
    def n_visible(self) -> int:
        return (
            self.n_input
            - self.culled_near
            - self.culled_degenerate
            - self.culled_offscreen
        )


def bounding_radius(a, b, c) -> np.ndarray:
    """Unrounded 3-sigma radius in pixels of the 2D covariances (a, b, c).

    The AABB extends ceil() of this around the floored mean.
    """
    lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return BOUNDING_SIGMAS * np.sqrt(lam_max)


def can_blend(splat: np.ndarray, rect) -> np.ndarray:
    """Mask of the splats whose alpha can reach ALPHA_MIN in ``rect``.

    ``splat`` (6, n) holds blend-dtype splat parameters as float64 rows:
    mean x and y, conic a, b and c, and opacity.  ``rect`` is (x0, y0,
    x1, y1), four integer arrays of n: one non-empty half-open pixel
    rectangle per splat.  Over the rectangle of pixel centres, the
    convex q has its minimum 0 when the mean lies inside, and otherwise
    on an edge, where q is a parabola in the free offset.  False only
    where no pixel can blend.
    """
    mx, my, a, b, c, opacity = splat
    x0, y0, x1, y1 = rect
    lx, ly = x0 + 0.5 - mx, y0 + 0.5 - my  # offsets of the first and last pixel centres
    hx, hy = x1 - 0.5 - mx, y1 - 0.5 - my
    q = np.where((lx <= 0) & (hx >= 0) & (ly <= 0) & (hy >= 0), 0.0, np.inf)
    b2 = 2 * b

    def edge_min(dx, dy):  # q = (a dx + 2b dy) dx + c dy dy into q's running minimum
        t = a * dx
        t += b2 * dy
        t *= dx
        u = c * dy
        u *= dy
        t += u
        np.minimum(q, t, out=q)

    with np.errstate(divide="ignore", invalid="ignore"):
        slope = -b / c
        for dx in lx, hx:  # left and right edges, dy free
            dy = slope * dx
            np.maximum(dy, ly, out=dy)
            np.minimum(dy, hy, out=dy)
            edge_min(dx, dy)
        slope = -b / a
        for dy in ly, hy:  # top and bottom edges, dx free
            dx = slope * dy
            np.maximum(dx, lx, out=dx)
            np.minimum(dx, hx, out=dx)
            edge_min(dx, dy)
    # alpha reaches ALPHA_MIN exactly where q <= 2 ln(255 opacity); the margin
    # covers the blend dtype's rounding of q at offsets up to the farthest centre
    reach2 = np.maximum(-lx, hx) ** 2 + np.maximum(-ly, hy) ** 2
    margin = 1e-3 + 1e-5 * (np.abs(a) + 2 * np.abs(b) + np.abs(c)) * reach2
    with np.errstate(divide="ignore"):
        limit = 2.0 * np.log(opacity / ALPHA_MIN) + margin
    return ~(q > limit)  # NaN keeps


def camera_projection(t: np.ndarray, cov3: np.ndarray, cam: Camera):
    """Camera-space covariances and perspective Jacobians of m Gaussians.

    ``t`` (m, 3) are the means in camera space and ``cov3`` (m, 3, 3)
    the world-space covariances.  Returns R cov3 R^T (m, 3, 3), R the
    camera rotation, and the Jacobian J (m, 2, 3) of (fx x/z, fy y/z)
    at each mean, so the 2D covariance is J (R cov3 R^T) J^T.
    ``preprocess`` and ``backward.chain_to_3d`` both call it: the
    chain differentiates the projection the forward blended.
    """
    R = cam.rotation
    cov_cam = np.einsum("ij,njk,lk->nil", R, cov3, R)
    tx, ty, tz = t.T
    J = np.zeros((len(t), 2, 3), dtype=np.float64)
    J[:, 0, 0] = cam.fx / tz
    J[:, 0, 2] = -cam.fx * tx / tz**2
    J[:, 1, 1] = cam.fy / tz
    J[:, 1, 2] = -cam.fy * ty / tz**2
    return cov_cam, J


def preprocess(scene: GaussianScene, cam: Camera) -> tuple[SplatBatch, PreprocessStats]:
    """Project every Gaussian and cull the invisible ones.

    Returns float64 splat arrays; cast with SplatBatch.astype for a
    lower-precision blend.  Row order follows scene order, so ties in
    depth sort by ascending gaussian_index automatically.
    """
    scene.validate()  # arrays may have been changed in place since construction
    stats = PreprocessStats(n_input=scene.n)
    with np.errstate(over="ignore", invalid="ignore"):  # huge scales: raised below
        scales, rots, opac = activate(scene.log_scales, scene.rotations, scene.opacity_logits)
        cov3 = covariance3(scales, rots)  # (n, 3, 3)

    t = scene.means @ cam.rotation.T + cam.translation  # (n, 3) camera space
    in_front = t[:, 2] > cam.near
    stats.culled_near = int(scene.n - in_front.sum())
    idx = np.flatnonzero(in_front)
    if idx.size == 0:
        return _empty_batch(), stats

    t = t[idx]
    tz = t[:, 2]
    with np.errstate(over="ignore", invalid="ignore"):
        cov_cam, J = camera_projection(t, cov3[idx], cam)
        cov2 = np.einsum("nij,njk,nlk->nil", J, cov_cam, J)  # (m, 2, 2)
        a = cov2[:, 0, 0] + LOW_PASS_DILATION
        b = cov2[:, 0, 1]
        c = cov2[:, 1, 1] + LOW_PASS_DILATION
        det = a * c - b * b  # finite only if a, b and c are
    overflow = np.flatnonzero(~np.isfinite(det))
    if overflow.size:
        raise ValueError(
            f"log_scales of Gaussian {idx[overflow[0]]} overflow its 2D covariance"
        )
    ok = det > DET_EPS
    stats.culled_degenerate = int(idx.size - ok.sum())
    if not ok.all():
        idx, t, tz = idx[ok], t[ok], tz[ok]
        a, b, c, det = a[ok], b[ok], c[ok], det[ok]
    if idx.size == 0:
        return _empty_batch(), stats

    mean2 = np.stack(
        [cam.fx * t[:, 0] / tz + cam.cx, cam.fy * t[:, 1] / tz + cam.cy], axis=1
    )
    # Bounds stay in float64 (integer-valued, so exact) until clipped to the
    # image: a splat far larger than the screen must not overflow the cast.
    radius_f = np.ceil(bounding_radius(a, b, c))
    center = np.floor(mean2)
    x0 = np.clip(center[:, 0] - radius_f, 0, cam.width).astype(np.int64)
    x1 = np.clip(center[:, 0] + radius_f + 1, 0, cam.width).astype(np.int64)
    y0 = np.clip(center[:, 1] - radius_f, 0, cam.height).astype(np.int64)
    y1 = np.clip(center[:, 1] + radius_f + 1, 0, cam.height).astype(np.int64)
    radius = np.minimum(radius_f, max(cam.width, cam.height)).astype(np.int64)
    on_screen = (x0 < x1) & (y0 < y1)
    stats.culled_offscreen = int(idx.size - on_screen.sum())
    if not on_screen.all():
        keep = on_screen
        idx, t, tz = idx[keep], t[keep], tz[keep]
        a, b, c, det, mean2 = a[keep], b[keep], c[keep], det[keep], mean2[keep]
        radius = radius[keep]
        x0, x1, y0, y1 = x0[keep], x1[keep], y0[keep], y1[keep]
    if idx.size == 0:
        return _empty_batch(), stats

    conic = np.stack([c / det, -b / det, a / det], axis=1)
    dirs_raw = scene.means[idx] - cam.center
    dirs = dirs_raw / np.linalg.norm(dirs_raw, axis=1, keepdims=True)
    rgb, clamped = eval_sh_batch(scene.sh[idx], dirs, scene.degree)

    batch = SplatBatch(
        mean2=mean2,
        cov2=np.stack([a, b, c], axis=1),
        conic=conic,
        depth=tz.copy(),
        rgb=rgb,
        rgb_clamped=clamped,
        opacity=opac[idx],
        radius=radius,
        aabb=np.stack([x0, y0, x1, y1], axis=1),
        gaussian_index=idx.astype(np.int64),
    )
    return batch, stats


def _empty_batch() -> SplatBatch:
    return SplatBatch(
        mean2=np.zeros((0, 2)),
        cov2=np.zeros((0, 3)),
        conic=np.zeros((0, 3)),
        depth=np.zeros(0),
        rgb=np.zeros((0, 3)),
        rgb_clamped=np.zeros((0, 3), dtype=bool),
        opacity=np.zeros(0),
        radius=np.zeros(0, dtype=np.int64),
        aabb=np.zeros((0, 4), dtype=np.int64),
        gaussian_index=np.zeros(0, dtype=np.int64),
    )


@dataclass
class TileBinning:
    """Per-tile splat lists, each sorted front to back."""

    tile_w: int
    tile_h: int
    nx: int  # tiles per row
    ny: int
    image_w: int
    image_h: int
    lists: list[np.ndarray]  # per tile: batch row indices, depth-sorted

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def total_invocations(self) -> int:
        """Total (splat, tile) pairings, the unit of rasterizer work."""
        return int(sum(len(l) for l in self.lists))

    def tile_rect(self, t: int) -> tuple[int, int, int, int]:
        """Pixel bounds (x0, y0, x1, y1) of tile t, clipped to the image."""
        ty, tx = divmod(t, self.nx)
        x0 = tx * self.tile_w
        y0 = ty * self.tile_h
        return (
            x0,
            y0,
            min(x0 + self.tile_w, self.image_w),
            min(y0 + self.tile_h, self.image_h),
        )


def bin_and_sort(
    batch: SplatBatch, tile_size: tuple[int, int], image_size: tuple[int, int]
) -> TileBinning:
    """Assign splats to every tile their AABB overlaps; sort by (depth, index).

    The tile grid covers the image with partial tiles at the right/bottom
    edges.  Sorting uses the float64 depths so the traversal order is the
    same no matter what dtype the blend itself runs in.
    """
    tw, th = tile_size
    w, h = image_size
    if tw <= 0 or th <= 0:
        raise ValueError("tile dimensions must be positive")
    nx = (w + tw - 1) // tw
    ny = (h + th - 1) // th
    m = batch.n
    if m == 0:
        empty = [np.zeros(0, dtype=np.int64) for _ in range(nx * ny)]
        return TileBinning(tw, th, nx, ny, w, h, empty)

    x0, y0, x1, y1 = (batch.aabb[:, k] for k in range(4))
    tx0 = x0 // tw
    tx1 = (x1 - 1) // tw + 1  # exclusive
    ty0 = y0 // th
    ty1 = (y1 - 1) // th + 1
    spans_x = tx1 - tx0
    spans_y = ty1 - ty0
    counts = spans_x * spans_y  # tiles per splat

    splat_ids = np.repeat(np.arange(m, dtype=np.int64), counts)
    total = int(counts.sum())
    # Local pair index within each splat's tile block, decoded to (dx, dy).
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    sx = np.repeat(spans_x, counts)
    dx = local % sx
    dy = local // sx
    tile_ids = (np.repeat(ty0, counts) + dy) * nx + np.repeat(tx0, counts) + dx

    order = np.lexsort((splat_ids, batch.depth[splat_ids], tile_ids))
    sorted_tiles = tile_ids[order]
    sorted_splats = splat_ids[order]
    bounds_lo = np.searchsorted(sorted_tiles, np.arange(nx * ny), side="left")
    bounds_hi = np.searchsorted(sorted_tiles, np.arange(nx * ny), side="right")
    lists = [sorted_splats[lo:hi] for lo, hi in zip(bounds_lo, bounds_hi)]
    return TileBinning(tw, th, nx, ny, w, h, lists)
