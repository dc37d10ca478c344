"""Projection of 3D Gaussians to screen-space splats and tile binning.

Projection transforms each Gaussian's mean and covariance into camera
space, applies the perspective Jacobian at the mean (the standard local
affine approximation), dilates the 2D covariance by 0.3 px^2 on the
diagonal as a low-pass guard, and inverts it to the conic used by the
blend kernels.  Splats behind the near plane, with numerically singular
2D covariance, or with no on-screen footprint are culled.

Binning assigns each surviving splat to every tile its 3-sigma AABB
overlaps and sorts the (tile, splat) pairs by (tile, depth, gaussian
index), so every tile's list is one slice of a single array.
``can_blend`` tells whether a splat can blend at all (alpha =
opacity * exp(-q/2) at least ALPHA_MIN) somewhere in a pixel rectangle,
from terms computed once per splat (``blend_terms``); the forward pass
uses it to prune its block lists.
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
    aabb: np.ndarray  # (m, 4) int64, half-open [x0, y0, x1, y1]
    gaussian_index: np.ndarray  # (m,) int64 row in the source scene

    @property
    def n(self) -> int:
        return self.mean2.shape[0]

    def astype(self, dtype) -> "SplatBatch":
        """Cast the float fields to the blending dtype; metadata is shared.

        Raises ValueError naming the scene row and the field of the first
        splat whose blended parameters (mean2, conic, opacity, rgb), or the
        squared offset from mean2 to the farthest pixel centre of its box,
        which the kernel computes, are not finite in ``dtype``, as when a
        float64 value overflows float32.
        """
        fields = ("mean2", "conic", "opacity", "rgb", "squared offset of mean2 to its pixels")
        with np.errstate(over="ignore"):  # overflow to inf is raised below
            blend = {f: getattr(self, f).astype(dtype) for f in fields[:4]}
            centres = self.aabb.reshape(-1, 2, 2).astype(dtype) + np.array([[0.5], [-0.5]], dtype)
            far = np.abs(centres - blend["mean2"][:, None]).max(axis=1)
            vals = (*blend.values(), (far * far).sum(axis=1))  # in the order of fields
        finite = np.stack([np.isfinite(v).all(axis=tuple(range(1, v.ndim))) for v in vals], axis=1)
        bad = np.flatnonzero(~finite.all(axis=1))
        if bad.size:
            row = bad[0]
            raise ValueError(
                f"Gaussian {self.gaussian_index[row]}: {fields[np.argmin(finite[row])]} "
                f"is not finite in {np.dtype(dtype).name}"
            )
        return SplatBatch(
            cov2=self.cov2.astype(dtype),
            depth=self.depth.astype(dtype),
            rgb_clamped=self.rgb_clamped,
            aabb=self.aabb,
            gaussian_index=self.gaussian_index,
            **blend,
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


def blend_terms(splat: np.ndarray) -> np.ndarray:
    """The float64 rows ``can_blend`` reads, per splat.

    ``splat`` (6, n) holds blend-dtype splat parameters as float64 rows:
    mean x and y, conic a, b and c, and opacity.  Returns (9, n): mean
    x and y, a, 2b, c, the slopes -b/c and -b/a of q's least value along
    a row and a column, 2 ln(opacity / ALPHA_MIN), and the margin's
    factor 1e-5 (|a| + 2|b| + |c|).  They depend on the splat alone, so
    a render computes them once per splat, not once per pixel rectangle.
    """
    mx, my, a, b, c, opacity = splat
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack((
            mx, my, a, 2 * b, c, -b / c, -b / a,
            2.0 * np.log(opacity / ALPHA_MIN),
            1e-5 * (np.abs(a) + 2 * np.abs(b) + np.abs(c)),
        ))


def can_blend(terms: np.ndarray, splat: np.ndarray, rect) -> np.ndarray:
    """Mask of the rectangles in which their splat's alpha can reach ALPHA_MIN.

    ``terms`` (9, m) are the ``blend_terms`` of m splats, ``splat`` (n,)
    the splat of each rectangle and ``rect`` (x0, y0, x1, y1) four
    integer arrays of n: non-empty half-open pixel rectangles.  Over a
    rectangle of pixel centres, the convex q has its minimum 0 when the
    mean lies inside, and otherwise on an edge, where q is a parabola
    in the free offset.  False only where no pixel can blend.

    The work is about 70 passes over arrays of one float64 per
    rectangle, so it runs at the speed of memory: the temporaries are a
    few buffers written in place, and a splat's terms are gathered per
    rectangle only while they are used.  A caller with many rectangles
    passes them in slices of a few thousand, which stay in cache.
    """
    x0, y0, x1, y1 = rect
    n = len(splat)
    # lx ... hy: the offsets of the first and last pixel centres; d, t, u: scratch
    lx, hx, ly, hy, d, t, u = np.empty((7, n))
    mx, my = np.take(terms[:2], splat, axis=1)
    np.add(x0, 0.5, out=lx)
    lx -= mx
    np.subtract(x1, 0.5, out=hx)
    hx -= mx
    np.add(y0, 0.5, out=ly)
    ly -= my
    np.subtract(y1, 0.5, out=hy)
    hy -= my
    del mx, my
    inside = lx <= 0
    inside &= hx >= 0
    inside &= ly <= 0
    inside &= hy >= 0
    q = np.where(inside, 0.0, np.inf)
    a, b2, c, slope_y, slope_x = np.take(terms[2:7], splat, axis=1)

    def edge_min(dx, dy):  # q = (a dx + 2b dy) dx + c dy dy into q's running minimum
        np.add(np.multiply(a, dx, out=t), np.multiply(b2, dy, out=u), out=t)
        np.multiply(t, dx, out=t)
        np.multiply(np.multiply(c, dy, out=u), dy, out=u)
        np.minimum(q, np.add(t, u, out=t), out=q)

    with np.errstate(invalid="ignore"):
        for dx in lx, hx:  # left and right edges, dy free
            np.multiply(slope_y, dx, out=d)
            np.maximum(d, ly, out=d)
            np.minimum(d, hy, out=d)
            edge_min(dx, d)
        for dy in ly, hy:  # top and bottom edges, dx free
            np.multiply(slope_x, dy, out=d)
            np.maximum(d, lx, out=d)
            np.minimum(d, hx, out=d)
            edge_min(d, dy)
    del a, b2, c, slope_y, slope_x
    # alpha reaches ALPHA_MIN exactly where q <= 2 ln(255 opacity); the margin
    # covers the blend dtype's rounding of q at offsets up to the farthest centre
    log_reach, spread = np.take(terms[7:], splat, axis=1)
    np.negative(lx, out=t)
    np.maximum(t, hx, out=t)
    t *= t
    np.negative(ly, out=u)
    np.maximum(u, hy, out=u)
    u *= u
    t += u  # the farthest centre's squared offset
    t *= spread
    t += 1e-3
    t += log_reach
    return np.logical_not(np.greater(q, t, out=inside), out=inside)  # NaN keeps


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
    radius = np.ceil(bounding_radius(a, b, c))
    center = np.floor(mean2)
    x0 = np.clip(center[:, 0] - radius, 0, cam.width).astype(np.int64)
    x1 = np.clip(center[:, 0] + radius + 1, 0, cam.width).astype(np.int64)
    y0 = np.clip(center[:, 1] - radius, 0, cam.height).astype(np.int64)
    y1 = np.clip(center[:, 1] + radius + 1, 0, cam.height).astype(np.int64)
    on_screen = (x0 < x1) & (y0 < y1)
    stats.culled_offscreen = int(idx.size - on_screen.sum())
    if not on_screen.all():
        keep = on_screen
        idx, t, tz = idx[keep], t[keep], tz[keep]
        a, b, c, det, mean2 = a[keep], b[keep], c[keep], det[keep], mean2[keep]
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
        aabb=np.zeros((0, 4), dtype=np.int64),
        gaussian_index=np.zeros(0, dtype=np.int64),
    )


@dataclass
class TileBinning:
    """Every tile's splat list, each sorted front to back, in one array.

    ``order`` holds the batch rows of tile 0's list, then tile 1's, and
    so on; tile t's list is ``order[offsets[t]:offsets[t + 1]]``.  An
    entry is a position in ``order``.
    """

    tile_w: int
    tile_h: int
    nx: int  # tiles per row
    ny: int
    image_w: int
    image_h: int
    order: np.ndarray  # (invocations,) int64 batch rows, tile by tile, depth-sorted
    offsets: np.ndarray  # (n_tiles + 1,) int64 start of each tile's list in order

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def total_invocations(self) -> int:
        """Total (splat, tile) pairings, the unit of rasterizer work."""
        return len(self.order)

    def rects(self) -> np.ndarray:
        """Pixel bounds (x0, y0, x1, y1) of every tile, clipped to the image: (n_tiles, 4)."""
        ty, tx = np.divmod(np.arange(self.n_tiles, dtype=np.int64), self.nx)
        x0, y0 = tx * self.tile_w, ty * self.tile_h
        x1 = np.minimum(x0 + self.tile_w, self.image_w)
        y1 = np.minimum(y0 + self.tile_h, self.image_h)
        return np.stack([x0, y0, x1, y1], axis=1)


def bin_and_sort(
    batch: SplatBatch, tile_size: tuple[int, int], image_size: tuple[int, int]
) -> TileBinning:
    """Assign splats to every tile their AABB overlaps; sort by (tile, depth, index).

    The tile grid covers the image with partial tiles at the right/bottom
    edges.  Sorting uses the float64 depths so the traversal order is the
    same no matter what dtype the blend itself runs in.  The splats are
    sorted by (depth, index) once, and their (tile, splat) pairs, made in
    that order, by tile with a stable sort.
    """
    tw, th = tile_size
    w, h = image_size
    if tw <= 0 or th <= 0:
        raise ValueError("tile dimensions must be positive")
    nx = (w + tw - 1) // tw
    ny = (h + th - 1) // th
    by_depth = np.argsort(batch.depth, kind="stable")  # ties keep the index order
    x0, y0, x1, y1 = batch.aabb[by_depth].T
    tx0 = x0 // tw
    tx1 = (x1 - 1) // tw + 1  # exclusive
    ty0 = y0 // th
    ty1 = (y1 - 1) // th + 1
    spans_x = tx1 - tx0
    counts = spans_x * (ty1 - ty0)  # tiles per splat

    splat_ids = np.repeat(by_depth, counts)
    # Local pair index within each splat's tile block, decoded to (dx, dy).
    starts = np.cumsum(counts) - counts
    local = np.arange(len(splat_ids), dtype=np.int64) - np.repeat(starts, counts)
    sx = np.repeat(spans_x, counts)
    dx = local % sx
    dy = local // sx
    tile_ids = (np.repeat(ty0, counts) + dy) * nx + np.repeat(tx0, counts) + dx

    key = np.uint16 if nx * ny <= 1 << 16 else np.int64  # uint16 sorts by radix
    by_tile = np.argsort(tile_ids.astype(key), kind="stable")
    offsets = np.searchsorted(tile_ids[by_tile], np.arange(nx * ny + 1))
    return TileBinning(tw, th, nx, ny, w, h, splat_ids[by_tile], offsets)
