"""Backward pass: pixel loss gradients to Gaussian parameter gradients.

Each tile is differentiated independently by walking its splat list back
to front.  The transmittance a splat saw in the forward pass is
recovered by dividing the running value by (1 - alpha) as the walk
retreats, which is what recip_one_minus models; the suffix color
C_accum (alpha-weighted color of everything behind the current splat)
is rebuilt incrementally the same way.  Per-splat partials from all
tiles are folded into one accumulator in fixed (tile, 16-splat batch)
order, then chained through projection, covariance, activation, and
spherical harmonics to the raw parameters.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approxmath import recip_one_minus
from .execmodel import TrainStats
from .forward import ALPHA_MIN, ForwardTrace, RenderConfig, alpha_patch, render
from .model import (
    OPACITY_MAX,
    Camera,
    GaussianScene,
    ImageRGB,
    quat_to_rotmat,
    stable_sigmoid,
)
from .preprocess import LOW_PASS_DILATION, SplatBatch
from .sh import sh_basis, sh_basis_grad


@dataclass
class TrainConfig:
    tile_size: tuple[int, int] = (32, 64)
    loss: str = "l1"
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eps_t: float = 1e-4
    recip_mode: str = "exact"  # "exact" | "approx" divider model in the backward
    offload_batch: int = 16  # splats per accumulator drain
    dtype: type = np.float64
    threads: int = 1

    def validate(self) -> None:
        if self.loss not in ("l1", "l2"):
            raise ValueError("loss must be 'l1' or 'l2'")
        if self.recip_mode not in ("exact", "approx"):
            raise ValueError("recip_mode must be 'exact' or 'approx'")
        if self.offload_batch < 1:
            raise ValueError("offload_batch must be >= 1")

    def render_config(self) -> RenderConfig:
        return RenderConfig(
            tile_size=self.tile_size,
            z_tiles=1,
            eps_t=self.eps_t,
            hybrid="off",
            background=self.background,
            dtype=self.dtype,
            threads=self.threads,
        )


def loss_and_pixel_grads(
    rendered: ImageRGB, target: ImageRGB, kind: str = "l1"
) -> tuple[float, np.ndarray]:
    """Scalar loss and dL/d(pixel color), both as float64.

    The loss is a mean over all height*width*3 values.
    """
    if rendered.data.shape != target.data.shape:
        raise ValueError(
            f"image shape mismatch: {rendered.data.shape} vs {target.data.shape}"
        )
    diff = rendered.data.astype(np.float64) - target.data.astype(np.float64)
    n = diff.size
    if kind == "l1":
        return float(np.abs(diff).sum() / n), np.sign(diff) / n
    if kind == "l2":
        return float((diff * diff).sum() / n), 2.0 * diff / n
    raise ValueError(f"unknown loss: {kind!r}")


@dataclass
class TilePartial:
    """Per-splat gradient partials from one tile, indexed by list position."""

    tile_index: int
    order: np.ndarray  # (p,) batch rows, same as the forward traversal
    d_rgb: np.ndarray  # (p, 3)
    d_alpha: np.ndarray  # (p,)
    d_opacity: np.ndarray  # (p,)
    d_mean2: np.ndarray  # (p, 2)
    d_conic: np.ndarray  # (p, 3)
    hits: np.ndarray  # (p,) int64 contributing pixels


@dataclass
class GradAccumulator:
    """Screen-space grads per splat row plus chained grads per scene row."""

    # batch-aligned (one row per visible splat)
    d_rgb: np.ndarray
    d_alpha: np.ndarray
    d_opacity: np.ndarray
    d_mean2: np.ndarray
    d_conic: np.ndarray
    hit_count: np.ndarray
    # scene-aligned (culled Gaussians keep zero gradients)
    d_means: np.ndarray
    d_log_scales: np.ndarray
    d_rotations: np.ndarray
    d_opacity_logits: np.ndarray
    d_sh: np.ndarray

    def param_grads(self) -> dict[str, np.ndarray]:
        return {
            "position": self.d_means,
            "scale": self.d_log_scales,
            "rotation": self.d_rotations,
            "opacity": self.d_opacity_logits,
            "sh": self.d_sh,
        }


def backward_tile(
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    tile_index: int,
    t_final: np.ndarray,
    stop: np.ndarray,
    grad_img: np.ndarray,
    background: np.ndarray,
    recip_mode: str,
) -> TilePartial:
    """Back-to-front gradient sweep over one tile.

    ``t_final`` and ``stop`` are the full-image trace arrays; ``grad_img``
    is dL/d(pixel) including any loss scaling.  A splat only receives
    gradient from pixels it actually blended into (alpha above threshold
    and list position before the pixel's stop).
    """
    x0, y0, x1, y1 = rect
    m = len(order)
    out = TilePartial(
        tile_index=tile_index,
        order=order,
        d_rgb=np.zeros((m, 3)),
        d_alpha=np.zeros(m),
        d_opacity=np.zeros(m),
        d_mean2=np.zeros((m, 2)),
        d_conic=np.zeros((m, 3)),
        hits=np.zeros(m, dtype=np.int64),
    )
    T = t_final[y0:y1, x0:x1].astype(np.float64)
    tfin = t_final[y0:y1, x0:x1]
    acc = np.zeros((y1 - y0, x1 - x0, 3))  # suffix sum of alpha-weighted colors
    bg_active = bool(np.any(background != 0.0))

    for k in range(m - 1, -1, -1):
        i = int(order[k])
        bx0, by0, bx1, by1 = batch.aabb[i]
        ix0 = max(int(bx0), x0)
        ix1 = min(int(bx1), x1)
        iy0 = max(int(by0), y0)
        iy1 = min(int(by1), y1)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        sl = (slice(iy0 - y0, iy1 - y0), slice(ix0 - x0, ix1 - x0))
        alpha, dx, dy = (v[0] for v in alpha_patch(batch, i, ix0, ix1, iy0, iy1))
        contrib = (alpha >= ALPHA_MIN) & (k < stop[iy0:iy1, ix0:ix1])
        nhit = int(np.count_nonzero(contrib))
        out.hits[k] = nhit
        if nhit == 0:
            continue
        r = recip_one_minus(alpha, recip_mode)
        Tl = T[sl]
        Tnew = np.where(contrib, Tl * r, Tl)  # transmittance before splat k
        T[sl] = Tnew

        g = grad_img[iy0:iy1, ix0:ix1, :]
        aT = np.where(contrib, alpha * Tnew, 0.0)
        out.d_rgb[k] = (aT[..., None] * g).sum(axis=(0, 1))

        crgb = batch.rgb[i].astype(np.float64)
        dla = Tnew * ((crgb[None, None, :] - acc[sl]) * g).sum(axis=-1)
        if bg_active:
            dla = dla - (tfin[sl] * r) * (g @ background)
        dla = np.where(contrib, dla, 0.0)
        out.d_alpha[k] = dla.sum()

        # alpha = opacity * exp(-q/2): d/d(opacity) = alpha/opacity,
        # d/dq = -alpha/2.
        adla = alpha * dla
        out.d_opacity[k] = adla.sum() / float(batch.opacity[i])
        dq = -0.5 * adla
        ca, cb, cc = (float(v) for v in batch.conic[i])
        dxg = dx.astype(np.float64)  # (1, w)
        dyg = dy.astype(np.float64)  # (h, 1)
        out.d_mean2[k, 0] = -(dq * (2 * ca * dxg + 2 * cb * dyg)).sum()
        out.d_mean2[k, 1] = -(dq * (2 * cb * dxg + 2 * cc * dyg)).sum()
        out.d_conic[k, 0] = (dq * dxg * dxg).sum()
        out.d_conic[k, 1] = (dq * 2 * dxg * dyg).sum()
        out.d_conic[k, 2] = (dq * dyg * dyg).sum()

        alpha64 = alpha.astype(np.float64)
        acc[sl] = np.where(
            contrib[..., None],
            alpha64[..., None] * crgb + (1.0 - alpha64)[..., None] * acc[sl],
            acc[sl],
        )
    return out


def accumulate_cross_tile(
    partials: list[TilePartial], n_splats: int, offload_batch: int
) -> tuple[dict[str, np.ndarray], int, int]:
    """Fold per-tile partials into per-splat totals in a fixed order.

    Tiles fold in ascending tile index; within a tile, list positions
    fold in batches of ``offload_batch`` (the accumulator drain cadence).
    Returns (per-splat arrays, accumulate ops, drain events).
    """
    acc = {
        "d_rgb": np.zeros((n_splats, 3)),
        "d_alpha": np.zeros(n_splats),
        "d_opacity": np.zeros(n_splats),
        "d_mean2": np.zeros((n_splats, 2)),
        "d_conic": np.zeros((n_splats, 3)),
        "hit_count": np.zeros(n_splats, dtype=np.int64),
    }
    ops = 0
    drains = 0
    for part in sorted(partials, key=lambda p: p.tile_index):
        p = len(part.order)
        for b0 in range(0, p, offload_batch):
            sel = slice(b0, min(b0 + offload_batch, p))
            idx = part.order[sel]
            np.add.at(acc["d_rgb"], idx, part.d_rgb[sel])
            np.add.at(acc["d_alpha"], idx, part.d_alpha[sel])
            np.add.at(acc["d_opacity"], idx, part.d_opacity[sel])
            np.add.at(acc["d_mean2"], idx, part.d_mean2[sel])
            np.add.at(acc["d_conic"], idx, part.d_conic[sel])
            np.add.at(acc["hit_count"], idx, part.hits[sel])
            drains += 1
            ops += len(idx)
    return acc, ops, drains


def _normalize_grad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward of u = v/|v|: project g off u and divide by the norm."""
    n = np.linalg.norm(v)
    u = v / n
    return (g - u * float(u @ g)) / n


def _quat_rotmat_grad(q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """dL/d(unit quaternion) given dL/dR, with q = (w, x, y, z)."""
    w, x, y, z = q
    dRw = 2.0 * np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    dRx = 2.0 * np.array([[0, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dRy = 2.0 * np.array([[-2 * y, x, w], [x, 0, z], [-w, z, -2 * y]])
    dRz = 2.0 * np.array([[-2 * z, -w, x], [w, -2 * z, y], [x, y, 0]])
    return np.array(
        [(G * dRw).sum(), (G * dRx).sum(), (G * dRy).sum(), (G * dRz).sum()]
    )


def chain_to_3d(
    scene: GaussianScene,
    cam: Camera,
    batch: SplatBatch,
    screen: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Chain per-splat screen-space grads to raw scene parameters.

    Recomputes the forward projection quantities in float64 per Gaussian
    (cheap next to the pixel loops) and applies the analytic Jacobians:
    conic -> 2D covariance -> camera covariance and perspective Jacobian
    -> world covariance -> (scale, rotation); screen mean -> camera
    point -> world mean; color -> SH coefficients and view direction;
    opacity -> logit.  Activation clamps (opacity at 0.99, SH color at
    zero) zero out the corresponding gradients.
    """
    n = scene.n
    out = {
        "position": np.zeros((n, 3)),
        "scale": np.zeros((n, 3)),
        "rotation": np.zeros((n, 4)),
        "opacity": np.zeros(n),
        "sh": np.zeros_like(scene.sh),
    }
    Rw = cam.rotation
    cam_center = cam.center
    degree = scene.degree

    rows = np.flatnonzero(screen["hit_count"] > 0)
    for row in rows:
        gi = int(batch.gaussian_index[row])
        g_mean2 = screen["d_mean2"][row]
        g_conic = screen["d_conic"][row]
        g_opacity = float(screen["d_opacity"][row])
        g_rgb = screen["d_rgb"][row]

        # recompute forward quantities
        mean3 = scene.means[gi]
        s = np.exp(scene.log_scales[gi])
        q_raw = scene.rotations[gi]
        q_norm = float(np.linalg.norm(q_raw))
        q = q_raw / q_norm
        R3 = quat_to_rotmat(q)
        M = R3 * s[None, :]
        cov_w = M @ M.T
        t = Rw @ mean3 + cam.translation
        tx, ty, tz = t
        J = np.array(
            [
                [cam.fx / tz, 0.0, -cam.fx * tx / tz**2],
                [0.0, cam.fy / tz, -cam.fy * ty / tz**2],
            ]
        )
        cov_c = Rw @ cov_w @ Rw.T
        cov2 = J @ cov_c @ J.T + LOW_PASS_DILATION * np.eye(2)
        inv2 = np.linalg.inv(cov2)

        # conic triple -> full symmetric matrix grad
        Gconic = np.array(
            [
                [g_conic[0], 0.5 * g_conic[1]],
                [0.5 * g_conic[1], g_conic[2]],
            ]
        )
        Gcov2 = -inv2 @ Gconic @ inv2
        GSc = J.T @ Gcov2 @ J
        GJ = 2.0 * Gcov2 @ J @ cov_c
        GSw = Rw.T @ GSc @ Rw
        GM = 2.0 * GSw @ M
        g_s = (GM * R3).sum(axis=0)
        out["scale"][gi] += g_s * s  # d/d(log s) = d/ds * s
        g_qunit = _quat_rotmat_grad(q, GM * s[None, :])
        out["rotation"][gi] += (g_qunit - q * float(q @ g_qunit)) / q_norm

        # camera-space point grads: screen mean and the Jacobian's t-dependence
        g_t = np.array(
            [
                g_mean2[0] * cam.fx / tz,
                g_mean2[1] * cam.fy / tz,
                -(g_mean2[0] * cam.fx * tx + g_mean2[1] * cam.fy * ty) / tz**2,
            ]
        )
        g_t[0] += GJ[0, 2] * (-cam.fx / tz**2)
        g_t[1] += GJ[1, 2] * (-cam.fy / tz**2)
        g_t[2] += (
            GJ[0, 0] * (-cam.fx / tz**2)
            + GJ[1, 1] * (-cam.fy / tz**2)
            + GJ[0, 2] * (2 * cam.fx * tx / tz**3)
            + GJ[1, 2] * (2 * cam.fy * ty / tz**3)
        )
        g_mean3 = Rw.T @ g_t

        # color -> SH coefficients and view direction
        g_rgb_eff = np.where(batch.rgb_clamped[row], 0.0, g_rgb)
        v = mean3 - cam_center
        u = v / np.linalg.norm(v)
        B = sh_basis(u, degree)  # (k,)
        dB = sh_basis_grad(u, degree)  # (k, 3)
        out["sh"][gi] += B[:, None] * g_rgb_eff[None, :]
        g_dir = dB.T @ (scene.sh[gi] @ g_rgb_eff)
        g_mean3 = g_mean3 + _normalize_grad(v, g_dir)
        out["position"][gi] += g_mean3

        # opacity logit through the sigmoid and its 0.99 ceiling
        sig = float(stable_sigmoid(scene.opacity_logits[gi]))
        if sig < OPACITY_MAX:
            out["opacity"][gi] += g_opacity * sig * (1.0 - sig)
    return out


def scene_backward(
    scene: GaussianScene,
    cam: Camera,
    trace: ForwardTrace,
    grad_img: np.ndarray,
    tcfg: TrainConfig,
) -> tuple[GradAccumulator, int, int]:
    """Full backward for one view: tiles, cross-tile fold, parameter chain.

    Returns the accumulator plus (accumulate ops, drain events).
    """
    binning = trace.binning
    batch = trace.batch
    bg = np.asarray(tcfg.background, dtype=np.float64)

    def run_tile(t: int) -> TilePartial | None:
        order = binning.lists[t]
        if len(order) == 0:
            return None
        return backward_tile(
            batch, order, binning.tile_rect(t), t,
            trace.t_final, trace.stop, grad_img, bg, tcfg.recip_mode,
        )

    n_tiles = binning.n_tiles
    if tcfg.threads > 1 and n_tiles > 1:
        with ThreadPoolExecutor(max_workers=tcfg.threads) as ex:
            results = list(ex.map(run_tile, range(n_tiles)))
    else:
        results = [run_tile(t) for t in range(n_tiles)]
    partials = [p for p in results if p is not None]

    acc, ops, drains = accumulate_cross_tile(partials, batch.n, tcfg.offload_batch)
    chained = chain_to_3d(scene, cam, trace.batch64, acc)
    gacc = GradAccumulator(
        d_rgb=acc["d_rgb"],
        d_alpha=acc["d_alpha"],
        d_opacity=acc["d_opacity"],
        d_mean2=acc["d_mean2"],
        d_conic=acc["d_conic"],
        hit_count=acc["hit_count"],
        d_means=chained["position"],
        d_log_scales=chained["scale"],
        d_rotations=chained["rotation"],
        d_opacity_logits=chained["opacity"],
        d_sh=chained["sh"],
    )
    return gacc, ops, drains


@dataclass
class TrainStepResult:
    loss: float
    stats: TrainStats


def train_step(
    scene: GaussianScene,
    views: list[tuple[Camera, ImageRGB]],
    tcfg: TrainConfig,
    adam_state,
    densify_stats=None,
) -> TrainStepResult:
    """One optimization step over a batch of views (scene updated in place).

    Loss is the mean of the per-view losses.  Gradients from all views
    are summed before the Adam update; densify statistics, when given,
    observe each view's screen-space gradients.
    """
    from .optim import scene_adam_step

    tcfg.validate()
    if not views:
        raise ValueError("train_step needs at least one view")
    rcfg = tcfg.render_config()
    nv = len(views)
    stats = TrainStats()
    grads: dict[str, np.ndarray] | None = None
    loss_total = 0.0

    for cam, target in views:
        t0 = time.perf_counter()
        res = render(scene, cam, rcfg, want_trace=True)
        stats.time_forward += time.perf_counter() - t0
        loss, g = loss_and_pixel_grads(res.image, target, tcfg.loss)
        loss_total += loss / nv
        g = g / nv
        t0 = time.perf_counter()
        gacc, ops, drains = scene_backward(scene, cam, res.trace, g, tcfg)
        stats.time_backward += time.perf_counter() - t0
        stats.accum_ops += ops
        stats.drain_events += drains
        stats.forward = res.stats
        if densify_stats is not None:
            densify_stats.observe(gacc, res.trace.batch)
        view_grads = gacc.param_grads()
        if grads is None:
            grads = view_grads
        else:
            for key in grads:
                grads[key] += view_grads[key]

    t0 = time.perf_counter()
    scene_adam_step(scene, grads, adam_state)
    stats.time_optimizer += time.perf_counter() - t0
    stats.loss = loss_total
    return TrainStepResult(loss=loss_total, stats=stats)
