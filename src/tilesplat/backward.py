"""Backward pass: pixel loss gradients to Gaussian parameter gradients.

Each tile is differentiated independently by walking its splat list back
to front.  An entry's window is its AABB clipped to the tile and cut to
the box of its q <= 2 ln(255 opacity) ellipse (``preprocess.blend_box``),
outside which it blends nothing.  The list is cut into runs of
consecutive entries (``_group_runs``) and each run is swept as one dense
(g, h, w) slab over the bounding box of its entries' windows, last run
first, with one ``alpha_patch`` and one ``recip_one_minus`` call per
run.  A run grows greedily while g * area(bounding box) <= sum(window
area + RUN_OVERHEAD_PX) and one slab array fits in RUN_MAX_BYTES: small
splats on small tiles become one run per tile, while large splats stay
in short runs that evaluate little beyond their windows.  The transmittance a
splat saw in the forward pass is recovered by dividing the running value
by (1 - alpha) as the walk retreats, which is what recip_one_minus
models: a running product from the back whose factor is 1 wherever an
entry does not blend, so every pixel sees the multiplies of a
splat-at-a-time walk in the same order.  The suffix color
(alpha-weighted color of everything behind the current splat) is carried
as its dot product with the pixel gradient, one scalar per pixel,
through the same linear recurrence.  Per-splat sums are reductions over
the slab's pixel axes.

Per-splat partials from all tiles are folded into one accumulator in
tile order, then chained through projection, covariance, activation,
and spherical harmonics to the raw parameters, batched over the splats
with hits.  The accumulator's drain count models a fold that drains every
``offload_batch`` (16) list positions of a tile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .approxmath import recip_one_minus
from .execmodel import TrainStats
from .forward import (
    ForwardTrace,
    RenderConfig,
    alpha_patch,
    clip_windows,
    render,
)
from .model import (
    OPACITY_MAX,
    Camera,
    GaussianScene,
    ImageRGB,
    quat_to_rotmat,
    stable_sigmoid,
)
from .preprocess import ALPHA_MIN, LOW_PASS_DILATION, SplatBatch, blend_box
from .sh import sh_basis, sh_basis_grad


# Run grouping (see the module docstring).  RUN_OVERHEAD_PX is the fixed
# cost of one run-kernel call in pixel-equivalents, measured on the
# benchmark's workloads.  RUN_MAX_BYTES caps one (g, h, w) slab array,
# which keeps a run's ~8 live temporaries within a core's L2 cache and
# the process's peak memory flat.
RUN_OVERHEAD_PX = 4096
RUN_MAX_BYTES = 1 << 17


def window_mask(win: np.ndarray, slab: tuple[int, int, int, int]) -> np.ndarray:
    """(g, h, w) mask of the slab pixels inside each entry's window."""
    sx0, sy0, sx1, sy1 = slab
    xs = np.arange(sx0, sx1)
    ys = np.arange(sy0, sy1)
    cols = (xs >= win[:, 0, None]) & (xs < win[:, 2, None])
    rows = (ys >= win[:, 1, None]) & (ys < win[:, 3, None])
    return rows[:, :, None] & cols[:, None, :]


def _group_runs(
    win: np.ndarray, area: np.ndarray, max_elems: int
) -> list[tuple[int, int, int, int, int, int]]:
    """Split consecutive list entries into dense-slab runs.

    ``win`` holds each entry's clipped window (x0, y0, x1, y1), with
    empty windows set to an inverted box that never widens a run;
    ``area`` holds the window areas.  A run may hold g entries when g
    times the area of their bounding box is at most the sum of (window
    area + RUN_OVERHEAD_PX) and at most ``max_elems``.  The whole span
    is one run if it qualifies; otherwise runs grow greedily.  Returns
    (lo, hi, x0, y0, x1, y1) per run, positions relative to ``win``.
    """
    n = len(area)
    bx0, by0 = win[:, :2].min(axis=0).tolist()
    bx1, by1 = win[:, 2:].max(axis=0).tolist()
    dense = n * max(bx1 - bx0, 0) * max(by1 - by0, 0)
    if n == 1 or dense <= min(int(area.sum()) + n * RUN_OVERHEAD_PX, max_elems):
        return [(0, n, bx0, by0, bx1, by1)]
    wx0, wy0, wx1, wy1 = (col.tolist() for col in win.T)
    areas = area.tolist()
    runs = []
    lo = 0
    while lo < n:
        bx0, by0, bx1, by1 = wx0[lo], wy0[lo], wx1[lo], wy1[lo]
        budget = areas[lo] + RUN_OVERHEAD_PX
        hi = lo + 1
        while hi < n:
            nx0 = min(bx0, wx0[hi])
            ny0 = min(by0, wy0[hi])
            nx1 = max(bx1, wx1[hi])
            ny1 = max(by1, wy1[hi])
            dense = (hi - lo + 1) * max(nx1 - nx0, 0) * max(ny1 - ny0, 0)
            nbudget = budget + areas[hi] + RUN_OVERHEAD_PX
            if dense > nbudget or dense > max_elems:
                break
            bx0, by0, bx1, by1, budget = nx0, ny0, nx1, ny1, nbudget
            hi += 1
        runs.append((lo, hi, bx0, by0, bx1, by1))
        lo = hi
    return runs


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
        self.render_config().validate()

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
    d_opacity: np.ndarray  # (p,)
    d_mean2: np.ndarray  # (p, 2)
    d_conic: np.ndarray  # (p, 3)
    hits: np.ndarray  # (p,) int64 contributing pixels


@dataclass
class GradAccumulator:
    """Screen-space grads per splat row plus chained grads per scene row."""

    # batch-aligned (one row per visible splat)
    d_rgb: np.ndarray
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
    """Back-to-front gradient sweep over one tile, one run at a time.

    ``t_final`` and ``stop`` are the full-image trace arrays; ``grad_img``
    is dL/d(pixel) including any loss scaling.  A splat only receives
    gradient from pixels it actually blended into (alpha above threshold,
    inside its window, and list position before the pixel's stop).  Each
    window is cut to the box where the splat can blend (``blend_box``), and
    the list is cut into runs (``_group_runs``), swept last run first.
    """
    x0, y0, x1, y1 = rect
    m = len(order)
    out = TilePartial(
        tile_index=tile_index,
        order=order,
        d_rgb=np.zeros((m, 3)),
        d_opacity=np.zeros(m),
        d_mean2=np.zeros((m, 2)),
        d_conic=np.zeros((m, 3)),
        hits=np.zeros(m, dtype=np.int64),
    )
    if m == 0:
        return out
    tile = (slice(y0, y1), slice(x0, x1))
    T = t_final[tile].astype(np.float64)  # transmittance behind the sweep
    S = np.zeros_like(T)  # suffix color projected onto the pixel gradient
    bg_grad = grad_img[tile] @ background if np.any(background != 0.0) else None
    mean, conic, opacity = batch.mean2[order], batch.conic[order], batch.opacity[order]
    win, area = clip_windows(blend_box(mean, conic, opacity, batch.aabb[order]), rect)
    max_elems = RUN_MAX_BYTES // T.itemsize
    for lo, hi, sx0, sy0, sx1, sy1 in reversed(_group_runs(win, area, max_elems)):
        if sx0 < sx1 and sy0 < sy1:
            _sweep_run(
                out, batch, lo, hi, win[lo:hi], (sx0, sy0, sx1, sy1), rect,
                T, S, t_final, stop, grad_img, bg_grad, recip_mode,
            )
    return out


def _sweep_run(
    out: TilePartial,
    batch: SplatBatch,
    lo: int,
    hi: int,
    win: np.ndarray,
    slab: tuple[int, int, int, int],
    rect: tuple[int, int, int, int],
    T: np.ndarray,
    S: np.ndarray,
    t_final: np.ndarray,
    stop: np.ndarray,
    grad_img: np.ndarray,
    bg_grad: np.ndarray | None,
    recip_mode: str,
) -> None:
    """Sweep list positions lo..hi-1 back to front over one (g, h, w) slab.

    ``T`` and ``S`` hold the tile's running transmittance and projected
    suffix color; they are advanced in place past the run.  Row k of the
    transmittance slab is a running product from the back with factor
    1/(1 - alpha) where entry lo + k blends and 1 elsewhere, so each pixel
    sees the multiplies of a splat-at-a-time sweep in the same order.
    The suffix color enters alpha's gradient only through its dot
    product with the pixel gradient dL/dpixel, so S = suffix . dL/dpixel
    is carried through the same linear recurrence,
    S <- alpha (c . dL/dpixel) + (1 - alpha) S, exact in real arithmetic.
    """
    idx = out.order[lo:hi]
    g = hi - lo
    sx0, sy0, sx1, sy1 = slab
    img = (slice(sy0, sy1), slice(sx0, sx1))
    sl = (slice(sy0 - rect[1], sy1 - rect[1]), slice(sx0 - rect[0], sx1 - rect[0]))
    alpha, dx, dy = alpha_patch(batch, idx, sx0, sx1, sy0, sy1)
    contrib = alpha >= ALPHA_MIN
    if g > 1:  # a single entry's slab is its window
        contrib &= window_mask(win, slab)
    if stop[img].min() < hi:
        contrib &= np.arange(lo, hi)[:, None, None] < stop[img]
    hits = np.count_nonzero(contrib, axis=(1, 2))
    out.hits[lo:hi] = hits
    if not hits.any():
        return
    r = recip_one_minus(alpha, recip_mode)
    a64 = alpha.astype(np.float64, copy=False)
    gpx = grad_img[img].reshape(-1, 3)  # (h*w, 3)
    cg = (batch.rgb[idx].astype(np.float64) @ gpx.T).reshape(alpha.shape)

    ac = a64 * contrib  # alpha where the entry blends, else 0
    factor = np.where(contrib, r, 1.0)
    keep = 1.0 - ac
    add = ac * cg
    Tacc = np.empty((g + 1,) + alpha.shape[1:])
    Sacc = np.empty_like(Tacc)
    Tacc[g] = T[sl]
    Sacc[g] = S[sl]
    for k in range(g - 1, -1, -1):
        np.multiply(Tacc[k + 1], factor[k], out=Tacc[k])
        np.multiply(keep[k], Sacc[k + 1], out=Sacc[k])
        Sacc[k] += add[k]
    T[sl] = Tacc[0]
    S[sl] = Sacc[0]
    Tb = Tacc[:g]  # transmittance in front of each entry

    dla = cg - Sacc[1:]
    dla *= Tb
    if bg_grad is not None:
        dla -= (t_final[img] * r) * bg_grad[sl]
    dla *= contrib
    aT = ac * Tb
    out.d_rgb[lo:hi] = aT.reshape(g, -1) @ gpx

    # alpha = opacity * exp(-q/2): d/d(opacity) = alpha/opacity, d/dq = -alpha/2.
    # mom[:, i, j] = sum over pixels of alpha * dla * dy^i * dx^j
    adla = ac * dla
    dxv = dx[:, 0, :].astype(np.float64)
    dyv = dy[:, :, 0].astype(np.float64)
    xpow = np.stack([np.ones_like(dxv), dxv, dxv * dxv], axis=2)  # (g, w, 3)
    ypow = np.stack([np.ones_like(dyv), dyv, dyv * dyv], axis=1)  # (g, 3, h)
    mom = ypow @ (adla @ xpow)
    out.d_opacity[lo:hi] = mom[:, 0, 0] / batch.opacity[idx].astype(np.float64)
    dq = -0.5 * mom  # moments of dL/dq
    ca, cb, cc = batch.conic[idx].astype(np.float64).T
    out.d_mean2[lo:hi, 0] = -(2 * ca * dq[:, 0, 1] + 2 * cb * dq[:, 1, 0])
    out.d_mean2[lo:hi, 1] = -(2 * cb * dq[:, 0, 1] + 2 * cc * dq[:, 1, 0])
    out.d_conic[lo:hi, 0] = dq[:, 0, 2]
    out.d_conic[lo:hi, 1] = 2 * dq[:, 1, 1]
    out.d_conic[lo:hi, 2] = dq[:, 2, 0]


def accumulate_cross_tile(
    partials: list[TilePartial], n_splats: int, offload_batch: int
) -> tuple[dict[str, np.ndarray], int, int]:
    """Fold per-tile partials into per-splat totals in a fixed order.

    Tiles fold in ascending tile index and list positions in list order,
    as one ``np.add.at`` per field over the concatenated partials
    (``np.add.at`` applies repeated indices in order, so the sums do not
    depend on how the fold is batched).  The drain count models an
    accumulator that drains every ``offload_batch`` list positions of a
    tile.  Returns (per-splat arrays, accumulate ops, drain events).
    """
    acc = {
        "d_rgb": np.zeros((n_splats, 3)),
        "d_opacity": np.zeros(n_splats),
        "d_mean2": np.zeros((n_splats, 2)),
        "d_conic": np.zeros((n_splats, 3)),
        "hit_count": np.zeros(n_splats, dtype=np.int64),
    }
    parts = sorted(partials, key=lambda p: p.tile_index)
    if not parts:
        return acc, 0, 0
    idx = np.concatenate([p.order for p in parts])
    for key in acc:
        field = "hits" if key == "hit_count" else key
        np.add.at(acc[key], idx, np.concatenate([getattr(p, field) for p in parts]))
    drains = sum(-(-len(p.order) // offload_batch) for p in parts)
    return acc, len(idx), drains


def _normalize_vjp(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward of u = v/|v| along the last axis: project g off u, divide by |v|."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    u = v / n
    return (g - u * (u * g).sum(axis=-1, keepdims=True)) / n


def _quat_to_rotmat_vjp(q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """dL/dq of ``quat_to_rotmat`` given dL/dR; q (..., 4) as (w, x, y, z), G (..., 3, 3)."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    zero = np.zeros_like(w)
    dR = 2.0 * np.stack(
        [
            [[zero, -z, y], [z, zero, -x], [-y, x, zero]],
            [[zero, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
            [[-2 * y, x, w], [x, zero, z], [-w, z, -2 * y]],
            [[-2 * z, -w, x], [w, -2 * z, y], [x, y, zero]],
        ]
    )  # (4, 3, 3, ...)
    return np.einsum("kij...,...ij->...k", dR, G)


def chain_to_3d(
    scene: GaussianScene,
    cam: Camera,
    batch: SplatBatch,
    screen: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Chain per-splat screen-space grads to raw scene parameters.

    Recomputes the forward projection quantities in float64 for every
    row with hits, batched over rows, and applies the analytic Jacobians:
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
    rows = np.flatnonzero(screen["hit_count"] > 0)
    if rows.size == 0:
        return out
    gi = batch.gaussian_index[rows]  # distinct scene rows
    g_mean2 = screen["d_mean2"][rows]
    g_conic = screen["d_conic"][rows]
    Rw = cam.rotation

    # recompute forward quantities
    mean3 = scene.means[gi]
    s = np.exp(scene.log_scales[gi])
    q_raw = scene.rotations[gi]
    q = q_raw / np.linalg.norm(q_raw, axis=1, keepdims=True)
    R3 = quat_to_rotmat(q)
    M = R3 * s[:, None, :]
    cov_c = Rw @ (M @ M.transpose(0, 2, 1)) @ Rw.T
    t = mean3 @ Rw.T + cam.translation
    tx, ty, tz = t.T
    J = np.zeros((rows.size, 2, 3))
    J[:, 0, 0] = cam.fx / tz
    J[:, 0, 2] = -cam.fx * tx / tz**2
    J[:, 1, 1] = cam.fy / tz
    J[:, 1, 2] = -cam.fy * ty / tz**2
    Jt = J.transpose(0, 2, 1)
    inv2 = np.linalg.inv(J @ cov_c @ Jt + LOW_PASS_DILATION * np.eye(2))

    # conic triple -> full symmetric matrix grad
    Gconic = np.empty((rows.size, 2, 2))
    Gconic[:, 0, 0] = g_conic[:, 0]
    Gconic[:, 0, 1] = Gconic[:, 1, 0] = 0.5 * g_conic[:, 1]
    Gconic[:, 1, 1] = g_conic[:, 2]
    Gcov2 = -inv2 @ Gconic @ inv2
    GJ = 2.0 * Gcov2 @ J @ cov_c
    GM = 2.0 * (Rw.T @ (Jt @ Gcov2 @ J) @ Rw) @ M
    out["scale"][gi] = (GM * R3).sum(axis=1) * s  # d/d(log s) = d/ds * s
    g_qunit = _quat_to_rotmat_vjp(q, GM * s[:, None, :])
    out["rotation"][gi] = _normalize_vjp(q_raw, g_qunit)

    # camera-space point grads: screen mean and the Jacobian's t-dependence
    g_t = np.stack(
        [
            g_mean2[:, 0] * cam.fx / tz - GJ[:, 0, 2] * cam.fx / tz**2,
            g_mean2[:, 1] * cam.fy / tz - GJ[:, 1, 2] * cam.fy / tz**2,
            -(g_mean2[:, 0] * cam.fx * tx + g_mean2[:, 1] * cam.fy * ty) / tz**2
            - GJ[:, 0, 0] * cam.fx / tz**2
            - GJ[:, 1, 1] * cam.fy / tz**2
            + GJ[:, 0, 2] * (2 * cam.fx * tx / tz**3)
            + GJ[:, 1, 2] * (2 * cam.fy * ty / tz**3),
        ],
        axis=1,
    )
    g_mean3 = g_t @ Rw

    # color -> SH coefficients and view direction
    g_rgb = np.where(batch.rgb_clamped[rows], 0.0, screen["d_rgb"][rows])
    v = mean3 - cam.center
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    B = sh_basis(u, scene.degree)  # (r, k)
    dB = sh_basis_grad(u, scene.degree)  # (r, k, 3)
    out["sh"][gi] = B[:, :, None] * g_rgb[:, None, :]
    g_dir = np.einsum("rkd,rk->rd", dB, np.einsum("rkc,rc->rk", scene.sh[gi], g_rgb))
    out["position"][gi] = g_mean3 + _normalize_vjp(v, g_dir)

    # opacity logit through the sigmoid and its 0.99 ceiling
    sig = stable_sigmoid(scene.opacity_logits[gi])
    out["opacity"][gi] = np.where(
        sig < OPACITY_MAX, screen["d_opacity"][rows] * sig * (1.0 - sig), 0.0
    )
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
    partials = [
        backward_tile(
            batch, order, binning.tile_rect(t), t,
            trace.t_final, trace.stop, grad_img, bg, tcfg.recip_mode,
        )
        for t, order in enumerate(binning.lists)
        if len(order)
    ]

    acc, ops, drains = accumulate_cross_tile(partials, batch.n, tcfg.offload_batch)
    chained = chain_to_3d(scene, cam, trace.batch64, acc)
    gacc = GradAccumulator(
        d_rgb=acc["d_rgb"],
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
