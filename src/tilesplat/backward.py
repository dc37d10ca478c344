"""Backward pass: pixel loss gradients to Gaussian parameter gradients.

The forward pass decides which (entry, pixel) pairs blend and with what
alpha, and with ``want_trace`` it records that decision: per tile group,
each lockstep step's blended pixels, their alpha and their entries
(``forward.BlockGroup.blend``).  The backward replays the record and
decides nothing itself.  Within a step a pixel occurs at most once, and
each block's steps follow its list order, so walking a group's steps in
reverse visits every pixel's blends back to front.  The transmittance
an entry saw is recovered by multiplying the running value by
``recip_one_minus(alpha)``, which models the divider: T starts at the
final transmittance and each pixel sees the multiplies of a
splat-at-a-time walk in the same order.  The suffix color
(alpha-weighted color of everything behind the current entry) is
carried as its dot product with the pixel gradient, one scalar per
pixel, through the recurrence S <- (1 - alpha) S + alpha (c . dL/dpixel).
Per-entry sums (color gradient, six moments of the alpha gradient over
pixel offsets, hit counts) are ``np.bincount`` over the pairs' entries.

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
from .forward import BlockGroup, ForwardTrace, RenderConfig, render
from .model import OPACITY_MAX, Camera, GaussianScene, ImageRGB, quat_to_rotmat, stable_sigmoid
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
    grp: BlockGroup,
    steps: list,
    tile_index: int,
    t_final: np.ndarray,
    grad_img: np.ndarray,
    background: np.ndarray,
    recip_mode: str,
) -> TilePartial:
    """Gradients of one tile group's entries, by replaying its blend steps.

    ``order`` is the group's tile lists concatenated (its entries),
    ``grp`` and ``steps`` the group and its record from the forward pass,
    ``t_final`` the image's final transmittance and ``grad_img``
    dL/d(pixel) including any loss scaling.  Returns one partial over all
    of ``order``, labelled ``tile_index`` (``scene_backward`` cuts it per
    tile).  The function kept the name and leading parameters it had
    when it swept one tile: the benchmark's probe wraps it by name and
    counts len(order) invocations, which still sum to the view's.

    Steps are replayed in runs of at most as many pairs as the group has
    block pixels, so GROUP_MAX_PX bounds the replay's arrays as it
    bounds the forward's.
    """
    m = len(order)
    # Image values in the group's layout, indexed by group-flat pixel
    live = grp.valid.reshape(-1)
    xc, yc = grp.xc.reshape(-1), grp.yc.reshape(-1)
    pix = yc[live].astype(np.int64) * t_final.shape[1] + xc[live].astype(np.int64)
    t_grp = np.zeros(live.size, dtype=t_final.dtype)
    t_grp[live] = t_final.reshape(-1)[pix]
    grads = np.zeros((3, live.size))
    grads[:, live] = grad_img.reshape(-1, 3)[pix].T
    T = t_grp.astype(np.float64)  # transmittance behind the walk
    S = np.zeros_like(T)  # suffix color projected onto the pixel gradient
    bg = background if np.any(background != 0.0) else None
    rgb = batch.rgb[order].astype(np.float64).T
    mean = batch.mean2[order].T
    hits = np.zeros(m, dtype=np.int64)
    # d_rgb, then moments of alpha * dla over (1, dx, dy, dx^2, dx dy, dy^2)
    sums = np.zeros((9, m))
    sizes = [len(step[0]) for step in steps]
    for k0, k1 in reversed(_step_runs(sizes, live.size)):
        flat, alpha, entry = (np.concatenate(parts) for parts in zip(*steps[k0:k1]))
        entry = entry.astype(np.intp)
        r = recip_one_minus(alpha, recip_mode)
        a = alpha.astype(np.float64, copy=False)
        dla = rgb[0][entry] * grads[0][flat]  # c . dL/dpixel until the walk makes it dla
        dla += rgb[1][entry] * grads[1][flat]
        dla += rgb[2][entry] * grads[2][flat]
        aT = np.empty_like(a)
        ends = np.cumsum(sizes[k0:k1]).tolist()
        for lo, hi in reversed(list(zip([0] + ends[:-1], ends))):
            f, ak, cg = flat[lo:hi], a[lo:hi], dla[lo:hi]
            t = T[f]
            t *= r[lo:hi]  # transmittance in front of the entry
            T[f] = t
            s = S[f]  # projected suffix color behind the entry
            S[f] = s * (1.0 - ak) + ak * cg
            cg -= s
            cg *= t
            np.multiply(ak, t, out=aT[lo:hi])

        g = [gr[flat] for gr in grads]
        if bg is not None:
            dla -= (t_grp[flat] * r) * (g[0] * bg[0] + g[1] * bg[1] + g[2] * bg[2])
        hits += np.bincount(entry, minlength=m)
        for ch in range(3):
            sums[ch] += np.bincount(entry, aT * g[ch], minlength=m)
        del g, aT, r  # before the moments' temporaries: a lower peak
        # alpha = opacity * exp(-q/2): d/d(opacity) = alpha/opacity, d/dq = -alpha/2
        adla = np.multiply(a, dla, out=dla)
        dx = (xc[flat] - mean[0][entry]).astype(np.float64, copy=False)
        dy = (yc[flat] - mean[1][entry]).astype(np.float64, copy=False)
        wx, wy = adla * dx, adla * dy
        for i, w in enumerate((adla, wx, wy)):
            sums[3 + i] += np.bincount(entry, w, minlength=m)
        for i, (w, d) in enumerate(((wx, dx), (wx, dy), (wy, dy))):
            sums[6 + i] += np.bincount(entry, w * d, minlength=m)

    mom = sums[3:]
    dq = -0.5 * mom  # moments of dL/dq
    ca, cb, cc = batch.conic[order].astype(np.float64).T
    return TilePartial(
        tile_index=tile_index,
        order=order,
        d_rgb=sums[:3].T.copy(),
        d_opacity=mom[0] / batch.opacity[order].astype(np.float64),
        d_mean2=-2 * np.stack([ca * dq[1] + cb * dq[2], cb * dq[1] + cc * dq[2]], axis=1),
        d_conic=np.stack([dq[3], 2 * dq[4], dq[5]], axis=1),
        hits=hits,
    )


def _step_runs(sizes: list[int], cap: int) -> list[list[int]]:
    """Runs [k0, k1) of consecutive steps of at most ``cap`` pairs, or of one step."""
    runs, held = [], np.inf
    for k, n in enumerate(sizes):
        if held + n > cap:
            runs.append([k, k])
            held = 0
        runs[-1][1] = k + 1
        held += n
    return runs


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
    fields = ("order", "d_rgb", "d_opacity", "d_mean2", "d_conic", "hits")
    partials = []
    for tiles, grp, steps in trace.groups:
        order = np.concatenate([binning.lists[t] for t in tiles])
        part = backward_tile(
            batch, order, grp, steps, tiles.start,
            trace.t_final, grad_img, bg, tcfg.recip_mode,
        )
        values = [getattr(part, f) for f in fields]
        for t, lo, hi in zip(tiles, grp.entry_off[:-1], grp.entry_off[1:]):
            if hi > lo:
                partials.append(TilePartial(t, *(v[lo:hi] for v in values)))

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
        del res  # the next view's render must not find this record alive
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
