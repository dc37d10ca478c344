"""Backward pass: pixel loss gradients to Gaussian parameter gradients.

The forward pass decides which (entry, pixel) pairs blend and with what
alpha, and with ``want_trace`` it records that decision: each lockstep
step's blended image pixels and their alpha, and one view-wide entry
and pair count per block row, since a row's pairs are contiguous and
share its entry (``forward.BlockGroup.blend``).  The backward replays
the record over whole-image arrays and decides nothing itself.  Within
a step a pixel occurs at most once, each block's steps follow its list
order, and a pixel lies in one group, so walking the view's steps in
reverse visits every pixel's blends back to front.  The
transmittance an entry saw is recovered by multiplying the running value
by ``recip_one_minus(alpha)``, which models the divider: T starts at the
final transmittance and each pixel sees the multiplies of a
splat-at-a-time walk in the same order.  The suffix color
(alpha-weighted color of everything behind the current entry) is
carried as its dot product with the pixel gradient, one scalar per
pixel, through the recurrence S <- (1 - alpha) S + alpha (c . dL/dpixel).
Per-entry values (color, mean) are gathered once per row and repeated
over its pairs only where a pair's term needs them.  Per-entry sums
(color gradient, six moments of the alpha gradient over pixel offsets)
are taken over each row's pairs with ``np.add.reduceat``, then over each
entry's rows with ``np.bincount``; hit counts are the bincount of the
row counts.

Entries are numbered in tile order, so folding their sums into
per-splat totals in entry order folds list positions tile by tile in
list order.  The drain count models a fold that drains every
OFFLOAD_BATCH (16) list positions of a tile.  The totals are then
chained to the raw parameters, batched over the splats with hits, by
differentiating ``preprocess``'s own projection: activated scale,
rotation and opacity from ``model.activate``, camera covariance and
perspective Jacobian from ``preprocess.camera_projection``, and the
conic the forward blended; then spherical harmonics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .approxmath import recip_one_minus
from .execmodel import TrainStats
from .forward import GROUP_MAX_PX, ForwardTrace, RenderConfig, render
from .model import OPACITY_MAX, Camera, GaussianScene, ImageRGB, activate, quat_to_rotmat
from .preprocess import SplatBatch, camera_projection
from .sh import sh_basis, sh_basis_grad

# List positions of a tile per accumulator drain (``accumulate_cross_tile``)
OFFLOAD_BATCH = 16


@dataclass
class TrainConfig:
    tile_size: tuple[int, int] = (32, 64)
    loss: str = "l1"
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eps_t: float = 1e-4
    recip_mode: str = "exact"  # "exact" | "approx" divider model in the backward
    dtype: type = np.float64
    threads: int = 1

    def validate(self) -> None:
        if self.loss not in ("l1", "l2"):
            raise ValueError("loss must be 'l1' or 'l2'")
        if self.recip_mode not in ("exact", "approx"):
            raise ValueError("recip_mode must be 'exact' or 'approx'")
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


def backward_tile(
    batch: SplatBatch,
    order: np.ndarray,
    steps: list,
    t_final: np.ndarray,
    grad_img: np.ndarray,
    background: np.ndarray,
    recip_mode: str,
) -> dict[str, np.ndarray]:
    """Gradients of a view's entries, by replaying its blend steps.

    ``order`` is the view's entries (``TileBinning.order``),
    ``steps`` the record of the forward pass (``ForwardTrace.steps``),
    ``t_final`` the image's final transmittance and ``grad_img``
    dL/d(pixel) including any loss scaling.  Returns the sums of every
    entry of ``order``, keyed like ``accumulate_cross_tile``'s totals.
    The function kept the name and leading parameters it had when it
    swept one tile: the benchmark's probe wraps it by name and counts
    len(order) invocations, the view's.

    Steps are replayed in runs of at most min(GROUP_MAX_PX, image
    pixels) pairs, so GROUP_MAX_PX bounds the replay's arrays as it
    bounds the forward's.  A run concatenates its steps' block rows, and
    each row's first pair is found from the run's row counts.
    """
    m = len(order)
    h, w = t_final.shape
    dt = batch.mean2.dtype.type  # pixel centres as the forward evaluated them
    xc = np.tile(np.arange(w).astype(dt) + dt(0.5), h)
    yc = np.repeat(np.arange(h).astype(dt) + dt(0.5), w)
    t_img = t_final.reshape(-1)
    grads = np.ascontiguousarray(grad_img.reshape(-1, 3).T, dtype=np.float64)
    T = t_img.astype(np.float64)  # transmittance behind the walk
    S = np.zeros_like(T)  # suffix color projected onto the pixel gradient
    bg = background if np.any(background != 0.0) else None
    rgb = batch.rgb[order].astype(np.float64).T
    mean = batch.mean2[order].T
    hits = np.zeros(m)
    # d_rgb, then moments of alpha * dla over (1, dx, dy, dx^2, dx dy, dy^2)
    sums = np.zeros((9, m))
    sizes = [len(step[0]) for step in steps]
    for k0, k1 in reversed(_step_runs(sizes, min(GROUP_MAX_PX, T.size))):
        flat, alpha, entry, count = (np.concatenate(parts) for parts in zip(*steps[k0:k1]))
        flat, entry = flat.astype(np.intp), entry.astype(np.intp)  # int32 indexes run slower
        seg = np.cumsum(count) - count  # each row's first pair
        r = recip_one_minus(alpha, recip_mode)
        a = alpha.astype(np.float64, copy=False)
        g = [gr[flat] for gr in grads]
        c = rgb[:, entry]  # per row
        dla = np.repeat(c[0], count) * g[0]  # c . dL/dpixel until the walk makes it dla
        dla += np.repeat(c[1], count) * g[1]
        dla += np.repeat(c[2], count) * g[2]
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

        if bg is not None:
            dla -= (t_img[flat] * r) * (g[0] * bg[0] + g[1] * bg[1] + g[2] * bg[2])
        hits += np.bincount(entry, count, minlength=m)

        def add(k, w):  # over each block row's pairs, then over each entry's rows
            sums[k] += np.bincount(entry, np.add.reduceat(w, seg), minlength=m)

        for ch in range(3):
            add(ch, aT * g[ch])
        del g, aT, r  # before the moments' temporaries: a lower peak
        # alpha = opacity * exp(-q/2): d/d(opacity) = alpha/opacity, d/dq = -alpha/2
        adla = np.multiply(a, dla, out=dla)
        mx, my = mean[:, entry]  # per row
        dx = (xc[flat] - np.repeat(mx, count)).astype(np.float64, copy=False)
        dy = (yc[flat] - np.repeat(my, count)).astype(np.float64, copy=False)
        wx, wy = adla * dx, adla * dy
        for k, w in enumerate((adla, wx, wy), 3):
            add(k, w)
        for k, (w, d) in enumerate(((wx, dx), (wx, dy), (wy, dy)), 6):
            add(k, w * d)

    mom = sums[3:]
    dq = -0.5 * mom  # moments of dL/dq
    ca, cb, cc = batch.conic[order].astype(np.float64).T
    return {
        "d_rgb": sums[:3].T.copy(),
        "d_opacity": mom[0] / batch.opacity[order].astype(np.float64),
        "d_mean2": -2 * np.stack([ca * dq[1] + cb * dq[2], cb * dq[1] + cc * dq[2]], axis=1),
        "d_conic": np.stack([dq[3], 2 * dq[4], dq[5]], axis=1),
        "hit_count": hits.astype(np.int64),
    }


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
    order: np.ndarray, sums: dict[str, np.ndarray], offsets: np.ndarray, n_splats: int
) -> tuple[dict[str, np.ndarray], int, int]:
    """Fold per-entry sums into per-splat totals in a fixed order.

    ``order`` is the batch row of every entry, tile t's list being
    ``order[offsets[t]:offsets[t + 1]]`` (``TileBinning``), and ``sums``
    ``backward_tile``'s sums over them.  List positions fold in that
    order, as one ``np.add.at`` per key (``np.add.at`` applies repeated
    indices in order).  The drain count models an accumulator that
    drains every OFFLOAD_BATCH list positions of each tile list.
    Returns (per-splat totals, accumulate ops, drain events).
    """
    acc = {}
    for key, part in sums.items():
        acc[key] = np.zeros((n_splats,) + part.shape[1:], dtype=part.dtype)
        np.add.at(acc[key], order, part)
    drains = int((-(-np.diff(offsets) // OFFLOAD_BATCH)).sum())
    return acc, len(order), drains


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
    """Chain per-splat screen-space grads to raw parameters, keyed like ``scene.params()``.

    Batched over the rows with hits, it takes the forward's projection
    (``model.activate``, ``preprocess.camera_projection`` and the conic
    in ``batch``) and applies the analytic Jacobians: conic -> 2D
    covariance -> camera covariance and perspective Jacobian -> world
    covariance -> (scale, rotation); screen mean -> camera point ->
    world mean; color -> SH coefficients and view direction; opacity ->
    logit.  Activation clamps (opacity at 0.99, SH color at zero) zero
    out the corresponding gradients; rows without hits keep zeros.
    """
    out = {key: np.zeros_like(arr) for key, arr in scene.params().items()}
    rows = np.flatnonzero(screen["hit_count"] > 0)
    if rows.size == 0:
        return out
    gi = batch.gaussian_index[rows]  # distinct scene rows
    g_mean2 = screen["d_mean2"][rows]
    g_conic = screen["d_conic"][rows]
    Rw = cam.rotation

    # the forward's projection quantities
    s, q, opac = activate(scene.log_scales[gi], scene.rotations[gi], scene.opacity_logits[gi])
    R3 = quat_to_rotmat(q)
    M = R3 * s[:, None, :]
    mean3 = scene.means[gi]
    t = mean3 @ Rw.T + cam.translation
    cov_c, J = camera_projection(t, M @ M.transpose(0, 2, 1), cam)
    tx, ty, tz = t.T
    Jt = J.transpose(0, 2, 1)

    # conic triples as symmetric 2x2: the blended conic (inverse 2D covariance), its grad
    inv2 = batch.conic[rows][:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    Gconic = (g_conic * [1.0, 0.5, 1.0])[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    Gcov2 = -inv2 @ Gconic @ inv2
    GJ = 2.0 * Gcov2 @ J @ cov_c
    GM = 2.0 * (Rw.T @ (Jt @ Gcov2 @ J) @ Rw) @ M
    out["scale"][gi] = (GM * R3).sum(axis=1) * s  # d/d(log s) = d/ds * s
    g_qunit = _quat_to_rotmat_vjp(q, GM * s[:, None, :])
    out["rotation"][gi] = _normalize_vjp(scene.rotations[gi], g_qunit)

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
    out["opacity"][gi] = np.where(
        opac < OPACITY_MAX, screen["d_opacity"][rows] * opac * (1.0 - opac), 0.0
    )
    return out


def scene_backward(
    scene: GaussianScene,
    cam: Camera,
    trace: ForwardTrace,
    grad_img: np.ndarray,
    tcfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], int, int]:
    """Full backward for one view: tiles, cross-tile fold, parameter chain.

    Returns (screen, grads, accumulate ops, drain events): ``screen``
    the per-splat totals of ``accumulate_cross_tile``, one row per batch
    row, and ``grads`` the raw-parameter gradients of ``chain_to_3d``,
    keyed like ``GaussianScene.params``.
    """
    order, offsets = trace.binning.order, trace.binning.offsets
    bg = np.asarray(tcfg.background, dtype=np.float64)
    sums = backward_tile(
        trace.batch, order, trace.steps, trace.t_final, grad_img, bg, tcfg.recip_mode
    )
    screen, ops, drains = accumulate_cross_tile(order, sums, offsets, trace.batch.n)
    return screen, chain_to_3d(scene, cam, trace.batch64, screen), ops, drains


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
        screen, view_grads, ops, drains = scene_backward(scene, cam, res.trace, g, tcfg)
        stats.time_backward += time.perf_counter() - t0
        stats.accum_ops += ops
        stats.drain_events += drains
        if densify_stats is not None:
            densify_stats.observe(screen, res.trace.batch)
        del res  # the next view's render must not find this record alive
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
