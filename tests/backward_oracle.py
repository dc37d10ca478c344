"""Reference backward pass: one splat at a time, one Gaussian at a time.

These are the loops the batched backward in ``tilesplat.backward``
replaced, kept as a test oracle.  ``backward_tile`` walks a tile's list
back to front over each splat's clipped window, recovering transmittance
by multiplying with ``recip_one_minus`` and carrying the full RGB suffix
color, into a per-tile ``TilePartial``; ``accumulate_cross_tile`` folds
partials in (tile, 16-splat batch) order; ``chain_to_3d`` chains each
Gaussian's screen-space gradients with scalar Jacobians, projecting and
inverting the 2D covariance itself.  Tests require the batched pass to match the
counts exactly and the gradients within a tolerance relative to each
array's largest magnitude (sums run in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tilesplat.approxmath import recip_one_minus
from tilesplat.forward import ALPHA_MIN, ForwardTrace, splat_alpha
from tilesplat.model import OPACITY_MAX, Camera, GaussianScene, quat_to_rotmat, stable_sigmoid
from tilesplat.preprocess import LOW_PASS_DILATION, SplatBatch
from tilesplat.sh import sh_basis, sh_basis_grad

from tile_kernel import tile_lists


@dataclass
class TilePartial:
    """Per-splat gradient partials from one tile, indexed by list position."""

    tile_index: int
    order: np.ndarray  # (p,) batch rows, the tile's list
    d_rgb: np.ndarray  # (p, 3)
    d_opacity: np.ndarray  # (p,)
    d_mean2: np.ndarray  # (p, 2)
    d_conic: np.ndarray  # (p, 3)
    hits: np.ndarray  # (p,) int64 contributing pixels


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
    """Back-to-front gradient sweep over one tile, splat by splat."""
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
        dt = batch.mean2.dtype.type
        xc = (np.arange(ix0, ix1).astype(dt) + dt(0.5))[None, None, :]
        yc = (np.arange(iy0, iy1).astype(dt) + dt(0.5))[None, :, None]
        one = slice(i, i + 1)
        splat = (batch.mean2[one], batch.conic[one], batch.opacity[one])
        alpha = splat_alpha(xc, yc, *splat)[0]
        dx = xc[0] - batch.mean2[i, 0]  # (1, w) offsets from the splat mean
        dy = yc[0] - batch.mean2[i, 1]  # (h, 1)
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
    """Fold partials tile by tile, ``offload_batch`` list positions at a time."""
    acc = {
        "d_rgb": np.zeros((n_splats, 3)),
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
            np.add.at(acc["d_opacity"], idx, part.d_opacity[sel])
            np.add.at(acc["d_mean2"], idx, part.d_mean2[sel])
            np.add.at(acc["d_conic"], idx, part.d_conic[sel])
            np.add.at(acc["hit_count"], idx, part.hits[sel])
            drains += 1
            ops += len(idx)
    return acc, ops, drains


def normalize_grad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward of u = v/|v|: project g off u and divide by the norm."""
    n = np.linalg.norm(v)
    u = v / n
    return (g - u * float(u @ g)) / n


def quat_rotmat_grad(q: np.ndarray, G: np.ndarray) -> np.ndarray:
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
    """Chain per-splat screen-space grads to raw parameters, one Gaussian at a time."""
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
        out["scale"][gi] += g_s * s
        g_qunit = quat_rotmat_grad(q, GM * s[None, :])
        out["rotation"][gi] += (g_qunit - q * float(q @ g_qunit)) / q_norm

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

        g_rgb_eff = np.where(batch.rgb_clamped[row], 0.0, g_rgb)
        v = mean3 - cam_center
        u = v / np.linalg.norm(v)
        B = sh_basis(u, degree)
        dB = sh_basis_grad(u, degree)
        out["sh"][gi] += B[:, None] * g_rgb_eff[None, :]
        g_dir = dB.T @ (scene.sh[gi] @ g_rgb_eff)
        g_mean3 = g_mean3 + normalize_grad(v, g_dir)
        out["position"][gi] += g_mean3

        sig = float(stable_sigmoid(scene.opacity_logits[gi]))
        if sig < OPACITY_MAX:
            out["opacity"][gi] += g_opacity * sig * (1.0 - sig)
    return out


def scene_backward(
    scene: GaussianScene,
    cam: Camera,
    trace: ForwardTrace,
    stop: np.ndarray,
    grad_img: np.ndarray,
    background: np.ndarray,
    recip_mode: str,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], int, int]:
    """One view's backward through the loops: (screen grads, param grads, ops, drains).

    ``stop`` is every pixel's list position after its last blend, as
    ``tile_kernel.render_tiles`` gives it for the traced render.
    """
    binning = trace.binning
    partials = [
        backward_tile(
            trace.batch, order, tuple(rect), t,
            trace.t_final, stop, grad_img, background, recip_mode,
        )
        for t, (order, rect) in enumerate(zip(tile_lists(binning), binning.rects().tolist()))
        if len(order)
    ]
    screen, ops, drains = accumulate_cross_tile(partials, trace.batch.n, 16)
    return screen, chain_to_3d(scene, cam, trace.batch64, screen), ops, drains
