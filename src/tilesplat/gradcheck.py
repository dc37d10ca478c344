"""Finite-difference validation of the analytic backward pass.

The forward map is piecewise smooth: it has kinks at the 1/255 blend
threshold, the 0.99 opacity ceiling, the SH color clamp at zero, the
integer edges of each splat's pixel AABB, and depth-sort ties.  Central
differences are only meaningful away from all of them, so scenes used
for checking are screened by ``fd_probe`` with margins sized to the
perturbation scale, and the reference configuration disables early
termination (eps_t = 0) and runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import TrainConfig, loss_and_pixel_grads, scene_backward
from .forward import ALPHA_MIN, render, splat_alpha
from .model import Camera, GaussianScene, ImageRGB, stable_sigmoid
from .preprocess import bounding_radius, preprocess
from .synth import make_camera, orbit_camera, random_scene

# fd_probe's least distances from each kink, sized to the perturbation scale.
ALPHA_MARGIN = 1e-5  # per-pixel alpha from the 1/255 blend threshold
FRAC_MARGIN = 2e-3  # splat centers and 3-sigma radii from integers
DEPTH_MARGIN = 1e-3  # between any two depths
COLOR_MARGIN = 0.02  # SH colors from the clamp at zero; must stay positive
OPACITY_SIG_MAX = 0.97  # activated opacity, below the 0.99 ceiling


def reference_config(
    loss: str = "l2",
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    recip_mode: str = "exact",
    tile_size: tuple[int, int] = (16, 16),
) -> TrainConfig:
    """Double-precision, no-termination configuration for derivative checks."""
    return TrainConfig(
        tile_size=tile_size,
        loss=loss,
        background=background,
        eps_t=0.0,
        recip_mode=recip_mode,
        dtype=np.float64,
    )


def total_loss(
    scene: GaussianScene, views: list[tuple[Camera, ImageRGB]], tcfg: TrainConfig
) -> float:
    rcfg = tcfg.render_config()
    total = 0.0
    for cam, target in views:
        res = render(scene, cam, rcfg)
        loss, _ = loss_and_pixel_grads(res.image, target, tcfg.loss)
        total += loss
    return total / len(views)


def analytic_grads(
    scene: GaussianScene, views: list[tuple[Camera, ImageRGB]], tcfg: TrainConfig
) -> dict[str, np.ndarray]:
    arrays = scene.params()
    out = {k: np.zeros_like(v) for k, v in arrays.items()}
    nv = len(views)
    for cam, target in views:
        res = render(scene, cam, tcfg.render_config(), want_trace=True)
        _, g = loss_and_pixel_grads(res.image, target, tcfg.loss)
        _, grads, _, _ = scene_backward(scene, cam, res.trace, g / nv, tcfg)
        for key, val in grads.items():
            out[key] += val
    return out


def fd_grads(
    scene: GaussianScene,
    views: list[tuple[Camera, ImageRGB]],
    tcfg: TrainConfig,
    h: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central differences over every raw parameter (scene restored after)."""
    arrays = scene.params()
    out = {k: np.zeros_like(v) for k, v in arrays.items()}
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        gflat = out[name].reshape(-1)
        for j in range(flat.size):
            old = flat[j]
            flat[j] = old + h
            lp = total_loss(scene, views, tcfg)
            flat[j] = old - h
            lm = total_loss(scene, views, tcfg)
            flat[j] = old
            gflat[j] = (lp - lm) / (2.0 * h)
    return out


@dataclass
class GradCheckRow:
    name: str
    analytic: float
    numeric: float
    ok: bool


@dataclass
class GradCheckReport:
    rows: list[GradCheckRow]
    n_failed: int
    max_rel_err: float
    rtol: float
    atol: float

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def to_text(self, max_rows: int | None = None) -> str:
        lines = [f"{'parameter':<22} {'analytic':>14} {'numeric':>14} status"]
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        for r in shown:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"{r.name:<22} {r.analytic:>14.6e} {r.numeric:>14.6e} {status}"
            )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... {len(self.rows) - max_rows} more")
        lines.append(
            f"checked {len(self.rows)} parameters, {self.n_failed} failed, "
            f"max relative error {self.max_rel_err:.3e} "
            f"(rtol {self.rtol:g}, atol {self.atol:g})"
        )
        return "\n".join(lines)


def check_gradients(
    scene: GaussianScene,
    views: list[tuple[Camera, ImageRGB]],
    tcfg: TrainConfig | None = None,
    h: float = 1e-5,
    rtol: float = 1e-3,
    atol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients to central differences on every parameter."""
    tcfg = tcfg if tcfg is not None else reference_config()
    ana = analytic_grads(scene, views, tcfg)
    num = fd_grads(scene, views, tcfg, h)
    rows: list[GradCheckRow] = []
    n_failed = 0
    max_rel = 0.0
    for name, grad in ana.items():
        a = grad.reshape(-1)
        b = num[name].reshape(-1)
        for j, idx in enumerate(np.ndindex(grad.shape)):
            err = abs(a[j] - b[j])
            ok = err <= max(rtol * abs(b[j]), atol)
            if not ok:
                n_failed += 1
            denom = max(abs(b[j]), atol)
            max_rel = max(max_rel, err / denom)
            label = name + "[" + ",".join(str(v) for v in idx) + "]"
            rows.append(GradCheckRow(label, float(a[j]), float(b[j]), ok))
    return GradCheckReport(
        rows=rows, n_failed=n_failed, max_rel_err=max_rel, rtol=rtol, atol=atol
    )


def fd_probe(scene: GaussianScene, cam: Camera) -> bool:
    """True if the scene sits safely inside one smooth piece of the forward map.

    Checked per view: every Gaussian visible; activated opacities clear
    of the 0.99 ceiling; raw SH colors clear of the zero clamp; depths
    pairwise separated (sort order stable); splat centers and radii
    clear of integer boundaries (pixel AABBs stable); per-pixel alphas
    clear of the 1/255 blend threshold and of the q = 0 corner.
    """
    batch, _ = preprocess(scene, cam)
    if batch.n != scene.n:
        return False
    sig = stable_sigmoid(scene.opacity_logits)
    if float(sig.max()) >= OPACITY_SIG_MAX:
        return False

    # The clamp only lifts negative channels to 0, so with a positive margin
    # the clamped colors fall below it exactly when the raw ones do.
    if float(batch.rgb.min()) < COLOR_MARGIN:
        return False

    if batch.n > 1:
        depth_sorted = np.sort(batch.depth)
        if float(np.diff(depth_sorted).min()) < DEPTH_MARGIN:
            return False

    frac = batch.mean2 - np.floor(batch.mean2)
    if float(min(frac.min(), (1.0 - frac).min())) < FRAC_MARGIN:
        return False
    rad = bounding_radius(batch.cov2[:, 0], batch.cov2[:, 1], batch.cov2[:, 2])
    if float(np.abs(rad - np.round(rad)).min()) < FRAC_MARGIN:
        return False

    for i in range(batch.n):
        x0, y0, x1, y1 = (int(v) for v in batch.aabb[i])
        xc = np.arange(x0, x1, dtype=np.float64)[None, None, :] + 0.5
        yc = np.arange(y0, y1, dtype=np.float64)[None, :, None] + 0.5
        one = slice(i, i + 1)
        alpha = splat_alpha(xc, yc, batch.mean2[one], batch.conic[one], batch.opacity[one])
        if float(np.abs(alpha - ALPHA_MIN).min()) < ALPHA_MARGIN:
            return False
        # q near 0 means alpha near the full opacity value
        if float(alpha.max()) > float(batch.opacity[i]) * (1.0 - 5e-7):
            return False
    return True


def make_fd_case(
    seed: int,
    *,
    n: int = 6,
    degree: int = 0,
    size: int = 16,
    two_views: bool = False,
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    loss: str = "l2",
    max_attempts: int = 400,
) -> tuple[GaussianScene, list[tuple[Camera, ImageRGB]], TrainConfig]:
    """Seeded (scene, views, config) triple that passes the smoothness probe.

    Targets are random images so every pixel carries loss gradient.
    Seeds that land near a kink are skipped deterministically.
    """
    cam0 = make_camera(size, size, focal=float(size))
    cams = [cam0]
    if two_views:
        cams.append(orbit_camera(size, size, 10.0, 4.5, 4.5, focal=float(size)))
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        scene = random_scene(
            rng,
            n,
            cam0,
            degree=degree,
            px_sigma=(1.2, 3.0),
            z_range=(3.0, 6.0),
            logit_range=(-1.5, 2.0),
            margin=0.3,
        )
        if all(fd_probe(scene, c) for c in cams):
            views = [
                (c, ImageRGB(rng.uniform(0.0, 1.0, size=(c.height, c.width, 3))))
                for c in cams
            ]
            return scene, views, reference_config(loss=loss, background=background)
    raise RuntimeError(f"no probe-clean scene found for seed {seed}")
