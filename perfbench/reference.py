"""Float64 reference for a sample of rendered pixels, written apart from tilesplat.

It reimplements the method from its definition, not from the program's
code: quaternion rotation, perspective Jacobian, 0.3 px^2 dilation, conic,
the 3-sigma AABB with preprocess's integer rule, degree-0 SH colour with
the zero clamp, a (depth, index) sort, the 1/255 threshold and the 0.99
clamp, and no early termination.  Alongside each pixel it returns the
bound within which a correct renderer must land:

* early termination: any rule that stops a pixel once T < eps_t omits at
  most T * max(colour, background) < eps_t * M of it, whether it stops
  per splat, per depth chunk or per pixel;
* rounding: each alpha carries a relative error eps_a from the blend
  dtype (conic, mean and pixel offset rounding, exp, products), and
  |dC/dalpha_i| <= T_i * M, so those errors move C by at most
  M * sum_i w_i * eps_a_i; the running products and sums add (4K + 8) u
  relative for K contributing splats;
* decisions that rounding can flip: a splat whose alpha lies within its
  error of 1/255, or whose AABB edge sits within rounding of an integer,
  may be blended or not; either way C moves by at most 2 * T_i * alpha_i * M.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_MIN = 1.0 / 255.0
ALPHA_MAX = 0.99
OPACITY_MAX = 0.99
DILATION = 0.3
SIGMAS = 3.0
DET_MIN = 1e-12
SH_C0 = 0.5 / math.sqrt(math.pi)  # Y_0^0


def _rotations(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def project(params: dict, cam: dict) -> dict:
    """Screen-space splats of a degree-0 scene, sorted by (depth, index).

    ``params`` holds the raw scene arrays (means, log_scales, rotations,
    opacity_logits, sh); ``cam`` holds world_to_cam (4x4), fx, fy, cx, cy,
    width, height and near.  Returns the visible splats plus the number
    of Gaussians culled.
    """
    if params["sh"].shape[1] != 1:
        raise ValueError("the reference evaluates degree-0 colour only")
    W2C = np.asarray(cam["world_to_cam"], dtype=np.float64)
    Rc, tc = W2C[:3, :3], W2C[:3, 3]
    fx, fy, cx, cy = cam["fx"], cam["fy"], cam["cx"], cam["cy"]
    width, height = cam["width"], cam["height"]

    R = _rotations(params["rotations"])
    S = np.exp(params["log_scales"])
    M = R * S[:, None, :]
    cov_world = M @ M.transpose(0, 2, 1)
    p = params["means"] @ Rc.T + tc
    x, y, z = p.T
    cov_cam = Rc @ cov_world @ Rc.T
    J = np.zeros((len(z), 2, 3))
    J[:, 0, 0] = fx / z
    J[:, 0, 2] = -fx * x / z**2
    J[:, 1, 1] = fy / z
    J[:, 1, 2] = -fy * y / z**2
    cov2 = J @ cov_cam @ J.transpose(0, 2, 1)
    a = cov2[:, 0, 0] + DILATION
    b = cov2[:, 0, 1]
    c = cov2[:, 1, 1] + DILATION
    det = a * c - b * b
    mx = fx * x / z + cx
    my = fy * y / z + cy

    lam = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    reach = SIGMAS * np.sqrt(lam)
    r = np.ceil(reach)
    x0 = np.clip(np.floor(mx) - r, 0, width)
    x1 = np.clip(np.floor(mx) + r + 1, 0, width)
    y0 = np.clip(np.floor(my) - r, 0, height)
    y1 = np.clip(np.floor(my) + r + 1, 0, height)
    visible = (z > cam["near"]) & (det > DET_MIN) & (x0 < x1) & (y0 < y1)

    def near_int(v):
        return np.abs(v - np.round(v)) <= 1e-9 * (1.0 + np.abs(v))

    edge_risk = near_int(reach) | near_int(mx) | near_int(my)

    opacity = np.minimum(1.0 / (1.0 + np.exp(-params["opacity_logits"])), OPACITY_MAX)
    rgb = np.maximum(0.5 + SH_C0 * params["sh"][:, 0, :], 0.0)

    idx = np.flatnonzero(visible)
    idx = idx[np.lexsort((idx, z[idx]))]
    out = {
        "mean": np.stack([mx, my], 1)[idx],
        "conic": np.stack([c / det, -b / det, a / det], 1)[idx],
        "aabb": np.stack([x0, y0, x1, y1], 1)[idx],
        "opacity": opacity[idx],
        "rgb": rgb[idx],
        "edge_risk": edge_risk[idx],
        "n_culled": int(len(z) - len(idx)),
    }
    return out


def pixels(splats: dict, px: np.ndarray, py: np.ndarray, background, unit_roundoff: float):
    """Reference colour (P, 3) at integer pixels and the allowed error (P,).

    ``unit_roundoff`` is that of the renderer's blend dtype (2**-24 for
    float32).  The returned bound leaves out the termination term, which
    check_view adds as eps_t * max_colour * (1 + rel).  Also returns
    max_colour (P,), the largest colour or background value any splat
    covering the pixel could add, and rel (P,), the relative rounding
    error of the running values.
    """
    u = unit_roundoff
    bg = np.asarray(background, dtype=np.float64)
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    x0, y0, x1, y1 = (splats["aabb"][:, k][None, :] for k in range(4))
    inside = (px >= x0) & (px < x1) & (py >= y0) & (py < y1)  # (P, n)
    grown = (px >= x0 - 1) & (px < x1 + 1) & (py >= y0 - 1) & (py < y1 + 1)
    maybe_inside = inside | (grown & splats["edge_risk"][None, :])

    mx, my = splats["mean"][:, 0][None, :], splats["mean"][:, 1][None, :]
    ca, cb, cc = (splats["conic"][:, k][None, :] for k in range(3))
    dx = px + 0.5 - mx
    dy = py + 0.5 - my
    q_abs = ca * dx * dx + 2 * np.abs(cb * dx * dy) + cc * dy * dy
    q = np.maximum(ca * dx * dx + 2 * cb * dx * dy + cc * dy * dy, 0.0)
    alpha = np.minimum(splats["opacity"][None, :] * np.exp(-0.5 * q), ALPHA_MAX)

    # Relative error of the renderer's alpha in its own dtype.
    d_dx = u * (np.abs(mx) + np.abs(dx) + 1.0)
    d_dy = u * (np.abs(my) + np.abs(dy) + 1.0)
    d_q = (
        8 * u * q_abs
        + np.abs(2 * ca * dx + 2 * cb * dy) * d_dx
        + np.abs(2 * cb * dx + 2 * cc * dy) * d_dy
    )
    eps_a = 0.5 * d_q + 4 * u

    contrib = inside & (alpha >= ALPHA_MIN)
    a_eff = np.where(contrib, alpha, 0.0)
    T_after = np.cumprod(1.0 - a_eff, axis=1)
    T_before = np.concatenate([np.ones((len(px), 1)), T_after[:, :-1]], axis=1)
    w = a_eff * T_before
    colour = w @ splats["rgb"] + T_after[:, -1:] * bg[None, :]

    covering = np.where(maybe_inside, splats["rgb"].max(axis=1)[None, :], 0.0)
    max_colour = np.maximum(covering.max(axis=1, initial=0.0), float(bg.max()))
    flip = maybe_inside & ((np.abs(alpha - ALPHA_MIN) <= 2 * eps_a * alpha) | ~inside)
    k = contrib.sum(axis=1)
    rel = (w * eps_a).sum(axis=1) + (4 * k + 8) * u
    bound = max_colour * (rel + 2 * np.where(flip, alpha * T_before, 0.0).sum(axis=1))
    return colour, bound, max_colour, rel


def check_view(image: np.ndarray, splats: dict, px, py, background, eps_t, unit_roundoff):
    """Indices of sampled pixels where ``image`` leaves the reference bound."""
    ref, bound, max_colour, rel = pixels(splats, px, py, background, unit_roundoff)
    got = np.asarray(image, dtype=np.float64)[py, px]
    allowed = eps_t * max_colour * (1.0 + rel) + bound
    err = np.abs(got - ref).max(axis=1)
    return np.flatnonzero(~(err <= allowed)), err, allowed
