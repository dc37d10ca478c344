"""Adam optimizer and clone/split/prune density control.

Parameters are grouped as ``GaussianScene.params`` names them
(position, scale, rotation, opacity, sh), with a per-group
learning-rate multiplier on top of the base rate.  Moment buffers are
created lazily and remapped when density control changes the Gaussian
count (survivors keep their moments, new Gaussians start cold).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GaussianScene, quat_normalize, stable_sigmoid

# Density control (``density_control``)
GRAD_THRESHOLD = 2e-4  # mean screen-space grad norm to densify
SCALE_FRACTION = 0.01  # of scene extent: clone below, split above
OPACITY_FLOOR = 0.005  # prune below this activated opacity
SPLIT_FACTOR = 1.6  # children shrink by this factor
SPLIT_COUNT = 2  # children per split parent

# Adam (``adam_step``): moment decays, denominator guard, and each
# group's multiplier on the base rate (1.0 for a name not listed)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
GROUP_LR = {
    "position": 0.5,
    "scale": 0.5,
    "rotation": 0.25,
    "opacity": 2.0,
    "sh": 1.0,
}


@dataclass
class AdamState:
    lr: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> None:
    """Bias-corrected Adam update, in place on the param arrays."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name!r}")
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        lr = state.lr * GROUP_LR.get(name, 1.0)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def scene_adam_step(
    scene: GaussianScene, grads: dict[str, np.ndarray], state: AdamState
) -> None:
    """Adam over the five scene parameter groups; quaternions renormalized after."""
    adam_step(scene.params(), grads, state)
    scene.rotations[:] = quat_normalize(scene.rotations)


def remap_adam_state(state: AdamState, keep: np.ndarray, n_new: int) -> None:
    """Rebuild moment buffers after density control.

    ``keep`` indexes surviving rows of the old scene (in new-scene
    order); ``n_new`` rows of fresh Gaussians follow with zero moments.
    """
    for buf in (state.m, state.v):
        for name, arr in buf.items():
            kept = arr[keep]
            fresh = np.zeros((n_new,) + arr.shape[1:], dtype=arr.dtype)
            buf[name] = np.concatenate([kept, fresh], axis=0)


@dataclass
class DensifyStats:
    """Running observations that drive clone/split/prune decisions."""

    grad_norm_sum: np.ndarray  # (n,) accumulated screen-space position grad norms
    obs_count: np.ndarray  # (n,) views in which the Gaussian hit pixels
    max_radius: np.ndarray  # (n,) largest screen radius seen

    @classmethod
    def zeros(cls, n: int) -> "DensifyStats":
        return cls(
            grad_norm_sum=np.zeros(n),
            obs_count=np.zeros(n, dtype=np.int64),
            max_radius=np.zeros(n, dtype=np.int64),
        )

    def observe(self, screen, batch) -> None:
        """Fold one view's per-splat screen-space totals into the running stats.

        ``screen`` is ``scene_backward``'s first result, one row per
        ``batch`` row; only its ``hit_count`` and ``d_mean2`` are read.
        """
        idx = batch.gaussian_index
        seen = screen["hit_count"] > 0
        norms = np.linalg.norm(screen["d_mean2"], axis=1)
        np.add.at(self.grad_norm_sum, idx[seen], norms[seen])
        np.add.at(self.obs_count, idx[seen], 1)
        np.maximum.at(self.max_radius, idx, batch.radius)


@dataclass
class DensifyReport:
    n_before: int
    n_after: int
    cloned: int
    split: int
    pruned: int


def scene_extent(scene: GaussianScene) -> float:
    """Half the bounding-box diagonal of the means; 1.0 for a point scene."""
    span = scene.means.max(axis=0) - scene.means.min(axis=0)
    ext = 0.5 * float(np.linalg.norm(span))
    return ext if ext > 0 else 1.0


def density_control(
    scene: GaussianScene,
    stats: DensifyStats,
    rng: np.random.Generator,
) -> tuple[GaussianScene, DensifyReport, np.ndarray]:
    """Clone small / split large high-gradient Gaussians, prune transparent ones.

    Returns (new scene, report, keep) where ``keep`` indexes the old
    rows that survive, in new-scene order, for optimizer-state remap.
    Clones and split children are appended after the survivors; a clone
    is an exact copy, a split replaces the parent with SPLIT_COUNT
    children sampled from the parent's own distribution with scales
    divided by SPLIT_FACTOR.
    """
    n = scene.n
    opac = np.minimum(stable_sigmoid(scene.opacity_logits), 1.0)
    prune = opac < OPACITY_FLOOR
    mean_grad = stats.grad_norm_sum / np.maximum(stats.obs_count, 1)
    densify = (mean_grad > GRAD_THRESHOLD) & ~prune
    max_scale = np.exp(scene.log_scales).max(axis=1)
    scale_cut = SCALE_FRACTION * scene_extent(scene)
    clone = densify & (max_scale < scale_cut)
    split = densify & ~clone

    keep = np.flatnonzero(~prune & ~split)
    clone_idx = np.flatnonzero(clone)
    split_idx = np.flatnonzero(split)

    parts_means = [scene.means[keep], scene.means[clone_idx]]
    parts_ls = [scene.log_scales[keep], scene.log_scales[clone_idx]]
    parts_rot = [scene.rotations[keep], scene.rotations[clone_idx]]
    parts_op = [scene.opacity_logits[keep], scene.opacity_logits[clone_idx]]
    parts_sh = [scene.sh[keep], scene.sh[clone_idx]]

    if split_idx.size:
        from .model import quat_to_rotmat

        s = np.exp(scene.log_scales[split_idx])
        q = scene.rotations[split_idx] / np.linalg.norm(
            scene.rotations[split_idx], axis=1, keepdims=True
        )
        R = quat_to_rotmat(q)  # (p, 3, 3)
        for _ in range(SPLIT_COUNT):
            xi = rng.standard_normal((split_idx.size, 3))
            offset = np.einsum("nij,nj->ni", R, s * xi)
            parts_means.append(scene.means[split_idx] + offset)
            parts_ls.append(scene.log_scales[split_idx] - np.log(SPLIT_FACTOR))
            parts_rot.append(scene.rotations[split_idx])
            parts_op.append(scene.opacity_logits[split_idx])
            parts_sh.append(scene.sh[split_idx])

    new_scene = GaussianScene(
        means=np.concatenate(parts_means),
        log_scales=np.concatenate(parts_ls),
        rotations=np.concatenate(parts_rot),
        opacity_logits=np.concatenate(parts_op),
        sh=np.concatenate(parts_sh),
    )
    report = DensifyReport(
        n_before=n,
        n_after=new_scene.n,
        cloned=int(clone_idx.size),
        split=int(split_idx.size),
        pruned=int(prune.sum()),
    )
    return new_scene, report, keep
