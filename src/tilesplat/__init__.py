"""Tile-based 3D Gaussian splatting: renderer, trainer, and workload models.

The pipeline projects anisotropic 3D Gaussians to screen-space splats,
bins them into image tiles sorted by depth, and alpha-composites front
to back. Blending can run as one global sweep, in depth chunks merged
by inter-chunk transmittance, or with a hybrid schedule that switches
to pixel-centric traversal for the tail of each tile list; all three
produce bit-identical images. The backward pass reconstructs per-pixel
transmittance from the forward trace and chains screen-space gradients
back to the raw Gaussian parameters, optionally through an approximate
reciprocal that mirrors a hardware divider.
"""

from . import sceneio
from .backward import TrainConfig, train_step
from .forward import RenderConfig, render
from .model import Camera, GaussianScene, ImageRGB
from .optim import AdamState

__version__ = "0.1.0"

# Importing the package also binds the submodules forward, backward, optim
# and sceneio, whose functions the benchmark's tracer wraps; import any
# other name from its own module.
__all__ = [
    "AdamState",
    "Camera",
    "GaussianScene",
    "ImageRGB",
    "RenderConfig",
    "TrainConfig",
    "render",
    "train_step",
]
