"""The block kernel on one tile-shaped state, and one tile per group.

``tilesplat.forward`` holds a group's pixels as blocks and blends them
with ``BlockGroup.blend``.  ``fresh_state`` makes one tile's state
(planar (3, h, w) color, (h, w) T and stop), and ``blend_tile_span``
cuts such a state into that layout, blends a span of the tile's list
and writes the result back.  ``traced_tile`` blends a whole list over
one tile as a group of its own and keeps the steps it records, which is
what the backward replays.  ``render_tiles`` runs
``forward._render_group`` once per tile, which exposes each tile's
counters, split and occlusion counts.
"""

from __future__ import annotations

import numpy as np

from tilesplat import forward
from tilesplat.forward import BlockGroup, PixelState, RenderConfig
from tilesplat.preprocess import SplatBatch


def fresh_state(h: int, w: int, dtype, end_pos: int) -> PixelState:
    """A tile's state before its list: T = 1, no color, stop = ``end_pos``."""
    return PixelState(
        rgb=np.zeros((3, h, w), dtype=dtype),
        T=np.ones((h, w), dtype=dtype),
        stop=np.full((h, w), end_pos, dtype=np.int32),
    )


def _to_blocks(a: np.ndarray, grp: BlockGroup) -> np.ndarray:
    """A tile array (h, w) or (3, h, w) in block layout (n, P) or (3, n, P); padding 0."""
    bh, bw = grp.block
    nby, nbx = grp.grid
    h, w = a.shape[-2:]
    padded = np.zeros(a.shape[:-2] + (nby * bh, nbx * bw), dtype=a.dtype)
    padded[..., :h, :w] = a
    lead = a.shape[:-2]
    blocks = padded.reshape(lead + (nby, bh, nbx, bw)).swapaxes(-3, -2)
    return blocks.reshape(lead + (nby * nbx, bh * bw))


def blend_tile_span(
    state: PixelState,
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    start: int,
    end: int,
    eps_t: float,
) -> None:
    """Blend order[start:end] into one tile's ``state`` through the block kernel."""
    x0, y0, x1, y1 = rect
    grp = BlockGroup(batch, [order], [rect], (x1 - x0, y1 - y0))
    blocks = PixelState(
        rgb=_to_blocks(state.rgb, grp),
        T=_to_blocks(state.T, grp),
        stop=_to_blocks(state.stop, grp),
    )
    grp.blend(blocks, np.array([start]), np.array([end]), eps_t)
    rgb = np.empty((y1, x1, 3), dtype=state.rgb.dtype)
    grp.paste(np.moveaxis(blocks.rgb, 0, -1), rgb)
    state.rgb[:] = np.moveaxis(rgb[y0:, x0:], -1, 0)
    T = np.empty((y1, x1), dtype=state.T.dtype)
    grp.paste(blocks.T, T)
    state.T[:] = T[y0:, x0:]
    stop = np.empty((y1, x1), dtype=state.stop.dtype)
    grp.paste(blocks.stop, stop)
    state.stop[:] = stop[y0:, x0:]


def traced_tile(
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    eps_t: float,
    image_size: tuple[int, int],
):
    """Blend all of ``order`` over one tile, recording: (group, steps, T, stop).

    T and stop are image arrays of ``image_size`` (w, h); outside the
    tile T is 1 and stop is the list length.
    """
    x0, y0, x1, y1 = rect
    m = len(order)
    grp = BlockGroup(batch, [order], [rect], (x1 - x0, y1 - y0))
    state = grp.fresh_state(np.array([m]))
    steps: list = []
    grp.blend(state, np.array([0]), np.array([m]), eps_t, steps)
    w, h = image_size
    t_final = np.ones((h, w), dtype=batch.mean2.dtype)
    stop = np.full((h, w), m, dtype=np.int32)
    grp.paste(state.T, t_final)
    grp.paste(state.stop, stop)
    return grp, steps, t_final, stop


def render_tiles(batch: SplatBatch, binning, cfg: RenderConfig):
    """Every tile as a group of its own: (image, T, stop, per-tile results).

    Per-tile results are (counters, split, occluded) in tile order.
    """
    h, w = binning.image_h, binning.image_w
    img = np.zeros((h, w, 3), dtype=batch.mean2.dtype)
    t_final = np.zeros((h, w), dtype=batch.mean2.dtype)
    stop = np.zeros((h, w), dtype=np.int32)
    tiles = []
    for t in range(binning.n_tiles):
        counters, split, occluded, _ = forward._render_group(
            batch, binning, range(t, t + 1), cfg, img, t_final, stop
        )
        tiles.append((counters, int(split[0]), occluded))
    return img, t_final, stop, tiles
