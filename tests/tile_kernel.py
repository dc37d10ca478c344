"""The block kernel on one tile-shaped state, and one tile per group.

``tilesplat.forward`` holds a group's pixels as blocks and blends them
with ``BlockGroup.blend``.  ``one_tile`` makes the ``SplatTable`` of a
single tile, so a group can hold any one rect.  ``fresh_state`` makes
one tile's state (planar (3, h, w) color, (h, w) T and stop), and
``blend_tile_span`` cuts such a state into that layout, blends a span
of the tile's list and writes the result back.  ``traced_tile`` blends
a whole list over one tile as a group of its own and keeps the steps it
records, which is what the backward replays: the list is the view's
only one, so its entries are the view's.  ``render_tiles`` blends each
tile as a group of its own (``forward._blend_group``, which settles the
tile's split and occlusion counts), pastes its state and counts it as
``render`` counts a view (``forward._count``), which exposes every
pixel's T and stop and each tile's counters, split and occlusion
counts.  Each takes the largest block side, ``forward.BLOCK``
or ``forward.BLOCK // 2``, that a render would pick with
``forward._pick_block``; ``picking`` makes renders use a given side,
and ``spying_groups`` collects the groups renders build.
``view_table`` packs a binning's tiles as ``render`` does,
``tile_lists`` cuts a binning's ``order`` into per-tile lists, and
``brute_force_lists`` builds them by testing every splat against every
tile.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from tilesplat import forward
from tilesplat.forward import BlockGroup, PixelState, RenderConfig, SplatTable
from tilesplat.preprocess import SplatBatch, TileBinning


def picking(side: int):
    """A context in which every render blends blocks of at most ``side`` px."""
    return mock.patch.object(forward, "_pick_block", lambda aabb: side)


def spying_groups(groups: list):
    """A context in which every tile group a render builds is appended to ``groups``."""
    make = forward.BlockGroup

    def spy(*args):
        groups.append(make(*args))
        return groups[-1]

    return mock.patch.object(forward, "BlockGroup", spy)


def tile_lists(binning: TileBinning) -> list[np.ndarray]:
    """Tile t's depth-sorted list of batch rows, for every tile t."""
    off = binning.offsets
    return [binning.order[off[t] : off[t + 1]] for t in range(binning.n_tiles)]


def brute_force_lists(batch: SplatBatch, tile_size, image_size) -> list[np.ndarray]:
    """Every tile's list, by testing each splat's box against each tile's rect."""
    tw, th = tile_size
    w, h = image_size
    nx, ny = (w + tw - 1) // tw, (h + th - 1) // th
    lists = []
    for t in range(nx * ny):
        ty, tx = divmod(t, nx)
        rx0, ry0 = tx * tw, ty * th
        rx1, ry1 = min(rx0 + tw, w), min(ry0 + th, h)
        members = [
            i
            for i in range(batch.n)
            if batch.aabb[i, 0] < rx1
            and batch.aabb[i, 2] > rx0
            and batch.aabb[i, 1] < ry1
            and batch.aabb[i, 3] > ry0
        ]
        members.sort(key=lambda i: (batch.depth[i], i))
        lists.append(np.array(members, dtype=np.int64))
    return lists


def view_table(batch: SplatBatch, binning: TileBinning) -> SplatTable:
    """The table of all of ``binning``'s tiles, as ``render`` packs it."""
    size = (binning.tile_w, binning.tile_h)
    return SplatTable(batch, binning.order, binning.offsets, binning.rects(), size, binning.image_w)


def one_tile(batch: SplatBatch, order, rect, image_w: int, tile_size=None) -> SplatTable:
    """The table of one tile ``rect`` (of ``tile_size``, by default its own) listing ``order``."""
    x0, y0, x1, y1 = rect
    size = (x1 - x0, y1 - y0) if tile_size is None else tile_size
    return SplatTable(batch, order, np.array([0, len(order)]), np.array([rect]), size, image_w)


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
    side: int = forward.BLOCK,
) -> None:
    """Blend order[start:end] into one tile's ``state`` through the block kernel."""
    x0, y0, x1, y1 = rect
    grp = BlockGroup(one_tile(batch, order, rect, x1), range(1), side)
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
    side: int = forward.BLOCK,
):
    """Blend all of ``order`` over one tile, recording: (steps, T, stop).

    T and stop are image arrays of ``image_size`` (w, h); outside the
    tile T is 1 and stop is the list length.
    """
    w, h = image_size
    m = len(order)
    grp = BlockGroup(one_tile(batch, order, rect, w), range(1), side)
    state = grp.fresh_state(np.array([m]))
    steps: list = []
    grp.blend(state, np.array([0]), np.array([m]), eps_t, steps)
    t_final = np.ones((h, w), dtype=batch.mean2.dtype)
    stop = np.full((h, w), m, dtype=np.int32)
    grp.paste(state.T, t_final)
    grp.paste(state.stop, stop)
    return steps, t_final, stop


def render_tiles(batch: SplatBatch, binning, cfg: RenderConfig, side: int = forward.BLOCK):
    """Every tile as a group of its own: (image, T, stop, per-tile results).

    Per-tile results are (counters, split, occluded) in tile order.
    """
    h, w = binning.image_h, binning.image_w
    img = np.zeros((h, w, 3), dtype=batch.mean2.dtype)
    t_final = np.zeros((h, w), dtype=batch.mean2.dtype)
    stop = np.zeros((h, w), dtype=np.int32)
    bg = np.asarray(cfg.background, dtype=img.dtype)
    tiles = []
    for order, rect in zip(tile_lists(binning), binning.rects()):
        table = one_tile(batch, order, rect, w, (binning.tile_w, binning.tile_h))
        grp = BlockGroup(table, range(1), side)
        state, split, occluded = forward._blend_group(grp, cfg)
        grp.paste(forward.composite_background(state, bg), img)
        grp.paste(state.T, t_final)
        grp.paste(state.stop, stop)
        split.setflags(write=False)  # settled by _blend_group; _count only reads it
        counters = forward._count(table, cfg, split, stop)
        tiles.append((counters, int(split[0]), occluded))
    return img, t_final, stop, tiles
