"""Tile-based forward rasterizer with depth-chunked blending.

Each tile owns a depth-sorted splat list, a slice of the view's one
array of entries (``TileBinning.order``).  Three traversal schedules
produce bit-identical pixels:

* Gaussian-centric: walk the list front to back, updating every pixel a
  splat covers (terminated pixels are still evaluated; their weight is
  zero).  This is the reference order.
* Depth-chunked (z-tiled): split the list into K chunks, blend each
  chunk independently from T = 1 with no early termination, then merge
  partials in depth order.  The merge identity C = sum_k T_in^k C_loc^k
  with T_in^(k+1) = T_in^k * That_out^k makes this exactly equivalent to
  the global sweep when eps_t = 0; with eps_t > 0 termination is applied
  at chunk granularity.
* Pixel-centric: the same walk, but work on pixels that have already
  terminated is counted as skipped.  Used for the trailing portion of
  the list in hybrid mode, where most surviving work belongs to a few
  unterminated pixels.

All of them blend through one lockstep kernel over blend blocks
(``BlockGroup.blend``).  Each tile is cut into blocks of at most
side x side pixels, and a block's list is the subsequence of its
tile's list whose clipped window meets the block, in list order, less
the entries whose alpha cannot reach ALPHA_MIN at any pixel centre of
block and window (``preprocess.can_blend``: the least q over that
rectangle against 2 ln(255 opacity), with a margin for the blend
dtype's rounding).  Skipping entries is exact: where an entry's window
does not reach, or its alpha stays below ALPHA_MIN, the entry would
blend as T * 1 and rgb + 0, which changes no pixel and kills none, in
every schedule and from any carried state.  Windows, and with them the
counters, stay the 3-sigma AABBs of binning.  Every block-list entry
keeps its tile list position, so a pixel's stop means the same as in
the tile's list.  A pass sorts the blocks by the length of the span it
blends, so the blocks still active at step k are a prefix, and step k
evaluates alpha and blends list position k of every active block in
one set of NumPy calls over (active blocks, block pixels).  Alpha is
built pixel-major, (block pixels, active blocks) with the blocks
innermost, from separable terms: dx and a dx^2 over (block columns,
blocks), dy, 2b dy and c dy^2 over (block rows, blocks), so that only
q's three sums, its clip, exp, opacity and clamp run over every pixel;
the window test is one AND of each entry's in-window columns and rows.
The step then transposes alpha once and updates the state row by row.
A block whose pixels are all dead leaves the active set.  Each pixel
sees the same floating-point operations in the same order as in
``splat_alpha`` with splats blended one at a time, so neither the
lockstep order, the layout nor the grouping changes a bit.

A render picks its largest block side, BLOCK (16) or BLOCK // 2 (8),
once from its splats' boxes (``_pick_block``).  Small splats fill only
a corner of a 16 px block, so 8 px blocks evaluate fewer pixels, but
they split every entry into more block-list rows, each of which costs
a gather and a step.  The rule counts each side's (splat, block) pairs
on the image-wide block grid and takes the side with the least
pairs * (block pixels + ROW_PX), ROW_PX being a row's cost in pixel
evaluations: 8 px wins when it evaluates under 0.75 of the 16 px
pixels.  The side decides which blocks an entry is listed in, never
what a pixel sees, so pixels, T, stop and counters do not depend on it.

A pass blends rows of block pixels.  A plain span blends each block's
row in place.  Depth chunks blend (block, chunk) rows, each from the
fresh state with eps_t = 0 (``BlockGroup.blend_chunks``), and each row
is folded into its block's running state as it is written back, in
depth order, with the merge's arithmetic (``_merge_partial``).  Rows
with no entry in their chunk, and with eps_t > 0 the blocks with no
live pixel, are left out, since the fold is the identity there.  The K
chunks of a list are independent, so all (block, chunk) rows blend in
one pass, and a group then holds K rows per block.  The
occlusion-threshold hybrid needs the merged state after chunk k to
decide whether a tile blends chunk k + 1, so it blends one chunk per
pass, over the tiles still chunking.

The pixel state is color, T and stop: a pixel is dead (terminated)
exactly when T < eps_t, and stop is the list position after the splat
(or the end of the depth chunk) that took it there.  Schedules differ
only in the spans they blend, the state a span starts from and its
eps_t.  The kernel computes pixel state only; ``_blend_group`` reads
each tile's hybrid split and occlusion counts from it.  The counters
are taken once per view after every group has blended (``_count``),
from every entry's clipped window and, under the hybrids, from the
splits and an image of each pixel's stop (``execmodel.count_evals``),
so they count window pixels, never a block's padding.

A render clips every entry's window to its tile once (``SplatTable``).
Tiles are blended in groups of whole tiles, in tile order, whose pass
rows hold at most GROUP_MAX_PX block pixels; a tile whose K rows alone
exceed it blends its chunks in several passes.  A group takes its slice
of the view's entries and windows, is blended to the end and is
composited into the image before the next one starts, which bounds the
memory a render holds; with threads > 1 the groups run on a pool.
With ``want_trace`` each lockstep step also records the image pixels
it blended and their alpha, with one view-wide entry and pair count per
block row (``BlockGroup.blend``); ``ForwardTrace.steps`` keeps the
steps in tile-group order, and the backward pass replays them instead
of deciding again what blends, without knowing the block layout.

Pixel centers sit at half-integer coordinates; alpha is
opacity * exp(-q/2) with q the conic quadratic form, clipped to
[0, Q_MAX], and the product clamped to 0.99.  Splats with alpha below
1/255 at a pixel do not blend there.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .execmodel import EvalCounters, OcclusionTrace, RenderStats, count_evals
from .model import Camera, GaussianScene, ImageRGB
from .preprocess import (
    ALPHA_MIN,
    SplatBatch,
    TileBinning,
    bin_and_sort,
    can_blend,
    preprocess,
)

ALPHA_MAX = 0.99
# Cap on the quadratic form q.  Any q above it gives alpha <= exp(-50),
# far below ALPHA_MIN, so no pixel blends differently; the cap keeps exp
# out of the subnormal range, where it runs about ten times slower.
Q_MAX = 100.0

# Largest blend-block side; a render blends blocks of at most BLOCK or
# BLOCK // 2 px (``_pick_block``).  32 px made the float64 train forward
# 1.4x slower (more evaluated pixels outside the entries' windows).
BLOCK = 16
# Cost of one block-list row (an entry's parameters gathered into a
# lockstep step), in pixel evaluations.  It sets the 8 px blocks' cut at
# E8 / E16 = 0.75, evaluated block pixels at 8 over 16 px; the benchmark
# scenes measure 0.68-0.71 with small splats (8 px: 1.05-1.20x faster)
# and 0.83-0.89 with large ones (8 px: 1.12-1.35x slower), and any value
# from about 20 to 43 picks the same sides on them.
ROW_PX = 32
# Block pixels per tile group.  It bounds the (blocks, pixels) arrays of
# one lockstep step, and with them the process's peak memory.
GROUP_MAX_PX = 1 << 16

_HYBRID_MODES = ("off", "fixed_fraction", "occlusion_threshold")


@dataclass
class RenderConfig:
    tile_size: tuple[int, int] = (64, 64)
    z_tiles: int = 1
    eps_t: float = 1e-4
    hybrid: str = "off"
    hybrid_fraction: float = 0.25
    occlusion_threshold: float = 0.9
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    dtype: type = np.float32
    threads: int = 1
    record_occlusion: bool = False

    def validate(self) -> None:
        try:
            tw, th = self.tile_size
        except (TypeError, ValueError):
            raise ValueError(f"tile_size must be two integers, got {self.tile_size!r}") from None
        require_int("tile_size", tw)
        require_int("tile_size", th)
        if tw <= 0 or th <= 0:
            raise ValueError("tile_size must be positive")
        require_int("z_tiles", self.z_tiles)
        if self.z_tiles < 1:
            raise ValueError("z_tiles must be >= 1")
        for name in ("eps_t", "hybrid_fraction", "occlusion_threshold"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.eps_t < 0:
            raise ValueError("eps_t must be >= 0")
        if not self.eps_t <= 1.0:  # T starts at 1; also rejects NaN
            raise ValueError("eps_t must be <= 1")
        if self.hybrid not in _HYBRID_MODES:
            raise ValueError(f"hybrid must be one of {_HYBRID_MODES}")
        if not 0.0 < self.hybrid_fraction < 1.0:
            raise ValueError("hybrid_fraction must be in (0, 1)")
        if not 0.0 < self.occlusion_threshold < 1.0:
            raise ValueError("occlusion_threshold must be in (0, 1)")
        if np.dtype(self.dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        try:
            bad = len(self.background) != 3 or any(
                isinstance(v, (bool, np.bool_)) or not np.isfinite(v) or v < 0
                for v in self.background
            )
        except TypeError:  # not a sequence, or holds a value that is not a number
            bad = True
        if bad:
            raise ValueError("background must be 3 finite non-negative values")
        require_int("threads", self.threads)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not isinstance(self.record_occlusion, (bool, np.bool_)):
            raise ValueError(f"record_occlusion must be a bool, got {self.record_occlusion!r}")


def require_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (a NumPy one too), not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class PixelState:
    """Per-pixel blend state over a tile (h, w) or a group's blocks (n, P).

    A pixel is dead (terminated) exactly when T < eps_t; nothing else
    records it.  T only falls, so a dead pixel stays dead and blends
    nothing more.
    """

    rgb: np.ndarray  # (3, ...) accumulated color, planar, background excluded
    T: np.ndarray  # (...) transmittance
    stop: np.ndarray  # (...) int32 list position where the pixel died, else list end


def splat_alpha(
    xc: np.ndarray,
    yc: np.ndarray,
    mean: np.ndarray,
    conic: np.ndarray,
    opacity: np.ndarray,
):
    """Alpha of g splats at pixel centres, in the dtype of the arguments.

    ``mean`` (g, 2), ``conic`` (g, 3) and ``opacity`` (g,) are the
    entries' splat parameters.  ``xc`` and ``yc`` are pixel-centre
    coordinates per entry, in any shapes that broadcast to the result's
    (g, ...) with one splat per leading index: (1, 1, w) and (1, h, 1)
    for a rectangle, (g, P) for P pixels per entry.  Alpha depends only
    on its own splat and pixel, so a pixel gets the same alpha in every
    schedule and batch it is evaluated in.
    """
    dt = xc.dtype.type
    half = dt(0.5)
    per = (slice(None),) + (None,) * (max(xc.ndim, yc.ndim) - 1)
    dx = xc - mean[:, 0][per]
    dy = yc - mean[:, 1][per]
    a = conic[:, 0][per]
    b = conic[:, 1][per]
    c = conic[:, 2][per]
    # a*dx^2 + 2b*dy*dx + c*dy^2, then opacity * exp(-q/2) clamped; in place
    # (IEEE addition and multiplication commute, so operand order is free)
    alpha = 2 * b * dy * dx
    alpha += a * dx**2
    alpha += c * dy**2
    np.clip(alpha, dt(0), dt(Q_MAX), out=alpha)  # 0 guards tiny negatives from rounding
    alpha *= -half
    np.exp(alpha, out=alpha)
    alpha *= opacity[per]
    np.minimum(alpha, dt(ALPHA_MAX), out=alpha)
    return alpha


def clip_windows(boxes: np.ndarray, rect) -> tuple[np.ndarray, np.ndarray]:
    """Pixel boxes (n, 4), such as ``batch.aabb[idx]``, clipped to ``rect``, and their areas.

    ``rect`` is one (x0, y0, x1, y1) or one per box, shape (n, 4).  An
    empty window becomes the inverted box (x1, y1, x0, y0) of its rect,
    which never widens a bounding box, and has area 0.
    """
    rect = np.broadcast_to(np.asarray(rect, dtype=np.int64), (len(boxes), 4))
    win = boxes.astype(np.int64)  # a copy
    np.maximum(win[:, :2], rect[:, :2], out=win[:, :2])
    np.minimum(win[:, 2:], rect[:, 2:], out=win[:, 2:])
    empty = (win[:, 0] >= win[:, 2]) | (win[:, 1] >= win[:, 3])
    win[empty] = rect[empty][:, [2, 3, 0, 1]]
    area = np.where(empty, 0, (win[:, 2] - win[:, 0]) * (win[:, 3] - win[:, 1]))
    return win, area


def _block_side(tile_side: int, side: int) -> int:
    """Block side for a tile side: ceil(tile_side / side) blocks of equal size."""
    n = -(-tile_side // side)
    return -(-tile_side // n)


def _block_pairs(aabb: np.ndarray, side: int) -> int:
    """(box, block) pairs on the image-wide grid of side x side blocks.

    ``aabb`` are binning's boxes, already clipped to the image.  When
    ``side`` divides the tile side, this is the sum of the groups'
    ``aabb_pairs``.
    """
    span = -(-aabb[:, 2:] // side) - aabb[:, :2] // side
    return int(np.dot(span[:, 0], span[:, 1]))


def _pick_block(aabb: np.ndarray) -> int:
    """A render's largest block side, BLOCK or BLOCK // 2, from its splats' boxes.

    Takes the side with the least pairs * (block pixels + ROW_PX), the
    block pixels the kernel evaluates plus the rows it gathers; ties
    keep BLOCK.
    """
    cost = [_block_pairs(aabb, s) * (s * s + ROW_PX) for s in (BLOCK, BLOCK // 2)]
    return BLOCK // 2 if cost[1] < cost[0] else BLOCK


class SplatTable:
    """A render's splats and tile entries, packed once for all its groups.

    ``params`` (n, 9) holds each splat's blend-dtype mean, conic, opacity
    and rgb: the row a block-list entry carries into the kernel.
    ``splat64`` (6, n) holds the same mean, conic and opacity as float64
    rows, the columns ``preprocess.can_blend`` reads.  Tile t's list is
    ``order[offsets[t]:offsets[t + 1]]`` and its pixels ``rects[t]``
    (x0, y0, x1, y1), a rect of ``tile_size`` (w, h) clipped by the
    image, as in ``TileBinning``; ``win`` and ``area`` are every entry's
    box clipped to its tile (``clip_windows``).  Records number image
    pixels in rows of ``image_w``.
    """

    def __init__(self, batch: SplatBatch, order, offsets, rects, tile_size, image_w: int):
        self.dtype = batch.mean2.dtype
        self.params = np.column_stack((batch.mean2, batch.conic, batch.opacity, batch.rgb))
        self.splat64 = np.ascontiguousarray(self.params[:, :6].T, dtype=np.float64)
        self.order, self.offsets, self.rects = order, offsets, rects
        self.tile_size, self.image_w = tile_size, image_w
        tile = np.repeat(np.arange(len(rects)), np.diff(offsets))
        self.win, self.area = clip_windows(batch.aabb[order], rects[tile])


class BlockGroup:
    """A run of whole tiles ``tiles`` of a ``SplatTable``, cut into blend blocks.

    Every tile of ``table.tile_size`` (w, h) is cut into the same grid of
    bh x bw blocks of at most ``side`` px (``_block_side``), numbered
    tile by tile and row-major within a tile.  Pixel arrays are flat per
    block, (n_blocks, bh * bw).  ``xcol`` (n_blocks, bw) and ``yrow``
    (n_blocks, bh) are the pixel-centre coordinates of each block's
    columns and rows.  A block's pixels outside its tile's rect (which
    may be clipped by the image edge) are padding; ``valid`` marks the
    others.  The group's entries are its slice of the table's: their
    clipped windows ``win``, areas and splat parameters ``params``, with
    ``m`` entries per tile from ``entry_off``.  A block's list holds the
    entries whose window meets the block (``aabb_pairs`` such pairs in
    the group) and that can blend there (``preprocess.can_blend``).
    Block lists are stored concatenated, block by block, each in list
    order: the group entry, its window in block-local coordinates and
    its tile list position; ``_at`` finds a block's entry at a list
    position.  A record names a pixel by its image index
    y * ``image_w`` + x and an entry by ``first_entry`` + its group
    entry: its position in the view's ``order``.
    """

    def __init__(self, table: SplatTable, tiles: range, side: int):
        tw, th = self.tile_size = table.tile_size
        self.image_w = table.image_w
        bh, bw = self.block = (_block_side(th, side), _block_side(tw, side))
        nby, nbx = self.grid = (-(-th // bh), -(-tw // bw))
        rects = self.rects = table.rects[tiles.start : tiles.stop]
        nt = len(rects)
        x0, y0, x1, y1 = rects.T
        self.tile_px = (x1 - x0) * (y1 - y0)
        # runs of tiles side by side in one tile row, for pasting
        cut = np.flatnonzero((y0[1:] != y0[:-1]) | (x0[1:] != x1[:-1])) + 1
        self.runs = list(zip([0, *cut.tolist()], [*cut.tolist(), nt]))

        nb = nt * nby * nbx
        self.block_off = np.arange(nt + 1) * (nby * nbx)
        self.block_tile = np.repeat(np.arange(nt), nby * nbx)
        local = np.arange(nb) % (nby * nbx)
        cols = (x0[self.block_tile] + local % nbx * bw)[:, None] + np.arange(bw)  # (nb, bw)
        rows = (y0[self.block_tile] + local // nbx * bh)[:, None] + np.arange(bh)  # (nb, bh)
        dt = self.dtype = table.dtype
        self.xcol = cols.astype(dt) + dt.type(0.5)
        self.yrow = rows.astype(dt) + dt.type(0.5)
        self.valid = (
            (cols < x1[self.block_tile, None])[:, None, :]
            & (rows < y1[self.block_tile, None])[:, :, None]
        ).reshape(nb, -1)
        del cols, rows

        offsets = table.offsets[tiles.start : tiles.stop + 1]
        es = slice(offsets[0], offsets[-1])
        self.first_entry = int(offsets[0])  # a Python int keeps the record's entries int32
        self.entry_off = offsets - offsets[0]
        self.m = np.diff(offsets)
        etile = np.repeat(np.arange(nt), self.m)
        splat = table.order[es]
        self.win, self.area = table.win[es], table.area[es]

        # Expand each entry into the blocks its window meets, span_c by
        # span_r of them from block (r0, c0) of its tile; pair order is
        # entry order.
        ex0, ey0 = x0[etile], y0[etile]
        c0 = (self.win[:, 0] - ex0) // bw
        r0 = (self.win[:, 1] - ey0) // bh
        span_c = -(-(self.win[:, 2] - ex0) // bw) - c0
        span_r = -(-(self.win[:, 3] - ey0) // bh) - r0
        count = np.where(self.area > 0, span_c * span_r, 0)
        e = np.repeat(np.arange(len(splat), dtype=np.int32), count)
        k = np.arange(len(e), dtype=np.int32) - np.repeat(
            (np.cumsum(count) - count).astype(np.int32), count
        )
        dr, dc = np.divmod(k, span_c.astype(np.int32)[e])
        del k
        blk = (self.block_off[etile] + r0 * nbx + c0).astype(np.int32)[e] + dr * nbx + dc
        # each pair's block origin, and the window cut to the block
        ox = (ex0 + c0 * bw).astype(np.int32)[e] + dc * bw
        oy = (ey0 + r0 * bh).astype(np.int32)[e] + dr * bh
        del dr, dc
        wx0, wy0, wx1, wy1 = self.win.astype(np.int32).T
        rect = (
            np.maximum(wx0[e], ox),
            np.maximum(wy0[e], oy),
            np.minimum(wx1[e], ox + bw),
            np.minimum(wy1[e], oy + bh),
        )
        # Keep a pair only where the entry can blend in block and window,
        # then order the pairs by block; the stable sort keeps list order.
        keep = np.flatnonzero(can_blend(np.take(table.splat64, splat[e], axis=1), rect))
        self.aabb_pairs = len(e)
        keep = keep[np.argsort(blk[keep], kind="stable")]
        lwin = np.empty((len(keep), 4), dtype=np.int8)
        for j, (r, o) in enumerate(zip(rect, (ox, oy, ox, oy))):
            lwin[:, j] = r[keep] - o[keep]
        self.lwin = lwin
        del rect, ox, oy
        blk, e = blk[keep], e[keep]
        self.params = np.take(table.params, splat, axis=0)
        self.entry = e
        self.pos = (np.arange(len(splat)) - self.entry_off[etile]).astype(np.int32)[e]
        # Block-list entries by (block, list position), for ``_at``; int32
        # when every key fits.
        self._stride = int(self.m.max(initial=0)) + 1
        key = np.int32 if nb * self._stride <= np.iinfo(np.int32).max else np.int64
        self._key = blk.astype(key, copy=False) * key(self._stride) + self.pos

    def fresh_state(self, end_pos: np.ndarray) -> PixelState:
        """T = 1, no color and stop = ``end_pos[tile]``; padding starts dead (T = 0)."""
        stop = np.empty(self.valid.shape, dtype=np.int32)
        stop[:] = end_pos[self.block_tile][:, None]
        return PixelState(
            rgb=np.zeros((3,) + self.valid.shape, dtype=self.dtype),
            T=self.valid.astype(self.dtype),
            stop=stop,
        )

    def paste(self, values: np.ndarray, out: np.ndarray) -> None:
        """Write (n_blocks, P, ...) values into ``out`` (image h, w, ...), without padding."""
        tw, _ = self.tile_size
        bh, bw = self.block
        nby, nbx = self.grid
        rest = values.shape[2:]
        axes = (1, 3, 0, 2, 4) + tuple(range(5, 5 + len(rest)))
        for t0, t1 in self.runs:
            x0, y0 = self.rects[t0, :2]
            x1, y1 = self.rects[t1 - 1, 2:]
            v = values[self.block_off[t0] : self.block_off[t1]]
            v = v.reshape((t1 - t0, nby, nbx, bh, bw) + rest).transpose(axes)
            v = v.reshape((nby * bh, t1 - t0, nbx * bw) + rest)[: y1 - y0, :, :tw]
            out[y0:y1, x0:x1] = v.reshape((y1 - y0, (t1 - t0) * tw) + rest)[:, : x1 - x0]

    def _at(self, tile_pos: np.ndarray) -> np.ndarray:
        """Per block, its first block-list entry at tile list position tile_pos[tile] or later."""
        key = self._key.dtype.type
        at = np.arange(len(self.block_tile), dtype=key) * key(self._stride)
        at += tile_pos[self.block_tile].astype(key)
        return np.searchsorted(self._key, at)

    def blend(
        self,
        state: PixelState,
        start: np.ndarray,
        end: np.ndarray,
        eps_t: float,
        record: list | None = None,
    ) -> None:
        """Blend tile list positions [start[t], end[t]) of every tile t into ``state``.

        ``record``, when given, receives one (pixels, alpha, row_entry,
        row_count) tuple of arrays per lockstep step: the image index of
        every pixel the step blended (alpha >= ALPHA_MIN, inside the
        window, live before the entry) as int32 and its alpha in the blend
        dtype.  The pixels come block row by block row, and all of a
        row's pixels lie in its block and blend its one entry, so the
        entry is kept once per row: ``row_entry`` holds the view-wide
        entry and ``row_count`` the pixel count (> 0) of every row that
        blended a pixel, both int32; ``np.repeat(row_entry, row_count)``
        is each pixel's entry.  A pixel occurs at most once per step,
        and each block's entries come in list order, so reading the
        steps backwards visits every pixel's blends back to front.
        """
        first = self._at(start)
        n = self._at(end) - first
        act = n > 0
        if eps_t > 0.0:
            act &= state.T.max(axis=1) >= eps_t  # no live pixel: nothing blends
        blocks = np.flatnonzero(act)
        if blocks.size:
            self._lockstep(blocks, first[blocks], n[blocks], eps_t, state, record)

    def blend_chunks(
        self, state: PixelState, chunks: list[tuple], eps_t: float, untouched: np.ndarray
    ) -> None:
        """Blend depth chunks of every tile's list and fold them into ``state`` in order.

        ``chunks`` are (lo, hi) arrays of tile list positions, in depth
        order.  Each (block, chunk) row starts from the fresh state (T = 1,
        0 on padding, no color) and blends [lo, hi) with eps_t = 0; all
        rows blend in one lockstep pass.  Each row is then folded into
        the block's running state with ``_merge_partial``, chunk by chunk,
        and a pixel the fold kills stops at hi.  Rows with no entry in
        their chunk are left out, and with eps_t > 0 so are the blocks
        with no live pixel: the fold is the identity on them.

        ``untouched`` marks the blocks whose state is still
        ``fresh_state(m)``; folded blocks are cleared from it.  On such a
        block the merge's arithmetic reduces to the row itself, with stop
        hi where the row's T fell below eps_t, and that is what is
        written; it skips gathering, merging and scattering the first
        chunk of most blocks, and measured 1.07x on the render_occluded
        benchmark against merging every row.
        """
        live = state.T.max(axis=1) >= eps_t if eps_t > 0.0 else True
        rows, first, n, chunk = [], [], [], []
        for k, (lo, hi) in enumerate(chunks):
            f = self._at(lo)
            c = self._at(hi) - f
            b = np.flatnonzero((c > 0) & live)
            rows.append(b)
            first.append(f[b])
            n.append(c[b])
            chunk.append(np.full(len(b), k))
        rows, first, n, chunk = map(np.concatenate, (rows, first, n, chunk))
        if not len(rows):
            return
        perm, T, rgb = self._lockstep(rows, first, n, 0.0)
        rows, chunk = rows[perm], chunk[perm]  # in the pass's order, as T and rgb
        for k, (_, hi) in enumerate(chunks):
            in_k = chunk == k
            for copy in True, False:
                sel = np.flatnonzero(in_k & (untouched[rows] == copy))
                if not len(sel):
                    continue
                b = rows[sel]
                tile = self.block_tile[b]
                part_T, part_rgb = (T, rgb) if len(sel) == len(rows) else (T[sel], rgb[:, sel])
                if copy:
                    state.T[b] = part_T
                    state.rgb[:, b] = part_rgb
                    if eps_t > 0.0:
                        ended = (part_T < eps_t) & self.valid[b]
                        state.stop[b] = np.where(ended, hi[tile, None], self.m[tile, None])
                else:
                    sub = PixelState(rgb=state.rgb[:, b], T=state.T[b], stop=state.stop[b])
                    part = PixelState(rgb=part_rgb, T=part_T, stop=None)
                    _merge_partial(sub, part, eps_t, hi[tile, None])
                    state.rgb[:, b], state.T[b], state.stop[b] = sub.rgb, sub.T, sub.stop
            untouched[rows[in_k]] = False

    def _lockstep(
        self,
        blocks: np.ndarray,
        first: np.ndarray,
        n: np.ndarray,
        eps_t: float,
        state: PixelState | None = None,
        record: list | None = None,
    ):
        """Blend block-list entries first[i] ... first[i] + n[i] - 1 over block blocks[i].

        Every n[i] is positive; row i is block blocks[i]'s pixels.  With
        ``state``, the blocks are distinct and blend in place.  Without
        it, every row starts from the fresh state (T = 1, 0 on padding,
        no color) and blends with eps_t = 0, and the result is returned
        as (perm, T, rgb): row perm[j] ended with T[j] and rgb[:, j].

        Step k blends the k-th entry of every row whose span is longer
        than k.  Rows are sorted by span length, longest first, so those
        are the first n_at[k], and the entries are laid out step by step
        (``pidx``) so each step reads one slice of their parameters and
        in-window masks: an entry's block columns (bw, entries) and
        rows (bh, entries) that lie in its window, built once per call.
        Alpha is built from per-column and per-row terms
        (``_block_alpha``).  The rows blended are held in copies of
        their state.  Once at least an eighth of the held rows have no
        live pixel, those are written back and dropped, and each step's
        slice becomes a gather over the held rows (``held``).  Pixels
        are checked for liveness only once one of them has died.
        """
        by_len = np.argsort(-n, kind="stable")
        blocks, lens = blocks[by_len], n[by_len]
        steps = int(lens[0])
        n_at = np.searchsorted(-lens, -np.arange(steps + 1), side="left")
        step_off = np.concatenate(([0], np.cumsum(n_at[:-1])))
        slot = np.repeat(np.arange(len(blocks)), lens)
        rank = np.arange(len(slot)) - np.repeat(np.cumsum(lens) - lens, lens)
        pidx = np.empty(len(slot), dtype=np.int64)
        pidx[step_off[rank] + slot] = first[by_len][slot] + rank
        del slot, rank
        entry = self.entry[pidx]
        # one column per entry, so a step's parameters and windows are slices
        params = np.take(self.params, entry, axis=0).T.copy()  # take: faster than [] on narrow rows
        lwin = np.take(self.lwin, pidx, axis=0)
        bh, bw = self.block
        in_x = np.arange(bw, dtype=np.int8)[:, None]
        in_x = (in_x >= lwin[:, 0]) & (in_x < lwin[:, 2])  # (bw, entries)
        in_y = np.arange(bh, dtype=np.int8)[:, None]
        in_y = (in_y >= lwin[:, 1]) & (in_y < lwin[:, 3])  # (bh, entries)
        del lwin
        stop_at = self.pos[pidx] + 1 if eps_t > 0.0 else None
        if record is not None:
            # each held row's pixels as image indexes (x + 0.5 truncates to
            # x); row r's hits in a step are the nz in [row_lo[r], row_lo[r + 1])
            flat_at = self.yrow[blocks].astype(np.int32)[:, :, None] * np.int32(self.image_w)
            flat_at = (flat_at + self.xcol[blocks].astype(np.int32)[:, None, :]).reshape(
                len(blocks), -1
            )
            row_lo = np.arange(len(blocks) + 1) * (bh * bw)
        del pidx

        if state is None:
            T = self.valid[blocks].astype(self.dtype)
            rgb = np.zeros((3,) + T.shape, dtype=self.dtype)
            stop = None
        else:
            T = state.T[blocks]
            rgb = state.rgb[:, blocks]
            stop = state.stop[blocks]
        any_dead = eps_t > 0.0 and bool(((T < eps_t) & self.valid[blocks]).any())
        xc, yc = self.xcol[blocks].T.copy(), self.yrow[blocks].T.copy()
        held = np.arange(len(blocks))
        gather = False
        for k in range(steps):
            if gather:
                a = int(np.searchsorted(held, n_at[k]))
                rows = step_off[k] + held[:a]
                p = np.take(params, rows, axis=1)
                wx, wy = np.take(in_x, rows, axis=1), np.take(in_y, rows, axis=1)
            else:
                a = int(n_at[k])
                rows = slice(step_off[k], step_off[k] + a)
                p, wx, wy = params[:, rows], in_x[:, rows], in_y[:, rows]
            Tk = T[:a]
            alpha = _block_alpha(xc[:, :a], yc[:, :a], p, wx, wy)
            hit = alpha >= ALPHA_MIN
            if any_dead:
                hit &= Tk >= eps_t
            if record is not None:
                nz = np.flatnonzero(hit)
                cnt = np.diff(np.searchsorted(nz, row_lo[: a + 1]))
                some = cnt > 0
                record.append(
                    (
                        flat_at[:a].ravel()[nz],
                        alpha.ravel()[nz],
                        entry[rows][some] + self.first_entry,
                        cnt[some].astype(np.int32),
                    )
                )
            alpha *= hit  # alpha where the entry blends, else 0
            rgb[:, :a] += (Tk * alpha) * p[6:9, :, None]
            np.subtract(1, alpha, out=alpha)
            Tk *= alpha  # factor 1 where the entry does not blend
            if eps_t <= 0.0:
                continue
            hit &= Tk < eps_t  # live before the entry, dead after
            if not hit.any():
                continue
            any_dead = True
            stop[:a] += hit * (stop_at[rows][:, None] - stop[:a])
            dead = Tk.max(axis=1) < eps_t
            if 8 * np.count_nonzero(dead) < a:
                continue
            keep = held < n_at[k + 1]
            keep[:a] &= ~dead
            out = blocks[held[~keep]]
            state.T[out] = T[~keep]
            state.rgb[:, out] = rgb[:, ~keep]
            state.stop[out] = stop[~keep]
            T, rgb, stop = T[keep], rgb[:, keep], stop[keep]
            xc, yc, held = xc[:, keep], yc[:, keep], held[keep]
            if record is not None:
                flat_at = flat_at[keep]
            gather = True
            if not len(held):
                break
        if state is None:
            return by_len, T, rgb
        out = blocks[held]
        state.T[out] = T
        state.rgb[:, out] = rgb
        state.stop[out] = stop


def _block_alpha(
    xc: np.ndarray, yc: np.ndarray, p: np.ndarray, in_x: np.ndarray, in_y: np.ndarray
) -> np.ndarray:
    """``splat_alpha`` of a step's rows at their block pixels, 0 outside each row's window.

    ``xc`` (bw, rows) and ``yc`` (bh, rows) are each row's pixel-centre
    columns and rows, ``in_x`` and ``in_y`` (bool, same shapes) whether
    they lie in the row's window, and ``p`` holds each row's mean, conic
    and opacity in its first six rows, one column per row.  The work is
    pixel-major, rows innermost, so each per-column or per-row term is
    one operation over (bw or bh, rows) that broadcasts along the rows,
    and q is built in ``splat_alpha``'s order per pixel,
    ((2b dy) dx + a dx^2) + c dy^2: every pixel gets the same alpha as
    there, bit for bit.  Returns (rows, bh * bw), the kernel's row-major
    layout, transposed once here, since the kernel's in-place updates of
    T, colour and stop run several times faster on whole rows than on
    column prefixes of a pixel-major state.
    """
    dt = xc.dtype.type
    dx = xc - p[0]
    dy = yc - p[1]
    q = ((2 * p[3]) * dy)[:, None] * dx  # (bh, bw, rows)
    q += p[2] * dx**2
    q += (p[4] * dy**2)[:, None]
    np.clip(q, dt(0), dt(Q_MAX), out=q)
    q *= -dt(0.5)
    np.exp(q, out=q)
    q *= p[5]
    np.minimum(q, dt(ALPHA_MAX), out=q)
    q *= in_y[:, None] & in_x
    return q.reshape(len(yc) * len(xc), -1).T.copy()


def _merge_partial(state: PixelState, part: PixelState, eps_t: float, chunk_end) -> None:
    """Fold one chunk's blend (from T = 1, eps_t = 0) into the running merge state.

    ``chunk_end`` is an int or an array that broadcasts against the state;
    a pixel the fold kills stops there.  Selections are products with the
    live mask (x * 1 and x + 0 are exact), which NumPy runs far faster
    than ``np.where`` on mixed masks.  ``part.stop`` is not read.
    """
    live = state.T >= eps_t
    state.rgb += (state.T * live) * part.rgb
    factor = part.T * live
    factor += ~live  # part.T where live, else 1
    state.T *= factor
    if eps_t > 0.0:
        ended = live & (state.T < eps_t)
        state.stop += ended * (chunk_end - state.stop)


def _blend_group(
    grp: BlockGroup, cfg: RenderConfig, record: list | None = None
) -> tuple[PixelState, np.ndarray, list[int] | None]:
    """Blend a group's tiles under cfg's schedule: (state, split per tile, occluded).

    K = cfg.z_tiles > 1 cuts each list prefix [0, split) into K chunks
    that blend from T = 1 with eps_t = 0 and fold into the merged state
    in depth order (``BlockGroup.blend_chunks``).  The chunks are
    independent, so they blend in one pass (several when a lone tile's K
    rows exceed GROUP_MAX_PX), except under the occlusion-threshold
    hybrid: it blends one chunk per pass and stops chunking a tile once
    more than theta of it has terminated.  The rest of each list (all of
    it at K = 1) then blends on the merged state, its steps going to
    ``record`` when given (``BlockGroup.blend``).

    Splits and occlusion counts are settled here, from the state: only
    folds kill before the tail, a fold at its chunk's hi and the tail
    past split.  At K = 1 that hybrid's split comes from the final stops
    (``_occlusion_splits``).  ``occluded`` holds the group's dead pixels
    after each chunk when cfg.record_occlusion is set.
    """
    m = grp.m
    eps_t = cfg.eps_t
    theta = cfg.occlusion_threshold
    switching = cfg.hybrid == "occlusion_threshold"
    if cfg.hybrid == "fixed_fraction":
        split = np.ceil((1.0 - cfg.hybrid_fraction) * m).astype(np.int64)
    else:
        split = m.copy()

    state = grp.fresh_state(m)
    chunks = _chunk_bounds(split.copy(), cfg.z_tiles) if cfg.z_tiles > 1 else []
    untouched = np.ones(len(grp.block_tile), dtype=bool)
    chunking = np.ones(len(m), dtype=bool)
    # chunks per pass: _pass_rows, fewer when one tile's rows are over GROUP_MAX_PX
    per = max(1, min(_pass_rows(cfg), GROUP_MAX_PX // grp.valid.size))
    for k in range(0, len(chunks), per):
        if switching:  # one chunk per pass
            lo, hi = chunks[k]
            dead = ((state.T < eps_t) & grp.valid).reshape(len(m), -1)
            over = chunking & (np.count_nonzero(dead, axis=1) > theta * grp.tile_px)
            split[over] = lo[over]
            chunking &= ~over
            chunks[k] = (lo, np.where(chunking, hi, lo))  # a switched tile chunks no more
        grp.blend_chunks(state, chunks[k : k + per], eps_t, untouched)
    grp.blend(state, split if chunks else np.zeros_like(m), m, eps_t, record)

    if switching and not chunks:
        tile = np.broadcast_to(grp.block_tile[:, None], grp.valid.shape)[grp.valid]
        split = _occlusion_splits(grp.area, m, tile, state.stop[grp.valid], theta)
    if not cfg.record_occlusion:
        return state, split, None
    dead = (state.T < eps_t) & grp.valid
    lims = [np.minimum(hi, split) for _, hi in chunks] or [m]
    return state, split, [
        int(np.count_nonzero(dead & (state.stop <= lim[grp.block_tile, None]))) for lim in lims
    ]


def _occlusion_splits(
    area: np.ndarray, m: np.ndarray, tile: np.ndarray, stop: np.ndarray, theta: float
) -> np.ndarray:
    """Per tile, the occlusion-threshold hybrid's split after one sweep, from the stops.

    Tile t's list is the next m[t] entries of ``area`` (window areas) and
    its pixels those with ``tile`` t, each with a ``stop`` in 0 ... m[t].
    The split follows the first entry with a non-empty window after
    which more than ``theta`` of the pixels have stopped, else it is
    m[t].  Tile t's stops are the slots from entry_off[t] + t on, so one
    histogram and one running sum count every entry's stopped pixels.
    """
    off = np.cumsum(m) - m  # entry_off
    tile_px = np.bincount(tile, minlength=len(m))
    ended = np.cumsum(np.bincount(off[tile] + tile + stop, minlength=len(area) + len(m)))
    etile = np.repeat(np.arange(len(m)), m)
    # entry e = entry_off[t] + p: its tile's stops up to p + 1 fill the slots up to e + t + 1
    stopped = ended[np.arange(len(area)) + etile + 1] - (np.cumsum(tile_px) - tile_px)[etile]
    hit = np.flatnonzero((stopped > theta * tile_px[etile]) & (area > 0))
    t, first = np.unique(etile[hit], return_index=True)
    split = m.copy()
    split[t] = hit[first] - off[t] + 1
    return split


def _tile_groups(binning: TileBinning, side: int, rows: int = 1) -> list[range]:
    """Runs of consecutive tiles whose blocks hold at most GROUP_MAX_PX pixels.

    Every tile has the same grid of blocks of at most ``side`` px, padding
    included.  ``rows`` counts how many pixel rows a pass holds per block
    (one per depth chunk when the chunks blend in one pass).  A tile
    larger than the cap is a group of its own.
    """
    bh, bw = _block_side(binning.tile_h, side), _block_side(binning.tile_w, side)
    tile_px = -(-binning.tile_h // bh) * bh * -(-binning.tile_w // bw) * bw
    per = max(1, GROUP_MAX_PX // (tile_px * rows))
    return [range(t, min(t + per, binning.n_tiles)) for t in range(0, binning.n_tiles, per)]


def _pass_rows(cfg: RenderConfig) -> int:
    """Rows per block in a lockstep pass: K when the depth chunks blend in one pass."""
    return 1 if cfg.hybrid == "occlusion_threshold" else cfg.z_tiles


def _count(
    table: SplatTable, cfg: RenderConfig, split: np.ndarray, stop: np.ndarray | None
) -> EvalCounters:
    """Counters of the table's tiles from their windows, splits and the pixels' stops.

    ``split`` holds each tile's first pixel-centric list position, as
    ``_blend_group`` settled it, and ``stop`` the image of every pixel's
    stop after blending; only the hybrids read them
    (``execmodel.count_evals``).  Under ``hybrid="off"`` every entry
    performs its whole window.  Nothing passed in is written.
    """
    if cfg.hybrid == "off":
        total = int(table.area.sum())
        return EvalCounters(total, total, 0)
    counters = EvalCounters()
    for t, rect in enumerate(table.rects.tolist()):
        x0, y0, x1, y1 = rect
        es = slice(table.offsets[t], table.offsets[t + 1])
        until = stop[y0:y1, x0:x1]
        counters.merge(count_evals(table.win[es], table.area[es], rect, int(split[t]), until))
    return counters


def composite_background(state: PixelState, background: np.ndarray) -> np.ndarray:
    """Final color, channels last: accumulated rgb plus remaining T times bg."""
    bg = background.reshape((3,) + (1,) * state.T.ndim)
    return np.moveaxis(state.rgb + state.T * bg, 0, -1)


def _chunk_bounds(prefix_end, k: int) -> list[tuple]:
    """K equal-count chunks of [0, prefix_end); the last takes the remainder.

    ``prefix_end`` is an int or an array of them, one per tile.
    """
    base = prefix_end // k
    bounds = [(i * base, (i + 1) * base) for i in range(k - 1)]
    bounds.append(((k - 1) * base, prefix_end))
    return bounds


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from a forward render."""

    batch: SplatBatch  # blend-dtype splats (what the pixels actually saw)
    batch64: SplatBatch  # float64 projection for parameter chaining
    binning: TileBinning
    t_final: np.ndarray  # (h, w) final transmittance per pixel
    steps: list  # every group's recorded blend steps, in tile-group order


@dataclass
class RenderResult:
    image: ImageRGB
    stats: RenderStats
    trace: ForwardTrace | None = None


def _prepare(scene: GaussianScene, cam: Camera, cfg: RenderConfig):
    """Project, bin and pack a render's splats, and pick its block side.

    Returns (batch64, pstats, binning, batch, table, side).
    """
    batch64, pstats = preprocess(scene, cam)
    binning = bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height))
    dtype = np.dtype(cfg.dtype).type
    batch = batch64 if dtype == np.float64 else batch64.astype(dtype)
    table = SplatTable(
        batch, binning.order, binning.offsets, binning.rects(),
        (binning.tile_w, binning.tile_h), binning.image_w,
    )
    return batch64, pstats, binning, batch, table, _pick_block(batch64.aabb)


def block_groups(scene: GaussianScene, cam: Camera, cfg: RenderConfig) -> Iterator[BlockGroup]:
    """The tile groups, with their block lists, that ``render`` would blend, one at a time.

    Nothing is blended; this is for reading the block lists (``analyze
    --report bounds``).
    """
    cfg.validate()
    _, _, binning, _, table, side = _prepare(scene, cam, cfg)
    for tiles in _tile_groups(binning, side, _pass_rows(cfg)):
        yield BlockGroup(table, tiles, side)


def render(
    scene: GaussianScene,
    cam: Camera,
    cfg: RenderConfig | None = None,
    *,
    want_trace: bool = False,
) -> RenderResult:
    """Render a scene: preprocess, bin, blend tile groups, composite background.

    Groups are independent; with cfg.threads > 1 they run on a thread
    pool.  No pixel's arithmetic depends on the grouping, and stats are
    reduced in tile order, so results are bit-identical across thread
    counts and reruns.
    """
    cfg = cfg if cfg is not None else RenderConfig()
    cfg.validate()
    if want_trace and (cfg.z_tiles != 1 or cfg.hybrid != "off"):
        raise ValueError("gradient tracing requires z_tiles=1 and hybrid='off'")
    batch64, pstats, binning, batch, table, side = _prepare(scene, cam, cfg)

    h, w = cam.height, cam.width
    img = np.zeros((h, w, 3), dtype=batch.mean2.dtype)
    t_final = np.ones((h, w), dtype=img.dtype) if want_trace else None
    stop = np.empty((h, w), dtype=np.int32) if cfg.hybrid != "off" else None
    bg = np.asarray(cfg.background, dtype=img.dtype)

    def run_group(tiles: range):
        """Blend and paste one group; its state is freed on return."""
        steps = [] if want_trace else None
        grp = BlockGroup(table, tiles, side)
        state, split, occluded = _blend_group(grp, cfg, steps)
        grp.paste(composite_background(state, bg), img)
        if stop is not None:
            grp.paste(state.stop, stop)
        if want_trace:
            grp.paste(state.T, t_final)
        return split, occluded, steps

    groups = _tile_groups(binning, side, _pass_rows(cfg))
    if cfg.threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(run_group, groups))
    else:
        results = [run_group(g) for g in groups]
    split = np.concatenate([split for split, *_ in results])

    stats = RenderStats(
        image_w=w,
        image_h=h,
        tile_w=binning.tile_w,
        tile_h=binning.tile_h,
        n_tiles=binning.n_tiles,
        n_input=pstats.n_input,
        culled_near=pstats.culled_near,
        culled_degenerate=pstats.culled_degenerate,
        culled_offscreen=pstats.culled_offscreen,
        n_splats=batch.n,
        invocations=binning.total_invocations,
        counters=_count(table, cfg, split, stop),
    )
    if cfg.hybrid != "off":
        stats.hybrid_splits = split.tolist()
    if cfg.record_occlusion:
        stats.occlusion = OcclusionTrace(
            n_chunks=cfg.z_tiles,
            occluded_after_chunk=np.sum([occ for _, occ, _ in results], axis=0, dtype=np.int64),
            total_pixels=w * h,
        )

    trace = None
    if want_trace:
        trace = ForwardTrace(
            batch=batch,
            batch64=batch64,
            binning=binning,
            t_final=t_final,
            steps=[step for *_, steps in results for step in steps],
        )
    return RenderResult(image=ImageRGB(img), stats=stats, trace=trace)
