"""Tile-based forward rasterizer with depth-chunked blending.

Each tile owns a depth-sorted splat list.  Three traversal schedules
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
BLOCK x BLOCK pixels, and a block's list is the subsequence of its
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
one set of NumPy calls over (active blocks, block pixels).  A block
whose pixels are all dead leaves the active set.  Each pixel sees the
same floating-point operations in the same order as when splats are
blended one at a time, so neither the lockstep order nor the grouping
changes a bit.

The pixel state is color, T and stop: a pixel is dead (terminated)
exactly when T < eps_t, and stop is the list position after the splat
(or the end of the depth chunk) that took it there.  Schedules differ
only in the spans they blend, the state a span starts from and its
eps_t.  The kernel computes pixel state only; each tile's counters
follow afterwards from its clipped windows and each pixel's stop
position (``execmodel.count_evals``), so they count window pixels,
never a block's padding.

Tiles are blended in groups of whole tiles, in tile order, of at most
GROUP_MAX_PX block pixels.  A group is blended to the end and
composited into the image before the next one starts, which bounds the
memory a render holds; with threads > 1 the groups run on a pool.

Pixel centers sit at half-integer coordinates; alpha is
opacity * exp(-q/2) with q the conic quadratic form, clipped to
[0, Q_MAX], and the product clamped to 0.99.  Splats with alpha below
1/255 at a pixel do not blend there.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .execmodel import (
    EvalCounters,
    OcclusionTrace,
    RenderStats,
    count_evals,
    occlusion_switch,
)
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

# Largest blend-block side.  On the benchmark scenes 8 px made the
# large-splat render 1.3x slower (more block-list entries per pixel of
# work) and 32 px the float64 train forward 1.4x slower (more evaluated
# pixels outside the entries' windows).
BLOCK = 16
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
        tw, th = self.tile_size
        if tw <= 0 or th <= 0:
            raise ValueError("tile_size must be positive")
        if self.z_tiles < 1:
            raise ValueError("z_tiles must be >= 1")
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
        if len(self.background) != 3 or any(
            not np.isfinite(v) or v < 0 for v in self.background
        ):
            raise ValueError("background must be 3 finite non-negative values")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


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
    for a rectangle, (g, P) for P pixels per entry.  Returns (alpha, dx,
    dy), dx/dy the offsets from each splat mean.  Each value depends only
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
    return alpha, dx, dy


def alpha_patch(batch: SplatBatch, idx, x0: int, x1: int, y0: int, y1: int):
    """Alpha of splats ``idx`` over one pixel rectangle, in the batch dtype.

    ``idx`` is a splat index, a slice or a 1-D array of g indices.  Returns
    (alpha, dx, dy) of shapes (g, h, w), (g, 1, w) and (g, h, 1), where
    dx/dy are pixel-center offsets from each splat mean (``splat_alpha``).
    """
    if isinstance(idx, (int, np.integer)):
        idx = slice(idx, idx + 1)  # a view, cheaper than a gather
    dt = batch.mean2.dtype
    half = dt.type(0.5)
    xc = (np.arange(x0, x1).astype(dt) + half)[None, None, :]
    yc = (np.arange(y0, y1).astype(dt) + half)[None, :, None]
    return splat_alpha(xc, yc, batch.mean2[idx], batch.conic[idx], batch.opacity[idx])


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


def _block_side(tile_side: int) -> int:
    """Block side for a tile side: ceil(side / BLOCK) blocks of equal size."""
    n = -(-tile_side // BLOCK)
    return -(-tile_side // n)


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of values[offsets[i]:offsets[i + 1]]; empty segments sum to 0."""
    c = np.concatenate(([0], np.cumsum(values)))
    return c[offsets[1:]] - c[offsets[:-1]]


class BlockGroup:
    """Whole tiles cut into blend blocks, with every block's list.

    Every tile of ``tile_size`` (w, h) is cut into the same grid of
    bh x bw blocks (``_block_side``), numbered tile by tile and row-major
    within a tile.  Pixel arrays are flat per block, (n_blocks, bh * bw).
    A block's pixels outside its tile's rect (which may be clipped by the
    image edge) are padding; ``valid`` marks the others.  Entries are the
    tiles' lists, concatenated (``entry_off``), with their clipped
    windows ``win`` and areas.  A block's list holds the entries whose
    window meets the block (``aabb_pairs`` such pairs in the group) and
    that can blend there (``preprocess.can_blend``).  Block lists are
    stored concatenated, block by block (``list_off``), each in list
    order: the entry's splat parameters, its window in block-local
    coordinates and its tile list position.
    """

    def __init__(self, batch: SplatBatch, orders, rects, tile_size: tuple[int, int]):
        tw, th = tile_size
        self.tile_size = tile_size
        bh, bw = self.block = (_block_side(th), _block_side(tw))
        nby, nbx = self.grid = (-(-th // bh), -(-tw // bw))
        rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
        nt = len(rects)
        x0, y0, x1, y1 = rects.T
        self.rects = rects
        self.tile_px = (x1 - x0) * (y1 - y0)
        # runs of tiles side by side in one tile row, for pasting
        cut = np.flatnonzero((y0[1:] != y0[:-1]) | (x0[1:] != x1[:-1])) + 1
        self.runs = list(zip([0, *cut.tolist()], [*cut.tolist(), nt]))

        nb = nt * nby * nbx
        self.block_off = np.arange(nt + 1) * (nby * nbx)
        self.block_tile = np.repeat(np.arange(nt), nby * nbx)
        local = np.arange(nb) % (nby * nbx)
        ox = x0[self.block_tile] + local % nbx * bw
        oy = y0[self.block_tile] + local // nbx * bh
        cols = np.broadcast_to((ox[:, None] + np.arange(bw))[:, None, :], (nb, bh, bw))
        rows = np.broadcast_to((oy[:, None] + np.arange(bh))[:, :, None], (nb, bh, bw))
        cols, rows = cols.reshape(nb, -1), rows.reshape(nb, -1)
        dt = batch.mean2.dtype
        self.dtype = dt
        self.xc = cols.astype(dt) + dt.type(0.5)
        self.yc = rows.astype(dt) + dt.type(0.5)
        self.valid = (cols < x1[self.block_tile, None]) & (rows < y1[self.block_tile, None])
        self.px = np.tile(np.arange(bw, dtype=np.int8), bh)
        self.py = np.repeat(np.arange(bh, dtype=np.int8), bw)
        del cols, rows

        self.m = np.array([len(o) for o in orders], dtype=np.int64)
        self.entry_off = np.concatenate(([0], np.cumsum(self.m)))
        etile = np.repeat(np.arange(nt), self.m)
        splat = np.concatenate([np.asarray(o, dtype=np.int64) for o in orders])
        self.win, self.area = clip_windows(batch.aabb[splat], rects[etile])

        # Expand each entry into the blocks its window meets, then order the
        # pairs by block; the stable sort keeps list order within a block.
        c0 = (self.win[:, 0] - x0[etile]) // bw
        r0 = (self.win[:, 1] - y0[etile]) // bh
        span_c = -(-(self.win[:, 2] - x0[etile]) // bw) - c0
        span_r = -(-(self.win[:, 3] - y0[etile]) // bh) - r0
        count = np.where(self.area > 0, span_c * span_r, 0)
        e = np.repeat(np.arange(len(splat), dtype=np.int32), count)
        k = np.arange(len(e), dtype=np.int32) - np.repeat(
            (np.cumsum(count) - count).astype(np.int32), count
        )
        sc = span_c[e]
        blk = (
            self.block_off[etile[e]] + (r0[e] + k // sc) * nbx + c0[e] + k % sc
        ).astype(np.int32)
        del k, sc
        # Keep a pair only where the entry can blend in block and window.
        origin = np.stack([ox, oy, ox, oy], axis=1)[blk]
        lwin = self.win[e] - origin
        np.clip(lwin, 0, (bw, bh, bw, bh), out=lwin)
        s = splat[e]
        keep = can_blend(batch.mean2[s], batch.conic[s], batch.opacity[s], lwin + origin)
        self.aabb_pairs = len(e)
        e, blk, lwin = e[keep], blk[keep], lwin[keep]
        del origin, s, keep
        by_block = np.argsort(blk, kind="stable")
        e, blk, lwin = e[by_block], blk[by_block], lwin[by_block]
        del by_block
        self.list_off = np.concatenate(([0], np.cumsum(np.bincount(blk, minlength=nb))))
        s = splat[e]
        self.params = np.column_stack(
            (batch.mean2[s], batch.conic[s], batch.opacity[s], batch.rgb[s])
        )
        self.pos = (np.arange(len(splat)) - self.entry_off[etile])[e].astype(np.int32)
        self.lwin = lwin.astype(np.int8)

    def fresh_state(self, end_pos: np.ndarray) -> PixelState:
        """T = 1, no color and stop = ``end_pos[tile]``; padding starts dead (T = 0)."""
        stop = np.empty(self.valid.shape, dtype=np.int32)
        stop[:] = self.per_block(end_pos)
        return PixelState(
            rgb=np.zeros((3,) + self.valid.shape, dtype=self.dtype),
            T=self.valid.astype(self.dtype),
            stop=stop,
        )

    def per_block(self, tile_values: np.ndarray) -> np.ndarray:
        """Per-tile values as a (n_blocks, 1) column."""
        return tile_values[self.block_tile][:, None]

    def tile_sums(self, block_values: np.ndarray) -> np.ndarray:
        """Per-tile sums of a (n_blocks, P) array."""
        return _segment_sums(block_values.sum(axis=1), self.block_off)

    def dead(self, state: PixelState, eps_t: float) -> np.ndarray:
        """Mask of the pixels (not padding) with T < eps_t."""
        return (state.T < eps_t) & self.valid

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

    def blend(
        self,
        state: PixelState,
        start: np.ndarray,
        end: np.ndarray,
        eps_t: float,
    ) -> None:
        """Blend tile list positions [start[t], end[t]) of every tile t into ``state``."""
        lengths = np.diff(self.list_off)
        lo = _segment_sums(self.pos < np.repeat(start[self.block_tile], lengths), self.list_off)
        hi = _segment_sums(self.pos < np.repeat(end[self.block_tile], lengths), self.list_off)
        self._lockstep(state, self.list_off[:-1] + lo, hi - lo, eps_t)

    def _lockstep(
        self, state: PixelState, first: np.ndarray, n: np.ndarray, eps_t: float
    ) -> None:
        """Blend block-list entries first[b] ... first[b] + n[b] - 1 of every block b.

        Step k blends the k-th entry of every block whose span is longer
        than k.  Blocks are sorted by span length, longest first, so those
        are the first n_at[k], and the entries are laid out step by step
        (``pidx``) so each step reads one slice.  The blocks blended are
        held in copies of their state.  Once at least an eighth of the
        held blocks have no live pixel, those are written back and
        dropped, and each step's slice becomes a gather over the held
        blocks (``held``).  Pixels are checked for liveness only once one
        of them has died.
        """
        act = n > 0
        if eps_t > 0.0:
            act &= state.T.max(axis=1) >= eps_t  # no live pixel: nothing blends
        blocks = np.flatnonzero(act)
        if blocks.size == 0:
            return
        lens = n[blocks]
        by_len = np.argsort(-lens, kind="stable")
        blocks, lens = blocks[by_len], lens[by_len]
        steps = int(lens[0])
        n_at = np.searchsorted(-lens, -np.arange(steps + 1), side="left")
        step_off = np.concatenate(([0], np.cumsum(n_at[:-1])))
        slot = np.repeat(np.arange(len(blocks)), lens)
        rank = np.arange(len(slot)) - np.repeat(np.cumsum(lens) - lens, lens)
        pidx = np.empty(len(slot), dtype=np.int64)
        pidx[step_off[rank] + slot] = first[blocks][slot] + rank
        del slot, rank
        params = self.params[pidx]
        lwin = self.lwin[pidx]
        stop_at = self.pos[pidx] + 1 if eps_t > 0.0 else None
        del pidx

        T = state.T[blocks]
        rgb = state.rgb[:, blocks]
        stop = state.stop[blocks]
        xc, yc = self.xc[blocks], self.yc[blocks]
        px, py = self.px, self.py
        any_dead = eps_t > 0.0 and bool(((T < eps_t) & self.valid[blocks]).any())
        held = np.arange(len(blocks))
        gather = False
        for k in range(steps):
            if gather:
                a = int(np.searchsorted(held, n_at[k]))
                rows = step_off[k] + held[:a]
            else:
                a = int(n_at[k])
                rows = slice(step_off[k], step_off[k] + a)
            p, win = params[rows], lwin[rows]
            Tk = T[:a]
            alpha, _, _ = splat_alpha(xc[:a], yc[:a], p[:, 0:2], p[:, 2:5], p[:, 5])
            hit = alpha >= ALPHA_MIN
            hit &= px >= win[:, 0, None]
            hit &= px < win[:, 2, None]
            hit &= py >= win[:, 1, None]
            hit &= py < win[:, 3, None]
            if any_dead:
                hit &= Tk >= eps_t
            alpha *= hit  # alpha where the entry blends, else 0
            rgb[:, :a] += (Tk * alpha) * p[:, 6:9].T[:, :, None]
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
            xc, yc, held = xc[keep], yc[keep], held[keep]
            gather = True
            if not len(held):
                break
        out = blocks[held]
        state.T[out] = T
        state.rgb[:, out] = rgb
        state.stop[out] = stop


def _merge_partial(state: PixelState, part: PixelState, eps_t: float, chunk_end) -> None:
    """Fold one chunk's blend (from T = 1, eps_t = 0) into the running merge state.

    ``chunk_end`` is an int or an array that broadcasts against the state.
    Selections are products with the live mask (x * 1 and x + 0 are
    exact), which NumPy runs far faster than ``np.where`` on mixed masks.
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
    grp: BlockGroup, cfg: RenderConfig
) -> tuple[PixelState, np.ndarray, list[int] | None]:
    """Blend a group's tiles under cfg's schedule: (state, split per tile, occluded).

    K = cfg.z_tiles = 1 is one global sweep.  K > 1 blends K chunks of
    each list prefix from T = 1 with eps_t = 0 and merges them in depth
    order; the occlusion-threshold hybrid stops chunking a tile once more
    than theta of it has terminated.  Whatever is left of each list then
    blends on the merged state.  ``occluded`` holds the group's dead
    pixels after each chunk when cfg.record_occlusion is set.
    """
    m = grp.m
    K = cfg.z_tiles
    eps_t = cfg.eps_t
    theta = cfg.occlusion_threshold
    occluded: list[int] | None = [] if cfg.record_occlusion else None
    if cfg.hybrid == "fixed_fraction":
        split = np.ceil((1.0 - cfg.hybrid_fraction) * m).astype(np.int64)
    else:
        split = m.copy()

    state = grp.fresh_state(m)
    if K == 1:
        grp.blend(state, np.zeros_like(m), m, eps_t)
        if cfg.hybrid == "occlusion_threshold":
            for t in range(len(m)):
                b = slice(grp.block_off[t], grp.block_off[t + 1])
                until = state.stop[b][grp.valid[b]]
                es = slice(grp.entry_off[t], grp.entry_off[t + 1])
                split[t] = occlusion_switch(grp.area[es], until, theta)
        if occluded is not None:
            occluded.append(int(np.count_nonzero(grp.dead(state, eps_t))))
        return state, split, occluded

    chunking = np.ones(len(m), dtype=bool)
    for lo, hi in _chunk_bounds(split.copy(), K):
        if cfg.hybrid == "occlusion_threshold":
            over = chunking & (grp.tile_sums(grp.dead(state, eps_t)) > theta * grp.tile_px)
            split[over] = lo[over]
            chunking &= ~over
            hi = np.where(chunking, hi, lo)  # a switched tile chunks no more
        part = grp.fresh_state(hi)
        grp.blend(part, lo, hi, 0.0)
        _merge_partial(state, part, eps_t, grp.per_block(hi))
        if occluded is not None:
            # a switched tile's state is unchanged, so it reports its frozen count
            occluded.append(int(np.count_nonzero(grp.dead(state, eps_t))))
    grp.blend(state, split, m, eps_t)
    return state, split, occluded


def _tile_groups(binning: TileBinning) -> list[range]:
    """Runs of consecutive tiles with at most GROUP_MAX_PX block pixels.

    Every tile has the same block grid; a tile larger than the cap is a
    group of its own.
    """
    bh, bw = _block_side(binning.tile_h), _block_side(binning.tile_w)
    tile_px = -(-binning.tile_h // bh) * bh * -(-binning.tile_w // bw) * bw
    per = max(1, GROUP_MAX_PX // tile_px)
    return [range(t, min(t + per, binning.n_tiles)) for t in range(0, binning.n_tiles, per)]


def _render_group(
    batch: SplatBatch,
    binning: TileBinning,
    tiles: range,
    cfg: RenderConfig,
    img: np.ndarray,
    t_final: np.ndarray | None,
    stop_img: np.ndarray | None,
) -> tuple[EvalCounters, np.ndarray, list[int] | None]:
    """Blend one group and paste its pixels: (counters, split per tile, occluded).

    Writes the composited color into ``img`` and, when given, T into
    ``t_final`` and stop into ``stop_img`` (required for the hybrids,
    which count per tile from each pixel's stop).
    """
    rects = [binning.tile_rect(t) for t in tiles]
    tile_size = (binning.tile_w, binning.tile_h)
    grp = BlockGroup(batch, [binning.lists[t] for t in tiles], rects, tile_size)
    state, split, occluded = _blend_group(grp, cfg)
    bg = np.asarray(cfg.background, dtype=img.dtype)
    grp.paste(composite_background(state, bg), img)
    if t_final is not None:
        grp.paste(state.T, t_final)
    if stop_img is not None:
        grp.paste(state.stop, stop_img)
    if cfg.hybrid == "off":
        total = int(grp.area.sum())
        return EvalCounters(total, total, 0), split, occluded
    counters = EvalCounters()
    for i, (x0, y0, x1, y1) in enumerate(rects):
        es = slice(grp.entry_off[i], grp.entry_off[i + 1])
        until = stop_img[y0:y1, x0:x1]
        counters.merge(count_evals(grp.win[es], grp.area[es], rects[i], int(split[i]), until))
    return counters, split, occluded


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
    stop: np.ndarray  # (h, w) int32 list position after each pixel's last blend


@dataclass
class RenderResult:
    image: ImageRGB
    stats: RenderStats
    trace: ForwardTrace | None = None


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
    dtype = np.dtype(cfg.dtype).type

    batch64, pstats = preprocess(scene, cam)
    binning = bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height))
    batch = batch64 if dtype == np.float64 else batch64.astype(dtype)

    h, w = cam.height, cam.width
    img = np.zeros((h, w, 3), dtype=dtype)
    t_final = np.ones((h, w), dtype=dtype) if want_trace else None
    tracked = want_trace or cfg.hybrid != "off"
    stop_img = np.zeros((h, w), dtype=np.int32) if tracked else None
    K = cfg.z_tiles

    def run_group(tiles: range):
        return _render_group(batch, binning, tiles, cfg, img, t_final, stop_img)

    groups = _tile_groups(binning)
    if cfg.threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(run_group, groups))
    else:
        results = [run_group(g) for g in groups]

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
        per_tile_lengths=[len(l) for l in binning.lists],
        invocations=binning.total_invocations,
    )
    occl_total = np.zeros(K, dtype=np.int64) if cfg.record_occlusion else None
    splits: list[int] = []
    for counters, split, occluded in results:
        stats.counters.merge(counters)
        splits.extend(split.tolist())
        if occl_total is not None:
            occl_total += np.asarray(occluded, dtype=np.int64)
    if cfg.hybrid != "off":
        stats.hybrid_splits = splits
    if occl_total is not None:
        stats.occlusion = OcclusionTrace(
            n_chunks=K,
            occluded_after_chunk=occl_total,
            total_pixels=w * h,
            eps_t=cfg.eps_t,
        )

    trace = None
    if want_trace:
        trace = ForwardTrace(
            batch=batch,
            batch64=batch64,
            binning=binning,
            t_final=t_final,
            stop=stop_img,
        )
    return RenderResult(image=ImageRGB(img), stats=stats, trace=trace)
