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

All of them go through one run kernel (``blend_span``).  It cuts a span
of the list into runs of consecutive entries and blends each run as one
dense (g, h, w) slab over the bounding box of the entries' AABB-and-tile
windows, masking each entry to its own window.  A run grows greedily
while g * area(bounding box) <= sum(window area + RUN_OVERHEAD_PX) and
one (g, h, w) slab array fits in RUN_MAX_BYTES: small splats on small
tiles become one run per tile, while large splats stay in short runs
that evaluate little beyond their windows.  RUN_OVERHEAD_PX is the fixed
cost of one kernel call in pixel-equivalents, measured on the
benchmark's render workloads.  Within a run,
transmittance is a sequential product along the entry axis and color a
sequential sum with the carried state first, so each pixel sees the
same floating-point operations in the same order as when splats are
blended one at a time.  Schedules differ only in the state a span
starts from and its eps_t.  The pixel state is color, T and stop: a
pixel is dead (terminated) exactly when T < eps_t, and stop is the list
position after the splat (or the end of the depth chunk) that took it
there.  A run whose slab is all dead is not evaluated at all.  The kernel computes pixel state only;
each tile's counters follow afterwards from its clipped windows and
each pixel's stop position (``execmodel.count_evals``), so they count
window pixels, never the slab's padding.

Pixel centers sit at half-integer coordinates; alpha is
opacity * exp(-q/2) with q the conic quadratic form, floored at 0 and
the product clamped to 0.99.  Splats with alpha below 1/255 at a pixel
do not blend there.
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
from .preprocess import SplatBatch, TileBinning, bin_and_sort, preprocess

ALPHA_MIN = 1.0 / 255.0
ALPHA_MAX = 0.99

# Run grouping (see the module docstring).  RUN_OVERHEAD_PX is the fixed
# cost of one run-kernel call in pixel-equivalents.  RUN_MAX_BYTES caps
# one (g, h, w) slab array, which keeps a run's ~8 live temporaries
# within a core's L2 cache and the process's peak memory flat.
RUN_OVERHEAD_PX = 4096
RUN_MAX_BYTES = 1 << 17

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
    """Per-pixel blend state over one tile (arrays are tile-shaped).

    A pixel is dead (terminated) exactly when T < eps_t; nothing else
    records it.  T only falls, so a dead pixel stays dead and blends
    nothing more.
    """

    rgb: np.ndarray  # (3, h, w) accumulated color, planar, background excluded
    T: np.ndarray  # (h, w) transmittance
    stop: np.ndarray  # (h, w) int32 list position where the pixel died, else list end


def _fresh_state(h: int, w: int, dtype, end_pos: int) -> PixelState:
    return PixelState(
        rgb=np.zeros((3, h, w), dtype=dtype),
        T=np.ones((h, w), dtype=dtype),
        stop=np.full((h, w), end_pos, dtype=np.int32),
    )


def alpha_patch(batch: SplatBatch, idx, x0: int, x1: int, y0: int, y1: int):
    """Alpha of splats ``idx`` over one pixel rectangle, in the batch dtype.

    ``idx`` is a splat index, a slice or a 1-D array of g indices.  Returns
    (alpha, dx, dy) of shapes (g, h, w), (g, 1, w) and (g, h, 1), where
    dx/dy are pixel-center offsets from each splat mean.  Every blend
    schedule and the backward pass call this one function, and each
    pixel's value depends only on its own splat and coordinates, so a
    pixel gets the same alpha whatever rectangle or batch it is
    evaluated in.
    """
    if isinstance(idx, (int, np.integer)):
        idx = slice(idx, idx + 1)  # a view, cheaper than a gather
    dt = batch.mean2.dtype
    half = dt.type(0.5)
    mean = batch.mean2[idx]
    dx = (np.arange(x0, x1).astype(dt) + half)[None, None, :] - mean[:, 0, None, None]
    dy = (np.arange(y0, y1).astype(dt) + half)[None, :, None] - mean[:, 1, None, None]
    conic = batch.conic[idx]
    a = conic[:, 0, None, None]
    b = conic[:, 1, None, None]
    c = conic[:, 2, None, None]
    # a*dx^2 + 2b*dy*dx + c*dy^2, then opacity * exp(-q/2) clamped; in place
    # (IEEE addition and multiplication commute, so operand order is free)
    alpha = 2 * b * dy * dx
    alpha += a * dx**2
    alpha += c * dy**2
    np.maximum(alpha, dt.type(0), out=alpha)  # guard tiny negative from rounding
    alpha *= -half
    np.exp(alpha, out=alpha)
    alpha *= batch.opacity[idx][:, None, None]
    np.minimum(alpha, dt.type(ALPHA_MAX), out=alpha)
    return alpha, dx, dy


def clip_windows(
    batch: SplatBatch, idx: np.ndarray, rect: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """AABBs of entries ``idx`` (an index array) clipped to ``rect``, and their areas.

    An empty window becomes the inverted box (x1, y1, x0, y0) of ``rect``,
    which never widens a run's bounding box, and has area 0.
    """
    x0r, y0r, x1r, y1r = rect
    win = batch.aabb[idx].astype(np.int64, copy=False)  # idx gathers: a copy
    np.maximum(win[:, :2], (x0r, y0r), out=win[:, :2])
    np.minimum(win[:, 2:], (x1r, y1r), out=win[:, 2:])
    empty = (win[:, 0] >= win[:, 2]) | (win[:, 1] >= win[:, 3])
    win[empty] = (x1r, y1r, x0r, y0r)
    area = np.where(empty, 0, (win[:, 2] - win[:, 0]) * (win[:, 3] - win[:, 1]))
    return win, area


def window_mask(win: np.ndarray, slab: tuple[int, int, int, int]) -> np.ndarray:
    """(g, h, w) mask of the slab pixels inside each entry's window."""
    sx0, sy0, sx1, sy1 = slab
    xs = np.arange(sx0, sx1)
    ys = np.arange(sy0, sy1)
    cols = (xs >= win[:, 0, None]) & (xs < win[:, 2, None])
    rows = (ys >= win[:, 1, None]) & (ys < win[:, 3, None])
    return rows[:, :, None] & cols[:, None, :]


def _group_runs(
    win: np.ndarray, area: np.ndarray, max_elems: int
) -> list[tuple[int, int, int, int, int, int]]:
    """Split consecutive list entries into dense-slab runs.

    ``win`` holds each entry's clipped window (x0, y0, x1, y1), with
    empty windows set to an inverted box that never widens a run;
    ``area`` holds the window areas.  A run may hold g entries when g
    times the area of their bounding box is at most the sum of (window
    area + RUN_OVERHEAD_PX) and at most ``max_elems``.  The whole span
    is one run if it qualifies; otherwise runs grow greedily.  Returns
    (lo, hi, x0, y0, x1, y1) per run, positions relative to ``win``.
    """
    n = len(area)
    bx0, by0 = win[:, :2].min(axis=0).tolist()
    bx1, by1 = win[:, 2:].max(axis=0).tolist()
    dense = n * max(bx1 - bx0, 0) * max(by1 - by0, 0)
    if n == 1 or dense <= min(int(area.sum()) + n * RUN_OVERHEAD_PX, max_elems):
        return [(0, n, bx0, by0, bx1, by1)]
    wx0, wy0, wx1, wy1 = (col.tolist() for col in win.T)
    areas = area.tolist()
    runs = []
    lo = 0
    while lo < n:
        bx0, by0, bx1, by1 = wx0[lo], wy0[lo], wx1[lo], wy1[lo]
        budget = areas[lo] + RUN_OVERHEAD_PX
        hi = lo + 1
        while hi < n:
            nx0 = min(bx0, wx0[hi])
            ny0 = min(by0, wy0[hi])
            nx1 = max(bx1, wx1[hi])
            ny1 = max(by1, wy1[hi])
            dense = (hi - lo + 1) * max(nx1 - nx0, 0) * max(ny1 - ny0, 0)
            nbudget = budget + areas[hi] + RUN_OVERHEAD_PX
            if dense > nbudget or dense > max_elems:
                break
            bx0, by0, bx1, by1, budget = nx0, ny0, nx1, ny1, nbudget
            hi += 1
        runs.append((lo, hi, bx0, by0, bx1, by1))
        lo = hi
    return runs


def blend_span(
    state: PixelState,
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    win: np.ndarray,
    area: np.ndarray,
    start: int,
    end: int,
    eps_t: float,
) -> None:
    """Blend order[start:end] into ``state`` front to back, run by run.

    ``win`` and ``area`` are ``clip_windows`` of the whole list, indexed
    by list position.  A run whose slab is all dead (T < eps_t) is not
    evaluated: nothing in it can blend.
    """
    if start >= end:
        return
    x0r, y0r, _, _ = rect
    max_elems = RUN_MAX_BYTES // batch.mean2.dtype.itemsize
    for lo, hi, sx0, sy0, sx1, sy1 in _group_runs(
        win[start:end], area[start:end], max_elems
    ):
        sl = (slice(sy0 - y0r, sy1 - y0r), slice(sx0 - x0r, sx1 - x0r))
        if sx0 < sx1 and sy0 < sy1 and state.T[sl].max() >= eps_t:
            lo, hi = start + lo, start + hi
            _blend_slab(
                state, batch, order[lo:hi], sl, (sx0, sy0, sx1, sy1),
                win[lo:hi], lo, eps_t,
            )


def _blend_slab(
    state: PixelState,
    batch: SplatBatch,
    idx: np.ndarray,
    sl: tuple[slice, slice],
    slab: tuple[int, int, int, int],
    win: np.ndarray,
    lo: int,
    eps_t: float,
) -> None:
    """Blend entries ``idx`` (list positions lo...) as one dense slab.

    Row k of the (g+1, h, w) transmittance slab is T before entry
    lo + k: a running product over rows whose factor is 1 wherever the
    entry does not blend.  A pixel is live before entry lo + k exactly
    while row k is at least eps_t.  T only falls, so the live rows are a
    prefix, and the pixel's final T is the row at its live-row count.
    Color is one sequential reduction over rows, carry first, so every
    pixel sees exactly the additions and products of a one-splat-at-a-time
    blend.
    """
    sx0, sy0, sx1, sy1 = slab
    g = len(idx)
    alpha, _, _ = alpha_patch(batch, idx, sx0, sx1, sy0, sy1)
    dt = alpha.dtype.type
    hit = alpha >= ALPHA_MIN
    if g > 1:
        hit &= window_mask(win, slab)

    w = alpha * hit  # alpha where the entry blends, else 0
    Tacc = np.empty((g + 1,) + alpha.shape[1:], dtype=dt)
    Tacc[0] = state.T[sl]
    np.subtract(dt(1), w, out=Tacc[1:])  # factor 1 where the entry does not blend
    if Tacc[0].size >= 512:  # a strided accumulate costs more than a row loop
        for k in range(g):
            np.multiply(Tacc[k], Tacc[k + 1], out=Tacc[k + 1])
    else:
        np.multiply.accumulate(Tacc, axis=0, out=Tacc)

    if eps_t > 0.0 and Tacc[g].min() < eps_t:
        live = Tacc[:g] >= eps_t
        n_live = np.count_nonzero(live, axis=0)
        w *= live
        state.T[sl] = np.take_along_axis(Tacc, n_live[None], axis=0)[0]
        ended = live[0] & (Tacc[g] < eps_t)  # live on entry, dead after
        state.stop[sl][ended] = lo + n_live[ended]
    else:
        state.T[sl] = Tacc[g]

    Tw = Tacc[:g] * w
    S = np.empty((g + 1, 3) + alpha.shape[1:], dtype=dt)
    S[0] = state.rgb[:, sl[0], sl[1]]
    np.multiply(Tw[:, None], batch.rgb[idx][:, :, None, None], out=S[1:])
    state.rgb[:, sl[0], sl[1]] = np.add.reduce(S, axis=0)


def _merge_partial(
    state: PixelState, part: PixelState, eps_t: float, chunk_end: int
) -> None:
    """Fold one chunk's blend (from T = 1, eps_t = 0) into the running merge state."""
    live = state.T >= eps_t
    w = np.where(live, state.T, state.T.dtype.type(0))
    state.rgb += w * part.rgb
    state.T = np.where(live, state.T * part.T, state.T)
    if eps_t > 0.0:
        state.stop[live & (state.T < eps_t)] = chunk_end


@dataclass
class TileBlend:
    """One tile blended under a RenderConfig schedule."""

    state: PixelState
    counters: EvalCounters
    split: int  # first list position counted pixel-centrically
    occluded: list[int] | None  # pixels with T < eps_t after each chunk


def blend_tile(
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    cfg: RenderConfig,
) -> TileBlend:
    """Blend one tile's depth-sorted list under cfg's schedule.

    K = cfg.z_tiles = 1 is one global sweep.  K > 1 blends K chunks of
    the list prefix from T = 1 with eps_t = 0 and merges them in depth
    order; the occlusion-threshold hybrid stops chunking once more than
    theta of the tile has terminated.  Whatever is left of the list then
    blends on the merged state.  Counting follows from the final state.
    """
    x0, y0, x1, y1 = rect
    h, w = y1 - y0, x1 - x0
    dtype = batch.mean2.dtype
    m = len(order)
    K = cfg.z_tiles
    win, area = clip_windows(batch, order, rect)
    occluded: list[int] | None = [] if cfg.record_occlusion else None

    if cfg.hybrid == "fixed_fraction" and m > 0:
        split: int | None = int(np.ceil((1.0 - cfg.hybrid_fraction) * m))
    elif cfg.hybrid == "occlusion_threshold":
        split = None  # decided by the blend
    else:
        split = m

    state = _fresh_state(h, w, dtype, m)
    if K == 1:
        blend_span(state, batch, order, rect, win, area, 0, m, cfg.eps_t)
        if split is None:
            split = occlusion_switch(area, state.stop, cfg.occlusion_threshold)
        if occluded is not None:
            occluded.append(int(np.count_nonzero(state.T < cfg.eps_t)))
    else:
        theta_px = None if split is not None else cfg.occlusion_threshold * state.T.size
        split = m if split is None else split
        for kk, (lo, hi) in enumerate(_chunk_bounds(split, K)):
            if theta_px is not None and np.count_nonzero(state.T < cfg.eps_t) > theta_px:
                split = lo
                if occluded is not None:
                    # remaining chunk boundaries report the frozen count
                    occ = int(np.count_nonzero(state.T < cfg.eps_t))
                    occluded.extend([occ] * (K - kk))
                break
            part = _fresh_state(h, w, dtype, hi)
            blend_span(part, batch, order, rect, win, area, lo, hi, 0.0)
            _merge_partial(state, part, cfg.eps_t, hi)
            if occluded is not None:
                occluded.append(int(np.count_nonzero(state.T < cfg.eps_t)))
        blend_span(state, batch, order, rect, win, area, split, m, cfg.eps_t)
    # Each pixel's stop is m if it never terminated, the position after
    # its terminating entry, or (terminated in a merge) at most split.
    counters = count_evals(win, area, rect, split, state.stop)
    return TileBlend(state, counters, split, occluded)


def composite_background(state: PixelState, background: np.ndarray) -> np.ndarray:
    """Final (h, w, 3) tile color: accumulated rgb plus remaining T times bg."""
    return (state.rgb + state.T * background[:, None, None]).transpose(1, 2, 0)


def _chunk_bounds(prefix_end: int, k: int) -> list[tuple[int, int]]:
    """K equal-count chunks of [0, prefix_end); the last takes the remainder."""
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
    """Render a scene: preprocess, bin, blend tiles, composite background.

    Tiles are independent; with cfg.threads > 1 they run on a thread
    pool.  Per-tile work and the (tile-order) reduction of stats are
    fixed, so results are bit-identical across thread counts and reruns.
    """
    cfg = cfg if cfg is not None else RenderConfig()
    cfg.validate()
    if want_trace and (cfg.z_tiles != 1 or cfg.hybrid != "off"):
        raise ValueError("gradient tracing requires z_tiles=1 and hybrid='off'")
    dtype = np.dtype(cfg.dtype).type

    batch64, pstats = preprocess(scene, cam)
    binning = bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height))
    batch = batch64 if dtype == np.float64 else batch64.astype(dtype)
    bg = np.asarray(cfg.background, dtype=dtype)

    h, w = cam.height, cam.width
    img = np.zeros((h, w, 3), dtype=dtype)
    t_final = np.ones((h, w), dtype=dtype) if want_trace else None
    stop_img = np.zeros((h, w), dtype=np.int32) if want_trace else None
    K = cfg.z_tiles

    def run_tile(t: int):
        x0, y0, x1, y1 = rect = binning.tile_rect(t)
        tb = blend_tile(batch, binning.lists[t], rect, cfg)
        img[y0:y1, x0:x1] = composite_background(tb.state, bg)
        if want_trace:
            t_final[y0:y1, x0:x1] = tb.state.T
            stop_img[y0:y1, x0:x1] = tb.state.stop
        return tb.counters, tb.split, tb.occluded  # not the state

    n_tiles = binning.n_tiles
    if cfg.threads > 1 and n_tiles > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(run_tile, range(n_tiles)))
    else:
        results = [run_tile(t) for t in range(n_tiles)]

    stats = RenderStats(
        image_w=w,
        image_h=h,
        tile_w=binning.tile_w,
        tile_h=binning.tile_h,
        n_tiles=n_tiles,
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
        splits.append(split)
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
