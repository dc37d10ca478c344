"""Reference blend: one splat at a time over its clipped AABB window.

This is the per-splat loop that ``tilesplat.forward``'s batched
kernels replaced, kept as a test oracle.  It walks each
tile's depth-sorted list front to back, evaluates alpha with scalar
conic coefficients over the splat's own window, blends that window in
place and counts its work as it goes.  The schedules (global sweep, z-chunks with merge, fixed
fraction and occlusion-threshold hybrids) are spelled out as separate
branches.  Tests require the kernel to reproduce these pixels and counters
exactly (``np.array_equal``, not a tolerance).

Color is held interleaved, (h, w, 3); ``planar`` converts it to the
kernel's (3, h, w) layout for comparison.

``block_lists`` is the per-pair expansion that ``BlockGroup`` once ran
over whole groups: every (entry, block) pair expanded at once, its
float64 splat parameters gathered per pair, the pruning bound
evaluated over all of them and the kept pairs stable-sorted by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from tilesplat.execmodel import EvalCounters, OcclusionTrace, RenderStats
from tilesplat.forward import ALPHA_MAX, ALPHA_MIN, RenderConfig, _block_side, _chunk_bounds
from tilesplat.preprocess import SplatBatch, bin_and_sort, preprocess

from tile_kernel import tile_lists


@dataclass
class State:
    rgb: np.ndarray  # (h, w, 3)
    T: np.ndarray
    terminated: np.ndarray  # its own record; the kernel's T < eps_t must match it
    stop: np.ndarray

    def planar(self) -> "State":
        return State(self.rgb.transpose(2, 0, 1), self.T, self.terminated, self.stop)


def fresh_state(h: int, w: int, dtype, end_pos: int) -> State:
    return State(
        rgb=np.zeros((h, w, 3), dtype=dtype),
        T=np.ones((h, w), dtype=dtype),
        terminated=np.zeros((h, w), dtype=bool),
        stop=np.full((h, w), end_pos, dtype=np.int32),
    )


def alpha_window(batch: SplatBatch, i: int, x0: int, x1: int, y0: int, y1: int):
    """Alpha of splat i over a pixel rectangle, in the batch dtype."""
    dt = batch.mean2.dtype
    half = dt.type(0.5)
    dx = np.arange(x0, x1).astype(dt) + half - batch.mean2[i, 0]  # (w,)
    dy = np.arange(y0, y1).astype(dt) + half - batch.mean2[i, 1]  # (h,)
    a, b, c = batch.conic[i]
    q = (
        a * dx[None, :] ** 2
        + 2 * b * dy[:, None] * dx[None, :]
        + c * dy[:, None] ** 2
    )
    q = np.maximum(q, dt.type(0))
    return np.minimum(batch.opacity[i] * np.exp(-half * q), dt.type(ALPHA_MAX))


def sweep(
    state: State,
    batch: SplatBatch,
    order: np.ndarray,
    rect: tuple[int, int, int, int],
    start: int,
    end: int,
    *,
    eps_t: float,
    pixel_centric: bool,
    counters: EvalCounters,
    theta: float | None = None,
) -> int:
    """Blend order[start:end] into state one splat at a time.

    Returns ``end``, or the position after the splat at which more than
    theta of the tile's pixels had terminated when ``theta`` is set.
    """
    x0r, y0r, x1r, y1r = rect
    n_pix = state.T.size
    for k in range(start, end):
        i = int(order[k])
        bx0, by0, bx1, by1 = batch.aabb[i]
        ix0 = max(int(bx0), x0r)
        ix1 = min(int(bx1), x1r)
        iy0 = max(int(by0), y0r)
        iy1 = min(int(by1), y1r)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        sl = (slice(iy0 - y0r, iy1 - y0r), slice(ix0 - x0r, ix1 - x0r))
        alpha = alpha_window(batch, i, ix0, ix1, iy0, iy1)
        live = ~state.terminated[sl]
        npx = alpha.size
        counters.candidates += npx
        if pixel_centric:
            nlive = int(np.count_nonzero(live))
            counters.performed += nlive
            counters.skipped += npx - nlive
        else:
            counters.performed += npx
        contrib = live & (alpha >= ALPHA_MIN)
        w = np.where(contrib, alpha, alpha.dtype.type(0))
        Tl = state.T[sl]
        state.rgb[sl] += (Tl * w)[..., None] * batch.rgb[i]
        Tnew = np.where(contrib, Tl * (1 - alpha), Tl)
        state.T[sl] = Tnew
        if eps_t > 0.0:
            newly = live & (Tnew < eps_t)
            if newly.any():
                stop_sl = state.stop[sl]
                stop_sl[newly] = k + 1
                state.terminated[sl] |= newly
        if theta is not None and np.count_nonzero(state.terminated) > theta * n_pix:
            return k + 1
    return end


def occlusion_switch(area: np.ndarray, until: np.ndarray, theta: float) -> int:
    """Where the occlusion-threshold hybrid turns pixel-centric on one tile.

    That is the position after the first entry with a non-empty window
    after which more than ``theta`` of the tile's pixels have terminated
    (pixels with ``until`` at or before the next position), or the list
    length if there is none.  Switching after the last entry changes
    nothing, so the last entry is not tested.
    """
    n = len(area)
    ended = np.cumsum(np.bincount(until.ravel(), minlength=n + 1))
    over = (ended[1:n] > theta * until.size) & (area[: n - 1] > 0)
    return int(over.argmax()) + 1 if over.any() else n


def merge_partial(state: State, part: State, eps_t: float, chunk_end: int) -> None:
    live = ~state.terminated
    w = np.where(live, state.T, state.T.dtype.type(0))
    state.rgb += w[..., None] * part.rgb
    state.T = np.where(live, state.T * part.T, state.T)
    if eps_t > 0.0:
        newly = live & (state.T < eps_t)
        if newly.any():
            state.stop[newly] = chunk_end
            state.terminated |= newly


def blend_tile(batch: SplatBatch, order: np.ndarray, rect, cfg: RenderConfig):
    """One tile under cfg's schedule: (state, counters, split, occluded)."""
    x0, y0, x1, y1 = rect
    h, w = y1 - y0, x1 - x0
    dtype = batch.mean2.dtype
    m = len(order)
    K = cfg.z_tiles
    eps_t = cfg.eps_t
    counters = EvalCounters()
    occluded = None

    if cfg.hybrid == "fixed_fraction" and m > 0:
        split = int(np.ceil((1.0 - cfg.hybrid_fraction) * m))
    elif cfg.hybrid == "occlusion_threshold":
        split = None
    else:
        split = m

    state = fresh_state(h, w, dtype, m)
    if K == 1:
        if split is None:
            switch = sweep(
                state, batch, order, rect, 0, m, eps_t=eps_t, pixel_centric=False,
                counters=counters, theta=cfg.occlusion_threshold,
            )
            sweep(
                state, batch, order, rect, switch, m, eps_t=eps_t,
                pixel_centric=True, counters=counters,
            )
            split_used = switch
        else:
            sweep(
                state, batch, order, rect, 0, split, eps_t=eps_t,
                pixel_centric=False, counters=counters,
            )
            if split < m:
                sweep(
                    state, batch, order, rect, split, m, eps_t=eps_t,
                    pixel_centric=True, counters=counters,
                )
            split_used = split
        if cfg.record_occlusion:
            occluded = [int(np.count_nonzero(state.T < eps_t))]
    else:
        prefix_end = m if split is None else split
        occluded = [] if cfg.record_occlusion else None
        switch_pos = prefix_end
        for kk, (lo, hi) in enumerate(_chunk_bounds(prefix_end, K)):
            if split is None and np.count_nonzero(state.terminated) > (
                cfg.occlusion_threshold * state.T.size
            ):
                switch_pos = lo
                if occluded is not None:
                    occ = int(np.count_nonzero(state.T < eps_t))
                    occluded.extend([occ] * (K - kk))
                break
            part = fresh_state(h, w, dtype, hi)
            sweep(
                part, batch, order, rect, lo, hi, eps_t=0.0, pixel_centric=False,
                counters=counters,
            )
            merge_partial(state, part, eps_t, hi)
            if occluded is not None:
                occluded.append(int(np.count_nonzero(state.T < eps_t)))
        if switch_pos < m:
            sweep(
                state, batch, order, rect, switch_pos, m, eps_t=eps_t,
                pixel_centric=True, counters=counters,
            )
        split_used = switch_pos if split is None else split
    return state, counters, split_used, occluded


def render(scene, cam, cfg: RenderConfig):
    """Whole-image oracle render: (image, stats, t_final, stop)."""
    cfg.validate()
    dtype = np.dtype(cfg.dtype).type
    batch64, pstats = preprocess(scene, cam)
    binning = bin_and_sort(batch64, cfg.tile_size, (cam.width, cam.height))
    batch = batch64 if dtype == np.float64 else batch64.astype(dtype)
    bg = np.asarray(cfg.background, dtype=dtype)
    h, w = cam.height, cam.width
    img = np.zeros((h, w, 3), dtype=dtype)
    t_final = np.ones((h, w), dtype=dtype)
    stop = np.zeros((h, w), dtype=np.int32)
    stats = RenderStats(
        image_w=w, image_h=h, tile_w=binning.tile_w, tile_h=binning.tile_h,
        n_tiles=binning.n_tiles, n_input=pstats.n_input,
        culled_near=pstats.culled_near, culled_degenerate=pstats.culled_degenerate,
        culled_offscreen=pstats.culled_offscreen, n_splats=batch.n,
        invocations=binning.total_invocations,
    )
    occl_total = np.zeros(cfg.z_tiles, dtype=np.int64) if cfg.record_occlusion else None
    splits = []
    for order, rect in zip(tile_lists(binning), binning.rects().tolist()):
        x0, y0, x1, y1 = rect
        state, counters, split, occluded = blend_tile(batch, order, rect, cfg)
        img[y0:y1, x0:x1] = state.rgb + state.T[..., None] * bg
        t_final[y0:y1, x0:x1] = state.T
        stop[y0:y1, x0:x1] = state.stop
        for f in ("candidates", "performed", "skipped"):
            setattr(stats.counters, f, getattr(stats.counters, f) + getattr(counters, f))
        splits.append(split)
        if occl_total is not None:
            occl_total += np.asarray(occluded, dtype=np.int64)
    if cfg.hybrid != "off":
        stats.hybrid_splits = splits
    if occl_total is not None:
        stats.occlusion = OcclusionTrace(
            n_chunks=cfg.z_tiles, occluded_after_chunk=occl_total,
            total_pixels=w * h,
        )
    return img, stats, t_final, stop


def can_blend(splat: np.ndarray, rect) -> np.ndarray:
    """Mask of the (6, n) float64 splats (mean, conic, opacity) whose alpha
    can reach ALPHA_MIN at a pixel centre of their rect (x0, y0, x1, y1):
    q's least value over the rect, at the mean or on one of its four
    edges, against 2 ln(255 opacity) plus a rounding margin."""
    mx, my, a, b, c, opacity = splat
    x0, y0, x1, y1 = rect
    lx, ly = x0 + 0.5 - mx, y0 + 0.5 - my
    hx, hy = x1 - 0.5 - mx, y1 - 0.5 - my
    q = np.where((lx <= 0) & (hx >= 0) & (ly <= 0) & (hy >= 0), 0.0, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for dx in lx, hx:  # left and right edges, dy free
            dy = np.clip(-b / c * dx, ly, hy)
            q = np.minimum(q, (a * dx + 2 * b * dy) * dx + c * dy * dy)
        for dy in ly, hy:  # top and bottom edges, dx free
            dx = np.clip(-b / a * dy, lx, hx)
            q = np.minimum(q, (a * dx + 2 * b * dy) * dx + c * dy * dy)
    reach2 = np.maximum(-lx, hx) ** 2 + np.maximum(-ly, hy) ** 2
    margin = 1e-3 + 1e-5 * (np.abs(a) + 2 * np.abs(b) + np.abs(c)) * reach2
    with np.errstate(divide="ignore"):
        limit = 2.0 * np.log(opacity / ALPHA_MIN) + margin
    return ~(q > limit)  # NaN keeps


def block_lists(table, tiles: range, side: int) -> SimpleNamespace:
    """The block lists of tiles ``tiles`` of a ``SplatTable`` cut into blocks of
    at most ``side`` px: ``entry``, ``lwin``, ``pos``, ``_key`` and ``aabb_pairs``
    as ``BlockGroup`` holds them.

    Every entry is expanded into the blocks its window meets, pair by pair
    in entry order; a pair is kept where ``can_blend`` holds over the window
    cut to the block, and the kept pairs are ordered by block, then entry.
    """
    tw, th = table.tile_size
    bh, bw = _block_side(th, side), _block_side(tw, side)
    nby, nbx = -(-th // bh), -(-tw // bw)
    x0, y0 = table.rects[tiles.start : tiles.stop, :2].T.astype(np.int64)
    offsets = table.offsets[tiles.start : tiles.stop + 1]
    es = slice(offsets[0], offsets[-1])
    m = np.diff(offsets)
    etile = np.repeat(np.arange(len(m)), m)
    win, area = table.win[es].astype(np.int64), table.area[es]
    splat = table.order[es]

    ex0, ey0 = x0[etile], y0[etile]
    c0, r0 = (win[:, 0] - ex0) // bw, (win[:, 1] - ey0) // bh
    span_c = -(-(win[:, 2] - ex0) // bw) - c0
    span_r = -(-(win[:, 3] - ey0) // bh) - r0
    count = np.where(area > 0, span_c * span_r, 0)
    e = np.repeat(np.arange(len(splat)), count)
    k = np.arange(len(e)) - np.repeat(np.cumsum(count) - count, count)
    dr, dc = np.divmod(k, span_c[e])
    blk = (etile * (nby * nbx) + r0 * nbx + c0)[e] + dr * nbx + dc
    ox, oy = (ex0 + c0 * bw)[e] + dc * bw, (ey0 + r0 * bh)[e] + dr * bh
    rect = (
        np.maximum(win[e, 0], ox), np.maximum(win[e, 1], oy),
        np.minimum(win[e, 2], ox + bw), np.minimum(win[e, 3], oy + bh),
    )
    splat64 = table.params[:, :6].T.astype(np.float64)
    keep = np.flatnonzero(can_blend(splat64[:, splat[e]], rect))
    keep = keep[np.argsort(blk[keep], kind="stable")]
    lwin = np.stack([r[keep] - o[keep] for r, o in zip(rect, (ox, oy, ox, oy))], axis=1)
    pos = (np.arange(len(splat)) - (offsets - offsets[0])[etile])[e[keep]]
    stride = int(m.max(initial=0)) + 1
    return SimpleNamespace(
        entry=e[keep], lwin=lwin, pos=pos, _key=blk[keep] * stride + pos, aabb_pairs=len(e),
    )
