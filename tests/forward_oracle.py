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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tilesplat.execmodel import EvalCounters, OcclusionTrace, RenderStats
from tilesplat.forward import ALPHA_MAX, ALPHA_MIN, RenderConfig, _chunk_bounds
from tilesplat.preprocess import SplatBatch, bin_and_sort, preprocess


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
        per_tile_lengths=[len(l) for l in binning.lists],
        invocations=binning.total_invocations,
    )
    occl_total = np.zeros(cfg.z_tiles, dtype=np.int64) if cfg.record_occlusion else None
    splits = []
    for t in range(binning.n_tiles):
        rect = binning.tile_rect(t)
        x0, y0, x1, y1 = rect
        state, counters, split, occluded = blend_tile(
            batch, binning.lists[t], rect, cfg
        )
        img[y0:y1, x0:x1] = state.rgb + state.T[..., None] * bg
        t_final[y0:y1, x0:x1] = state.T
        stop[y0:y1, x0:x1] = state.stop
        stats.counters.merge(counters)
        splits.append(split)
        if occl_total is not None:
            occl_total += np.asarray(occluded, dtype=np.int64)
    if cfg.hybrid != "off":
        stats.hybrid_splits = splits
    if occl_total is not None:
        stats.occlusion = OcclusionTrace(
            n_chunks=cfg.z_tiles, occluded_after_chunk=occl_total,
            total_pixels=w * h, eps_t=cfg.eps_t,
        )
    return img, stats, t_final, stop
