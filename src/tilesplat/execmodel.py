"""Workload counters and hardware-oriented what-if models.

Nothing here changes rendered pixels.  The renderer fills in counters
(invocations, candidate/performed/skipped alpha evaluations,
chunk-level occlusion counts); the alpha-evaluation counts come from
each tile's windows, its pixels' stop positions after blending and the
list position where the renderer switched it to pixel-centric
(``count_evals``).  The functions below turn them into the analyses a
hardware study needs: tile-size sweeps, occlusion growth curves,
shared-memory bank conflict counts, and the evaluation savings of the
hybrid dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preprocess import SplatBatch, bin_and_sort


@dataclass
class EvalCounters:
    """Alpha-evaluation accounting for one blend pass.

    candidates counts every (splat, pixel in AABB-and-tile) pairing.
    Gaussian-centric traversal performs all of them, terminated pixels
    included; pixel-centric traversal performs only live pixels and
    counts the remainder as skipped.  ``count_evals`` applies this rule
    to a blended tile.
    """

    candidates: int = 0
    performed: int = 0
    skipped: int = 0

    def merge(self, other: "EvalCounters") -> None:
        self.candidates += other.candidates
        self.performed += other.performed
        self.skipped += other.skipped


def count_evals(
    win: np.ndarray,
    area: np.ndarray,
    rect: tuple[int, int, int, int],
    switch: int,
    until: np.ndarray,
) -> EvalCounters:
    """Counters of a tile list blended front to back, pixel-centric from ``switch``.

    ``win`` and ``area`` are the list's clipped windows and their areas
    (``forward.clip_windows``), indexed by list position.  A pixel is
    live before list position p exactly when p < ``until[pixel]``:
    ``until`` is the pixel's stop if it terminated in the list, the list
    length if it never did, and 0 if it was dead before the list began.
    Entries before ``switch`` perform their whole window; later ones
    skip the window pixels that are dead before them.  That takes one
    summed-area table per distinct death position past ``switch``, never
    an (entries, pixels) mask.
    """
    n = len(area)
    candidates = int(area.sum())
    first = max(switch, int(until.min()))  # no pixel is dead before until.min()
    if first >= n:
        return EvalCounters(candidates, candidates, 0)
    skipped = 0
    x0, y0, _, _ = rect
    h, w = until.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)  # summed-area table
    # between consecutive death positions the set of dead pixels stays the same
    cuts = np.unique(until[(until > first) & (until < n)]).tolist()
    for lo, hi in zip([first] + cuts, cuts + [n]):
        dead = until <= lo
        if dead.all():
            skipped += int(area[lo:hi].sum())
            continue
        np.cumsum(np.cumsum(dead, axis=0), axis=1, out=sat[1:, 1:])
        wx0, wy0, wx1, wy1 = (win[lo:hi] - (x0, y0, x0, y0)).T
        sums = sat[wy1, wx1] - sat[wy0, wx1] - sat[wy1, wx0] + sat[wy0, wx0]
        skipped += int(sums[area[lo:hi] > 0].sum())
    return EvalCounters(candidates, candidates - skipped, skipped)


@dataclass
class OcclusionTrace:
    """Pixels occluded (T_in below eps_t) after each merged depth chunk."""

    n_chunks: int
    occluded_after_chunk: np.ndarray  # (n_chunks,) int64, summed over tiles
    total_pixels: int


@dataclass
class RenderStats:
    image_w: int = 0
    image_h: int = 0
    tile_w: int = 0
    tile_h: int = 0
    n_tiles: int = 0
    n_input: int = 0
    culled_near: int = 0
    culled_degenerate: int = 0
    culled_offscreen: int = 0
    n_splats: int = 0
    invocations: int = 0  # sum of per-tile list lengths
    counters: EvalCounters = field(default_factory=EvalCounters)
    hybrid_splits: list[int] | None = None  # per-tile first pixel-centric position
    occlusion: OcclusionTrace | None = None

    def to_text(self) -> str:
        lines = [
            f"image_size {self.image_w}x{self.image_h}",
            f"tile_size {self.tile_w}x{self.tile_h}",
            f"n_tiles {self.n_tiles}",
            f"gaussians_in {self.n_input}",
            f"culled_near {self.culled_near}",
            f"culled_degenerate {self.culled_degenerate}",
            f"culled_offscreen {self.culled_offscreen}",
            f"splats_rendered {self.n_splats}",
            f"invocations {self.invocations}",
            f"alpha_candidates {self.counters.candidates}",
            f"alpha_performed {self.counters.performed}",
            f"alpha_skipped {self.counters.skipped}",
        ]
        if self.hybrid_splits is not None:
            lines.append(
                "hybrid_splits " + ",".join(str(s) for s in self.hybrid_splits)
            )
        if self.occlusion is not None:
            occ = self.occlusion
            fracs = occ.occluded_after_chunk / max(occ.total_pixels, 1)
            lines.append(
                "occluded_after_chunk "
                + ",".join(f"{f:.6f}" for f in fracs)
            )
        return "\n".join(lines)


@dataclass
class TrainStats:
    loss: float = 0.0
    accum_ops: int = 0  # per-splat partial folds into the main accumulator
    drain_events: int = 0  # 16-splat offload batches
    time_forward: float = 0.0
    time_backward: float = 0.0
    time_optimizer: float = 0.0

    def to_text(self) -> str:
        lines = [
            f"loss {self.loss:.8f}",
            f"accum_ops {self.accum_ops}",
            f"drain_events {self.drain_events}",
            f"time_forward {self.time_forward:.4f}",
            f"time_backward {self.time_backward:.4f}",
            f"time_optimizer {self.time_optimizer:.4f}",
        ]
        return "\n".join(lines)


def occlusion_curve(trace: OcclusionTrace) -> list[tuple[float, float]]:
    """Points (chunk fraction, occluded pixel fraction) from a chunked render.

    The occluded fraction is non-decreasing because transmittance only
    falls; once a pixel drops below eps_t it stays below.
    """
    if trace.n_chunks <= 0:
        raise ValueError("trace has no chunks")
    total = max(trace.total_pixels, 1)
    return [
        ((k + 1) / trace.n_chunks, int(trace.occluded_after_chunk[k]) / total)
        for k in range(trace.n_chunks)
    ]


@dataclass(frozen=True)
class BankModel:
    """Shared-buffer bank assignment for pixel writes.

    The write buffer is split into ``banks`` banks.  The skewed layout
    hashes both pixel coordinates, bank = (x + y) mod banks, so a
    vertical run of pixels spreads across banks; the unskewed layout
    uses bank = x mod banks and serializes column-aligned writes.
    """

    banks: int = 16
    skewed: bool = True

    def bank_of(self, x, y):
        if self.skewed:
            return (np.asarray(x) + np.asarray(y)) % self.banks
        return np.asarray(x) % self.banks

    def conflicts(self, group: np.ndarray) -> int:
        """Extra cycles for one simultaneous write group of (x, y) pixels.

        Each bank serves one write per cycle; a bank hit k times costs
        k - 1 extra cycles.
        """
        group = np.asarray(group)
        if group.size == 0:
            return 0
        if group.ndim != 2 or group.shape[1] != 2:
            raise ValueError("group must be (g, 2) pixel coordinates")
        if group.shape[0] > self.banks:
            raise ValueError(
                f"group of {group.shape[0]} exceeds {self.banks} write lanes"
            )
        banks = self.bank_of(group[:, 0], group[:, 1])
        counts = np.bincount(banks, minlength=self.banks)
        return int(np.maximum(counts - 1, 0).sum())


def bank_conflicts(groups: list[np.ndarray], model: BankModel) -> np.ndarray:
    """Conflict count per write group."""
    return np.array([model.conflicts(g) for g in groups], dtype=np.int64)


def tile_sweep(
    batch: SplatBatch,
    image_size: tuple[int, int],
    sizes: tuple[int, ...] = (16, 32, 64, 128),
) -> list[tuple[int, int]]:
    """Total Gaussian invocations (splat-tile pairings) per square tile size.

    Counts come straight from binning the same splat set at each size.
    For the default doubling sizes the grids nest, so per-splat tile
    counts (and the total) are non-increasing as tiles grow.
    """
    out = []
    for s in sizes:
        binning = bin_and_sort(batch, (s, s), image_size)
        out.append((int(s), binning.total_invocations))
    return out


def sweep_reduction(sweep: list[tuple[int, int]], from_size: int, to_size: int) -> float:
    """Fractional invocation reduction between two sizes of a sweep."""
    by_size = dict(sweep)
    a, b = by_size[from_size], by_size[to_size]
    if a == 0:
        return 0.0
    return (a - b) / a


def hybrid_savings(pure: RenderStats, hybrid: RenderStats) -> tuple[int, float]:
    """Alpha evaluations saved by the hybrid schedule versus pure Gaussian-centric.

    Both stats must come from the same scene, camera, and tiling, which
    is checked via the candidate counts (those are schedule-invariant).
    Returns (saved evaluations, saved fraction of the pure count).
    """
    if pure.counters.candidates != hybrid.counters.candidates:
        raise ValueError(
            "mismatched renders: candidate counts differ "
            f"({pure.counters.candidates} vs {hybrid.counters.candidates})"
        )
    saved = pure.counters.performed - hybrid.counters.performed
    frac = saved / pure.counters.performed if pure.counters.performed else 0.0
    return int(saved), float(frac)
