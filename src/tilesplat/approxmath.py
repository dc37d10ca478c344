"""Divider-free approximation of 1/(1 - alpha) for the training backward pass.

The backward pass walks splats back to front and recovers earlier
transmittance values by dividing the running product by (1 - alpha_i).
A full divider is the expensive part of that datapath, so the modeled
arithmetic splits the domain at alpha = 0.5:

* alpha < 0.5: truncated geometric series 1 + a + a^2 + a^3 + a^4
  (relative error a^5, worst 3.125% just below the switch point);
* alpha in [0.5, 0.99]: two Newton-Raphson iterations x <- x * (2 - d*x)
  on d = 1 - alpha, seeded from an 8-entry lookup table.

The LUT bins are geometric in d so the seed's relative error is balanced
across each bin; two NR iterations raise a seed error e to e^4, keeping
the upper branch below 0.34%.  Opacity activation clamps alpha at 0.99,
so d never drops below 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Branch switch and domain edge expressed in d = 1 - alpha.
_D_SWITCH = 0.5
_D_MIN = 0.01
_N_ENTRIES = 8
_RATIO = (_D_SWITCH / _D_MIN) ** (1.0 / _N_ENTRIES)
_LOG_RATIO = float(np.log(_RATIO))

# Small tolerance so float32-rounded 0.99 (0.99000001...) stays in-domain.
_ALPHA_DOMAIN_MAX = 0.99 + 1e-7


@dataclass(frozen=True)
class RecipLUT:
    """Seed table for the Newton-Raphson branch.

    ``d_edges`` holds the 9 bin edges in d = 1 - alpha, descending from
    0.5 to 0.01; bin j covers d in (d_edges[j+1], d_edges[j]] and its seed
    is the reciprocal of the bin's midpoint in d.
    """

    d_edges: np.ndarray  # (9,) float64, descending
    seeds: np.ndarray  # (8,) float64, strictly increasing


def make_recip_lut() -> RecipLUT:
    d_edges = _D_SWITCH / _RATIO ** np.arange(_N_ENTRIES + 1, dtype=np.float64)
    seeds = 2.0 / (d_edges[:-1] + d_edges[1:])
    d_edges.setflags(write=False)
    seeds.setflags(write=False)
    return RecipLUT(d_edges=d_edges, seeds=seeds)


DEFAULT_LUT = make_recip_lut()


def _lut_index(d: np.ndarray) -> np.ndarray:
    # floor(log(0.5/d) / log(ratio)), clipped into the table.
    j = np.floor(np.log(_D_SWITCH / d) / _LOG_RATIO)
    return np.clip(j, 0, _N_ENTRIES - 1).astype(np.intp)


def recip_one_minus(alpha, mode: str = "approx"):
    """Return an approximation of 1 / (1 - alpha).

    ``alpha`` may be a scalar or an array; values must lie in [0, 0.99]
    (the opacity clamp guarantees this upstream).  ``mode`` selects
    "approx" (Taylor/LUT+NR hybrid above) or "exact" (true division).
    Computation stays in the input floating dtype.
    """
    if mode not in ("approx", "exact"):
        raise ValueError(f"unknown reciprocal mode: {mode!r}")
    a = np.asarray(alpha)
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)
    if a.size and (float(a.min()) < 0.0 or float(a.max()) > _ALPHA_DOMAIN_MAX):
        raise ValueError("alpha outside [0, 0.99] in recip_one_minus")
    d = 1.0 - a
    if mode == "exact":
        out = 1.0 / d
    else:
        # Horner form of 1 + a + a^2 + a^3 + a^4.
        taylor = 1.0 + a * (1.0 + a * (1.0 + a * (1.0 + a)))
        # NR branch evaluated everywhere, selected below; d >= 0.01 where used.
        with np.errstate(divide="ignore"):
            j = _lut_index(np.maximum(d, _D_MIN * 0.5))
        x = DEFAULT_LUT.seeds[j].astype(a.dtype, copy=False)
        dd = d.astype(a.dtype, copy=False)
        x = x * (2.0 - dd * x)
        x = x * (2.0 - dd * x)
        out = np.where(a < _D_SWITCH, taylor, x)
    if np.isscalar(alpha) or np.ndim(alpha) == 0:
        return float(out)
    return out
