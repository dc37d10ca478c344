"""Central finite differences of a loss along seeded single-Gaussian directions.

A direction perturbs every raw parameter of one Gaussian.  Before it is
used, a probe compares the one-sided slopes on either side of the point:
where they differ by more than the tolerance allows, the loss has a kink
or a jump within the step (a Gaussian's AABB edge crossing a pixel, an
alpha crossing 1/255, an L1 residual changing sign), a central difference
there says nothing about the gradient, and the direction is redrawn.
"""

from __future__ import annotations

import numpy as np


def agrees(analytic: float, fd: float, rtol: float) -> bool:
    return abs(analytic - fd) <= rtol * max(abs(analytic), abs(fd))


def smooth(slope_minus: float, slope_plus: float, rtol: float) -> bool:
    """One-sided slopes close enough that a kink cannot bias the centre by rtol."""
    return abs(slope_plus - slope_minus) <= 0.5 * rtol * (abs(slope_plus) + abs(slope_minus))


def directional_checks(loss, params, grads, rng, *, n_dirs=3, h=1e-6, rtol=1e-4, max_draws=12):
    """(analytic, finite-difference) derivative pairs along smooth directions.

    ``loss`` maps a dict of parameter arrays (one row per Gaussian) to a
    float; ``grads`` holds the analytic gradient under the same keys.
    Gaussians are drawn from the quarter with the largest gradient, so
    every derivative is well above rounding noise.  Returns fewer than
    ``n_dirs`` pairs only if ``max_draws`` draws found no smooth ones.
    """
    norm = np.sqrt(sum((g.reshape(len(g), -1) ** 2).sum(axis=1) for g in grads.values()))
    top = np.argsort(norm)[-max(1, len(norm) // 4) :]
    base = loss(params)
    pairs = []
    for _ in range(max_draws):
        row = int(rng.choice(top))
        d = {k: np.zeros_like(v) for k, v in params.items()}
        for k in d:
            d[k][row] = rng.normal(size=d[k][row].shape)
        scale = np.sqrt(sum(float((v * v).sum()) for v in d.values()))
        d = {k: v / scale for k, v in d.items()}
        plus = loss({k: params[k] + h * d[k] for k in params})
        minus = loss({k: params[k] - h * d[k] for k in params})
        if not smooth((base - minus) / h, (plus - base) / h, rtol):
            continue
        analytic = sum(float((grads[k] * d[k]).sum()) for k in params)
        pairs.append((analytic, (plus - minus) / (2 * h)))
        if len(pairs) == n_dirs:
            break
    return pairs
