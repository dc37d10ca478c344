"""Real spherical harmonics up to degree 3 for view-dependent color.

Basis ordering and constants follow the usual splatting convention:
band l occupies indices l^2 .. l^2 + 2l, with the degree-1 band ordered
(-y, z, -x).  Colors are evaluated as 0.5 + sum(c_k * Y_k) and clamped
at zero from below.
"""

from __future__ import annotations

import numpy as np

SH_C0 = 0.28209479177387814
SH_C1 = 0.4886025119029199
SH_C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
SH_C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)


def coeff_count(degree: int) -> int:
    if degree not in (0, 1, 2, 3):
        raise ValueError(f"degree must be in 0..3, got {degree}")
    return (degree + 1) ** 2


def sh_basis(dirs: np.ndarray, degree: int) -> np.ndarray:
    """Basis values Y_k(dir) for unit directions; returns (..., (degree+1)^2)."""
    k = coeff_count(degree)
    dirs = np.asarray(dirs, dtype=np.float64)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    B = np.empty(dirs.shape[:-1] + (k,), dtype=np.float64)
    B[..., 0] = SH_C0
    if degree >= 1:
        B[..., 1] = -SH_C1 * y
        B[..., 2] = SH_C1 * z
        B[..., 3] = -SH_C1 * x
    if degree >= 2:
        xx, yy, zz = x * x, y * y, z * z
        B[..., 4] = SH_C2[0] * x * y
        B[..., 5] = SH_C2[1] * y * z
        B[..., 6] = SH_C2[2] * (2.0 * zz - xx - yy)
        B[..., 7] = SH_C2[3] * x * z
        B[..., 8] = SH_C2[4] * (xx - yy)
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        B[..., 9] = SH_C3[0] * y * (3.0 * xx - yy)
        B[..., 10] = SH_C3[1] * x * y * z
        B[..., 11] = SH_C3[2] * y * (4.0 * zz - xx - yy)
        B[..., 12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy)
        B[..., 13] = SH_C3[4] * x * (4.0 * zz - xx - yy)
        B[..., 14] = SH_C3[5] * z * (xx - yy)
        B[..., 15] = SH_C3[6] * x * (xx - 3.0 * yy)
    return B


def sh_basis_grad(dirs: np.ndarray, degree: int) -> np.ndarray:
    """d Y_k / d dir at unit directions; returns (..., (degree+1)^2, 3)."""
    k = coeff_count(degree)
    dirs = np.asarray(dirs, dtype=np.float64)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    G = np.zeros(dirs.shape[:-1] + (k, 3), dtype=np.float64)
    if degree >= 1:
        G[..., 1, 1] = -SH_C1
        G[..., 2, 2] = SH_C1
        G[..., 3, 0] = -SH_C1
    if degree >= 2:
        G[..., 4, 0] = SH_C2[0] * y
        G[..., 4, 1] = SH_C2[0] * x
        G[..., 5, 1] = SH_C2[1] * z
        G[..., 5, 2] = SH_C2[1] * y
        G[..., 6, 0] = SH_C2[2] * -2.0 * x
        G[..., 6, 1] = SH_C2[2] * -2.0 * y
        G[..., 6, 2] = SH_C2[2] * 4.0 * z
        G[..., 7, 0] = SH_C2[3] * z
        G[..., 7, 2] = SH_C2[3] * x
        G[..., 8, 0] = SH_C2[4] * 2.0 * x
        G[..., 8, 1] = SH_C2[4] * -2.0 * y
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        G[..., 9, 0] = SH_C3[0] * 6.0 * x * y
        G[..., 9, 1] = SH_C3[0] * (3.0 * xx - 3.0 * yy)
        G[..., 10, 0] = SH_C3[1] * y * z
        G[..., 10, 1] = SH_C3[1] * x * z
        G[..., 10, 2] = SH_C3[1] * x * y
        G[..., 11, 0] = SH_C3[2] * -2.0 * x * y
        G[..., 11, 1] = SH_C3[2] * (4.0 * zz - xx - 3.0 * yy)
        G[..., 11, 2] = SH_C3[2] * 8.0 * y * z
        G[..., 12, 0] = SH_C3[3] * -6.0 * x * z
        G[..., 12, 1] = SH_C3[3] * -6.0 * y * z
        G[..., 12, 2] = SH_C3[3] * (6.0 * zz - 3.0 * xx - 3.0 * yy)
        G[..., 13, 0] = SH_C3[4] * (4.0 * zz - 3.0 * xx - yy)
        G[..., 13, 1] = SH_C3[4] * -2.0 * x * y
        G[..., 13, 2] = SH_C3[4] * 8.0 * x * z
        G[..., 14, 0] = SH_C3[5] * 2.0 * x * z
        G[..., 14, 1] = SH_C3[5] * -2.0 * y * z
        G[..., 14, 2] = SH_C3[5] * (xx - yy)
        G[..., 15, 0] = SH_C3[6] * (3.0 * xx - 3.0 * yy)
        G[..., 15, 1] = SH_C3[6] * -6.0 * x * y
    return G


def eval_sh_batch(coeffs: np.ndarray, dirs: np.ndarray, degree: int):
    """RGB = max(0, 0.5 + sum_k coeffs[k] * Y_k(dir)) per row.

    ``coeffs`` is (n, k, 3) with k = (degree+1)^2 exactly; a mismatched
    coefficient count is an error.  ``dirs`` is (n, 3), unit length.
    Returns (rgb, clamped) where ``clamped`` marks channels whose
    pre-clamp value went negative (their gradient is zero).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k = coeff_count(degree)
    if coeffs.shape[-2] != k:
        raise ValueError(
            f"degree {degree} needs {k} coefficients, got {coeffs.shape[-2]}"
        )
    B = sh_basis(dirs, degree)  # (n, k)
    raw = 0.5 + np.einsum("nk,nkc->nc", B, coeffs)
    clamped = raw < 0.0
    return np.maximum(raw, 0.0), clamped
