"""Spherical-harmonic basis, gradients, and color evaluation."""

import numpy as np
import pytest

from tilesplat.sh import (
    SH_C0,
    SH_C1,
    SH_C2,
    SH_C3,
    coeff_count,
    eval_sh_batch,
    sh_basis,
    sh_basis_grad,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_constants_match_closed_forms():
    assert SH_C0 == pytest.approx(0.5 / np.sqrt(np.pi), rel=1e-15)
    assert SH_C1 == pytest.approx(np.sqrt(3.0 / np.pi) / 2.0, rel=1e-15)
    assert SH_C2[0] == pytest.approx(np.sqrt(15.0 / np.pi) / 2.0, rel=1e-15)
    assert SH_C2[2] == pytest.approx(np.sqrt(5.0 / np.pi) / 4.0, rel=1e-15)
    assert SH_C3[3] == pytest.approx(np.sqrt(7.0 / np.pi) / 4.0, rel=1e-15)


def test_coeff_count():
    assert [coeff_count(d) for d in range(4)] == [1, 4, 9, 16]
    with pytest.raises(ValueError):
        coeff_count(4)


def test_basis_at_axis_directions():
    # only the l^2 + l (m = 0 like) terms survive on the +z axis
    b = sh_basis(Z, 3)
    want = np.zeros(16)
    want[0] = SH_C0
    want[2] = SH_C1
    want[6] = 2.0 * SH_C2[2]
    want[12] = 2.0 * SH_C3[3]
    np.testing.assert_allclose(b, want, atol=1e-15)

    b = sh_basis(X, 2)
    want = np.zeros(9)
    want[0] = SH_C0
    want[3] = -SH_C1
    want[6] = -SH_C2[2]
    want[8] = SH_C2[4]
    np.testing.assert_allclose(b, want, atol=1e-15)

    b = sh_basis(Y, 1)
    np.testing.assert_allclose(b, [SH_C0, -SH_C1, 0.0, 0.0], atol=1e-15)


def test_basis_shapes():
    dirs = np.zeros((5, 7, 3))
    dirs[..., 2] = 1.0
    assert sh_basis(dirs, 2).shape == (5, 7, 9)
    assert sh_basis_grad(dirs, 3).shape == (5, 7, 16, 3)


def test_basis_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = 1e-6
    G = sh_basis_grad(dirs, 3)
    for axis in range(3):
        dp = dirs.copy()
        dm = dirs.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        # derivative of the raw polynomial, direction not renormalized
        num = (sh_basis(dp, 3) - sh_basis(dm, 3)) / (2 * h)
        np.testing.assert_allclose(G[..., axis], num, atol=1e-8)


def test_eval_sh_degree0():
    coeffs = np.array([[[1.0, 0.0, -3.0]]])  # (1, 1, 3)
    rgb, _ = eval_sh_batch(coeffs, Z[None], 0)
    np.testing.assert_allclose(
        rgb[0], [0.5 + SH_C0, 0.5, 0.0], atol=1e-15
    )  # third channel clamps at zero


def test_eval_sh_view_dependence():
    coeffs = np.zeros((2, 4, 3))
    coeffs[:, 2, 0] = 1.0  # the z-linear basis function, red channel
    rgb, _ = eval_sh_batch(coeffs, np.stack([Z, -Z]), 1)
    assert rgb[0, 0] == pytest.approx(0.5 + SH_C1)  # viewed along +z
    assert rgb[1, 0] == pytest.approx(0.5 - SH_C1)  # viewed along -z


def test_eval_sh_count_mismatch():
    with pytest.raises(ValueError, match="coefficients"):
        eval_sh_batch(np.zeros((1, 4, 3)), Z[None], 2)
    with pytest.raises(ValueError, match="coefficients"):
        eval_sh_batch(np.zeros((1, 9, 3)), Z[None], 1)


def test_eval_sh_batch_clamp_mask():
    coeffs = np.zeros((2, 1, 3))
    coeffs[0, 0] = [-10.0, 0.0, 0.0]
    rgb, clamped = eval_sh_batch(coeffs, np.tile(Z, (2, 1)), 0)
    assert rgb[0, 0] == 0.0 and clamped[0, 0]
    assert rgb[1, 0] == 0.5 and not clamped[1].any()
