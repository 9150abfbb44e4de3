"""Pairing-table and curvature-tensor tests, including small-case oracles."""

import numpy as np
import pytest

from wpcurv import curvature
from wpcurv.errors import SymmetryViolation
from wpcurv.qdiff import BeltramiField


def _toy_operator(num_points, seed=0):
    """A tiny self-adjoint positive kernel operator on random weights."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((num_points, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    kernel = np.exp(-(d ** 2))
    weights = rng.uniform(0.5, 1.5, size=num_points)
    return weights, lambda f: kernel @ (weights * f)


def test_pairing_symmetries(pipe3):
    """(ij,kl) = (kl,ij) and conj((ij,kl)) = (ji,lk), relative to max|P|."""
    P = pipe3["pairings"]
    scale = np.abs(P).max()
    assert np.abs(P - P.transpose(2, 3, 0, 1)).max() / scale < 1e-9
    assert np.abs(np.conj(P) - P.transpose(1, 0, 3, 2)).max() / scale < 1e-9


def test_tensor_symmetries(pipe3):
    res = pipe3["tensor"].residuals()
    assert max(res.values()) < 1e-9


def test_diagonal_pairings_real_positive(pipe3):
    P = pipe3["pairings"]
    n = len(P)
    for i in range(n):
        for k in range(n):
            v = P[i, i, k, k]
            assert abs(v.imag) < 1e-9 * abs(v)
            assert v.real > 0


def test_sectional_negative(pipe3):
    R, g = pipe3["tensor"], pipe3["gram"]
    for i in range(R.n):
        assert curvature.holomorphic_sectional(R, g, i) < 0
    K0 = -R.entries[0, 0, 0, 0].real / g[0, 0].real ** 2
    assert K0 == pytest.approx(curvature.holomorphic_sectional(R, g, 0))


def test_sectional_scale_invariant(pipe3):
    """K_i = -R_iiii / g_ii^2 is invariant under rescaling mu_i."""
    R, g = pipe3["tensor"], pipe3["gram"]
    scaledR = curvature.CurvatureTensor(R.entries * 16.0)
    scaledg = g * 4.0
    assert curvature.holomorphic_sectional(scaledR, scaledg, 1) == pytest.approx(
        curvature.holomorphic_sectional(R, g, 1))


def test_zero_field_slice_vanishes():
    weights, apply_D = _toy_operator(30)
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
    mu[2] = 0.0
    fields = [BeltramiField(row) for row in mu]
    P = curvature.pairing_table(fields, weights=weights, apply_D_fn=apply_D)
    assert np.abs(P[2]).max() == 0.0
    assert np.abs(P[:, 2]).max() == 0.0
    assert np.abs(P[:, :, 2]).max() == 0.0
    assert np.abs(P[:, :, :, 2]).max() == 0.0


def test_single_field_tensor_factor_two():
    """With one field, R[0,0,0,0] = 2 * (00,00)."""
    weights, apply_D = _toy_operator(25, seed=2)
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((1, 25)) + 1j * rng.standard_normal((1, 25))
    fields = [BeltramiField(row) for row in mu]
    P = curvature.pairing_table(fields, weights=weights, apply_D_fn=apply_D)
    R = curvature.CurvatureTensor(P + P.transpose(0, 3, 2, 1))
    assert R.entries[0, 0, 0, 0] == pytest.approx(2 * P[0, 0, 0, 0])


def test_pairing_oracle_direct_sum():
    """Brute-force double loop reproduces the einsum assembly."""
    weights, apply_D = _toy_operator(20, seed=4)
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
    fields = [BeltramiField(row) for row in mu]
    P = curvature.pairing_table(fields, weights=weights, apply_D_fn=apply_D)
    for i in range(2):
        for j in range(2):
            d = apply_D(mu[i] * np.conj(mu[j]))
            for k in range(2):
                for l in range(2):
                    ref = np.sum(weights * d * mu[k] * np.conj(mu[l]))
                    assert P[i, j, k, l] == pytest.approx(ref)


def test_scaling_covariance():
    """Scaling a field by a complex constant scales the pairings with the
    right holomorphic/antiholomorphic powers."""
    weights, apply_D = _toy_operator(25, seed=6)
    rng = np.random.default_rng(7)
    mu = rng.standard_normal((2, 25)) + 1j * rng.standard_normal((2, 25))
    for const in (2.0, 1j, 0.3 - 0.4j):
        mu2 = mu.copy()
        mu2[0] = const * mu[0]
        P1 = curvature.pairing_table([BeltramiField(r) for r in mu],
                                     weights=weights, apply_D_fn=apply_D)
        P2 = curvature.pairing_table([BeltramiField(r) for r in mu2],
                                     weights=weights, apply_D_fn=apply_D)
        expected = P1[0, 1, 1, 0] * const * np.conj(const)
        assert P2[0, 1, 1, 0] == pytest.approx(expected)
        expected = P1[0, 0, 0, 0] * abs(const) ** 4
        assert P2[0, 0, 0, 0] == pytest.approx(expected)


def test_symmetry_violation_raised():
    """A table built from a non-self-adjoint 'operator' has no tensor."""
    rng = np.random.default_rng(8)
    weights = rng.uniform(0.5, 1.5, size=30)
    asym = rng.standard_normal((30, 30))
    apply_D = lambda f: asym @ f
    mu = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
    fields = [BeltramiField(row) for row in mu]
    P = curvature.pairing_table(fields, weights=weights, apply_D_fn=apply_D)
    with pytest.raises(SymmetryViolation):
        curvature.curvature_tensor(P)


def test_tensor_export(tmp_path, pipe3):
    payload = curvature.export_tensor_json(pipe3["tensor"], tmp_path / "t.json")
    assert payload["n"] == 3
    assert len(payload["entries"]) == 81
