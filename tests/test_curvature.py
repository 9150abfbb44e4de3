"""Pairing-table and curvature-tensor tests, including small-case oracles."""

import dataclasses

import numpy as np
import pytest

from wpcurv import curvature, surface
from wpcurv.errors import SymmetryViolation

from oracle import _pairing_table_by_pairs


def _toy_operator(num_points, seed=0):
    """A tiny self-adjoint positive kernel operator on random weights: the
    weights, (Df)(p) = sum_q K[p,q] w_q f(q), and W = diag(w) K diag(w)."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((num_points, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    kernel = np.exp(-(d ** 2))
    weights = rng.uniform(0.5, 1.5, size=num_points)
    return weights, lambda f: kernel @ (weights * f), kernel * np.outer(weights, weights)


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


@pytest.mark.parametrize("level", [3, 4])
def test_nakano_and_dual_nakano_forms(level, pipe3, pipe4):
    """The two Hermitian forms of R on V (x) V: the dual-Nakano form
    B[(i,l),(j,k)] = R[i,j,k,l] is positive definite (dual-Nakano negativity,
    Liu-Sun-Yau, Publ. RIMS 44, 2008), and the Nakano form
    A[(i,k),(j,l)] = R[i,j,k,l] is positive semidefinite with exactly the
    n(n-1)/2 antisymmetric tensors as its kernel."""
    R = (pipe3 if level == 3 else pipe4)["tensor"].entries
    n, scale = R.shape[0], np.abs(R).max()
    A = R.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    B = R.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    for form in (A, B):
        assert np.abs(form - form.conj().T).max() <= 1e-15 * scale
    assert np.linalg.eigvalsh(B)[0] >= 0.25 * scale
    ev = np.linalg.eigvalsh(A)
    zero = np.abs(ev) <= 1e-14 * scale
    assert zero.sum() == n * (n - 1) // 2 == 3
    assert ev[~zero].min() >= 0.4 * scale
    i, k = np.triu_indices(n, 1)
    u = np.zeros((len(i), n, n))
    u[np.arange(len(i)), i, k], u[np.arange(len(i)), k, i] = np.sqrt(0.5), -np.sqrt(0.5)
    assert np.abs(A @ u.reshape(len(i), -1).T).max() <= 1e-14 * scale


def test_zero_field_slice_vanishes():
    _, _, W = _toy_operator(30)
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
    mu[2] = 0.0
    P = curvature.kernel_table(mu, W)
    assert np.abs(P[2]).max() == 0.0
    assert np.abs(P[:, 2]).max() == 0.0
    assert np.abs(P[:, :, 2]).max() == 0.0
    assert np.abs(P[:, :, :, 2]).max() == 0.0


def test_single_field_tensor_factor_two():
    """With one field, R[0,0,0,0] = 2 * (00,00)."""
    _, _, W = _toy_operator(25, seed=2)
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((1, 25)) + 1j * rng.standard_normal((1, 25))
    P = curvature.kernel_table(mu, W)
    R = curvature.CurvatureTensor(P + P.transpose(0, 3, 2, 1))
    assert R.entries[0, 0, 0, 0] == pytest.approx(2 * P[0, 0, 0, 0])


def test_pairing_oracle_direct_sum():
    """Brute-force double loop reproduces the one-product table."""
    weights, apply_D, W = _toy_operator(20, seed=4)
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
    P = curvature.kernel_table(mu, W)
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
    _, _, W = _toy_operator(25, seed=6)
    rng = np.random.default_rng(7)
    mu = rng.standard_normal((2, 25)) + 1j * rng.standard_normal((2, 25))
    for const in (2.0, 1j, 0.3 - 0.4j):
        mu2 = mu.copy()
        mu2[0] = const * mu[0]
        P1 = curvature.kernel_table(mu, W)
        P2 = curvature.kernel_table(mu2, W)
        expected = P1[0, 1, 1, 0] * const * np.conj(const)
        assert P2[0, 1, 1, 0] == pytest.approx(expected)
        expected = P1[0, 0, 0, 0] * abs(const) ** 4
        assert P2[0, 0, 0, 0] == pytest.approx(expected)


def test_symmetry_violation_raised():
    """A table built from a non-self-adjoint 'operator' has no tensor."""
    rng = np.random.default_rng(8)
    weights = rng.uniform(0.5, 1.5, size=30)
    asym = rng.standard_normal((30, 30))
    mu = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
    P = curvature.kernel_table(mu, weights[:, None] * asym)
    with pytest.raises(SymmetryViolation):
        curvature.curvature_tensor(P)


def test_nan_pairing_is_a_symmetry_violation(pipe3):
    P = pipe3["pairings"].copy()
    P[0, 1, 2, 0] = np.nan
    with pytest.raises(SymmetryViolation):
        curvature.curvature_tensor(P)


def test_one_nan_residual_is_a_symmetry_violation(pipe3, monkeypatch):
    """A NaN after the first residual is not skipped, as Python's max would."""
    monkeypatch.setattr(curvature.CurvatureTensor, "residuals", lambda self: {
        "holo_swap": 1e-17, "anti_swap": np.nan, "conjugation": 1e-17})
    with pytest.raises(SymmetryViolation):
        curvature.curvature_tensor(pipe3["pairings"])


class _RecordingLU:
    """Delegates to a factorization and records each right-hand side's width."""

    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, b):
        self.widths.append(b.shape[1] if b.ndim == 2 else 1)
        return self.lu.solve(b)


def test_pairing_table_is_one_stacked_resolvent_call(pipe3, surf3, monkeypatch):
    """One `apply_D` call on the real N x n^2 stack, in one LU solve.  The
    call reads `surface.apply_D` when it runs, so a spy installed there
    (as the benchmark's tracer installs its wrapper) sees it."""
    surf = dataclasses.replace(surf3)
    surf._lu = lu = _RecordingLU(surf3.factorization())
    calls = []
    apply_D = surface.apply_D
    monkeypatch.setattr(surface, "apply_D",
                        lambda s, f, **kw: calls.append(f) or apply_D(s, f, **kw))
    P = curvature.pairing_table(pipe3["fields"], surf)
    assert len(calls) == 1
    assert calls[0].shape == (surf3.num_nodes, 9) and np.isrealobj(calls[0])
    assert lu.widths == [9]
    assert np.array_equal(P, pipe3["pairings"])


def test_pairing_table_matches_per_pair_solves(pipe3, surf3):
    """The one-product table equals the per-pair algorithm at level 3."""
    P = pipe3["pairings"]
    ref = _pairing_table_by_pairs(pipe3["fields"], surf3)
    assert np.abs(P - ref).max() <= 1e-13 * np.abs(ref).max()


def test_tensor_export(tmp_path, pipe3):
    payload = curvature.export_tensor_json(pipe3["tensor"], tmp_path / "t.json")
    assert payload["n"] == 3
    assert len(payload["entries"]) == 81
