"""Wolpert pairings and the curvature tensor at the chosen surface.

The building block is the pairing

    (ij,kl) = sum_p w_p * D(mu_i conj(mu_j))(p) * mu_k(p) conj(mu_l)(p),

a discrete integral over the surface against the resolvent operator D.
The curvature tensor in these coordinates is the two-pairing sum

    R[i][j][k][l] = (ij,kl) + (il,kj),

whose index symmetries (exchange of the holomorphic slots, exchange of
the antiholomorphic slots, and conjugation with pairwise swap) follow
from the self-adjointness of D and are validated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import surface as surface_mod
from .artifacts import write_json
from .errors import SymmetryViolation

SYMMETRY_TOL = 1e-7


@dataclass
class CurvatureTensor:
    """Entries R[i][j][k][l] with the index pattern (holo, anti, holo, anti)."""

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0]

    def residuals(self):
        R = self.entries
        scale = np.abs(R).max()
        return {
            "holo_swap": float(np.abs(R - R.transpose(2, 1, 0, 3)).max() / scale),
            "anti_swap": float(np.abs(R - R.transpose(0, 3, 2, 1)).max() / scale),
            "conjugation": float(np.abs(np.conj(R) - R.transpose(1, 0, 3, 2)).max() / scale),
        }


def pairing_table(fields, surface=None, *, weights=None, apply_D_fn=None) -> np.ndarray:
    """All n^4 pairings (ij,kl) of the (n, N) fields, a complex
    (n, n, n, n) array, from n(n+1)/2 resolvent solves.

    D commutes with complex conjugation (its kernel is real), so
    D(mu_j conj(mu_i)) = conj(D(mu_i conj(mu_j))) and only the upper
    triangle of products needs a solve.  A custom (weights, apply_D_fn)
    pair may replace the surface operators (used by the synthetic-kernel
    harness).
    """
    mu = np.asarray(fields, dtype=complex)
    n = len(mu)
    if weights is None:
        weights = surface.weights
    if apply_D_fn is None:
        apply_D_fn = lambda f: surface_mod.apply_D(surface, f)

    solved = {}
    for i in range(n):
        for j in range(i, n):
            solved[(i, j)] = apply_D_fn(mu[i] * np.conj(mu[j]))
    entries = np.empty((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            dij = solved[(i, j)] if i <= j else np.conj(solved[(j, i)])
            entries[i, j] = np.einsum("p,kp,lp->kl", weights * dij, mu, np.conj(mu))
    return entries


def curvature_tensor(P: np.ndarray) -> CurvatureTensor:
    """Assemble R[i][j][k][l] = (ij,kl) + (il,kj) from the `pairing_table`
    array and validate symmetries."""
    R = CurvatureTensor(P + P.transpose(0, 3, 2, 1))
    res = R.residuals()
    worst = max(res.values())
    if worst > SYMMETRY_TOL:
        raise SymmetryViolation("curvature symmetry residual %.3g exceeds %.3g (%s)"
                                % (worst, SYMMETRY_TOL, res))
    return R


def holomorphic_sectional(R: CurvatureTensor, gram, i: int) -> float:
    """Holomorphic sectional curvature along basis direction i.

    The diagonal entry R[i][i][i][i] is positive (it integrates a positive
    kernel against |mu_i|^4-type densities); the sectional curvature of
    the complex line spanned by mu_i carries the opposite sign:
    K_i = -R[i][i][i][i] / g_ii^2 < 0.
    """
    return float(-R.entries[i, i, i, i].real / gram[i, i].real ** 2)


def export_tensor_json(R: CurvatureTensor, path, *, config_hash=None):
    entries = [
        [i, j, k, l,
         R.entries[i, j, k, l].real, R.entries[i, j, k, l].imag]
        for i in range(R.n) for j in range(R.n)
        for k in range(R.n) for l in range(R.n)
    ]
    payload = {"n": R.n, "entries": entries, "residuals": R.residuals()}
    return write_json(path, payload, config_hash)
