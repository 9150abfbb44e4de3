"""Wolpert pairings and the curvature tensor at the chosen surface.

The building block is the pairing

    (ij,kl) = sum_p w_p * D(mu_i conj(mu_j))(p) * mu_k(p) conj(mu_l)(p),

a discrete integral over the surface against the resolvent operator D.
`kernel_table` takes all n^4 pairings through a real weighted kernel
W = w D in one product, and every table of the package is built by it:
the LU path (`pairing_table`, D from `surface.apply_D`), the Green path
of `wedge` (W = w G w) and the synthetic kernels of `surrogate`.
The curvature tensor in these coordinates is the two-pairing sum

    R[i][j][k][l] = (ij,kl) + (il,kj),

whose index symmetries (exchange of the holomorphic slots, exchange of
the antiholomorphic slots, and conjugation with pairwise swap) follow
from the self-adjointness of D and are validated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

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


def kernel_table(mu: np.ndarray, W) -> np.ndarray:
    """P[i,j,k,l] = sum_p (W mu_i conj(mu_j))(p) mu_k(p) conj(mu_l)(p) for a
    real weighted kernel W (W = w D), the (n, n, n, n) pairing table.

    The products mu_i conj(mu_j) do not depend on any coefficients, and W
    is real, so W meets only the n^2 real columns Re(mu_i conj mu_j),
    i <= j, and Im(mu_i conj mu_j), i < j, in one product; the rest
    follows from W_ji = conj(W_ij).  W is an N x N array or an operator
    with `@` on real (N, m) arrays.
    """
    n, N = mu.shape
    prod = mu[:, None] * np.conj(mu)[None]               # mu_i conj(mu_j)
    i, j = np.triu_indices(n)
    off = i < j
    upper = prod[i, j]
    Wc = (W @ np.concatenate([upper.real, upper[off].imag]).T).T
    Wp = np.empty((n, n, N), dtype=complex)
    Wp[i, j] = Wc[:len(i)]
    Wp[i[off], j[off]] += 1j * Wc[len(i):]
    Wp[j, i] = np.conj(Wp[i, j])
    return (Wp.reshape(n * n, N) @ prod.reshape(n * n, N).T).reshape((n,) * 4)


def pairing_table(fields, surface) -> np.ndarray:
    """All n^4 pairings (ij,kl) of the (n, N) fields, a complex
    (n, n, n, n) array: `kernel_table` through W = w D, one `apply_D` call
    on the stack of n^2 real columns."""
    def weighted_D(X):
        return (surface.weights * surface_mod.apply_D(surface, X).T).T

    N = surface.num_nodes
    W = spla.LinearOperator((N, N), matvec=weighted_D, matmat=weighted_D, dtype=float)
    return kernel_table(np.asarray(fields, dtype=complex), W)


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
