"""Wolpert pairings and the curvature tensor at the chosen surface.

The building block is the pairing

    (ij,kl) = sum_p w_p * D(mu_i conj(mu_j))(p) * mu_k(p) conj(mu_l)(p),

a discrete integral over the surface against the resolvent operator D.
`kernel_table` takes all n^4 pairings through a real weighted kernel
W = w D in one product, and every table of the package is built by it:
the surface's (`pairing_table`, through `weighted_D`, D from
`surface.apply_D`) and the synthetic kernels of `surrogate`.
The curvature tensor in these coordinates is the two-pairing sum

    R[i][j][k][l] = (ij,kl) + (il,kj),

whose index symmetries (exchange of the holomorphic slots, exchange of
the antiholomorphic slots, and conjugation with pairwise swap) follow
from the self-adjointness of D and are validated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolation

SYMMETRY_TOL = 1e-7


@dataclass
class CurvatureTensor:
    """Entries R[i][j][k][l] with the index pattern (holo, anti, holo, anti);
    leading axes hold a stack of tensors."""

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[-1]

    def residuals(self):
        """Relative residual of each index symmetry; on a stack, the worst
        of the tensors' own."""
        R, axes = self.entries, (-4, -3, -2, -1)
        scale = np.abs(R).max(axis=axes)

        def worst(residue):
            return float((np.abs(residue).max(axis=axes) / scale).max())

        return {
            "holo_swap": worst(R - np.swapaxes(R, -4, -2)),
            "anti_swap": worst(R - np.swapaxes(R, -3, -1)),
            "conjugation": worst(np.conj(R) - np.swapaxes(np.swapaxes(R, -4, -3), -2, -1)),
        }


def kernel_table(mu: np.ndarray, W) -> np.ndarray:
    """P[i,j,k,l] = sum_p (W mu_i conj(mu_j))(p) mu_k(p) conj(mu_l)(p) for a
    real weighted kernel W (W = w D), the (n, n, n, n) pairing table.

    The products mu_i conj(mu_j) do not depend on any coefficients, and W
    is real, so W meets only the n^2 real columns Re(mu_i conj mu_j),
    i <= j, and Im(mu_i conj mu_j), i < j, in one product; the rest
    follows from W_ji = conj(W_ij).  W is an (..., N, N) array, applied
    with `@`, or a function of the real (N, m) stack; mu (..., n, N) and
    an array W with the same leading batch axes give one table per slice.
    """
    *lead, n, N = mu.shape
    prod = mu[..., :, None, :] * np.conj(mu)[..., None, :, :]   # mu_i conj(mu_j)
    i, j = np.triu_indices(n)
    off = i < j
    upper = prod[..., i, j, :]
    cols = np.concatenate([upper.real, upper[..., off, :].imag], axis=-2)
    X = np.swapaxes(cols, -1, -2)
    Wc = np.swapaxes(W(X) if callable(W) else W @ X, -1, -2)
    Wp = np.empty((*lead, n, n, N), dtype=complex)
    Wp[..., i, j, :] = Wc[..., :len(i), :]
    Wp[..., i[off], j[off], :] += 1j * Wc[..., len(i):, :]
    Wp[..., j, i, :] = np.conj(Wp[..., i, j, :])
    flat = (*lead, n * n, N)
    P = Wp.reshape(flat) @ np.swapaxes(prod.reshape(flat), -1, -2)
    return P.reshape(*lead, n, n, n, n)


def weighted_D(surface):
    """W = w D on a real (N,) or (N, m) stack, one `surface.apply_D` call
    per stack; `pairing_table` and `wedge.weighted_green` share it."""
    from . import surface as surface_mod

    return lambda X: (surface.weights * surface_mod.apply_D(surface, X).T).T


def pairing_table(fields, surface) -> np.ndarray:
    """All n^4 pairings (ij,kl) of the (n, N) fields, a complex
    (n, n, n, n) array: `kernel_table` through `weighted_D`, one `apply_D`
    call on the stack of n^2 real columns."""
    return kernel_table(np.asarray(fields, dtype=complex), weighted_D(surface))


def curvature_tensor(P: np.ndarray) -> CurvatureTensor:
    """Assemble R[i][j][k][l] = (ij,kl) + (il,kj) from the `pairing_table`
    array (or a stack of tables) and validate symmetries."""
    R = CurvatureTensor(P + np.swapaxes(P, -3, -1))
    res = R.residuals()
    worst = np.max(list(res.values()))         # a NaN propagates
    if not worst <= SYMMETRY_TOL:
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
