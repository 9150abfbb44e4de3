"""Harmonic Beltrami differentials from holomorphic quadratic differentials.

A holomorphic quadratic differential on the quotient surface lifts to a
function theta on the disk with the weight-4 automorphy law
theta(gamma z) gamma'(z)^2 = theta(z); on genus 2 these form a space of
dimension 3g - 3 = 3.

The rotation R(z) = omega z, omega = exp(i pi/4), normalizes the group, so
the space splits by the character theta(omega z) = omega^k theta(z).  The
characters realized are k = 0, 2, 4 (`SEED_DEGREES`), once each, and a
form of character k is a power series in z^8 times z^k:

    theta_k(z) = sum_{m < NUM_COEFFS} a_m z^(k + 8m) ,

so the rotation law holds by construction.  The reflection z -> conj(z)
normalizes the group too, so the a_m are real; a_0 = 1.  The basis is
one real (3, NUM_COEFFS) array whose row i holds the a_m of character
SEED_DEGREES[i]; `theta` evaluates all its rows at once.  The a_m come from
Hejhal's method (D. A. Hejhal, "On eigenfunctions of the Laplacian for
Hecke triangle groups", 1999): at NUM_POINTS points w on the circle
|w| = SOLVE_RADIUS in the sector 0 < arg w < pi/4, outside the octagon,
gamma = `fuchsian.reduce_to_domain` carries w into the octagon, where the
truncated series converges fast, and automorphy

    theta(w) = gamma'(w)^2 theta(gamma w)

is one complex linear equation in the a_m.  The stacked real system, with
column n scaled by SOLVE_RADIUS^-n, has a one-dimensional null space,
taken by the SVD of its square R factor; its columns are cumulative
products of (w/R)^8, so no complex power is taken on the grid.
`build_qdiff_basis` certifies both the solve (one null singular value per
character, with a clear gap to the next) and its result: automorphy to
AUTOMORPHY_TOL (`automorphy_residuals`) for all 8 side pairings, at points
along every side up to the vertices (|z| = 0.841, the mesh's reach).

The tangent-space representative is the harmonic Beltrami differential
mu = conj(theta)/sigma with sigma(z) = 4/(1-|z|^2)^2.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DegenerateBasis
from .fuchsian import FuchsianGroup, act, derivative, reduce_to_domain
from .fuchsian import enumerate_words  # noqa: F401  (read as qdiff.enumerate_words)

#: rotation characters k of the basis: theta_k(omega z) = omega^k theta_k(z)
SEED_DEGREES = (0, 2, 4)

#: coefficients a_m per character (powers up to z^(k + 8 (NUM_COEFFS - 1)))
NUM_COEFFS = 40

#: collocation points per character and the radius of their circle
NUM_POINTS = 80
SOLVE_RADIUS = 0.9

#: the null singular value must lie below NULL_TOL times the largest, the
#: next one above GAP_TOL times the largest
NULL_TOL = 1e-10
GAP_TOL = 1e-4

#: relative automorphy residual accepted on the octagon sides
AUTOMORPHY_TOL = 1e-10

#: points per side for the automorphy certificate, both vertices included
SIDE_POINTS = 33


def side_points(group: FuchsianGroup, num: int = SIDE_POINTS) -> np.ndarray:
    """(8, num) points spread along each octagon side s, from vertex s-1 to
    vertex s: the geodesic through the side's midpoint m orthogonal to the
    ray of m, traced by z = (w + m) / (1 + conj(m) w), w on that diameter."""
    centers = group.neighbor_centers()
    m = centers / np.abs(centers) * np.tanh(np.arctanh(np.abs(centers)) / 2)
    reach = abs((group.vertices[0] - m[0]) / (1 - np.conj(m[0]) * group.vertices[0]))
    w = 1j * (m / np.abs(m))[:, None] * reach * np.linspace(-1, 1, num)
    return (w + m[:, None]) / (1 + np.conj(m)[:, None] * w)


def theta(basis: np.ndarray, z) -> np.ndarray:
    """(len(basis), *z.shape) values of the forms at z: one Horner pass in
    z^8 over all their coefficients, row i then times z^SEED_DEGREES[i]."""
    z = np.asarray(z, dtype=complex)
    series = np.polynomial.polynomial.polyval(z**8, basis.T)
    return np.array([row * z**k for row, k in zip(series, SEED_DEGREES)])


def automorphy_residuals(basis: np.ndarray, group: FuchsianGroup) -> np.ndarray:
    """Per form, the worst of max|theta(gamma z) gamma'(z)^2 - theta(z)| /
    max|theta(z)| over the 8 side pairings gamma, z at the `side_points` of
    its side: one evaluation of all forms at those points and their images."""
    z = side_points(group)
    g = group.side_pairings[:, None]
    base = theta(basis, z)
    lhs = theta(basis, act(g, z)) * derivative(g, z) ** 2
    return (np.abs(lhs - base).max(axis=-1) / np.abs(base).max(axis=-1)).max(axis=-1)


def BeltramiField(values) -> np.ndarray:
    """Values of harmonic Beltrami differentials at quadrature nodes, one
    row or an (n, N) stack of rows, as a complex array; a ValueError on
    any non-finite entry.  (A function under a type's name: the benchmark
    harness builds its fields with it.)"""
    values = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("Beltrami field has non-finite entries")
    return values


def _collocation(group: FuchsianGroup):
    """(w, gamma w, gamma's matrices) for the NUM_POINTS points w, shared by all characters."""
    w = SOLVE_RADIUS * np.exp(1j * np.pi / 4 * (np.arange(NUM_POINTS) + 0.5) / NUM_POINTS)
    return (w, *reduce_to_domain(group, w))


def _powers(z, k: int) -> np.ndarray:
    """(len(z), NUM_COEFFS) table of (z / SOLVE_RADIUS)^(k + 8m): a cumulative
    product of (z/R)^8 times (z/R)^k, with no complex power on the grid."""
    u = z / SOLVE_RADIUS
    table = np.empty((len(z), NUM_COEFFS), dtype=complex)
    table[:, 0] = u ** k
    table[:, 1:] = (u ** 8)[:, None]
    return np.cumprod(table, axis=1)


def _solve(points, k: int):
    """Real a_m (a_0 = 1) of character k and the singular values of the
    scaled collocation system at the `_collocation` points, both from the
    SVD of the NUM_COEFFS x NUM_COEFFS R factor of the stacked real system."""
    w, gw, mats = points
    dg2 = (mats[:, 1, 0] * w + mats[:, 1, 1]) ** -4
    A = _powers(w, k) - dg2[:, None] * _powers(gw, k)
    _, sv, vt = np.linalg.svd(np.linalg.qr(np.concatenate([A.real, A.imag]), mode="r"))
    a = vt[-1] / SOLVE_RADIUS ** (k + 8 * np.arange(NUM_COEFFS))
    return a / a[0], sv


def build_qdiff_basis(group: FuchsianGroup) -> np.ndarray:
    """Basis of 3g-3 = 3 quadratic differentials as a (3, NUM_COEFFS) real
    array: row i holds the a_m (a_0 = 1) of character SEED_DEGREES[i].

    Raises ConvergenceFailure unless each character's system has exactly
    one singular value below NULL_TOL (relative to the largest), the next
    above GAP_TOL, and then each row's `automorphy_residuals` entry (all
    three from one evaluation) is at most AUTOMORPHY_TOL.  Linear
    independence is certified downstream by the Gram matrix rank.
    """
    points = _collocation(group)
    basis = np.empty((len(SEED_DEGREES), NUM_COEFFS))
    for i, k in enumerate(SEED_DEGREES):
        basis[i], sv = _solve(points, k)
        rel = sv / sv[0]
        if rel[-1] > NULL_TOL or rel[-2] < GAP_TOL:
            raise ConvergenceFailure(
                "character %d: least singular values %.3g, %.3g (relative); need "
                "one below %.3g and the next above %.3g"
                % (k, rel[-1], rel[-2], NULL_TOL, GAP_TOL))
    for k, res in zip(SEED_DEGREES, automorphy_residuals(basis, group)):
        if res > AUTOMORPHY_TOL:
            raise ConvergenceFailure(
                "character %d: automorphy residual %.3g on the sides exceeds %.3g"
                % (k, res, AUTOMORPHY_TOL))
    return basis


def beltrami_from_qdiff(basis: np.ndarray, surface) -> np.ndarray:
    """(3, N) samples of mu = conj(theta)/sigma of every row of the
    `build_qdiff_basis` array at the surface quadrature nodes."""
    z = surface.nodes
    return BeltramiField(np.conj(theta(basis, z)) * (1 - np.abs(z) ** 2) ** 2 / 4)


def gram_matrix(fields, surface) -> np.ndarray:
    """Hermitian (n, n) Gram array g_ij = sum_p w_p mu_i(p) conj(mu_j(p))
    of the (n, N) fields."""
    mu = np.asarray(fields, dtype=complex)
    if mu.shape[1] != len(surface.weights):
        raise ValueError("fields not sampled on this surface")
    g = np.einsum("p,ip,jp->ij", surface.weights, mu, np.conj(mu))
    g = (g + g.conj().T) / 2
    ev = np.linalg.eigvalsh(g)
    if ev.min() <= 1e-10 * ev.max():
        raise DegenerateBasis(
            "Gram matrix numerically singular (eigenvalues %s)" % ev)
    return g


def orthonormalize(fields, gram: np.ndarray):
    """Orthonormal basis spanning the same (n, N) fields.

    Returns (new_fields, new_gram, C) where C is upper-triangular with
    gram = C^H C (Cholesky), and the new fields are (C^H)^-1 applied to
    the old ones, so their Gram matrix is the identity.
    """
    low = np.linalg.cholesky(gram)   # gram = low @ low^H
    mu_new = BeltramiField(np.linalg.solve(low, np.asarray(fields, dtype=complex)))
    return mu_new, np.eye(len(low), dtype=complex), low.conj().T
