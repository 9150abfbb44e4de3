"""Harmonic Beltrami differentials from truncated automorphic series.

A holomorphic quadratic differential on the quotient surface lifts to a
function theta on the disk with the weight-4 automorphy law
theta(gamma z) gamma'(z)^2 = theta(z).  We realize a basis by averaging
monomials over the (truncated) group:

    theta_k(z) = sum_{gamma in words} (gamma z)^k * gamma'(z)^2 .

The regular octagon has an order-8 rotational symmetry R(z) = omega z,
omega = exp(i pi/4), about the origin that normalizes the group: the word
ball is closed under gamma -> R gamma R^-1, which keeps word length and |a|.
Substituting that conjugate in the sum gives the law

    theta_k(omega z) = omega^k theta_k(z) ,

so the differential theta_k dz^2 transforms with character
omega^(k+2) = exp(i (k+2) pi/4).  The characters realized by the actual
3-dimensional space of quadratic differentials are the three for which
the series does not cancel identically; these are the even monomial
degrees k = 0, 2, 4 (odd degrees average to zero over the group).

The law lets evaluation fold every point into the sector
0 <= arg z < pi/4, evaluate the series once per distinct folded point and
unfold with omega^(jk).  `build_qdiff_basis` certifies the law at the probe
points on the word set it is given, and only `beltrami_from_qdiff`, which
samples a basis, folds; `QuadDifferential.evaluate` sums directly.

The tangent-space representative is the harmonic Beltrami differential
mu = conj(theta)/sigma with sigma(z) = 4/(1-|z|^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateBasis, SymmetryViolation
from .fuchsian import FuchsianGroup, GroupWordSet, enumerate_words

#: monomial degrees whose averaged series survive the rotation symmetry
SEED_DEGREES = (0, 2, 4)

#: default relative automorphy tolerance at word length 8
EPS_AUTO_DEFAULT = 1e-5

#: probe radius for automorphy/tail checks; well inside the octagon, where
#: the default truncation meets EPS_AUTO_DEFAULT
PROBE_RADIUS = 0.35

#: default norm cap for the series word ball (|a| <= cap)
NORM_CAP_DEFAULT = 400.0

#: max elements-x-points per evaluation chunk: each temporary is 4 MB; at
#: 8,000,000 (128 MB temporaries) a third of a level-3 run was system time
_CHUNK_ELEMS = 250_000

#: relative tolerance of the folded-versus-direct certificate at the probes
SYMMETRY_TOL = 1e-12


def probe_points(num: int = 12, radius: float = PROBE_RADIUS) -> np.ndarray:
    """Deterministic interior probe points on two rings."""
    angles = np.arange(num) * 2 * np.pi / num + 0.1
    radii = np.where(np.arange(num) % 2 == 0, radius, 0.6 * radius)
    return radii * np.exp(1j * angles)


def _series(mats: np.ndarray, z: np.ndarray, degrees) -> np.ndarray:
    """Evaluate sum_gamma (gamma z)^k gamma'(z)^2 over the matrix array for
    every k in `degrees` in one pass; returns shape (len(degrees), len(z))."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    row = {k: i for i, k in enumerate(degrees)}
    out = np.zeros((len(degrees), len(z)), dtype=complex)
    step = 2 if all(k % 2 == 0 for k in row) else 1
    kmax = max(row)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    chunk = max(1, _CHUNK_ELEMS // max(1, len(z)))
    for lo in range(0, len(mats), chunk):
        sl = slice(lo, lo + chunk)
        inv = np.multiply.outer(c[sl], z)
        inv += d[sl][:, None]
        np.reciprocal(inv, out=inv)
        term = inv * inv
        term *= term
        if kmax:
            gz = np.multiply.outer(a[sl], z)
            gz += b[sl][:, None]
            gz *= inv
            if step == 2:
                gz *= gz
        for k in range(0, kmax + 1, step):
            if k in row:
                out[row[k]] += term.sum(axis=0)
            if k < kmax:
                term *= gz
    return out


def _folded_series(mats: np.ndarray, z: np.ndarray, degrees) -> np.ndarray:
    """`_series` through the rotation law theta_k(omega^j w) =
    omega^(jk) theta_k(w): each point is rotated into 0 <= arg < pi/4, the
    series is evaluated once per distinct folded point (coordinates rounded
    to 12 decimals) and the character restores the original point's value."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    j = np.floor(np.angle(z) / (np.pi / 4)).astype(int) % 8
    w = z * np.exp(-1j * np.pi / 4 * j)
    keys = np.round(np.stack([w.real, w.imag], axis=1), 12) + 0.0
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    vals = _series(mats, w[first], degrees)[:, inverse.reshape(-1)]
    return vals * np.exp(1j * np.pi / 4 * (np.outer(degrees, j) % 8))


@dataclass
class QuadDifferential:
    """Truncated automorphic series of monomial degree k."""

    monomial_degree: int
    word_set: GroupWordSet

    def evaluate(self, z):
        """The direct series sum at z; it does not assume the rotation law."""
        z = np.asarray(z, dtype=complex)
        vals = _series(self.word_set.matrices, z, (self.monomial_degree,))[0]
        return vals[0] if z.ndim == 0 else vals.reshape(z.shape)

    def automorphy_residual(self, group: FuchsianGroup, probes=None) -> float:
        """Worst relative residual of theta(gamma z) gamma'(z)^2 = theta(z)
        over the probe points and all side pairings."""
        if probes is None:
            probes = probe_points()
        worst = 0.0
        base = self.evaluate(probes)
        for g in group.side_generator_words():
            lhs = self.evaluate(g.apply(probes)) * g.derivative(probes) ** 2
            rel = np.abs(lhs - base) / np.maximum(1.0, np.abs(base))
            worst = max(worst, rel.max())
        return worst


@dataclass
class BeltramiField:
    """Values of a harmonic Beltrami differential at quadrature nodes."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Beltrami field has non-finite entries")


@dataclass
class GramMatrix:
    """Hermitian matrix of pairwise products sum_p w_p mu_i conj(mu_j)."""

    entries: np.ndarray

    @property
    def n(self):
        return len(self.entries)

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.entries)


def build_qdiff_basis(group: FuchsianGroup, L: int = 8, *,
                      word_set: GroupWordSet | None = None,
                      norm_cap: float | None = NORM_CAP_DEFAULT,
                      eps_auto: float = EPS_AUTO_DEFAULT) -> list[QuadDifferential]:
    """Basis of 3g-3 = 3 truncated series, degrees 0, 2, 4.

    The tail estimate compares the word set's evaluations with those of its
    own (L-1)-ball (same norm cap) at the probe points; if the increment
    exceeds eps_auto, the truncation cannot support the requested tolerance
    and ConvergenceFailure is raised.  The rotation law that evaluation
    folds through is certified at the same probes: folded and direct values
    of the word set must agree to SYMMETRY_TOL, or SymmetryViolation is
    raised.
    Linear independence is certified downstream by the Gram matrix rank.
    """
    if L < 4:
        raise ValueError("word length below 4 cannot resolve the series")
    if word_set is None:
        word_set = enumerate_words(group, L, norm_cap=norm_cap)
    basis = [QuadDifferential(k, word_set) for k in SEED_DEGREES]

    probes = probe_points()
    full = _series(word_set.matrices, probes, SEED_DEGREES)
    scale = np.maximum(1.0, np.abs(full))
    folded = _folded_series(word_set.matrices, probes, SEED_DEGREES)
    sym = np.abs(folded - full) / scale
    if sym.max() > SYMMETRY_TOL:
        raise SymmetryViolation(
            "folded and direct series differ by %.3g at the probes (tolerance %.3g)"
            % (sym.max(), SYMMETRY_TOL))
    inc = np.abs(full - _series(word_set.ball(L - 1), probes, SEED_DEGREES)) / scale
    for k, row in zip(SEED_DEGREES, inc):
        if row.max() > eps_auto:
            raise ConvergenceFailure(
                "degree-%d series tail increment %.3g exceeds %.3g"
                % (k, row.max(), eps_auto))
    return basis


def beltrami_from_qdiff(basis: list[QuadDifferential], surface) -> list[BeltramiField]:
    """Sample mu = conj(theta)/sigma of every basis element at the surface
    quadrature nodes, in one folded pass over their shared word set."""
    if not basis or any(q.word_set is not basis[0].word_set for q in basis):
        raise ValueError("basis elements must share one word set")
    z = surface.nodes
    theta = _folded_series(basis[0].word_set.matrices, z,
                           [q.monomial_degree for q in basis])
    return [BeltramiField(np.conj(t) * (1 - np.abs(z) ** 2) ** 2 / 4) for t in theta]


def gram_matrix(fields: list[BeltramiField], surface) -> GramMatrix:
    """Weighted Gram matrix g_ij = sum_p w_p mu_i(p) conj(mu_j(p))."""
    mu = np.array([f.values for f in fields])
    if mu.shape[1] != len(surface.weights):
        raise ValueError("fields not sampled on this surface")
    g = np.einsum("p,ip,jp->ij", surface.weights, mu, np.conj(mu))
    g = (g + g.conj().T) / 2
    ev = np.linalg.eigvalsh(g)
    if ev.min() <= 1e-10 * ev.max():
        raise DegenerateBasis(
            "Gram matrix numerically singular (eigenvalues %s)" % ev)
    return GramMatrix(g)


def orthonormalize(fields: list[BeltramiField], gram: GramMatrix):
    """Orthonormal basis spanning the same fields.

    Returns (new_fields, new_gram, C) where C is upper-triangular with
    gram = C^H C (Cholesky), and the new fields are (C^H)^-1 applied to
    the old ones, so their Gram matrix is the identity.
    """
    low = np.linalg.cholesky(gram.entries)   # gram = low @ low^H
    C = low.conj().T
    mu = np.array([f.values for f in fields])
    mu_new = np.linalg.solve(low, mu)
    new_fields = [BeltramiField(row) for row in mu_new]
    new_gram = GramMatrix(np.eye(len(fields), dtype=complex))
    return new_fields, new_gram, C
