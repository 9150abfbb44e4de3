"""Harmonic Beltrami differentials from truncated automorphic series.

A holomorphic quadratic differential on the quotient surface lifts to a
function theta on the disk with the weight-4 automorphy law
theta(gamma z) gamma'(z)^2 = theta(z).  We realize a basis by averaging
monomials over the (truncated) group:

    theta_k(z) = sum_{gamma in words} (gamma z)^k * gamma'(z)^2 .

The regular octagon has an order-8 rotational symmetry R about the
origin that normalizes the group, and theta_k transforms under R with
character exp(i (k+2) pi/4).  The characters realized by the actual
3-dimensional space of quadratic differentials are the three for which
the series does not cancel identically; these are the even monomial
degrees k = 0, 2, 4 (odd degrees average to zero over the group).

The tangent-space representative is the harmonic Beltrami differential
mu = conj(theta)/sigma with sigma(z) = 4/(1-|z|^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateBasis
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

_CHUNK_ELEMS = 8_000_000  # max elements-x-nodes per evaluation chunk


def probe_points(num: int = 12, radius: float = PROBE_RADIUS) -> np.ndarray:
    """Deterministic interior probe points on two rings."""
    angles = np.arange(num) * 2 * np.pi / num + 0.1
    radii = np.where(np.arange(num) % 2 == 0, radius, 0.6 * radius)
    return radii * np.exp(1j * angles)


def _series(mats: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """Evaluate sum_gamma (gamma z)^k gamma'(z)^2 over the matrix array."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    out = np.zeros(len(z), dtype=complex)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    chunk = max(1, _CHUNK_ELEMS // max(1, len(z)))
    for lo in range(0, len(mats), chunk):
        sl = slice(lo, lo + chunk)
        den = np.multiply.outer(c[sl], z) + d[sl][:, None]
        dz2 = 1.0 / (den * den)
        term = dz2 * dz2
        if k:
            gz = (np.multiply.outer(a[sl], z) + b[sl][:, None]) / den
            term = gz**k * term
        out += term.sum(axis=0)
    return out


@dataclass
class QuadDifferential:
    """Truncated automorphic series of monomial degree k."""

    monomial_degree: int
    word_set: GroupWordSet

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        vals = _series(self.word_set.matrices, z.reshape(-1), self.monomial_degree)
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
    and ConvergenceFailure is raised.
    Linear independence is certified downstream by the Gram matrix rank.
    """
    if L < 4:
        raise ValueError("word length below 4 cannot resolve the series")
    if word_set is None:
        word_set = enumerate_words(group, L, norm_cap=norm_cap)
    basis = [QuadDifferential(k, word_set) for k in SEED_DEGREES]

    probes = probe_points()
    inner = word_set.ball(L - 1)
    for q in basis:
        full = q.evaluate(probes)
        part = _series(inner, probes, q.monomial_degree)
        inc = np.abs(full - part) / np.maximum(1.0, np.abs(full))
        if inc.max() > eps_auto:
            raise ConvergenceFailure(
                "degree-%d series tail increment %.3g exceeds %.3g"
                % (q.monomial_degree, inc.max(), eps_auto))
    return basis


def beltrami_from_qdiff(q: QuadDifferential, surface) -> BeltramiField:
    """Sample mu = conj(theta)/sigma at the surface quadrature nodes."""
    z = surface.nodes
    theta = q.evaluate(z)
    return BeltramiField(np.conj(theta) * (1 - np.abs(z) ** 2) ** 2 / 4)


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
