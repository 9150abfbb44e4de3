"""Synthetic-kernel harness for the curvature-operator sign mechanism.

The negativity proof for the wedge operator consumes exactly three
properties of the resolvent: it is self-adjoint and positive, and its
Green kernel is pointwise positive and symmetric.  Any kernel with those
properties on any finite measure space must therefore reproduce the same
spectral picture: Q non-positive with kernel of dimension n(n-1) equal
to the range of (identity - J).  This module generates random models
with a Gaussian radial kernel and replays the whole wedge pipeline on
them, serving as a brute-force oracle for the spectral claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wedge
from .curvature import curvature_tensor, kernel_table
from .errors import KernelDimMismatch, PositiveModeDetected


@dataclass
class SurrogateModel:
    """Abstract sample weights, kernel and tangent fields."""

    seed: int
    weights: np.ndarray       # positive
    kernel: np.ndarray        # symmetric, entrywise positive
    mu: np.ndarray            # (n, N) complex

    @property
    def n(self):
        return len(self.mu)


def random_surrogate(seed: int, num_points: int, n: int) -> SurrogateModel:
    """Deterministic random model with a Gaussian radial kernel.

    Bandwidth is the median inter-point distance, so the kernel is
    symmetric, entrywise positive and positive definite by construction.
    `num_points >= 2 n^2` is required as an identifiability floor.
    """
    if num_points < 2 * n * n:
        raise ValueError(
            "num_points %d below identifiability floor %d" % (num_points, 2 * n * n))
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((num_points, 2))
    weights = rng.uniform(0.5, 1.5, num_points)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    bandwidth = float(np.median(dist[np.triu_indices(num_points, 1)]))
    kernel = np.exp(-(dist**2) / (2 * bandwidth**2))
    mu = rng.standard_normal((n, num_points)) + 1j * rng.standard_normal((n, num_points))
    return SurrogateModel(seed=seed, weights=weights, kernel=kernel, mu=mu)


def run_property_suite(model: SurrogateModel) -> dict:
    """Pairings -> tensor -> Q -> spectrum -> kernel characterization.

    Positive modes or a kernel smaller than n(n-1) raise immediately
    (either falsifies the implementation).  A kernel *larger* than
    n(n-1), possible when the mu vectors are linearly dependent, is
    reported as excess instead.
    """
    # one table through W = w K w serves the tensor and the Green sums alike
    P = kernel_table(model.mu, model.kernel * np.outer(model.weights, model.weights))
    Q = wedge.assemble_Q(curvature_tensor(P))
    report = wedge.spectrum(Q, strict=False)
    expected = report.kernel_dim_expected
    if report.num_positive:
        raise PositiveModeDetected(
            "surrogate seed %d: positive mode %.3g" % (model.seed,
                                                       report.eigenvalues.max()))
    if report.num_zero < expected:
        raise KernelDimMismatch(
            "surrogate seed %d: %d zero modes < %d" % (model.seed,
                                                       report.num_zero, expected))

    # Cauchy-Schwarz slack of the Green term for a random two-point field
    rng = np.random.default_rng(model.seed + 1)
    coeff = rng.standard_normal((model.n, model.n)) \
        + 1j * rng.standard_normal((model.n, model.n))
    slack = wedge.cauchy_schwarz_slack(coeff, P)

    return {
        "seed": model.seed,
        "n": model.n,
        "eigenvalues": list(report.eigenvalues),
        "tau": report.tau,
        "num_negative": report.num_negative,
        "num_zero": report.num_zero,
        "num_positive": report.num_positive,
        "kernel_dim_expected": expected,
        "kernel_dim_excess": report.num_zero - expected,
        "gap_ratio": report.gap_ratio,
        "range_residual_rel": wedge.range_residual(Q, wedge.j_wedge_matrix(Q.n)),
        "cauchy_schwarz_lhs": slack["lhs_abs"],
        "cauchy_schwarz_rhs": slack["rhs"],
    }


def run_seed_sweep(seeds, num_points: int, n: int) -> dict:
    """Run the suite over many seeds and summarize worst margins."""
    per_seed = []
    for seed in seeds:
        model = random_surrogate(seed, num_points, n)
        per_seed.append(run_property_suite(model))
    return {
        "n": n,
        "num_points": num_points,
        "num_seeds": len(per_seed),
        "worst_eigenvalue_margin": max(
            max(r["eigenvalues"]) for r in per_seed),
        "worst_kernel_dim_excess": max(r["kernel_dim_excess"] for r in per_seed),
        "all_counts_ok": all(
            r["num_zero"] == r["kernel_dim_expected"] for r in per_seed),
        "per_seed": per_seed,
    }
