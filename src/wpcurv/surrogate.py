"""Synthetic-kernel harness for the curvature-operator sign mechanism.

The negativity proof for the wedge operator consumes exactly three
properties of the resolvent: it is self-adjoint and positive, and its
Green kernel is pointwise positive and symmetric.  Any kernel with those
properties on any finite measure space must therefore reproduce the same
spectral picture: Q non-positive with kernel of dimension n(n-1) equal
to the range of (identity - J).  This module generates random models
with a Gaussian radial kernel and replays the tensor path to Q on them,
serving as a brute-force oracle for the spectral claims.  A model reports
sign counts only; the split of the sign into a D-term and a Green term is
`wedge.integral_matrices`, which the tests read on the surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wedge
from .curvature import curvature_tensor, kernel_table


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
    dx, dy = (pts[:, None, k] - pts[None, :, k] for k in (0, 1))
    dist = np.sqrt(dx * dx + dy * dy)
    bandwidth = float(np.median(dist[np.triu_indices(num_points, 1)]))
    kernel = np.exp(-(dist**2) / (2 * bandwidth**2))
    mu = rng.standard_normal((n, num_points)) + 1j * rng.standard_normal((n, num_points))
    return SurrogateModel(seed=seed, weights=weights, kernel=kernel, mu=mu)


def _weighted_kernel(model: SurrogateModel) -> np.ndarray:
    return model.kernel * np.outer(model.weights, model.weights)


def run_property_suite(model: SurrogateModel, P=None) -> dict:
    """Pairings -> tensor -> Q -> spectrum -> kernel characterization.

    P is the model's pairing table, if the sweep has built it.  Nothing is
    raised: the sign counts are reported, and a positive mode or a kernel
    dimension other than n(n-1) fails `checks.surrogate_spectrum`
    through the sweep's `all_counts_ok`.  A kernel *larger* than n(n-1),
    possible when the mu vectors are linearly dependent, shows as excess.
    """
    if P is None:
        P = kernel_table(model.mu, _weighted_kernel(model))
    Q = wedge.assemble_Q(curvature_tensor(P))
    report = wedge.spectrum(Q, strict=False)
    expected = report.kernel_dim_expected
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
    }


def run_seed_sweep(seeds, num_points: int, n: int) -> dict:
    """Run the suite over many seeds, their pairing tables built in one
    stacked `kernel_table` call, and summarize worst margins."""
    models = [random_surrogate(seed, num_points, n) for seed in seeds]
    tables = kernel_table(np.array([model.mu for model in models]),
                          np.array([_weighted_kernel(model) for model in models]))
    per_seed = [run_property_suite(model, P) for model, P in zip(models, tables)]
    return {
        "n": n,
        "num_points": num_points,
        "num_seeds": len(per_seed),
        "worst_eigenvalue_margin": max(
            max(r["eigenvalues"]) for r in per_seed),
        "worst_kernel_dim_excess": max(r["kernel_dim_excess"] for r in per_seed),
        "all_counts_ok": all(r["num_positive"] == 0
                             and r["num_zero"] == r["kernel_dim_expected"] for r in per_seed),
        "per_seed": per_seed,
    }
