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
    """Abstract sample weights, kernel and tangent fields of a stack of
    models on a leading axis, one per seed."""

    seed: list
    weights: np.ndarray       # (S, N), positive
    kernel: np.ndarray        # (S, N, N), symmetric, entrywise positive
    mu: np.ndarray            # (S, n, N), complex


def random_surrogate(seeds, num_points: int, n: int) -> SurrogateModel:
    """Deterministic random models with a Gaussian radial kernel, one per
    seed of the sequence `seeds`, as one stack, each drawn from its own
    `default_rng(seed)`.

    Bandwidth is the median inter-point distance, so the kernel is
    symmetric, entrywise positive and positive definite by construction.
    `num_points >= 2 n^2` is required as an identifiability floor.
    """
    if num_points < 2 * n * n:
        raise ValueError(
            "num_points %d below identifiability floor %d" % (num_points, 2 * n * n))
    pts, weights, mu = [], [], []
    for s in seeds:
        rng = np.random.default_rng(s)
        pts.append(rng.standard_normal((num_points, 2)))
        weights.append(rng.uniform(0.5, 1.5, num_points))
        mu.append(rng.standard_normal((n, num_points)) + 1j * rng.standard_normal((n, num_points)))
    pts, weights, mu = np.array(pts), np.array(weights), np.array(mu)
    dx, dy = (pts[:, :, None, k] - pts[:, None, :, k] for k in (0, 1))
    dx *= dx
    dx += dy * dy
    dist = np.sqrt(dx, out=dx)                 # sqrt(dx dx + dy dy), in place
    r, c = np.triu_indices(num_points, 1)
    bandwidth = np.median(dist[:, r, c], axis=-1)[:, None, None]
    kernel = np.exp(-(dist**2) / (2 * bandwidth**2))
    return SurrogateModel(seed=list(seeds), weights=weights, kernel=kernel, mu=mu)


def _suite(model: SurrogateModel) -> list:
    """Pairings -> tensor -> Q -> spectrum -> range residual as one stacked
    pass over the models of `model`: each model's `wedge.SpectrumReport`
    record, with its seed and range residual, in seed order.

    Nothing is raised: the sign counts are reported, and a positive mode or
    a kernel dimension other than n(n-1) fails `checks.surrogate_spectrum`
    through the sweep's `all_counts_ok`.  A kernel *larger* than n(n-1),
    possible when the mu vectors are linearly dependent, shows as excess.
    """
    w = model.weights
    Q = wedge.assemble_Q(curvature_tensor(kernel_table(
        model.mu, model.kernel * (w[..., :, None] * w[..., None, :]))))
    return [{"seed": seed, **record, "range_residual_rel": residual}
            for seed, record, residual in zip(
                model.seed, wedge.spectrum(Q).to_dict(),
                wedge.range_residual(Q, wedge.j_wedge_matrix(Q.n)))]


def run_property_suite(model: SurrogateModel) -> dict:
    """The record of a one-model stack."""
    (record,) = _suite(model)
    return record


def run_seed_sweep(seeds, num_points: int, n: int) -> dict:
    """Run the suite over many seeds, their models built and evaluated as
    one stack, and summarize worst margins, in which a NaN propagates."""
    per_seed = _suite(random_surrogate(seeds, num_points, n))
    excess = [r["counts"][1] - r["kernel_dim_expected"] for r in per_seed]
    return {
        "n": n,
        "num_points": num_points,
        "num_seeds": len(per_seed),
        "worst_eigenvalue_margin": float(np.max([r["eigenvalues"] for r in per_seed])),
        "worst_kernel_dim_excess": int(np.max(excess)),
        "all_counts_ok": all(r["counts"][2] == 0 for r in per_seed) and not any(excess),
        "per_seed": per_seed,
    }
