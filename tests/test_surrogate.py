"""Synthetic-kernel harness tests."""

import time

import numpy as np
import pytest

from wpcurv import surrogate, wedge
from wpcurv.curvature import curvature_tensor, kernel_table

from oracle import seed_sweep_by_models


def test_determinism():
    a = surrogate.random_surrogate([7], 30, 3)
    b = surrogate.random_surrogate([7], 30, 3)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.weights, b.weights)
    ra = surrogate.run_property_suite(a)
    rb = surrogate.run_property_suite(b)
    assert ra == rb


def test_identifiability_floor():
    with pytest.raises(ValueError):
        surrogate.random_surrogate([0], 2, 2)   # floor is 2 n^2 = 8
    surrogate.random_surrogate([0], 8, 2)       # boundary value is accepted


def test_kernel_hypotheses():
    m = surrogate.random_surrogate([3], 40, 3)
    kernel, weights = m.kernel[0], m.weights[0]
    assert kernel.min() > 0
    assert np.array_equal(kernel, kernel.T)
    assert np.all(weights > 0)
    s = np.sqrt(weights)                    # the kernel as a weighted operator
    ev = np.linalg.eigvalsh(kernel * np.outer(s, s))
    assert ev.min() > -1e-12 * ev.max()


def test_counts_n3():
    rep = surrogate.run_property_suite(surrogate.random_surrogate([0], 40, 3))
    assert (rep["num_negative"], rep["num_zero"], rep["num_positive"]) == (9, 6, 0)
    assert rep["kernel_dim_excess"] == 0
    assert rep["range_residual_rel"] < 1e-8


def test_counts_n2():
    rep = surrogate.run_property_suite(surrogate.random_surrogate([1], 20, 2))
    assert (rep["num_negative"], rep["num_zero"], rep["num_positive"]) == (4, 2, 0)


def test_degenerate_fields_grow_kernel():
    """Linearly dependent mu rows keep Q non-positive but enlarge its
    kernel; the excess is reported, not raised."""
    m = surrogate.random_surrogate([5], 40, 3)
    m.mu[0, 2] = m.mu[0, 1]
    rep = surrogate.run_property_suite(m)
    assert rep["num_positive"] == 0
    assert rep["kernel_dim_excess"] > 0


def test_sign_flip_detected(monkeypatch):
    """Negating the kernel breaks positivity: the suite reports positive
    modes, and the sweep's counts fail."""
    m = surrogate.random_surrogate([6], 40, 3)
    m.kernel = -m.kernel
    assert surrogate.run_property_suite(m)["num_positive"] > 0
    monkeypatch.setattr(surrogate, "random_surrogate", lambda *args: m)
    assert not surrogate.run_seed_sweep([6], 40, 3)["all_counts_ok"]


def test_seed_sweep_summary():
    summary = surrogate.run_seed_sweep(range(5), 40, 3)
    assert summary["num_seeds"] == 5
    assert summary["all_counts_ok"]
    assert summary["worst_kernel_dim_excess"] == 0
    assert summary["worst_eigenvalue_margin"] <= 1e-10


def test_sweep_summary_keeps_a_nan_of_a_later_model(monkeypatch):
    """A NaN in the largest eigenvalue of model 1 of 3 is the worst margin,
    where Python's max would skip it."""
    suite = surrogate._suite

    def planted(model):
        records = suite(model)
        records[1]["eigenvalues"][-1] = np.nan
        return records

    monkeypatch.setattr(surrogate, "_suite", planted)
    summary = surrogate.run_seed_sweep(range(3), 40, 3)
    assert np.isnan(summary["worst_eigenvalue_margin"])
    assert summary["worst_kernel_dim_excess"] == 0
    assert type(summary["worst_kernel_dim_excess"]) is int


def test_sweep_speed():
    start = time.time()
    surrogate.run_seed_sweep(range(20), 40, 3)
    assert time.time() - start < 12.0


def test_range_residual_is_the_wedge_formula():
    """The suite's residual is `wedge.range_residual` of the model's Q."""
    model = surrogate.random_surrogate([0], 40, 3)
    rep = surrogate.run_property_suite(model)
    P = kernel_table(model.mu[0], model.kernel[0] * np.outer(model.weights[0], model.weights[0]))
    Q = wedge.assemble_Q(curvature_tensor(P))
    assert rep["range_residual_rel"] == wedge.range_residual(Q, wedge.j_wedge_matrix(3))


def test_sweep_records_are_the_single_models():
    """The sweep's stacked tables give each model's own suite exactly."""
    summary = surrogate.run_seed_sweep(range(5), 40, 3)
    for seed, record in enumerate(summary["per_seed"]):
        assert record == surrogate.run_property_suite(surrogate.random_surrogate([seed], 40, 3))


@pytest.mark.parametrize("num_points, n", [(40, 3), (20, 2)])
def test_stacked_sweep_is_the_per_model_loop(num_points, n):
    """The stacked models and suite give the per-model loop's summary and
    records exactly: eigenvalues, counts, tau, gap and residual."""
    assert (surrogate.run_seed_sweep(range(20), num_points, n)
            == seed_sweep_by_models(range(20), num_points, n))


def test_stacked_model_is_its_single_models():
    stack = surrogate.random_surrogate(range(3), 40, 3)
    assert stack.seed == [0, 1, 2] and stack.n == 3
    for i in range(3):
        one = surrogate.random_surrogate([i], 40, 3)
        assert one.seed == [i]
        for field in ("weights", "kernel", "mu"):
            assert np.array_equal(getattr(stack, field)[i], getattr(one, field)[0])


def test_kernel_table_on_a_stack_is_its_slices():
    models = [surrogate.random_surrogate([seed], 40, 3) for seed in range(4)]
    mu = np.array([m.mu[0] for m in models]).reshape(2, 2, 3, 40)
    W = np.array([m.kernel[0] * np.outer(m.weights[0], m.weights[0])
                  for m in models]).reshape(2, 2, 40, 40)
    tables = kernel_table(mu, W)
    assert tables.shape == (2, 2, 3, 3, 3, 3)
    for idx in np.ndindex(2, 2):
        assert np.array_equal(tables[idx], kernel_table(mu[idx], W[idx]))
