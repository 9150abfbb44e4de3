"""The check registry on hand-made inputs: failures are reported, not raised."""

import numpy as np
import pytest

from wpcurv import checks, wedge


def test_kernel_rank_mismatch_is_a_failed_check():
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3, symmetry_residual=0.0)
    kernel = checks.kernel_report(Q)
    check = checks.operator_nonpositive_kernel(wedge.spectrum(Q, strict=False), kernel)
    assert not check["pass"]
    assert "rank 15, expected 9" in check["residual"]["error"]


def test_unrelated_kernel_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(wedge, "kernel_check", broken)
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3, symmetry_residual=0.0)
    with pytest.raises(ZeroDivisionError):
        checks.kernel_report(Q)


def test_surrogate_spectrum_fails_on_excess_kernel():
    check = checks.surrogate_spectrum({"all_counts_ok": False,
                                       "worst_kernel_dim_excess": 1})
    assert not check["pass"]
    assert check["residual"] == 1 and check["tolerance"] == 0
