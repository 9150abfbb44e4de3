"""The check registry on hand-made inputs: failures are reported, not raised."""

import numpy as np

from wpcurv import checks, wedge


def test_kernel_rank_mismatch_is_a_failed_check():
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3, symmetry_residual=0.0)
    spec = wedge.spectrum(Q, strict=False)
    kernel = wedge.kernel_report(Q, spec, wedge.j_wedge_matrix(3))
    check = checks.operator_nonpositive_kernel(spec, kernel)
    assert not check["pass"]
    assert check["residual"]["rank"] == 15
    assert check["residual"]["counts"] == [15, 0, 0]


def test_surrogate_spectrum_fails_on_excess_kernel():
    check = checks.surrogate_spectrum({"all_counts_ok": False,
                                       "worst_kernel_dim_excess": 1})
    assert not check["pass"]
    assert check["residual"] == 1 and check["tolerance"] == 0
