"""The check registry on hand-made inputs: failures are reported, not raised."""

import numpy as np
import pytest

from wpcurv import checks, wedge


def test_kernel_rank_mismatch_is_a_failed_check():
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3)
    spec = wedge.spectrum(Q, strict=False)
    kernel = wedge.kernel_report(Q, spec, wedge.j_wedge_matrix(3))
    check = checks.operator_nonpositive_kernel(spec, kernel)
    assert not check["pass"]
    assert check["residual"]["rank"] == 15
    assert check["residual"]["counts"] == [15, 0, 0]


def test_surrogate_spectrum_fails_on_excess_kernel():
    check = checks.surrogate_spectrum({"all_counts_ok": False, "worst_eigenvalue_margin": 0.0,
                                       "worst_kernel_dim_excess": 1})
    assert not check["pass"]
    assert check["residual"] == {"worst_eigenvalue_margin": 0.0, "worst_kernel_dim_excess": 1}
    assert check["tolerance"] == 0


def test_xx_block_with_one_positive_direction_fails():
    """Q is -1 on every wedge but one xx direction, where it is +10 tau:
    the xx check finds it, and the yy check, which never meets it, passes."""
    tau = 1e-8
    e = np.zeros((3, 3))
    e[0, 1], e[1, 0] = 1.0, -1.0
    v = wedge.wedge_vector({"a": e}, 3)
    v /= np.linalg.norm(v)
    Q = wedge.WedgeOperator(matrix=-np.eye(15) + (1 + 10 * tau) * np.outer(v, v), n=3)
    xx = checks.xx_block_definite(Q, tau)
    assert not xx["pass"]
    assert xx["residual"] == pytest.approx(10 * tau, rel=1e-6)
    assert checks.yy_block_definite(Q, tau)["pass"]


def test_null_blocks_read_the_unit_sphere_maximum():
    """The null gates compare Q's largest |eigenvalue| on the block with
    tau, independent of any scale of the elements: 2 tau on one cross
    direction fails, tau / 2 passes."""
    tau = 1e-8
    e = np.zeros((3, 3))
    e[0, 1], e[1, 0] = 1.0, -1.0
    v = wedge.wedge_vector({"b": e}, 3)
    v /= np.linalg.norm(v)
    for scale, ok in ((2.0, False), (0.5, True)):
        Q = wedge.WedgeOperator(matrix=scale * tau * np.outer(v, v), n=3)
        check = checks.cross_block_null(Q, tau)
        assert check["pass"] is ok
        assert check["residual"] == pytest.approx(scale * tau, rel=1e-12)
        assert checks.reduction_null(Q, tau)["pass"]
