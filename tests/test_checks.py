"""The check registry on hand-made inputs: failures are reported, not raised."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from wpcurv import checks, wedge
from wpcurv.curvature import kernel_table


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


def test_block_vectors_built_once_read_only(pipe3):
    """Each cached block is read-only and holds the wedge vectors of its
    pattern over the unit antisymmetric E, and each block check's residual
    is, bit for bit, `eigvalsh` of Q on the QR basis of those vectors."""
    blocks = checks._block_vectors(3)
    assert checks._block_vectors(3) is blocks
    eye = np.eye(3)
    E = [np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])
         for i, j in zip(*np.triu_indices(3, 1))]
    patterns = {"xx": lambda e: {"a": e}, "yy": lambda e: {"c": e},
                "cross": lambda e: {"b": e}, "reduction": lambda e: {"a": e, "c": -e}}
    assert blocks.keys() == patterns.keys()
    for name, pattern in patterns.items():
        assert not blocks[name].flags.writeable
        ref = np.array([wedge.wedge_vector(pattern(e), 3) for e in E]).T
        assert np.array_equal(blocks[name], ref)
    Q = pipe3["Q"]
    runs = {"xx": (checks.xx_block_definite, np.max), "yy": (checks.yy_block_definite, np.max),
            "cross": (checks.cross_block_null, lambda ev: np.abs(ev).max()),
            "reduction": (checks.reduction_null, lambda ev: np.abs(ev).max())}
    for name, (check, worst) in runs.items():
        U = np.linalg.qr(blocks[name])[0]
        ev = np.linalg.eigvalsh(U.T @ Q.matrix @ U)
        assert check(Q, 1e-8)["residual"] == float(worst(ev))


def _with_stiffness(surf, K):
    """The surface with stiffness K and no factor yet."""
    return dataclasses.replace(surf, stiffness=sp.csc_array(K), _lu=None)


def test_resolvent_reads_an_ldlt_with_positive_pivots(surf3):
    check = checks.resolvent_operator(surf3)
    assert check["pass"]
    assert check["residual"]["self_adjoint"] <= 1e-15
    assert 0 < check["residual"]["positivity_min"] <= 1


def test_resolvent_fails_on_an_asymmetric_stiffness_pair(surf3):
    """One off-diagonal entry of K moved by 1e-6 of itself, its mirror left:
    the factor is no LDL^T, and the LDL^T residual trips, not the pivots."""
    K = surf3.stiffness.copy()
    j = next(j for j in K.indices[K.indptr[0]:K.indptr[1]] if j != 0)
    K[0, j] *= 1 + 1e-6
    check = checks.resolvent_operator(_with_stiffness(surf3, K))
    assert not check["pass"]
    assert check["residual"]["self_adjoint"] > 1e-12
    assert check["residual"]["positivity_min"] > 0


def test_resolvent_fails_on_an_indefinite_stiffness(surf3):
    """K - 3M makes K + 2M = K - M indefinite: a negative pivot trips."""
    K = surf3.stiffness - 3 * sp.diags_array(surf3.weights)
    check = checks.resolvent_operator(_with_stiffness(surf3, K))
    assert not check["pass"]
    assert check["residual"]["positivity_min"] < 0


def test_two_path_fails_on_one_moved_entry_pair(pipe3, surf3, green3):
    """Q_D + Q_G passes as computed and fails with one symmetric entry pair
    moved by 1e-10 ||Q||_2, which the residual reads to roundoff."""
    Q = pipe3["Q"].matrix
    Q_D, Q_G = wedge.integral_matrices(
        kernel_table(pipe3["fields"], wedge.weighted_green(surf3, green3)))
    R, gram = pipe3["tensor"], pipe3["gram"]
    assert checks.tensor_assembly(R, gram, (Q, Q_D + Q_G))["pass"]
    moved = Q_D + Q_G
    delta = 1e-10 * np.linalg.norm(Q, 2)
    moved[0, 1] += delta
    moved[1, 0] += delta
    check = checks.tensor_assembly(R, gram, (Q, moved))
    assert not check["pass"]
    assert check["residual"]["two_path_rel"] == pytest.approx(1e-10, abs=1e-12)
