"""Shared session fixtures: the expensive pipeline objects are built once.

Levels 3 and 4 of the mesh hierarchy are the validation workhorses; the
basis is evaluated on both.  The length-8 word ball serves the group tests
and the Poincare-series oracle of the basis.  The Green kernel is built at
levels 3 and 4; at level 4 its report keeps about 4 R^2 entries (2.7 MB)
at its peak, under a third of the 9.5 MB of orbit rows, and no test
builds its dense 134 MB `matrix`.
"""

import numpy as np
import pytest

from wpcurv import curvature, qdiff, surface, wedge
from wpcurv.fuchsian import enumerate_words, octagon_group


@pytest.fixture(scope="session")
def group():
    return octagon_group(2)


@pytest.fixture(scope="session")
def words8(group):
    return enumerate_words(group, 8, norm_cap=400.0)


@pytest.fixture(scope="session")
def basis(group):
    return qdiff.build_qdiff_basis(group)


@pytest.fixture(scope="session")
def surf3(group):
    return surface.build_mesh(group, 3)


@pytest.fixture(scope="session")
def surf4(group):
    return surface.build_mesh(group, 4)


def _pipeline(basis, surf):
    fields_raw = qdiff.beltrami_from_qdiff(basis, surf)
    gram_raw = qdiff.gram_matrix(fields_raw, surf)
    fields, gram, C = qdiff.orthonormalize(fields_raw, gram_raw)
    P = curvature.pairing_table(fields, surf)
    R = curvature.curvature_tensor(P)
    Q = wedge.assemble_Q(R)
    return {
        "fields_raw": fields_raw,
        "gram_raw": gram_raw,
        "fields": fields,
        "gram": gram,
        "cholesky": C,
        "pairings": P,
        "tensor": R,
        "Q": Q,
    }


@pytest.fixture(scope="session")
def pipe3(basis, surf3):
    return _pipeline(basis, surf3)


@pytest.fixture(scope="session")
def pipe4(basis, surf4):
    return _pipeline(basis, surf4)


@pytest.fixture(scope="session")
def green3(surf3):
    return surface.green_kernel(surf3)


@pytest.fixture(scope="session")
def green4(surf4):
    return surface.green_kernel(surf4)


@pytest.fixture(scope="session")
def jmat3():
    return wedge.j_wedge_matrix(3)
