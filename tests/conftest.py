"""Shared session fixtures: the expensive pipeline objects are built once.

`pipe3` and `pipe4` are `cli.surface_stage` of the octagon `group` at
mesh levels 3 and 4, the validation workhorses, built exactly as
`wpcurv run` builds the stage: its objects by name, and its check records
under "checks".  `surf3`, `surf4`, `green3` and `green4` are their
surfaces and Green kernels.  `raw3` and `raw4` hold the fields and Gram
matrix before orthonormalization and its Cholesky factor, which the
stage does not keep.  The length-8 word ball serves the group tests and the
Poincare-series oracle of the basis.  At level 4 the Green kernel's
report keeps about 4 R^2 entries (2.7 MB) at its peak, under a third of
the 9.5 MB of orbit rows, and no test builds its dense 134 MB `matrix`.
"""

import pytest

from wpcurv import cli, qdiff, wedge
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


def _stage(group, level):
    pipe = {"checks": {}}
    pipe.update(cli.surface_stage(group, level, pipe["checks"]))
    return pipe


@pytest.fixture(scope="session")
def pipe3(group):
    return _stage(group, 3)


@pytest.fixture(scope="session")
def pipe4(group):
    return _stage(group, 4)


@pytest.fixture(scope="session")
def surf3(pipe3):
    return pipe3["surface"]


@pytest.fixture(scope="session")
def surf4(pipe4):
    return pipe4["surface"]


@pytest.fixture(scope="session")
def green3(pipe3):
    return pipe3["green"]


@pytest.fixture(scope="session")
def green4(pipe4):
    return pipe4["green"]


def _raw(basis, surf):
    fields = qdiff.beltrami_from_qdiff(basis, surf)
    gram = qdiff.gram_matrix(fields, surf)
    return {"fields": fields, "gram": gram, "cholesky": qdiff.orthonormalize(fields, gram)[2]}


@pytest.fixture(scope="session")
def raw3(basis, surf3):
    return _raw(basis, surf3)


@pytest.fixture(scope="session")
def raw4(basis, surf4):
    return _raw(basis, surf4)


@pytest.fixture(scope="session")
def jmat3():
    return wedge.j_wedge_matrix(3)
