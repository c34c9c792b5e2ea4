from __future__ import annotations

import pytest
from hypothesis import settings

from cqg import resolve_builtin
from cqg.intertwiners import cg_supplement_document
from cqg.rep_data import Tolerance, model_to_document

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

TIGHT = Tolerance(abs=1e-12, rel=1e-12, eigen_group=1e-12)


def perturbed_suq2_document(delta: float) -> dict:
    """An su_q_2 (q 0.5, level 3) document with CG data, its first coefficient moved by delta.

    The first CG entry is the pair ('0', '0'), whose one coefficient is 1, so
    the pair's unitarity residual is 2 delta + delta**2.
    """
    m = resolve_builtin("su_q_2", q=0.5, max_level=3)
    doc = model_to_document(m)
    doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
    doc["cg"][0]["coeffs"][0][3] += delta
    return doc


@pytest.fixture(scope="session")
def suq2_half():
    return resolve_builtin("su_q_2", q=0.5, max_level=8)


@pytest.fixture(scope="session")
def suq2_eight_tenths():
    return resolve_builtin("su_q_2", q=0.8, max_level=8)


@pytest.fixture(scope="session")
def s3_dual():
    return resolve_builtin("s3")


@pytest.fixture(scope="session")
def cyclic5_dual():
    return resolve_builtin("cyclic5")


@pytest.fixture(scope="session")
def free_orth():
    return resolve_builtin("free_orthogonal", f_diag=[1.0, 1.0, 2.0])


@pytest.fixture(scope="session")
def all_builtins(suq2_half, s3_dual, cyclic5_dual, free_orth):
    return [suq2_half, s3_dual, cyclic5_dual, free_orth]
