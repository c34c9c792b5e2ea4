"""d_t calculus, spectral symmetry, growth inequality."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg.dimensions import (
    FORCED_SYMMETRIC,
    NO_CONCLUSION,
    dim_t,
    eigen_lists,
    gamma,
    growth_inequality_check,
    power_sum_uniqueness,
    symmetry_by_conjugate,
    symmetry_check,
    symmetry_sweep,
)
from cqg.errors import PreconditionError
from cqg.rep_data import RhoSpectrum, Tolerance, normalize_rho

from . import oracles
from .conftest import TIGHT

positive = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)


def test_dim_t_against_direct_sum(suq2_half):
    for label in suq2_half.labels:
        s = suq2_half.rho(label)
        for t in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            assert dim_t(s, t) == pytest.approx(oracles.dim_t_direct(s, t), rel=1e-12)


def test_dim_t_degree_and_quantum_dimension(suq2_half):
    for label in suq2_half.labels:
        s = suq2_half.rho(label)
        assert dim_t(s, 0.0) == pytest.approx(suq2_half.dim(label))
        assert dim_t(s, 1.0) == pytest.approx(s.trace())


def test_dim_t_at_infinity_is_infinite(suq2_half):
    # t * log(lambda) is inf, -inf: the log-sum-exp returns its non-finite top as it is
    assert dim_t(suq2_half.rho("1"), math.inf) == math.inf


def test_dim_t_table_matches_pinned_values(suq2_half):
    for label, (dim, d1, d2) in oracles.DIMS_TABLE_Q_HALF.items():
        s = suq2_half.rho(label)
        assert dim_t(s, 0.0) == pytest.approx(dim)
        assert dim_t(s, 1.0) == pytest.approx(d1, rel=1e-12)
        assert dim_t(s, 2.0) == pytest.approx(d2, rel=1e-12)


def test_dim_t_survives_huge_exponents():
    s = RhoSpectrum((4.0, 1.0, 0.25))
    # t * log(4) far past double range: must not raise
    value = dim_t(s, 2000.0)
    assert value == math.inf or value > 1e300


@given(st.lists(positive, min_size=1, max_size=5))
@settings(max_examples=60)
def test_dim_t_symmetric_in_t_for_symmetric_spectra(values):
    # a spectrum containing every inverse satisfies d_t = d_{-t}
    full = values + [1.0 / v for v in values]
    s = RhoSpectrum(tuple(full))
    for t in (0.5, 1.0, 2.0):
        assert dim_t(s, t) == pytest.approx(dim_t(s, -t), rel=1e-9)


def test_gamma_is_top_eigenvalue(suq2_half):
    for label in suq2_half.labels:
        s = suq2_half.rho(label)
        assert gamma(s) == max(s)


class TestSymmetry:
    def test_suq2_spectra_are_symmetric(self, suq2_half):
        for label in suq2_half.labels:
            assert symmetry_check(suq2_half.rho(label), TIGHT)

    def test_asymmetric_spectrum_detected(self, free_orth):
        assert not symmetry_check(free_orth.rho("f"))
        lists = eigen_lists(free_orth.rho("f"))
        assert lists.forward[0] == pytest.approx(oracles.FREE_ORTHOGONAL_112_FORWARD_TOP)
        assert lists.backward[0] == pytest.approx(oracles.FREE_ORTHOGONAL_112_BACKWARD_TOP)

    def test_conjugate_verdicts(self, suq2_half, free_orth):
        assert symmetry_by_conjugate(suq2_half, "3") == FORCED_SYMMETRIC
        assert symmetry_by_conjugate(free_orth, "f") == NO_CONCLUSION

    def test_sweep_flags_forced_violation(self, suq2_half):
        results, violations = symmetry_sweep(suq2_half)
        assert len(results) == len(suq2_half.labels)
        assert violations == []

    def test_sweep_reports_asymmetric_rows_without_violation(self, free_orth):
        results, violations = symmetry_sweep(free_orth)
        rows = {row["label"]: row for row in results}
        assert rows["f"]["symmetric"] is False
        assert rows["f"]["verdict"] == NO_CONCLUSION
        assert violations == []

    def test_sweep_flags_self_conjugate_asymmetry(self):
        # direct construction skips certification, so the inconsistency survives
        from cqg.rep_data import FusionTable, Irrep, QGModel

        model = QGModel(
            name="broken",
            trivial="0",
            irreps=(
                Irrep(label="0", dim=1, rho=RhoSpectrum((1.0,)), conjugate="0"),
                Irrep(label="x", dim=3, rho=RhoSpectrum((2.0, 1.0, 0.25)), conjugate="x"),
            ),
            fusion=FusionTable({}),
        )
        _, violations = symmetry_sweep(model)
        assert [v["label"] for v in violations] == ["x"]
        assert violations[0]["invariant"] == "forced-symmetry"


class TestPowerSumUniqueness:
    GRID = tuple(1.0 + 0.5 * k for k in range(1, 13))

    def test_equal_multisets_shuffled(self):
        a = [2.0, 0.5, 1.0]
        b = [1.0, 2.0, 0.5]
        assert power_sum_uniqueness(a, b, self.GRID)

    def test_distinct_multisets_detected(self):
        a = [2.0, 0.5]
        b = [2.0, 0.5000001]
        assert not power_sum_uniqueness(a, b, self.GRID, TIGHT)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            power_sum_uniqueness([], [1.0], self.GRID)
        with pytest.raises(PreconditionError):
            power_sum_uniqueness([1.0], [-1.0], self.GRID)
        with pytest.raises(PreconditionError):
            power_sum_uniqueness([1.0, 2.0], [1.0, 2.0], (1.5, 2.0))

    @given(st.lists(positive, min_size=1, max_size=4, unique=True))
    @settings(max_examples=40)
    def test_multiset_equality_invariant_under_shuffle(self, values):
        grid = tuple(1.0 + 0.25 * k for k in range(1, 2 * len(values) + 2))
        assert power_sum_uniqueness(values, list(reversed(values)), grid)


class TestGrowthInequality:
    def test_holds_on_suq2(self, suq2_half):
        for label in ("0", "1", "2"):
            for n in (1, 2):
                for t in (2.0, 3.0):
                    result = growth_inequality_check(suq2_half, label, n, t)
                    assert result["pass"], result

    def test_holds_on_kac_models(self, s3_dual, cyclic5_dual):
        for m in (s3_dual, cyclic5_dual):
            for label in m.labels:
                result = growth_inequality_check(m, label, 2, 2.0)
                # Kac: all spectra are flat, both sides reduce to dim^n vs P_n * dim^n
                assert result["pass"]

    def test_p_n_enters_the_bound(self, suq2_half):
        result = growth_inequality_check(suq2_half, "1", 2, 2.0)
        assert result["p_n"] == 3
        expected_rhs = 3.0 * oracles.dim_t_direct(suq2_half.rho("1"), -2.0) ** 2
        assert result["rhs"] == pytest.approx(expected_rhs, rel=1e-12)

    def test_preconditions(self, suq2_half):
        with pytest.raises(PreconditionError):
            growth_inequality_check(suq2_half, "1", 0, 2.0)
        with pytest.raises(PreconditionError):
            growth_inequality_check(suq2_half, "1", 1, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused_like_t_at_most_one(self, suq2_half, t):
        with pytest.raises(PreconditionError, match=r"stated for t > 1"):
            growth_inequality_check(suq2_half, "1", 1, t)


@given(
    st.lists(positive, min_size=1, max_size=5),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=60)
def test_dim_t_additive_on_concatenation(values, t):
    half = normalize_rho(values)
    s = RhoSpectrum(tuple(half) + tuple(half))
    assert dim_t(s, t) == pytest.approx(2.0 * dim_t(half, t), rel=1e-9)
