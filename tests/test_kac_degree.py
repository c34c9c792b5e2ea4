"""Kac detection, standard polynomial identities, and the doubling-sequence calculus."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg import kac_degree
from cqg.errors import ModelConsistencyError, PreconditionError, TruncationError
from cqg.intertwiners import C00Element
from cqg.kac_degree import (
    SequenceStep,
    _kernel_products,
    _standard_polynomial_blocks,
    _unit_grid_slabs,
    bounded_degree_identity_check,
    corollary_6_5_probe,
    is_kac,
    lemma_6_3_check,
    main_inequality_eval,
    main_theorem_sequence,
    n_G,
    prop_6_2_check,
    standard_polynomial,
    subsequence_refine,
    theta_normal_form,
)
from cqg.models import resolve_builtin
from cqg.rep_data import FusionTable, Irrep, QGModel, RhoSpectrum

from . import oracles
from .conftest import TIGHT

small_int_matrix = st.integers(min_value=-3, max_value=3)


class TestIsKac:
    def test_verdicts(self, s3_dual, cyclic5_dual, suq2_half):
        assert is_kac(s3_dual)
        assert is_kac(cyclic5_dual)
        assert not is_kac(suq2_half)
        assert is_kac(resolve_builtin("su_q_2", q=1.0, max_level=3))

    def test_n_g(self, s3_dual, cyclic5_dual, suq2_half):
        assert n_G(s3_dual) == 2
        assert n_G(cyclic5_dual) == 1
        assert n_G(suq2_half) == 9

    def test_predicate_disagreement_raises(self):
        x = 1.0000000015  # log distance above eigen_group, additive distance below abs+rel
        model = QGModel(
            name="disagree",
            trivial="0",
            irreps=(
                Irrep(label="0", dim=1, rho=RhoSpectrum((1.0,)), conjugate="0"),
                Irrep(label="x", dim=2, rho=RhoSpectrum((x, 1.0 / x)), conjugate="x"),
            ),
            fusion=FusionTable({}),
        )
        with pytest.raises(ModelConsistencyError):
            is_kac(model)


class TestStandardPolynomial:
    def _elements(self, m, label, arrays):
        return [C00Element({label: arr}) for arr in arrays]

    def test_matches_brute_force(self, s3_dual):
        rng = np.random.default_rng(7)
        for r in (2, 3, 4):
            arrays = [rng.integers(-3, 4, size=(2, 2)).astype(float) for _ in range(r)]
            xs = self._elements(s3_dual, "std", arrays)
            expected = oracles.brute_standard_polynomial(arrays)
            got = standard_polynomial(xs).block("std")
            assert np.array_equal(got, expected)

    def test_pinned_matrix_unit_value(self, s3_dual):
        e11 = C00Element.matrix_unit(s3_dual, "std", 0, 0)
        e12 = C00Element.matrix_unit(s3_dual, "std", 0, 1)
        e21 = C00Element.matrix_unit(s3_dual, "std", 1, 0)
        result = standard_polynomial([e11, e12, e21]).block("std")
        assert np.array_equal(result, np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_antisymmetry(self, s3_dual):
        rng = np.random.default_rng(11)
        arrays = [rng.integers(-3, 4, size=(2, 2)).astype(float) for _ in range(3)]
        xs = self._elements(s3_dual, "std", arrays)
        swapped = [xs[1], xs[0], xs[2]]
        assert (standard_polynomial(xs) + standard_polynomial(swapped)).is_zero()

    def test_repeated_argument_vanishes(self, s3_dual):
        rng = np.random.default_rng(13)
        a = C00Element({"std": rng.integers(-3, 4, size=(2, 2)).astype(float)})
        b = C00Element({"std": rng.integers(-3, 4, size=(2, 2)).astype(float)})
        assert standard_polynomial([a, a, b]).is_zero()

    def test_disjoint_support_gives_zero(self, s3_dual):
        a = C00Element.matrix_unit(s3_dual, "triv", 0, 0)
        b = C00Element.matrix_unit(s3_dual, "std", 0, 0)
        assert standard_polynomial([a, b]).is_zero()

    def test_needs_two_arguments(self, s3_dual):
        with pytest.raises(PreconditionError):
            standard_polynomial([C00Element.matrix_unit(s3_dual, "std", 0, 0)])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25)
    def test_random_tuples_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 5))
        arrays = [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(r)]
        xs = [C00Element({"b": arr}) for arr in arrays]
        assert np.array_equal(
            standard_polynomial(xs).block("b"), oracles.brute_standard_polynomial(arrays)
        )


class TestKernelAgainstSubsetRecursion:
    """The meet-in-the-middle kernel against the full subset recursion, bit for bit."""

    @pytest.mark.parametrize("r", range(2, 9))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_random_int64_stacks(self, r, n):
        rng = np.random.default_rng(100 * r + n)
        for high in (4, 2**40):  # 2^40 entries overflow: both sides are exact modulo 2^64
            stack = rng.integers(-high, high, size=(r, 6, n, n), dtype=np.int64)
            expected = oracles.subset_recursion_standard_polynomial(stack)
            got = _standard_polynomial_blocks(list(stack))
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def _grid(self, n, r):
        offsets, slabs = [], []
        for offset, values in _unit_grid_slabs(n, r):
            offsets.append(offset)
            slabs.append(values.reshape(-1, n, n))
        assert offsets == list(itertools.accumulate([0] + [len(v) for v in slabs[:-1]]))
        return np.concatenate(slabs)

    @pytest.mark.parametrize("slab", [None, 50])  # 50 cuts every grid into several slabs
    @pytest.mark.parametrize(
        ("model", "label", "rs"),
        [(("s3",), "std", range(2, 6)), (("su_q_2", 0.5, 2), "2", range(2, 5))],
    )
    def test_exhaustive_value_grid(self, monkeypatch, model, label, rs, slab):
        if slab is not None:
            monkeypatch.setattr(kac_degree, "_SLAB", slab)
        n = resolve_builtin(*model).dim(label)
        for r in rs:
            expected = np.concatenate([values for _, values in oracles.chunked_unit_grid(n, r)])
            got = self._grid(n, r)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_witness_on_a_grid_of_several_slabs(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=2)
        assert m.dim("2") == 3 and 9**5 > kac_degree._SLAB
        assert len(list(_unit_grid_slabs(3, 5))) > 1
        result = bounded_degree_identity_check(m, 5, strategy="exhaustive")
        assert result["verdict"] == "violated"
        assert result["tuples_checked"] == 14**5
        assert result["witness"] == oracles.first_unit_witness(m, 5)

    def test_product_count(self):
        assert _kernel_products(8) == 582  # against 8 * 2^7 = 1024 for the full recursion
        assert _kernel_products(7) == 329
        assert _kernel_products(20) <= 10**7 < _kernel_products(21)


class TestBoundedDegree:
    def test_amitsur_levitzki_holds_exhaustively(self, s3_dual):
        result = bounded_degree_identity_check(s3_dual, 4, strategy="exhaustive")
        assert result["verdict"] == "holds_on_samples"
        assert result["tuples_checked"] == 6**4

    def test_degree_below_bound_violated(self, s3_dual):
        result = bounded_degree_identity_check(s3_dual, 3, strategy="exhaustive")
        assert result["verdict"] == "violated"
        assert result["witness"]["kind"] == "matrix_units"
        tup = result["witness"]["tuple"]
        assert tup == [["std", 0, 0], ["std", 0, 1], ["std", 1, 0]]

    def test_random_strategy_finds_m3_witness(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=2)
        result = bounded_degree_identity_check(m, 5, strategy="random", trials=1000, seed=42)
        assert result["verdict"] == "violated"
        assert result["witness"]["kind"] == "elements"
        # replay the witness tuple through the polynomial itself
        elements = [
            C00Element({label: np.array(block) for label, block in entry.items()})
            for entry in result["witness"]["tuple"]
        ]
        assert not standard_polynomial(elements).is_zero()

    def test_random_strategy_holds_at_double_degree(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=2)
        result = bounded_degree_identity_check(m, 6, strategy="random", trials=300, seed=0)
        assert result["verdict"] == "holds_on_samples"

    def test_exhaustive_size_guard(self, suq2_half):
        with pytest.raises(PreconditionError):
            bounded_degree_identity_check(suq2_half, 4, strategy="exhaustive")

    def test_random_size_guard_fires_before_drawing(self):
        # the CLI's default r = 2 N_G on su_q_2 level 8: the subset table's two widest
        # layers would hold (C(18, 9) + C(18, 8)) * 1000 * 9^2 int64 entries, about 60 GB
        m = resolve_builtin("su_q_2", q=2.0, max_level=8)
        entries = (math.comb(18, 9) + math.comb(18, 8)) * 1000 * 81
        with pytest.raises(PreconditionError, match=f"needs {entries} table entries"):
            bounded_degree_identity_check(m, 18, strategy="random", trials=1000)

    @pytest.mark.parametrize(
        ("r", "options"),
        [(40, {"strategy": "exhaustive"}), (26, {"strategy": "random", "trials": 1})],
    )
    def test_product_guard_fires_before_any_work(self, monkeypatch, r, options):
        # one 1x1 block passes the tuple and entry guards; the recursion itself is the cost
        h = (r + 1) // 2
        products = sum(math.comb(r, k) * k for k in range(1, h + 1)) + math.comb(r, h)

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(kac_degree, "_standard_polynomial_blocks", refuse)
        with pytest.raises(PreconditionError, match=f"needs {products} matrix products"):
            bounded_degree_identity_check(resolve_builtin("cyclic1"), r, **options)

    def test_strategy_and_degree_validation(self, s3_dual):
        with pytest.raises(PreconditionError):
            bounded_degree_identity_check(s3_dual, 1)
        with pytest.raises(PreconditionError):
            bounded_degree_identity_check(s3_dual, 3, strategy="typo")


class TestProp62:
    def test_pinned_value(self, suq2_half):
        result = prop_6_2_check(suq2_half, "1", "1", "2")
        assert result["pass"]
        assert result["value"] == pytest.approx(1.05, abs=1e-12)

    def test_pinned_value_other_q(self, suq2_eight_tenths):
        result = prop_6_2_check(suq2_eight_tenths, "1", "2", "3")
        assert result["pass"]
        assert result["value"] == pytest.approx(1.4096, rel=1e-12)

    def test_non_component_rejected(self, suq2_half):
        with pytest.raises(PreconditionError):
            prop_6_2_check(suq2_half, "1", "1", "3")

    def test_wrong_top_eigenvalue_rejected(self, suq2_half):
        with pytest.raises(PreconditionError):
            prop_6_2_check(suq2_half, "1", "1", "0")


class TestThetaNormalForm:
    def test_round_trip(self):
        s = RhoSpectrum((4.0, 1.0, 0.25))
        form = theta_normal_form(s)
        assert form.Gamma == 4.0
        assert form.thetas == (1.0,)
        assert form.parity == "odd"
        assert not form.kac
        assert tuple(form.reconstruct()) == pytest.approx(tuple(s))

    def test_even_case(self):
        s = RhoSpectrum((8.0, 2.0, 0.5, 0.125))
        form = theta_normal_form(s)
        assert form.parity == "even"
        assert form.thetas == pytest.approx((1.0, 1.0 / 3.0))
        assert tuple(form.reconstruct()) == pytest.approx(tuple(s))

    def test_kac_marker(self):
        form = theta_normal_form(RhoSpectrum((1.0, 1.0)))
        assert form.kac and form.thetas == (1.0,)

    def test_asymmetric_rejected(self, free_orth):
        with pytest.raises(PreconditionError):
            theta_normal_form(free_orth.rho("f"))

    @given(
        st.floats(min_value=1.1, max_value=50.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=50)
    def test_round_trip_random(self, gamma, mid_thetas, odd):
        thetas = sorted([1.0] + mid_thetas, reverse=True)
        values = [gamma**t for t in thetas] + [gamma**-t for t in thetas]
        if odd:
            values.append(1.0)
        s = RhoSpectrum(tuple(values))
        form = theta_normal_form(s)
        assert tuple(form.reconstruct()) == pytest.approx(tuple(s), rel=1e-9)


class TestMainTheoremSequence:
    def test_pinned_steps(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=16)
        seq = main_theorem_sequence(m, "1", 4)
        got = [(s.k, s.label, s.Gamma, s.d1, s.dim) for s in seq]
        for actual, expected in zip(got, oracles.MAIN_SEQUENCE_Q_HALF):
            assert actual[:3] == expected[:3]
            assert actual[3] == pytest.approx(expected[3], rel=1e-12)
            assert actual[4] == expected[4]

    def test_kac_start_rejected(self, s3_dual):
        with pytest.raises(PreconditionError):
            main_theorem_sequence(s3_dual, "std", 2)

    def test_fragment_exhaustion_is_truncation(self, suq2_half):
        with pytest.raises(TruncationError):
            main_theorem_sequence(suq2_half, "1", 4)  # k=5 needs the (8, 8) row


class TestLemma63:
    def test_chain_values(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=8)
        seq = main_theorem_sequence(m, "1", 3)
        rows = lemma_6_3_check(seq, [1, 2, 3, 4], 2.0)
        values = [row["value"] for row in rows]
        assert values == pytest.approx(oracles.LEMMA_CHAIN_Q_HALF, rel=1e-12)
        assert all(row["pass"] for row in rows)

    def test_closed_form_agreement(self):
        # consecutive doubling labels 2^(k-1): the value telescopes to a q-power ratio
        q = 0.5
        for (m_lo, m_hi), expected in zip(((1, 2), (2, 4), (4, 8)), oracles.LEMMA_CHAIN_Q_HALF):
            assert oracles.lemma_6_3_closed(q, m_lo, m_hi) == pytest.approx(expected, rel=1e-10)

    def test_index_validation(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=8)
        seq = main_theorem_sequence(m, "1", 2)
        with pytest.raises(PreconditionError):
            lemma_6_3_check(seq, [2, 1], 2.0)
        with pytest.raises(PreconditionError):
            lemma_6_3_check(seq, [1, 7], 2.0)


def _flat_step(k: int, spectrum: tuple[float, ...], label: str = "x") -> SequenceStep:
    s = RhoSpectrum(spectrum)
    top = s[0]
    top_dim = sum(1 for v in s if v == top)
    return SequenceStep(
        k=k,
        label=label,
        Gamma=float(top),
        log_gamma=math.log(top),
        d1=float(s.trace()),
        dim_top=top_dim,
        dim=len(s),
        spectrum=s,
    )


class TestSubsequenceRefine:
    def test_dimension_escape_on_suq2(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=16)
        seq = main_theorem_sequence(m, "1", 4)
        outcome = subsequence_refine(seq, 2.0)
        assert outcome["outcome"] == "dimension_escape"
        assert outcome["dims"] == [2, 3, 5, 9, 17]

    def test_constant_dimension_chain_refines(self):
        seq = [_flat_step(1, (2.0, 0.5)), _flat_step(3, (2.0, 0.5))]
        outcome = subsequence_refine(seq, 2.0)
        assert outcome["outcome"] == "refined"
        assert outcome["k_indices"] == [1, 3]
        assert outcome["dimension"] == 2

    def test_domination_failure_escapes(self):
        # theta_A = (1, 0) forces 4 theta_B_2 <= 3; theta_B_2 = log(12)/log(16) breaks it
        seq = [
            _flat_step(1, (2.0, 1.0, 1.0, 0.5)),
            _flat_step(3, (16.0, 12.0, 1.0 / 12.0, 0.0625)),
        ]
        outcome = subsequence_refine(seq, 2.0)
        assert outcome["outcome"] == "dimension_escape"

    def test_budget_exhaustion(self):
        seq = [_flat_step(1, (2.0, 0.5)), _flat_step(3, (2.0, 0.5))]
        outcome = subsequence_refine(seq, 2.0, budget=0)
        assert outcome["outcome"] == "exhausted"


class TestMainInequality:
    def test_synthetic_trap_values(self):
        step_a = _flat_step(1, (2.0, 0.5))
        step_b = _flat_step(3, (2.0, 0.5))
        result = main_inequality_eval(step_a, step_b, 2.0, 2)
        assert result["lower_bound_value"] == pytest.approx(0.125, rel=1e-12)
        assert result["final_bound_value"] == pytest.approx(0.803125, rel=1e-12)
        assert result["final_bound_value"] < 1.0

    def test_gap_validation(self):
        step_a = _flat_step(1, (2.0, 0.5))
        step_b = _flat_step(2, (2.0, 0.5))
        with pytest.raises(PreconditionError):
            main_inequality_eval(step_a, step_b, 2.0, 2)

    def test_dimension_validation(self):
        step_a = _flat_step(1, (2.0, 0.5))
        step_b = _flat_step(3, (4.0, 1.0, 0.25))
        with pytest.raises(PreconditionError):
            main_inequality_eval(step_a, step_b, 2.0, 2)


class TestCorollaryProbe:
    def test_witness_above_small_bound(self, suq2_half):
        result = corollary_6_5_probe(suq2_half, [("1", 1)], bound=1, budget=8)
        assert result == {
            "outcome": "witness",
            "witness": "2",
            "dim": 3,
            "factors_used": 2,
        }

    def test_deep_witness(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=20)
        result = corollary_6_5_probe(m, [("1", 1)], bound=20, budget=20)
        assert result["outcome"] == "witness"
        assert result["dim"] >= 21

    def test_exhausted_budget(self, suq2_half):
        result = corollary_6_5_probe(suq2_half, [("1", 1)], bound=100, budget=4)
        assert result["outcome"] == "exhausted"
        assert result["witness"] is None

    def test_kac_word_rejected(self, s3_dual):
        with pytest.raises(PreconditionError):
            corollary_6_5_probe(s3_dual, [("std", 2)], bound=1, budget=4)

    def test_empty_word_rejected(self, suq2_half):
        with pytest.raises(PreconditionError):
            corollary_6_5_probe(suq2_half, [("1", 0)], bound=1, budget=4)

    def test_conjugate_power_outside_fragment(self, free_orth):
        # the conjugate resolves, but its fusion row is not ingested
        with pytest.raises(TruncationError):
            corollary_6_5_probe(free_orth, [("f", -2)], bound=1, budget=4)
