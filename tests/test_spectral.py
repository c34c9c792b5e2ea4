"""Spectral projections and the twisted trace identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg import resolve_builtin, spectral
from cqg.errors import PreconditionError
from cqg.intertwiners import cg_supplement_document
from cqg.rep_data import (
    DEFAULT_TOLERANCE,
    RhoSpectrum,
    Tolerance,
    load_model,
    model_to_document,
    normalize_rho,
)
from cqg.spectral import (
    _theorem_5_3_plan,
    _theorem_5_3_sweep,
    distinct_eigenvalues,
    eigenspace_dim,
    spectral_grid,
    spectral_projection,
    tensor_projection_pairs,
    verify_theorem_5_3,
)

from .conftest import TIGHT
from .oracles import drop_grouped_greedy, theorem_5_3_reference

positive = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)


class TestProjection:
    def test_index_sets(self):
        s = RhoSpectrum((2.0, 1.0, 1.0, 0.5))
        assert spectral_projection(s, 2.0, TIGHT).index_set == (0,)
        assert spectral_projection(s, 1.0, TIGHT).index_set == (1, 2)
        assert spectral_projection(s, 0.5, TIGHT).index_set == (3,)
        assert spectral_projection(s, 3.0, TIGHT).index_set == ()

    def test_dim_counts_multiplicity(self):
        s = RhoSpectrum((2.0, 1.0, 1.0, 0.5))
        assert eigenspace_dim(s, 1.0, TIGHT) == 2
        assert eigenspace_dim(s, 7.0, TIGHT) == 0

    def test_grouping_is_log_scale(self):
        tol = Tolerance(abs=1e-15, rel=1e-15, eigen_group=0.05)
        s = RhoSpectrum((1000.0, 1000.0 * 1.01, 0.001))
        assert eigenspace_dim(s, 1000.0, tol) == 2

    def test_nonpositive_t_rejected(self):
        s = RhoSpectrum((1.0,))
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(PreconditionError):
                spectral_projection(s, bad)

    def test_distinct_eigenvalues(self, suq2_half):
        s = suq2_half.rho("4")
        assert distinct_eigenvalues(s, TIGHT) == [16.0, 4.0, 1.0, 0.25, 0.0625]


class TestTensorPairs:
    def test_pairs_cover_product_eigenspace(self, suq2_half):
        for left, right in suq2_half.fusion.pairs():
            s_u = suq2_half.rho(left)
            s_v = suq2_half.rho(right)
            product = sorted((x * y for x in s_u for y in s_v), reverse=True)
            for t in sorted(set(product)):
                pairs = tensor_projection_pairs(s_u, s_v, t, TIGHT)
                total = sum(
                    eigenspace_dim(s_u, a, TIGHT) * eigenspace_dim(s_v, b, TIGHT)
                    for a, b in pairs
                )
                expected = sum(1 for v in product if abs(v - t) <= 1e-12 * t)
                assert total == expected, (left, right, t)

    def test_off_support_gives_no_pairs(self):
        s = RhoSpectrum((2.0, 0.5))
        assert tensor_projection_pairs(s, s, 7.0, TIGHT) == []


@given(st.lists(positive, min_size=1, max_size=4), st.lists(positive, min_size=1, max_size=4))
@settings(max_examples=40)
def test_tensor_spectrum_is_product_multiset(left, right):
    s_u = normalize_rho(left)
    s_v = normalize_rho(right)
    product = sorted((x * y for x in s_u for y in s_v), reverse=True)
    # every product value is hit by exactly the right number of pairs
    tol = Tolerance(abs=1e-9, rel=1e-9, eigen_group=1e-9)
    for t in product:
        pairs = tensor_projection_pairs(s_u, s_v, t, tol)
        total = sum(eigenspace_dim(s_u, a, tol) * eigenspace_dim(s_v, b, tol) for a, b in pairs)
        assert total >= 1


class TestSpectralGrid:
    def test_grid_is_sorted_and_complete(self, suq2_half):
        grid = spectral_grid(suq2_half, "2", "1", probes=0)
        ts = [t for _, t in grid]
        assert ts == sorted(ts, reverse=True)
        # |Sp(alpha)| x |Sp(beta)| distinct products for these labels
        assert len(grid) == 6

    def test_probes_are_off_support(self, suq2_half):
        s_alpha = suq2_half.rho("2")
        s_beta = suq2_half.rho("1")
        grid = spectral_grid(suq2_half, "2", "1", probes=3)
        probes = grid[-3:]
        for s, t in probes:
            off = (
                eigenspace_dim(s_beta, t, TIGHT) == 0
                or eigenspace_dim(s_alpha, s * t, TIGHT) == 0
            )
            assert off

    def test_probe_count_respected(self, suq2_half):
        for probes in (0, 1, 4):
            grid = spectral_grid(suq2_half, "0", "0", probes=probes)
            assert len(grid) == 1 + probes

    @pytest.mark.parametrize(
        "name, params",
        [
            ("su_q_2", {"q": 0.5, "max_level": 8}),
            ("su_q_2", {"q": 2.0, "max_level": 8}),
            ("su_q_2", {"q": 1.0, "max_level": 8}),
            ("su_q_2", {"q": 0.1, "max_level": 8}),
            ("su_q_2", {"q": 0.999999, "max_level": 8}),
            ("s3", {}),
            ("cyclic7", {}),
            ("free_orthogonal", {"f_diag": [1.0, 2.0, 3.0]}),
        ],
    )
    @pytest.mark.parametrize(
        "tol",
        [
            DEFAULT_TOLERANCE,
            Tolerance(eigen_group=0.3),
            Tolerance(eigen_group=1.5),
            Tolerance(eigen_group=3.0),
        ],
    )
    def test_grid_equals_the_greedy_loop(self, name, params, tol):
        # the grid drops nothing: no two class pairs group in both s and t
        m = resolve_builtin(name, **params)
        for alpha in m.labels:
            for beta in m.labels:
                candidates = [
                    (product / t, t)
                    for t in distinct_eigenvalues(m.rho(beta), tol)
                    for product in distinct_eigenvalues(m.rho(alpha), tol)
                ]
                want = sorted(
                    drop_grouped_greedy(candidates, tol.eigen_group), key=lambda p: (-p[1], -p[0])
                )
                assert spectral_grid(m, alpha, beta, probes=0, tol=tol) == want

    def test_grouped_points_are_dropped(self):
        points = [(1.0, 1.0), (1.1, 1.0), (3.0, 1.0), (1.05, 1.05), (3.1, 0.95)]
        want = [(1.0, 1.0), (3.0, 1.0)]
        assert drop_grouped_greedy(points, 0.2) == want


class TestTheorem53:
    def test_worked_value_on_the_fundamental(self, suq2_half):
        # (s, t) = (0.5, 2): both identities evaluate to 2 x the projection
        result = verify_theorem_5_3(suq2_half, "0", "1", 0.5, 2.0, TIGHT)
        assert not result["truncated"]
        assert result["on_grid"]
        assert result["dim_h_beta_t"] == 1
        assert result["rhs_norm_eq2"] == pytest.approx(2.0, rel=1e-12)
        assert result["residual_eq1"] <= 1e-12
        assert result["residual_eq2"] <= 1e-12

    def test_mirrored_orientation(self, suq2_half):
        result = verify_theorem_5_3(suq2_half, "0", "1", 2.0, 0.5, TIGHT)
        assert result["rhs_norm_eq1"] == pytest.approx(2.0, rel=1e-12)
        assert result["residual_eq1"] <= 1e-12
        assert result["residual_eq2"] <= 1e-12

    def test_machine_zero_on_grid(self, suq2_half):
        for alpha, beta in (("1", "1"), ("2", "1"), ("1", "2"), ("3", "2")):
            for s, t in spectral_grid(suq2_half, alpha, beta, probes=0):
                result = verify_theorem_5_3(suq2_half, alpha, beta, s, t, TIGHT)
                if result["truncated"]:
                    continue
                assert result["residual_eq1"] <= 1e-12, (alpha, beta, s, t)
                assert result["residual_eq2"] <= 1e-12, (alpha, beta, s, t)

    def test_off_grid_both_sides_vanish(self, suq2_half):
        result = verify_theorem_5_3(suq2_half, "1", "1", 7.0, 11.0, TIGHT)
        assert not result["on_grid"]
        for key in ("lhs_norm_eq1", "rhs_norm_eq1", "lhs_norm_eq2", "rhs_norm_eq2"):
            assert result[key] <= 1e-12

    def test_truncated_pair_reported_not_asserted(self, suq2_half):
        result = verify_theorem_5_3(suq2_half, "8", "8", 1.0, 1.0, TIGHT)
        assert result["truncated"]
        assert result["pass"] is None

    def test_kac_model_grid_is_single_point(self, s3_dual):
        grid = spectral_grid(s3_dual, "std", "std", probes=0)
        assert grid == [(1.0, 1.0)]
        result = verify_theorem_5_3(s3_dual, "std", "std", 1.0, 1.0, TIGHT)
        assert not result["truncated"]
        assert result["residual_eq1"] <= 1e-12
        assert result["residual_eq2"] <= 1e-12

    def test_nonpositive_parameters_rejected(self, suq2_half):
        with pytest.raises(PreconditionError):
            verify_theorem_5_3(suq2_half, "1", "1", -1.0, 2.0, TIGHT)
        with pytest.raises(PreconditionError):
            verify_theorem_5_3(suq2_half, "1", "1", 1.0, 0.0, TIGHT)


@pytest.mark.parametrize(
    "name, params",
    [
        ("su_q_2", {"q": 0.5, "max_level": 6}),
        ("su_q_2", {"q": 2.0, "max_level": 6}),
        ("su_q_2", {"q": 1.0, "max_level": 4}),
        ("s3", {}),
        ("cyclic5", {}),
        ("free_orthogonal", {"f_diag": [1.0, 2.0, 3.0]}),
        ("su_q_2", {"q": 0.81, "max_level": 8}),
    ],
)
def test_theorem_5_3_equals_the_dense_reference(name, params):
    # every key, exactly: masks and closed-form |c| against dense projections and SVD norms
    m = resolve_builtin(name, **params)
    support_kinds = set()
    for alpha in m.labels:
        for beta in m.labels:
            # the grid and its probes, then points with only beta, or only alpha, on support
            points = spectral_grid(m, alpha, beta, probes=2)
            points += [(7.0, t) for t in distinct_eigenvalues(m.rho(beta))]
            points += [(lam / 7.0, 7.0) for lam in distinct_eigenvalues(m.rho(alpha))]
            for s, t in points:
                result = verify_theorem_5_3(m, alpha, beta, s, t, DEFAULT_TOLERANCE)
                want = theorem_5_3_reference(m, alpha, beta, s, t, DEFAULT_TOLERANCE)
                assert list(result.items()) == list(want.items()), (alpha, beta, s, t)
                support_kinds.add((result["dim_h_beta_t"] > 0, result["dim_h_alpha_st"] > 0))
    assert support_kinds == {(True, True), (True, False), (False, True), (False, False)}


def _diagonal_plans(m):
    # per (alpha, beta) and equation: is the planned left-hand side diagonal-only?
    return {
        (alpha, beta, eq): bool(np.array_equal(rows, cols))
        for alpha in m.labels
        for beta in m.labels
        for eq, (_, (rows, cols), _) in enumerate(_theorem_5_3_plan(m, alpha, beta))
    }


@pytest.mark.parametrize(
    "name, params",
    [
        ("su_q_2", {"q": 0.5, "max_level": 14}),
        ("su_q_2", {"q": 2.0, "max_level": 14}),
        ("su_q_2", {"q": 1.0, "max_level": 14}),
        ("su_q_2", {"q": 0.81, "max_level": 14}),
        ("cyclic5", {}),
        ("free_orthogonal", {}),
        ("free_orthogonal", {"f_diag": [1.0, 2.0, 3.0]}),
    ],
)
def test_weight_graded_models_plan_diagonal_left_hand_sides(name, params):
    # each CG row meets one basis vector of alpha, so every norm is a max |entry|
    assert all(_diagonal_plans(resolve_builtin(name, **params)).values())


def test_s3_plans_dense_left_hand_sides_on_std():
    # the group-average CG of std x std mixes both basis vectors: the SVD path
    m = resolve_builtin("s3")
    diagonal = _diagonal_plans(m)
    assert diagonal == {key: m.dim(key[0]) == 1 for key in diagonal}
    assert not all(diagonal.values())


def test_an_off_weight_cg_entry_widens_the_live_set():
    # a loaded tensor entry off the weight rule (below the gate) must reach the left-hand side
    m = resolve_builtin("su_q_2", q=0.5, max_level=4)
    doc = model_to_document(m)
    doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
    (entry,) = [e for e in doc["cg"] if (e["beta"], e["gamma"], e["alpha"]) == ("1", "1", "2")]
    entry["coeffs"].append([0, 1, 0, 1e-13, 0.0])  # a = 0 at row (1, 0), which holds a = 1
    planted = load_model(doc)
    for _, (rows, cols), _ in _theorem_5_3_plan(planted, "2", "1"):
        assert {(0, 1), (1, 0)} <= set(zip(rows.tolist(), cols.tolist()))
    points = _grid_and_off_support(planted, "2", "1")
    swept = _theorem_5_3_sweep(planted, "2", "1", points, DEFAULT_TOLERANCE)
    clean = _theorem_5_3_sweep(m, "2", "1", points, DEFAULT_TOLERANCE)
    for (s, t), result in zip(points, swept):
        want = theorem_5_3_reference(planted, "2", "1", s, t, DEFAULT_TOLERANCE)
        assert list(result.items()) == list(want.items()), (s, t)
    worst = max(max(r["residual_eq1"], r["residual_eq2"]) for r in swept)
    assert worst > 1e-14 > max(max(r["residual_eq1"], r["residual_eq2"]) for r in clean)


def _grid_and_off_support(m, alpha, beta):
    # the grid and its probes, then points with only beta, or only alpha, on support
    points = spectral_grid(m, alpha, beta, probes=2)
    points += [(7.0, t) for t in distinct_eigenvalues(m.rho(beta))]
    points += [(lam / 7.0, 7.0) for lam in distinct_eigenvalues(m.rho(alpha))]
    return points


@pytest.mark.parametrize(
    "name, params",
    [
        ("su_q_2", {"q": 0.5, "max_level": 10}),
        ("su_q_2", {"q": 2.0, "max_level": 6}),
        ("su_q_2", {"q": 1.0, "max_level": 4}),
        ("s3", {}),
        ("cyclic5", {}),
        ("free_orthogonal", {}),
        ("free_orthogonal", {"f_diag": [1.0, 2.0, 3.0]}),
    ],
)
def test_sweep_equals_the_per_point_verifier(name, params):
    # the stacked, chunked sweep returns exactly what one-point calls return, as plain Python
    m = resolve_builtin(name, **params)
    longest = 0
    for alpha in m.labels:
        for beta in m.labels:
            points = _grid_and_off_support(m, alpha, beta)
            longest = max(longest, len(points))
            swept = _theorem_5_3_sweep(m, alpha, beta, points, DEFAULT_TOLERANCE)
            assert len(swept) == len(points)
            for (s, t), result in zip(points, swept):
                want = verify_theorem_5_3(m, alpha, beta, s, t, DEFAULT_TOLERANCE)
                assert list(result.items()) == list(want.items()), (alpha, beta, s, t)
                assert {type(v) for v in result.values()} <= {str, int, float, bool, type(None)}
    if params.get("max_level") == 10:
        assert longest > 2 * spectral._CHUNK  # the (10, 10) pair spans three chunks


def test_sweep_fetches_each_plan_entry_once(monkeypatch):
    calls = []
    real_cg_record = spectral._cg_record

    def counting_cg_record(m, *pair, **kwargs):
        calls.append(pair)
        return real_cg_record(m, *pair, **kwargs)

    monkeypatch.setattr(spectral, "_cg_record", counting_cg_record)
    m = resolve_builtin("su_q_2", q=0.5, max_level=6)
    entries = 0
    for alpha in m.labels:
        for beta in m.labels:
            points = spectral_grid(m, alpha, beta, probes=2)
            _theorem_5_3_sweep(m, alpha, beta, points, DEFAULT_TOLERANCE)
            _theorem_5_3_sweep(m, alpha, beta, points[:1], DEFAULT_TOLERANCE)
            entries += sum(len(terms) for _, _, terms in _theorem_5_3_plan(m, alpha, beta))
    assert 0 < len(calls) <= entries


@pytest.mark.parametrize(
    "bad", [(-1.0, 2.0), (1.0, 0.0), (float("nan"), 1.0), (1.0, float("inf")), (1e200, 1e200),
            (1e-200, 1e-200)]
)
def test_sweep_rejects_a_bad_point(suq2_half, bad):
    with pytest.raises(PreconditionError):
        _theorem_5_3_sweep(suq2_half, "1", "1", [(0.5, 2.0), bad], TIGHT)
    with pytest.raises(PreconditionError):
        verify_theorem_5_3(suq2_half, "1", "1", *bad, TIGHT)
