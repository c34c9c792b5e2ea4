"""Validation over flat fusion arrays, held to the per-pair and dict-walk references.

``tests/oracles.validate_model_reference`` and ``frobenius_walk_reference``
walk every pair and every fusion entry in Python; ``validate_model`` and
``frobenius_check`` must report exactly what they report, in the same order,
on built-in models with planted defects.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg import resolve_builtin
from cqg.cli import main
from cqg.errors import ModelConsistencyError, PreconditionError
from cqg.fusion import frobenius_check
from cqg.intertwiners import CGTensor, cg_set, verify_cg_unitarity
from cqg.models import builtin_su_q_2
from cqg.rep_data import (
    FusionTable,
    Irrep,
    QGModel,
    RhoSpectrum,
    Tolerance,
    normalize_rho,
    validate_model,
)

from . import oracles

BASES = [
    resolve_builtin("s3"),
    resolve_builtin("cyclic5"),
    resolve_builtin("su_q_2", q=0.5, max_level=6),
    resolve_builtin("su_q_2", q=2.0, max_level=4),
    resolve_builtin("su_q_2", q=0.7, max_level=5),  # traces that round
    resolve_builtin("free_orthogonal", f_diag=[1.0, 1.0, 2.0]),
]

DEFECTS = (
    "foreign-component",
    "extra-component",
    "missing-component",
    "dropped-pair",
    "foreign-pair",
    "non-involutive-conjugate",
    "conjugate-outside",
    "multiplicity",
    "trivial-unit",
    "quantum-dimension-bound",
    "rescaled-spectrum",
    "loose-tolerance",
)


def _plant(m, choose, kinds):
    """m with the defects ``kinds`` planted; ``choose(seq)`` picks one item of seq.

    Returns the model and the tolerance to validate it at.  The fusion table
    is rebuilt from its rows only when a fusion defect is planted, so the
    array-built su_q_2 table is also validated with defects elsewhere.
    """
    rows = {pair: dict(m.fusion.components(*pair)) for pair in m.fusion.pairs()}
    irreps, labels, tol = list(m.irreps), list(m.labels), Tolerance()
    fusion_touched = False
    for kind in kinds:
        pair = choose(list(rows))
        if kind in ("conjugate-outside", "non-involutive-conjugate"):
            k = choose(range(len(irreps)))
            target = "ghost" if kind == "conjugate-outside" else choose(labels)
            irreps[k] = dataclasses.replace(irreps[k], conjugate=target)
            continue
        if kind == "rescaled-spectrum":  # balanced, but no longer what the fusion rules need
            k = choose(range(len(irreps)))
            spectrum = normalize_rho([1.5**i for i in range(irreps[k].dim)])
            irreps[k] = dataclasses.replace(irreps[k], rho=spectrum)
            continue
        if kind == "loose-tolerance":  # every float comparison passes; dimension counts are exact
            tol = Tolerance(abs=1e3, rel=1e3)
            continue
        if kind == "quantum-dimension-bound":
            # a tolerance that sits on, or one float step either side of, the
            # quantum-dimension residual of one row (a defective row if there is one)
            traces = {irr.label: irr.rho.trace() for irr in irreps}
            row = rows[pair]
            if pair[0] not in traces or pair[1] not in traces or any(x not in traces for x in row):
                continue
            d1_sum = sum(mult * traces[label] for label, mult in row.items())
            d1_prod = traces[pair[0]] * traces[pair[1]]
            bound = float(np.nextafter(abs(d1_sum - d1_prod), choose((-math.inf, math.inf))))
            bound = choose((abs(d1_sum - d1_prod), max(bound, 0.0)))
            scale = max(abs(d1_sum), abs(d1_prod))
            tol = choose((Tolerance(abs=bound, rel=0.0), Tolerance(abs=0.0, rel=bound / scale)))
            continue
        fusion_touched = True
        row = rows[pair]
        if kind == "foreign-component":
            row["ghost"] = 1
        elif kind == "extra-component":
            label = choose(labels)
            row[label] = row.get(label, 0) + 1
        elif kind == "missing-component" and row:
            del row[choose(list(row))]
        elif kind == "dropped-pair" and len(rows) > 1:
            del rows[pair]
        elif kind == "foreign-pair":
            label = choose(labels)
            ghost_pair = choose(((label, "ghost"), ("ghost", label)))
            rows[ghost_pair] = {choose(labels + ["ghost"]): choose((1, 2))}
        elif kind == "multiplicity" and row:
            row[choose(list(row))] = choose((2, 3))
        elif kind == "trivial-unit":
            other = choose(labels)
            unit_pair = choose(((m.trivial, other), (other, m.trivial)))
            rows[unit_pair] = choose(
                ({other: 2}, {choose(labels): 1}, {other: 1, choose(labels): 1}, {})
            )
    fusion = FusionTable(rows) if fusion_touched else m.fusion
    return dataclasses.replace(m, irreps=tuple(irreps), fusion=fusion), tol


def _frobenius_rows(mismatches):
    keys = ("alpha", "beta", "gamma", "m_direct", "m_reciprocal", "message")
    return [{"invariant": "frobenius", **dict(zip(keys, mismatch))} for mismatch in mismatches]


def _assert_same_as_the_walk(m, tol):
    issues = validate_model(m, tol).issues
    assert issues == oracles.validate_model_reference(m, tol).issues
    assert frobenius_check(m) == _frobenius_rows(oracles.frobenius_walk_reference(m))
    return issues


@given(st.data())
@settings(max_examples=200)
def test_validation_equals_the_per_pair_walk_on_planted_defects(data):
    m = data.draw(st.sampled_from(BASES))
    kinds = data.draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=4))
    planted, tol = _plant(m, lambda seq: data.draw(st.sampled_from(list(seq))), kinds)
    _assert_same_as_the_walk(planted, tol)


def test_every_planted_defect_kind_is_reported_and_matched():
    rng = random.Random(20171)
    seen: set[str] = set()
    for base in BASES:
        for kind in DEFECTS:
            for _ in range(12):
                planted, tol = _plant(base, lambda seq: rng.choice(list(seq)), [kind])
                seen.update(issue.invariant for issue in _assert_same_as_the_walk(planted, tol))
    assert seen >= {
        "fusion-labels",
        "dimension-count",
        "quantum-dimension-count",
        "trivial-unit",
        "trivial-multiplicity",
        "frobenius",
        "conjugate-missing",
        "conjugate-involution",
        "conjugate-spectrum",
    }


def test_clean_builtins_validate_like_the_walk(all_builtins):
    for m in [*all_builtins, resolve_builtin("su_q_2", q=0.5, max_level=40)]:
        assert _assert_same_as_the_walk(m, Tolerance()) == []


def _with_row(m, pair, row, tol=Tolerance()):
    rows = {p: dict(m.fusion.components(*p)) for p in m.fusion.pairs()}
    rows[pair] = row
    return _assert_same_as_the_walk(dataclasses.replace(m, fusion=FusionTable(rows)), tol)


@pytest.mark.parametrize("pair", [("0", "2"), ("2", "0")])
def test_a_unit_row_that_only_the_unit_check_catches(pair):
    # dimensions, quantum dimensions and the trivial multiplicity all still hold
    issues = _with_row(resolve_builtin("cyclic5"), pair, {"3": 1})
    assert [i.invariant for i in issues if i.invariant != "frobenius"] == ["trivial-unit"]


def test_a_dimension_count_that_only_the_exact_count_catches():
    row = {"triv": 1, "sgn": 1, "std": 2}
    issues = _with_row(resolve_builtin("s3"), ("std", "std"), row, Tolerance(abs=1e3, rel=1e3))
    assert [i.invariant for i in issues if i.invariant != "frobenius"] == ["dimension-count"]


def test_a_quantum_dimension_count_that_only_the_float_count_catches():
    m = resolve_builtin("su_q_2", q=0.5, max_level=4)
    irreps = list(m.irreps)
    # balanced and inverse-closed, so label 3 stays self-conjugate: only the fusion sums move
    irreps[3] = dataclasses.replace(irreps[3], rho=RhoSpectrum((2.0, 1.0, 1.0, 0.5)))
    issues = _assert_same_as_the_walk(dataclasses.replace(m, irreps=tuple(irreps)), Tolerance())
    assert {i.invariant for i in issues} == {"quantum-dimension-count"}


def test_an_infinite_quantum_dimension_fails_like_the_walk():
    # inf - inf is nan, which no tolerance accepts
    huge = RhoSpectrum((1.7e308, 1.7e308))
    irreps = (Irrep("t", 1, RhoSpectrum((1.0,)), "t"), Irrep("x", 2, huge, "x"))
    rows = {("t", "t"): {"t": 1}, ("t", "x"): {"x": 1}, ("x", "t"): {"x": 1}}
    m = QGModel(name="huge", trivial="t", irreps=irreps, fusion=FusionTable(rows))
    issues = validate_model(m).issues
    reference = oracles.validate_model_reference(m).issues
    assert [(i.invariant, i.labels, i.message) for i in issues] == [
        (i.invariant, i.labels, i.message) for i in reference
    ]
    assert [i.labels for i in issues if i.invariant == "quantum-dimension-count"] == [
        ("t", "x"),
        ("x", "t"),
    ]


def test_quantum_dimension_bound_decides_like_the_walk():
    # a row with one extra component, held at its own residual and one float step either side
    m = resolve_builtin("s3")
    rows = {pair: dict(m.fusion.components(*pair)) for pair in m.fusion.pairs()}
    rows["std", "std"]["std"] = 2
    broken = dataclasses.replace(m, fusion=FusionTable(rows))
    residual = abs(1 + 1 + 2 * 2 - 2 * 2)  # traces of triv, sgn and std are 1, 1 and 2
    verdicts = []
    for bound in (np.nextafter(residual, 0.0), float(residual), np.nextafter(residual, 3.0)):
        issues = _assert_same_as_the_walk(broken, Tolerance(abs=float(bound), rel=0.0))
        verdicts.append(any(i.invariant == "quantum-dimension-count" for i in issues))
    assert verdicts == [True, False, False]


@pytest.mark.parametrize("relative", [False, True])
def test_conjugate_spectrum_bound_decides_like_the_walk(relative):
    # fbar's top entry moved off the inverse of f's bottom one, with a tolerance on the
    # residual and one float step either side, as an absolute or as a relative bound
    m = resolve_builtin("free_orthogonal", f_diag=[1.0, 1.0, 2.0])
    f, fbar = m.irrep("f"), m.irrep("fbar")
    moved = RhoSpectrum((fbar.rho[0] * (1 + 1e-7), *fbar.rho.eigenvalues[1:]))
    m = dataclasses.replace(m, irreps=(m.irreps[0], f, dataclasses.replace(fbar, rho=moved)))
    x, y = moved[0], f.rho.conjugate()[0]
    residual, size = abs(x - y), max(abs(x), abs(y))
    verdicts = []
    for bound in (np.nextafter(residual, 0.0), residual, np.nextafter(residual, 1.0)):
        bound = float(bound)
        tol = Tolerance(abs=0.0, rel=bound / size) if relative else Tolerance(abs=bound, rel=0.0)
        issues = _assert_same_as_the_walk(m, tol)
        flagged = [i.labels for i in issues if i.invariant == "conjugate-spectrum"]
        verdicts.append(("f", "fbar") in flagged)
    assert verdicts[0] and not verdicts[2]


@pytest.mark.parametrize("dim, rho, residual", [(2, (1.0, 1.0), None), (1, (2.0,), 1.0)])
def test_a_trivial_irrep_off_dim_1_or_rho_1_is_reported(dim, rho, residual):
    irreps = (Irrep("t", dim, RhoSpectrum(rho), "t"),)
    m = QGModel(name="off", trivial="t", irreps=irreps, fusion=FusionTable({}))
    issues = [i for i in _assert_same_as_the_walk(m, Tolerance()) if i.invariant == "trivial-irrep"]
    message = f"trivial irrep must have dim 1 and rho (1); got dim {dim}, rho {rho}"
    assert [(i.labels, i.residual, i.message) for i in issues] == [(("t",), residual, message)]


@pytest.mark.parametrize("level", range(13))
def test_array_built_su_q_2_rows_equal_the_dict_built_rows(level):
    m = builtin_su_q_2(0.5, level)
    rows = {
        (str(left), str(right)): oracles.suq2_components(left, right)
        for left in range(level + 1)
        for right in range(level + 1 - left)
    }
    table = FusionTable(rows)
    assert m.fusion.pairs() == table.pairs()
    assert len(m.fusion) == len(table)
    for pair in table.pairs():
        assert pair in m.fusion
        row = m.fusion.components(*pair)
        assert list(row.items()) == list(table.components(*pair).items())
        assert all(type(mult) is int for mult in row.values())
        assert m.fusion.components(*pair) is row  # built on first read, then kept
    assert (str(level), "1") not in m.fusion


def test_multiplicities_must_fit_in_64_bits():
    with pytest.raises(ModelConsistencyError, match="below 2"):
        FusionTable({("a", "a"): {"a": 2**63}})
    assert FusionTable({("a", "a"): {"a": 2**63 - 1}}).components("a", "a") == {"a": 2**63 - 1}


def _entries(level: int) -> int:
    pairs = ((left, right) for left in range(level + 1) for right in range(level + 1 - left))
    return sum(min(left, right) + 1 for left, right in pairs)


class TestSuQ2SizeCap:
    def test_the_cap_is_level_490(self):
        assert _entries(240) == 1_188_341
        assert _entries(490) <= 10**7 < _entries(491)

    @pytest.mark.parametrize("level", [491, 600, 1000])
    def test_levels_above_the_cap_are_refused_with_their_count(self, level):
        pattern = re.escape(f"max_level={level} has {_entries(level)} fusion entries")
        with pytest.raises(PreconditionError, match=pattern):
            builtin_su_q_2(1.0, level)

    def test_huge_levels_are_refused_at_once(self):
        with pytest.raises(PreconditionError, match="above the cap"):
            builtin_su_q_2(1.0, 10**12)

    def test_the_q_range_is_checked_first(self):
        with pytest.raises(PreconditionError, match="normal float range"):
            builtin_su_q_2(0.5, 1100)

    def test_cli_exits_2(self, capsys):
        code = main(["spectra", "--model", "su_q_2", "--q", "1", "--max-level", "1000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "max_level=1000" in captured.err


class TestUnitarityNaN:
    def test_a_nan_coefficient_fails_the_check(self):
        coeffs = np.zeros((2, 1, 2))
        coeffs[0, 0, 0] = 1.0
        coeffs[1, 0, 1] = math.nan
        result = verify_cg_unitarity([CGTensor("a", "b", "c", 1, coeffs)])
        assert math.isnan(result["max_residual"])
        assert result["pass"] is False

    def test_a_nan_in_a_later_tensor_fails_the_check(self):
        first = CGTensor("a", "b", "c", 1, np.array([[[1.0]], [[0.0]]]))
        second = CGTensor("d", "b", "c", 1, np.array([[[0.0]], [[math.nan]]]))
        result = verify_cg_unitarity([first, second])
        assert result["tensors"][0]["isometry_residual"] == 0.0
        assert math.isnan(result["cross_orthogonality_residual"])
        assert math.isnan(result["max_residual"])
        assert result["pass"] is False

    def test_finite_residuals_are_the_plain_maximum(self, suq2_half):
        for pair in (("1", "1"), ("2", "3"), ("4", "4")):
            result = verify_cg_unitarity(cg_set(suq2_half, *pair))
            parts = [t["isometry_residual"] for t in result["tensors"]]
            parts += [result["cross_orthogonality_residual"], result["completeness_residual"]]
            assert result["max_residual"] == max(parts)
            assert result["pass"] is True
