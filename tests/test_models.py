"""Built-in model constructors and their certification."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

from cqg.cli import main
from cqg.errors import ModelConsistencyError, ModelSchemaError, PreconditionError
from cqg.kac_degree import is_kac, n_G
from cqg.models import (
    BUILTIN_NAMES,
    _certify,
    builtin_finite_group_dual,
    builtin_free_orthogonal_fund,
    builtin_su_q_2,
    resolve_builtin,
    rho_defining_property_oracle,
)
from cqg.rep_data import (
    DEFAULT_TOLERANCE,
    RhoSpectrum,
    load_model,
    model_to_document,
    normalize_rho,
    validate_model,
)

from . import oracles
from .conftest import TIGHT


class TestDefiningPropertyOracle:
    def test_balanced_accepted(self):
        assert rho_defining_property_oracle(RhoSpectrum((2.0, 0.5)))
        assert rho_defining_property_oracle(RhoSpectrum((1.0, 1.0, 1.0)))

    def test_unbalanced_rejected(self):
        assert not rho_defining_property_oracle(RhoSpectrum((2.0, 1.0)))

    def test_normalize_restores(self):
        assert rho_defining_property_oracle(normalize_rho([3.0, 1.0]))


class TestSuQ2:
    def test_labels_and_dims(self, suq2_half):
        assert suq2_half.labels == tuple(str(n) for n in range(9))
        for n, label in enumerate(suq2_half.labels):
            assert suq2_half.dim(label) == n + 1
            assert suq2_half.conjugate(label) == label

    @pytest.mark.parametrize("q", [0.5, 0.8, 1.0, 2.0])
    def test_spectra_match_oracle(self, q):
        m = builtin_su_q_2(q, 5)
        for n in range(6):
            expected = sorted(oracles.suq2_spectrum(n, q), reverse=True)
            assert tuple(m.rho(str(n))) == pytest.approx(tuple(expected), rel=1e-12)

    def test_quantum_dims_are_q_integers(self, suq2_half):
        for n, label in enumerate(suq2_half.labels):
            assert suq2_half.rho(label).trace() == pytest.approx(
                oracles.q_int(n + 1, 0.5), rel=1e-12
            )

    def test_fusion_support_is_triangle(self, suq2_half):
        pairs = set(suq2_half.fusion.pairs())
        for left in range(9):
            for right in range(9):
                expected = left + right <= 8
                assert ((str(left), str(right)) in pairs) == expected

    def test_truncation_marked(self, suq2_half):
        assert suq2_half.is_truncated
        assert suq2_half.parameters["q"] == 0.5
        assert suq2_half.parameters["max_level"] == 8.0
        assert suq2_half.name == "su_q_2(q=0.5,max_level=8)"

    def test_classical_point_is_kac(self):
        m = builtin_su_q_2(1.0, 4)
        for label in m.labels:
            assert all(v == 1.0 for v in m.rho(label))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            builtin_su_q_2(0.0, 4)
        with pytest.raises(PreconditionError):
            builtin_su_q_2(-1.0, 4)
        with pytest.raises(PreconditionError):
            builtin_su_q_2(0.5, -1)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("max_level", [0, 4])  # inf**0 is 1.0, inside the float range
    def test_q_must_be_finite(self, q, max_level):
        pattern = f"positive finite real, got q=.*max_level={max_level}"
        with pytest.raises(PreconditionError, match=pattern):
            builtin_su_q_2(q, max_level)

    @pytest.mark.parametrize(
        "q, max_level",
        [
            (1e-80, 6),  # q**-6 overflows
            (1e80, 6),  # q**6 overflows
            (1e-52, 6),  # q**6 is subnormal
            (0.5, 1100),
            (2.0, 1100),
        ],
    )
    def test_q_powers_must_stay_in_float_range(self, q, max_level):
        with pytest.raises(PreconditionError, match=re.escape(f"q={q!r}, max_level={max_level}")):
            builtin_su_q_2(q, max_level)

    def test_extreme_q_inside_the_range_builds(self):
        m = builtin_su_q_2(1e-51, 6)
        assert m.rho("6")[0] == pytest.approx(1e306)


class TestFiniteGroupDuals:
    def test_s3_shape(self, s3_dual):
        assert s3_dual.labels == ("triv", "sgn", "std")
        assert [s3_dual.dim(label) for label in s3_dual.labels] == [1, 1, 2]
        assert all(s3_dual.conjugate(label) == label for label in s3_dual.labels)
        assert not s3_dual.is_truncated

    def test_cyclic_conjugation(self, cyclic5_dual):
        assert len(cyclic5_dual.labels) == 5
        for k, label in enumerate(cyclic5_dual.labels):
            partner = cyclic5_dual.labels[(5 - k) % 5]
            assert cyclic5_dual.conjugate(label) == partner

    def test_cyclic_fusion_is_addition(self, cyclic5_dual):
        labels = cyclic5_dual.labels
        for a in range(5):
            for b in range(5):
                components = cyclic5_dual.fusion.components(labels[a], labels[b])
                assert components == {labels[(a + b) % 5]: 1}

    def test_name_variants(self):
        for spec in ("cyclic5", "cyclic 5", "cyclic:5", "cyclic_5"):
            m = builtin_finite_group_dual(spec)
            assert len(m.labels) == 5

    def test_unknown_group_rejected(self):
        with pytest.raises(PreconditionError):
            builtin_finite_group_dual("a5")


class TestFreeOrthogonal:
    def test_spectra(self, free_orth):
        assert free_orth.labels == ("triv", "f", "fbar")
        forward = tuple(free_orth.rho("f"))
        assert forward[0] == pytest.approx(math.sqrt(6.0), rel=1e-12)
        assert forward[1] == forward[2] == pytest.approx(math.sqrt(0.375), rel=1e-12)
        backward = tuple(free_orth.rho("fbar"))
        assert backward[0] == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)

    def test_conjugation_pairing(self, free_orth):
        assert free_orth.conjugate("f") == "fbar"
        assert free_orth.conjugate("fbar") == "f"

    def test_only_trivial_pairs_ingested(self, free_orth):
        pairs = set(free_orth.fusion.pairs())
        assert ("f", "fbar") not in pairs
        assert ("triv", "f") in pairs
        assert free_orth.is_truncated

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            builtin_free_orthogonal_fund([])
        with pytest.raises(PreconditionError):
            builtin_free_orthogonal_fund([1.0, -2.0])
        with pytest.raises(PreconditionError):
            builtin_free_orthogonal_fund([0.0, 0.0])

    @pytest.mark.parametrize("f_diag", [[1, 1e150, 1], [1, 1e12, 1e-12], [1, 1, 2], [1, 2, 3]])
    def test_wide_spreads_inside_the_float_range_build(self, f_diag):
        m = builtin_free_orthogonal_fund(f_diag)
        assert m.rho("f").is_balanced() and m.rho("fbar").is_balanced()


class TestResolveBuiltin:
    def test_known_names(self):
        assert resolve_builtin("su_q_2", q=0.6, max_level=3).parameters["q"] == 0.6
        assert resolve_builtin("s3").labels == ("triv", "sgn", "std")
        assert len(resolve_builtin("cyclic7").labels) == 7
        assert resolve_builtin("free_orthogonal").labels == ("triv", "f", "fbar")

    def test_unknown_name(self):
        with pytest.raises(PreconditionError):
            resolve_builtin("nonsense")

    def test_builtin_names_constant(self):
        assert "su_q_2" in BUILTIN_NAMES
        assert any("cyclic" in name for name in BUILTIN_NAMES)


def test_every_builtin_validates_cleanly(all_builtins):
    for m in all_builtins:
        report = validate_model(m)
        assert report.ok, (m.name, [issue.message for issue in report.issues])


@pytest.mark.parametrize("planted, issues", [(1, 3), (2, 6), (7, 15)])
def test_built_in_and_loaded_models_fail_with_one_message(planted, issues):
    # irreps given a conjugate outside the model; past five issues, the rest are counted
    m = resolve_builtin("cyclic7")
    irreps = tuple(
        dataclasses.replace(irr, conjugate="nowhere") if k < planted else irr
        for k, irr in enumerate(m.irreps)
    )
    broken = dataclasses.replace(m, irreps=irreps)
    report = validate_model(broken)
    assert len(report.issues) == issues
    details = "; ".join(issue.message for issue in report.issues[:5])
    more = f" (+{issues - 5} more)" if issues > 5 else ""
    with pytest.raises(ModelConsistencyError) as built_in:
        _certify(broken)
    with pytest.raises(ModelConsistencyError) as loaded:
        load_model(model_to_document(broken))
    assert str(built_in.value) == f"built-in model {m.name!r} failed validation: {details}{more}"
    assert str(loaded.value) == f"model {m.name!r} failed validation: {details}{more}"


class TestInverseQ:
    """su_q_2 at q and at 1/q is one compact quantum group: same data, same verdict counts."""

    CASES = [(0.5, 8), (0.8, 6), (0.2, 8)]
    # (exit code, results, truncations, violations) per level
    COUNTS = {
        ("theorem-5.3", 8): (0, 2187, 1962, 0),
        ("haar-modular", 8): (0, 171, 112, 0),
        ("theorem-5.3", 6): (0, 882, 770, 0),
        ("haar-modular", 6): (0, 105, 66, 0),
    }

    @pytest.mark.parametrize("q, level", CASES)
    def test_same_model_data(self, q, level):
        m, inverse = builtin_su_q_2(q, level), builtin_su_q_2(1 / q, level)
        assert m.labels == inverse.labels
        for label in m.labels:
            assert m.dim(label) == inverse.dim(label)
            spectrum, other = tuple(m.rho(label)), tuple(inverse.rho(label))  # both descending
            assert len(spectrum) == len(other)
            assert all(DEFAULT_TOLERANCE.close(x, y) for x, y in zip(spectrum, other))
        assert m.fusion.pairs() == inverse.fusion.pairs()
        for pair in m.fusion.pairs():
            assert m.fusion.components(*pair) == inverse.fusion.components(*pair)
        assert is_kac(m) is is_kac(inverse) is False
        assert n_G(m) == n_G(inverse) == level + 1

    @pytest.mark.parametrize("what", ["theorem-5.3", "haar-modular"])
    @pytest.mark.parametrize("q, level", CASES)
    def test_same_verdict_counts(self, capsys, q, level, what):
        counts = []
        for value in (q, 1 / q):
            argv = ["verify", what, "--q", repr(value), "--max-level", str(level)]
            code = main([*argv, "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            sections = ("results", "truncations", "violations")
            counts.append((code, *(len(report[k]) for k in sections)))
        assert counts[0] == counts[1] == self.COUNTS[what, level]
