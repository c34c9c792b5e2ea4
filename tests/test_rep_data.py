"""Core data structures, the loader, and the serialization round trip."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg.errors import ModelConsistencyError, ModelSchemaError, TruncationError
from cqg.intertwiners import (
    C00Element,
    CGTensor,
    cg_intertwining_residual,
    cg_set,
    cg_supplement_document,
    haar_weight,
    verify_modular,
)
from cqg.models import resolve_builtin
from cqg.rep_data import (
    DEFAULT_TOLERANCE,
    FusionTable,
    Irrep,
    QGModel,
    RhoSpectrum,
    SpectrumTable,
    Tolerance,
    load_model,
    load_model_with_report,
    model_to_document,
    normalize_rho,
    validate_model,
)
from cqg.spectral import verify_theorem_5_3

from .conftest import TIGHT

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestTolerance:
    def test_close_mixes_abs_and_rel(self):
        tol = Tolerance(abs=0.1, rel=0.0, eigen_group=1e-9)
        assert tol.close(1.0, 1.05)
        assert not tol.close(1.0, 1.2)
        tol = Tolerance(abs=0.0, rel=0.1, eigen_group=1e-9)
        assert tol.close(100.0, 105.0)
        assert not tol.close(100.0, 120.0)

    def test_same_eigenvalue_is_log_scale(self):
        tol = Tolerance(abs=1e-15, rel=1e-15, eigen_group=0.01)
        assert tol.same_eigenvalue(1000.0, 1000.0 * math.exp(0.005))
        assert not tol.same_eigenvalue(1000.0, 1000.0 * math.exp(0.02))

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)

    def test_nan_component_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Tolerance(eigen_group=float("nan"))


class TestRhoSpectrum:
    def test_sorted_descending(self):
        s = RhoSpectrum((0.5, 2.0, 1.0))
        assert tuple(s) == (2.0, 1.0, 0.5)
        assert s[0] == 2.0 and len(s) == 3

    def test_traces(self):
        s = RhoSpectrum((2.0, 0.5))
        assert s.trace() == 2.5
        assert s.inverse_trace() == 2.5
        assert s.is_balanced(TIGHT)

    def test_unbalanced_detected(self):
        s = RhoSpectrum((2.0, 1.0))
        assert not s.is_balanced(DEFAULT_TOLERANCE)
        assert s.balance_residual() == pytest.approx(1.5)

    def test_conjugate_inverts(self):
        s = RhoSpectrum((4.0, 1.0, 0.25))
        assert tuple(s.conjugate()) == (4.0, 1.0, 0.25)
        s = RhoSpectrum((4.0, 0.5))
        assert tuple(s.conjugate()) == (2.0, 0.25)

    def test_nonpositive_rejected(self):
        with pytest.raises(ModelConsistencyError):
            RhoSpectrum((1.0, 0.0))
        with pytest.raises(ModelConsistencyError):
            RhoSpectrum((1.0, -2.0))
        with pytest.raises(ModelConsistencyError):
            RhoSpectrum(())


@given(st.lists(positive, min_size=1, max_size=6))
def test_normalize_rho_balances(values):
    s = normalize_rho(values)
    assert s.is_balanced(Tolerance(abs=1e-12, rel=1e-12, eigen_group=1e-12))


@given(st.lists(positive, min_size=1, max_size=6), positive)
@settings(max_examples=60)
def test_normalize_rho_scale_invariant(values, scale):
    a = normalize_rho(values)
    b = normalize_rho([scale * v for v in values])
    assert all(x == pytest.approx(y, rel=1e-9) for x, y in zip(a, b))


def test_normalize_rho_fixed_point():
    s = normalize_rho([2.0, 0.5])
    assert tuple(s) == pytest.approx((2.0, 0.5))


class TestFusionTable:
    def setup_method(self):
        self.table = FusionTable({("a", "a"): {"t": 1, "a": 2}})

    def test_lookup(self):
        assert ("a", "a") in self.table
        assert ("a", "b") not in self.table
        assert self.table.components("a", "a") == {"t": 1, "a": 2}
        assert self.table.multiplicity("t", "a", "a") == 1
        assert self.table.multiplicity("x", "a", "a") == 0

    def test_missing_pair_is_truncation(self):
        with pytest.raises(TruncationError) as excinfo:
            self.table.components("a", "b")
        assert excinfo.value.pair == ("a", "b")

    def test_pairs_listing(self):
        assert list(self.table.pairs()) == [("a", "a")]
        assert len(self.table) == 1


# --- loader ---------------------------------------------------------------


def _toy_document(suq2_half) -> dict:
    doc = model_to_document(suq2_half)
    return json.loads(json.dumps(doc))


def test_loader_round_trip(suq2_half):
    doc = _toy_document(suq2_half)
    loaded, report = load_model_with_report(doc)
    assert report.ok
    assert loaded.labels == suq2_half.labels
    for label in loaded.labels:
        assert tuple(loaded.rho(label)) == pytest.approx(tuple(suq2_half.rho(label)), rel=1e-12)
        assert loaded.conjugate(label) == suq2_half.conjugate(label)
    assert sorted(loaded.fusion.pairs()) == sorted(suq2_half.fusion.pairs())
    # the round-tripped model has no CG provider unless a supplement is embedded
    assert loaded.cg is None


def _assert_round_trip(m):
    """Export m with its CG data, reload it through JSON, and compare everything the document holds."""
    doc = model_to_document(m)
    doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
    loaded = load_model(json.loads(json.dumps(doc)))
    assert loaded.name == m.name
    assert loaded.labels == m.labels
    assert loaded.parameters == m.parameters
    assert loaded.truncation_note == m.truncation_note
    for label in m.labels:
        assert loaded.dim(label) == m.dim(label)
        assert loaded.conjugate(label) == m.conjugate(label)
        assert tuple(loaded.rho(label)) == pytest.approx(tuple(m.rho(label)), rel=1e-12)
    assert loaded.fusion.pairs() == m.fusion.pairs()
    for pair in m.fusion.pairs():
        assert loaded.fusion.components(*pair) == m.fusion.components(*pair)
        for got, want in zip(cg_set(loaded, *pair), cg_set(m, *pair), strict=True):
            assert (got.alpha, got.copy_index) == (want.alpha, want.copy_index)
            assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize(
    "name, kwargs",
    [("s3", {}), ("cyclic5", {}), ("free_orthogonal", {"f_diag": [1.0, 1.0, 2.0]})],
)
def test_builtin_export_reloads(name, kwargs):
    _assert_round_trip(resolve_builtin(name, **kwargs))


@given(
    q=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    max_level=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=15)
def test_suq2_export_reloads(q, max_level):
    _assert_round_trip(resolve_builtin("su_q_2", q=q, max_level=max_level))


class TestSpectrumTable:
    """Each model's one spectrum table holds the model's own numbers, read-only, built once."""

    @pytest.fixture(scope="class")
    def models(self, all_builtins):
        exported = resolve_builtin("su_q_2", q=2.0, max_level=6)
        doc = model_to_document(exported)
        doc["cg"] = cg_supplement_document(exported, exported.fusion.pairs())
        reloaded = load_model(json.loads(json.dumps(doc)))
        at_one = resolve_builtin("su_q_2", q=1.0, max_level=6)
        return [*all_builtins, exported, at_one, resolve_builtin("cyclic10"), reloaded]

    def test_entries_are_the_models_own(self, models):
        for m in models:
            table = m._spectra()
            assert list(table.first) == list(table.rho) == list(m.labels)
            for label in m.labels:
                want = np.asarray(tuple(m.rho(label)))
                for got in (table.rho[label], table.values[table.first[label]:][: m.dim(label)]):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (m.name, label)
                assert table.log[label].tolist() == [math.log(lam) for lam in m.rho(label)]
                assert table.d1[label] == float(m.rho(label).trace())
            assert len(table.values) == sum(m.dim(label) for label in m.labels)

    def test_arrays_refuse_writes(self, models):
        table = models[0]._spectra()
        label = models[0].labels[-1]
        for array in (table.values, table.rho[label], table.log[label]):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_unknown_label_is_a_schema_error(self, models):
        m = models[0]
        tensor = CGTensor("bogus", m.trivial, m.trivial, 1, np.ones((1, 1, 1)))
        for call in (
            lambda: verify_modular(m, "bogus", m.fusion.pairs()),
            lambda: cg_intertwining_residual(m, tensor),
        ):
            with pytest.raises(ModelSchemaError, match="unknown irrep label 'bogus'"):
                call()

    def test_built_once_per_model(self, monkeypatch):
        builds = []
        init = SpectrumTable.__init__
        monkeypatch.setattr(
            SpectrumTable, "__init__", lambda self, m: builds.append(m) or init(self, m)
        )
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        for alpha in m.labels:
            verify_modular(m, alpha, m.fusion.pairs())
            verify_theorem_5_3(m, alpha, "1", 2.0, 0.5)
            haar_weight(m, C00Element.matrix_unit(m, alpha, 0, 0))
        assert m._spectra() is m._spectra()
        assert builds == [m]


@pytest.mark.parametrize("value", [True, None, {"a": 1.0}, ["x"], [1.0, False]])
def test_loader_rejects_unsupported_parameters(suq2_half, value):
    doc = _toy_document(suq2_half)
    doc["parameters"]["bad"] = value
    with pytest.raises(ModelSchemaError, match="parameter 'bad'"):
        load_model(doc)


def test_loader_accepts_json_text_and_path(tmp_path, suq2_half):
    doc = _toy_document(suq2_half)
    text = json.dumps(doc)
    assert load_model(text).name == suq2_half.name
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    assert load_model(str(path)).name == suq2_half.name


def test_loader_records_scale_factors(suq2_half):
    doc = _toy_document(suq2_half)
    # perturb one eigenvalue by 1e-11: still balanced within 1e-9, polished on load
    doc["irreps"][1]["rho"][0] *= 1.0 + 1e-11
    loaded, report = load_model_with_report(doc)
    assert set(report.scale_factors) == set(loaded.labels)
    for factor in report.scale_factors.values():
        assert factor == pytest.approx(1.0, abs=1e-9)
    assert loaded.rho(loaded.labels[1]).is_balanced(TIGHT)


def test_loader_rejects_unbalanced_spectrum(suq2_half):
    doc = _toy_document(suq2_half)
    doc["irreps"][1]["rho"] = [2.0, 1.0]
    with pytest.raises(ModelConsistencyError, match="trace balance"):
        load_model(doc)


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda d: d.pop("trivial"), ModelSchemaError),
        (lambda d: d.pop("irreps"), ModelSchemaError),
        (lambda d: d["irreps"][0].pop("rho"), ModelSchemaError),
        (lambda d: d["irreps"][0].update(dim="2"), ModelSchemaError),
        (lambda d: d["irreps"][0].update(rho=[]), ModelSchemaError),
        (lambda d: d["irreps"].append(dict(d["irreps"][0])), ModelSchemaError),
        (lambda d: d["fusion"][0].update(components={"nope": 1}), ModelSchemaError),
        (lambda d: d["fusion"][0]["components"].update({"0": 0}), ModelSchemaError),
        (lambda d: d["fusion"].append(dict(d["fusion"][0])), ModelSchemaError),
        (lambda d: d.update(trivial="missing"), ModelSchemaError),
        (lambda d: d["irreps"][0].update(conjugate="missing"), ModelConsistencyError),
    ],
)
def test_loader_rejects_malformed_documents(suq2_half, mutate, error):
    doc = _toy_document(suq2_half)
    mutate(doc)
    with pytest.raises(error):
        load_model(doc)


def test_loader_rejects_non_document_sources():
    with pytest.raises(ModelSchemaError):
        load_model("this is not json and not a path")
    with pytest.raises(ModelSchemaError):
        load_model(12345)


def test_validate_flags_broken_conjugation(suq2_half):
    doc = _toy_document(suq2_half)
    # make "1" claim conjugate "2"; involution and spectrum checks must fire
    doc["irreps"][1]["conjugate"] = "2"
    with pytest.raises(ModelConsistencyError):
        load_model(doc)


def test_validate_report_lists_issues(s3_dual):
    report = validate_model(s3_dual)
    assert report.ok and report.issues == []


def test_conjugate_spectrum_of_another_dim_has_infinite_residual():
    # a (dim 2) and b (dim 1) claim each other: the spectra cannot be inverse multisets
    m = QGModel(
        name="mismatched-conjugates",
        trivial="1",
        irreps=(
            Irrep("1", 1, RhoSpectrum((1.0,)), "1"),
            Irrep("a", 2, RhoSpectrum((1.0, 1.0)), "b"),
            Irrep("b", 1, RhoSpectrum((1.0,)), "a"),
        ),
        fusion=FusionTable({}),
    )
    issues = [i for i in validate_model(m).issues if i.invariant == "conjugate-spectrum"]
    assert [(i.labels, i.residual) for i in issues] == [
        (("a", "b"), math.inf),
        (("b", "a"), math.inf),
    ]
