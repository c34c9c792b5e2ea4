"""Fusion decompositions against the SU(2) series and the S_3 character table."""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg.errors import PreconditionError, TruncationError
from cqg.fusion import (
    decompose,
    frobenius_check,
    gamma_top_components,
    p_n,
    tensor_power_decompose,
)
from cqg import rep_data
from cqg.models import resolve_builtin
from cqg.rep_data import FusionTable, _frobenius_mismatches, validate_model

from . import oracles


def test_decompose_matches_su2_series(suq2_half, suq2_eight_tenths):
    # the fusion ring does not depend on q
    for m in (suq2_half, suq2_eight_tenths):
        for left, right in m.fusion.pairs():
            expected = oracles.suq2_components(int(left), int(right))
            assert decompose(m, left, right).as_dict() == expected


def test_decompose_matches_s3_characters(s3_dual):
    for left in s3_dual.labels:
        for right in s3_dual.labels:
            assert decompose(s3_dual, left, right).as_dict() == oracles.s3_fusion(left, right)


def test_decompose_dimension_conservation(suq2_half, s3_dual, cyclic5_dual):
    for m in (suq2_half, s3_dual, cyclic5_dual):
        for left, right in m.fusion.pairs():
            dec = decompose(m, left, right)
            assert dec.total_dim(m) == m.dim(left) * m.dim(right)


def test_decompose_quantum_dimension_conservation(suq2_half):
    for left, right in suq2_half.fusion.pairs():
        dec = decompose(suq2_half, left, right)
        product = suq2_half.rho(left).trace() * suq2_half.rho(right).trace()
        assert dec.total_quantum_dim(suq2_half) == pytest.approx(product, rel=1e-12)


def test_decompose_outside_fragment_is_truncation(suq2_half):
    with pytest.raises(TruncationError) as excinfo:
        decompose(suq2_half, "8", "1")
    assert excinfo.value.pair == ("8", "1")


def test_components_in_declaration_order(suq2_half):
    dec = decompose(suq2_half, "2", "2")
    assert [label for label, _ in dec.components] == ["0", "2", "4"]


class TestTensorPower:
    def test_matches_iterated_decompose(self, suq2_half):
        # left fold by hand
        counts = {"1": 1}
        for _ in range(3):
            nxt: dict[str, int] = {}
            for label, mult in counts.items():
                for comp, sub in decompose(suq2_half, label, "1").as_dict().items():
                    nxt[comp] = nxt.get(comp, 0) + mult * sub
            counts = nxt
        assert tensor_power_decompose(suq2_half, "1", 4).as_dict() == counts

    def test_power_one_is_identity(self, s3_dual):
        assert tensor_power_decompose(s3_dual, "std", 1).as_dict() == {"std": 1}

    def test_catalan_multiplicities(self, suq2_half):
        # multiplicity of the trivial in the 2n-th power of the fundamental
        power = tensor_power_decompose(suq2_half, "1", 6)
        assert power.multiplicity("0") == 5  # Catalan number C_3

    def test_precondition(self, suq2_half):
        with pytest.raises(PreconditionError):
            tensor_power_decompose(suq2_half, "1", 0)
        with pytest.raises(TruncationError):
            tensor_power_decompose(suq2_half, "1", 9)


def _outcome(call):
    """The value of call(), or the message and pair of the TruncationError it raises."""
    try:
        return call(), None
    except TruncationError as exc:
        return None, (str(exc), exc.pair)


POWER_MODELS = [
    ("su_q_2", {"q": 0.5, "max_level": 12}),
    ("su_q_2", {"q": 0.5, "max_level": 20}),
    ("s3", {}),
    ("cyclic7", {}),
    ("free_orthogonal", {}),
]


@pytest.mark.parametrize("name, kwargs", POWER_MODELS)
@pytest.mark.parametrize("order", ["rising", "falling"])
def test_tensor_powers_equal_the_from_scratch_fold(name, kwargs, order):
    # a fresh model per order: falling meets the fragment edge before any power is stored
    m, reference = resolve_builtin(name, **kwargs), resolve_builtin(name, **kwargs)
    ns = list(range(1, 26)) if order == "rising" else list(range(25, 0, -1))
    truncated = 0
    for alpha in m.labels:
        for n in ns + ns:  # the second sweep reads every power and the edge back from the store
            got = _outcome(lambda: tensor_power_decompose(m, alpha, n))
            assert got == _outcome(lambda: oracles.tensor_power_reference(reference, alpha, n))
            truncated += got[0] is None
    assert (truncated > 0) == (name in ("su_q_2", "free_orthogonal"))


def test_a_truncated_power_leaves_the_model_collectable():
    # the stored edge must not hold the exception: its traceback pins frames that hold the model
    model = resolve_builtin("su_q_2", q=0.5, max_level=8)
    alive = weakref.ref(model)
    gc.disable()
    try:
        for _ in range(2):  # the first call meets the edge, the second reads it back
            try:
                tensor_power_decompose(model, "1", 9)
            except TruncationError:
                pass
        del model
        assert alive() is None
    finally:
        gc.enable()


def test_p_n_values(suq2_half, s3_dual):
    assert p_n(suq2_half, "1", 1) == 2
    assert p_n(suq2_half, "1", 4) == 5
    assert p_n(s3_dual, "std", 3) == 2


def test_gamma_top_components(suq2_half):
    hits = gamma_top_components(suq2_half, "2", "3")
    assert hits == (("5", 1),)


def test_gamma_top_components_kac_case(s3_dual):
    # flat spectra: every component attains the top
    hits = gamma_top_components(s3_dual, "std", "std")
    assert hits == (("triv", 1), ("sgn", 1), ("std", 1))


def test_frobenius_clean_on_builtins(all_builtins):
    for m in all_builtins:
        assert frobenius_check(m) == []


def test_frobenius_check_and_validation_report_the_same_mismatches(s3_dual):
    # drop sgn from std x std: every reciprocal reading of that multiplicity disagrees
    rows = {pair: s3_dual.fusion.components(*pair) for pair in s3_dual.fusion.pairs()}
    rows[("std", "std")] = {"triv": 1, "std": 1}
    broken = dataclasses.replace(s3_dual, fusion=FusionTable(rows))
    violations = frobenius_check(broken)
    issues = [i for i in validate_model(broken).issues if i.invariant == "frobenius"]
    assert [(v["alpha"], v["beta"], v["gamma"]) for v in violations] == [i.labels for i in issues]
    assert [v["message"] for v in violations] == [i.message for i in issues]
    assert violations[0]["message"] == "m('std', 'sgn' x 'std') = 1 but m('sgn', 'std' x 'std') = 0"
    assert {"sgn"} <= {v["alpha"] for v in violations}


def _perturbed(m, rng: random.Random):
    """m with one to four planted faults in its fusion table or its conjugation."""
    rows = {pair: dict(m.fusion.components(*pair)) for pair in m.fusion.pairs()}
    irreps = list(m.irreps)
    labels = list(m.labels)
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("raise", "remove", "drop", "ghost-component", "ghost-pair", "conjugate"))
        pair = rng.choice(list(rows))
        if kind == "raise":
            label = rng.choice(labels)
            rows[pair][label] = rows[pair].get(label, 0) + rng.randint(1, 2)
        elif kind == "remove" and rows[pair]:
            del rows[pair][rng.choice(list(rows[pair]))]
        elif kind == "drop":
            del rows[pair]
        elif kind == "ghost-component":
            rows[pair]["ghost"] = 1
        elif kind == "ghost-pair":
            label = rng.choice(labels)
            ghost_pair = rng.choice(((label, "ghost"), ("ghost", label)))
            rows[ghost_pair] = {rng.choice(labels + ["ghost"]): rng.randint(1, 2)}
        elif kind == "conjugate":
            k = rng.randrange(len(irreps))
            irreps[k] = dataclasses.replace(irreps[k], conjugate=rng.choice(labels + ["ghost"]))
    return dataclasses.replace(m, irreps=tuple(irreps), fusion=FusionTable(rows))


def _perturbed_models():
    bases = [resolve_builtin("su_q_2", q=0.5, max_level=n) for n in range(3, 9)]
    bases += [resolve_builtin(name) for name in ("s3", "cyclic4", "cyclic5")]
    rng = random.Random(20171)
    for base in bases:
        for _ in range(40):
            yield _perturbed(base, rng)


def test_frobenius_walk_equals_the_dense_reference():
    seen = set()
    for m in _perturbed_models():
        expected = oracles.frobenius_mismatches_reference(m)
        assert list(_frobenius_mismatches(m)) == expected
        triples = [mismatch[:3] for mismatch in expected]
        messages = [mismatch[5] for mismatch in expected]
        violations = frobenius_check(m)
        assert [(v["alpha"], v["beta"], v["gamma"]) for v in violations] == triples
        assert [v["message"] for v in violations] == messages
        issues = [i for i in validate_model(m).issues if i.invariant == "frobenius"]
        assert [i.labels for i in issues] == triples
        assert [i.message for i in issues] == messages
        involutive = all(
            m.conjugate(label) in m and m.conjugate(m.conjugate(label)) == label
            for label in m.labels
        )
        seen.update((m1 == 0, involutive) for _, _, _, m1, _, _ in expected)
    # both kinds of mismatch occur, on involutive and on non-involutive conjugations
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_frobenius_chunks_equal_the_dense_reference(monkeypatch, chunk):
    monkeypatch.setattr(rep_data, "_CHUNK", chunk)
    for m in _perturbed_models():
        assert list(_frobenius_mismatches(m)) == oracles.frobenius_mismatches_reference(m)


@pytest.mark.parametrize("chunk", [1, 1 << 16])
def test_frobenius_walk_on_a_table_without_entries(monkeypatch, chunk):
    monkeypatch.setattr(rep_data, "_CHUNK", chunk)
    base = resolve_builtin("s3")
    for rows in ({}, {(label, label): {} for label in base.labels}):
        m = dataclasses.replace(base, fusion=FusionTable(rows))
        assert list(_frobenius_mismatches(m)) == oracles.frobenius_mismatches_reference(m) == []


def test_frobenius_walk_traced_memory_at_level_120():
    # unchunked joins peak at 12.7 MB here; the table is built before tracing starts
    m = resolve_builtin("su_q_2", q=0.5, max_level=120)
    flat = rep_data._flat(m)
    tracemalloc.start()
    try:
        assert _frobenius_mismatches(m, flat) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10**6


def test_frobenius_walk_is_clean_on_a_deep_fragment():
    m = resolve_builtin("su_q_2", q=0.5, max_level=120)
    assert list(_frobenius_mismatches(m)) == []
    assert oracles.frobenius_mismatches_reference(m) == []


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
@settings(max_examples=60)
def test_su2_oracle_total_dimension(left, right):
    # the oracle itself must conserve dimension, otherwise tests above are void
    total = sum((n + 1) for n in range(abs(left - right), left + right + 1, 2))
    assert total == (left + 1) * (right + 1)


@given(st.sampled_from(["triv", "sgn", "std"]), st.sampled_from(["triv", "sgn", "std"]))
def test_s3_oracle_commutes(left, right):
    assert oracles.s3_fusion(left, right) == oracles.s3_fusion(right, left)
