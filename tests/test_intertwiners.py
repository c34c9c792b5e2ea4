"""Clebsch-Gordan isometries, the dual block algebra, and the Haar weight."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cqg import _batched, intertwiners
from cqg.cli import main
from cqg.errors import (
    CGUnavailableError,
    ModelConsistencyError,
    ModelSchemaError,
    PreconditionError,
    TruncationError,
)
from cqg.intertwiners import (
    C00Element,
    CGTensor,
    cg_intertwining_residual,
    cg_set,
    cg_supplement_document,
    delta_hat,
    haar_weight,
    verify_cg_unitarity,
    verify_coassociativity,
    verify_modular,
)
from cqg.fusion import tensor_power_decompose
from cqg.models import resolve_builtin
from cqg.rep_data import (
    FusionTable,
    Irrep,
    QGModel,
    RhoSpectrum,
    Tolerance,
    load_model,
    model_to_document,
    validate_model,
)
from cqg.spectral import spectral_grid, verify_theorem_5_3

from . import oracles
from .conftest import TIGHT, perturbed_suq2_document


class TestCgSet:
    def test_targets_and_order(self, suq2_half):
        tensors = cg_set(suq2_half, "1", "2")
        assert [(t.alpha, t.copy_index) for t in tensors] == [("1", 1), ("3", 1)]
        for t in tensors:
            assert t.shape == (2, 3, suq2_half.dim(t.alpha))

    def test_s3_regular_pair(self, s3_dual):
        tensors = cg_set(s3_dual, "std", "std")
        assert [(t.alpha, t.copy_index) for t in tensors] == [
            ("triv", 1),
            ("sgn", 1),
            ("std", 1),
        ]

    def test_absent_pair_is_truncation(self, suq2_half):
        with pytest.raises(TruncationError):
            cg_set(suq2_half, "8", "2")

    def test_model_without_cg_data(self, suq2_half):
        stripped = load_model(model_to_document(suq2_half))
        with pytest.raises(CGUnavailableError):
            cg_set(stripped, "1", "1")


class TestCgBuild:
    """What the store accepts from a provider, and the order it hands the tensors back in."""

    @staticmethod
    def _edited(edit):
        """su_q_2 L3 whose provider output for each pair passes through edit(pair, items)."""
        m = resolve_builtin("su_q_2", q=0.5, max_level=3)
        return dataclasses.replace(m, cg=lambda model, *pair: edit(pair, m.cg(model, *pair)))

    def test_wrong_shape(self):
        m = self._edited(lambda pair, items: [("2", 1, np.zeros((1, 3, 2)))])
        with pytest.raises(ModelConsistencyError) as excinfo:
            cg_set(m, "0", "2")
        assert str(excinfo.value) == (
            "CG data for ('0', '2') -> '2': shape (1, 3, 2), expected (1, 3, 3)"
        )

    def test_coverage_differs_from_fusion_row(self):
        m = self._edited(lambda pair, items: items[1:])
        with pytest.raises(ModelConsistencyError) as excinfo:
            cg_set(m, "1", "1")
        assert str(excinfo.value) == (
            "CG data for ('1', '1') covers {'2': 1}, fusion row is {'0': 1, '2': 1}"
        )

    def test_copy_index_beyond_multiplicity(self):
        m = self._edited(lambda pair, items: [(a, 2, coeffs) for a, _, coeffs in items])
        with pytest.raises(ModelConsistencyError) as excinfo:
            cg_set(m, "0", "2")
        assert str(excinfo.value) == "CG copy indices for ('0', '2') -> '2' are [2], expected [1]"

    def test_broken_intertwining_is_named(self):
        # the '2' tensor with its a-axis reversed: still an isometry, but on the wrong weights
        m = self._edited(
            lambda pair, items: [(a, i, c[:, :, ::-1] if a == "2" else c) for a, i, c in items]
        )
        with pytest.raises(ModelConsistencyError) as excinfo:
            cg_set(m, "1", "1")
        assert str(excinfo.value) == (
            "CG tensor ('1', '1') -> '2' breaks eigenvalue intertwining: residual 1.500e+01"
        )

    def test_reversed_targets_come_back_in_declaration_order(self):
        m = self._edited(lambda pair, items: items[::-1])
        assert [(t.alpha, t.copy_index) for t in cg_set(m, "1", "2")] == [("1", 1), ("3", 1)]

    def test_nan_coefficient_fails_the_gate(self):
        def plant(pair, items):
            if pair == ("1", "1"):
                alpha, copy_index, coeffs = items[0]
                coeffs = coeffs.copy()
                coeffs[0, 1, 0] = np.nan
                items[0] = (alpha, copy_index, coeffs)
            return items

        m = self._edited(plant)
        with pytest.raises(ModelConsistencyError, match="fails unitarity: max residual nan"):
            cg_set(m, "1", "1")
        assert len(cg_set(m, "1", "1", check=False)) == 2

    def test_multiplicity_two_copies_come_back_in_index_order(self):
        # unvalidated: (1 x v) = w + w, each copy one basis vector of the product
        spectrum = RhoSpectrum((1.0,))
        irreps = (Irrep("1", 1, spectrum, "1"), Irrep("v", 2, RhoSpectrum((1.0, 1.0)), "v"),
                  Irrep("w", 1, spectrum, "w"))
        first, second = np.eye(2).reshape(2, 1, 2, 1)

        def provider(model, beta, gamma):
            return [("w", 2, second), ("w", 1, first)]

        m = QGModel(name="mult2", trivial="1", irreps=irreps,
                    fusion=FusionTable({("1", "v"): {"w": 2}}), cg=provider)
        tensors = cg_set(m, "1", "v")
        assert [(t.alpha, t.copy_index) for t in tensors] == [("w", 1), ("w", 2)]
        assert np.array_equal(tensors[0].coeffs, first)
        assert np.array_equal(tensors[1].coeffs, second)


def test_unitarity_across_all_ingested_pairs(suq2_half, suq2_eight_tenths, s3_dual, cyclic5_dual):
    for m in (suq2_half, suq2_eight_tenths, s3_dual, cyclic5_dual):
        for beta, gamma in m.fusion.pairs():
            result = verify_cg_unitarity(cg_set(m, beta, gamma), TIGHT)
            assert result["pass"], (m.name, beta, gamma, result["max_residual"])


def test_invariant_vector_of_the_fundamental_pair(suq2_half):
    q = 0.5
    (inv,) = [t for t in cg_set(suq2_half, "1", "1") if t.alpha == "0"]
    norm = math.sqrt(1.0 + q * q)
    assert inv.coefficient(0, 0, 1) == pytest.approx(1.0 / norm)
    assert inv.coefficient(0, 1, 0) == pytest.approx(-q / norm)
    assert inv.coefficient(0, 0, 0) == 0.0
    assert inv.coefficient(0, 1, 1) == 0.0


def test_intertwining_residuals_vanish(suq2_half, s3_dual):
    for m, pair in ((suq2_half, ("2", "1")), (s3_dual, ("std", "sgn"))):
        for t in cg_set(m, *pair):
            assert cg_intertwining_residual(m, t) <= 1e-12


def test_group_average_cg_matches_the_seed_loop(s3_dual):
    provider = s3_dual.cg
    pairs = [(beta, gamma) for beta in s3_dual.labels for gamma in s3_dual.labels]
    assert len(pairs) == 9
    for beta, gamma in pairs:
        got = provider(s3_dual, beta, gamma)
        expected = oracles.group_average_cg_reference(s3_dual, provider._matrices, beta, gamma)
        assert [(a, i) for a, i, _ in got] == [(a, i) for a, i, _ in expected]
        assert [c.tobytes() for _, _, c in got] == [c.tobytes() for _, _, c in expected]


class TestC00Element:
    def test_matrix_unit_products(self, s3_dual):
        e01 = C00Element.matrix_unit(s3_dual, "std", 0, 1)
        e10 = C00Element.matrix_unit(s3_dual, "std", 1, 0)
        e00 = C00Element.matrix_unit(s3_dual, "std", 0, 0)
        assert (e01 @ e10 - e00).is_zero()
        assert (e01 @ e01).is_zero()

    def test_cross_label_product_is_zero(self, s3_dual):
        a = C00Element.matrix_unit(s3_dual, "triv", 0, 0)
        b = C00Element.matrix_unit(s3_dual, "std", 0, 0)
        assert (a @ b).is_zero()
        assert (a + b).support == ("std", "triv")

    def test_adjoint_and_scalars(self, s3_dual):
        e01 = C00Element.matrix_unit(s3_dual, "std", 0, 1)
        e10 = C00Element.matrix_unit(s3_dual, "std", 1, 0)
        assert (e01.adjoint() - e10).is_zero()
        assert ((2j * e01) - (e01 * 2j)).is_zero()
        assert (-e01 + e01).is_zero()
        assert e01.max_abs() == 1.0

    def test_out_of_range_unit(self, s3_dual):
        from cqg.errors import PreconditionError

        with pytest.raises(PreconditionError):
            C00Element.matrix_unit(s3_dual, "std", 0, 2)


class TestHaarWeight:
    def test_matches_closed_form(self, suq2_half):
        for label in ("0", "1", "2"):
            spectrum = tuple(suq2_half.rho(label))
            n = suq2_half.dim(label)
            for a in range(n):
                for a2 in range(n):
                    x = C00Element.matrix_unit(suq2_half, label, a, a2)
                    assert haar_weight(suq2_half, x) == pytest.approx(
                        oracles.haar_on_matrix_unit(spectrum, a, a2)
                    )

    def test_pinned_value(self, suq2_half):
        x = C00Element.matrix_unit(suq2_half, "1", 0, 0)
        assert haar_weight(suq2_half, x) == pytest.approx(5.0)

    def test_linearity(self, s3_dual):
        a = C00Element.matrix_unit(s3_dual, "std", 0, 0)
        b = C00Element.matrix_unit(s3_dual, "sgn", 0, 0)
        combined = haar_weight(s3_dual, 2.0 * a + 3.0j * b)
        assert combined == pytest.approx(2.0 * haar_weight(s3_dual, a) + 3.0j * haar_weight(s3_dual, b))


def test_delta_hat_against_quadruple_loop(suq2_half, s3_dual):
    cases = [
        (suq2_half, "1", ("1", "2"), (0, 0)),
        (suq2_half, "1", ("1", "2"), (0, 1)),
        (suq2_half, "2", ("1", "1"), (1, 1)),
        (s3_dual, "std", ("std", "std"), (0, 1)),
        (s3_dual, "triv", ("sgn", "sgn"), (0, 0)),
    ]
    for m, alpha, pair, (a, a2) in cases:
        block = delta_hat(m, alpha, a, a2, [pair])[pair]
        reference = oracles.delta_hat_reference(cg_set(m, *pair), alpha, a, a2)
        if not reference:
            assert np.max(np.abs(block)) == 0.0
        else:
            assert np.max(np.abs(block - reference[pair])) <= 1e-12


def test_delta_hat_index_validation(suq2_half):
    from cqg.errors import PreconditionError

    with pytest.raises(PreconditionError):
        delta_hat(suq2_half, "1", 0, 2, [("1", "1")])


class TestModularIdentities:
    def test_s3_full_support_exact(self, s3_dual):
        support = list(s3_dual.fusion.pairs())
        for alpha in s3_dual.labels:
            result = verify_modular(s3_dual, alpha, support, TIGHT)
            assert result["pass"], result
            assert not result["truncated"]
            for side in ("id_tensor_h", "h_tensor_id"):
                assert all(entry["complete"] for entry in result[side])

    def test_suq2_complete_blocks(self, suq2_half):
        support = list(suq2_half.fusion.pairs())
        for alpha in ("0", "1", "2"):
            result = verify_modular(suq2_half, alpha, support, TIGHT)
            assert result["truncated"]  # edge blocks cannot be certified
            complete = [
                entry
                for side in ("id_tensor_h", "h_tensor_id")
                for entry in result[side]
                if entry["complete"]
            ]
            assert complete, "no complete block found at level 8"
            assert all(entry["residual"] <= 1e-9 for entry in complete)

    def test_incomplete_blocks_carry_missing_labels(self, suq2_half):
        support = [("1", "1")]  # far from closed under the required sums
        result = verify_modular(suq2_half, "2", support, TIGHT)
        incomplete = [
            entry
            for side in ("id_tensor_h", "h_tensor_id")
            for entry in result[side]
            if not entry["complete"]
        ]
        assert incomplete
        assert result["truncated"]


@pytest.mark.parametrize(
    "name, q, dropped, truncated",
    [
        ("su_q_2", 0.5, None, True),
        ("su_q_2", 2.0, None, True),
        ("s3", 0.5, None, False),
        ("s3", 0.5, ("std", "std"), True),  # s3 is complete on its full support
    ],
)
def test_modular_residuals_match_the_quadruple_loop(name, q, dropped, truncated):
    """Every block residual of verify_modular, against delta_hat_reference summed by hand.

    Complete blocks sit at rounding level; the incomplete ones, whose sums
    leave the support, carry the O(1) residuals that make the comparison bite.
    """
    m = resolve_builtin(name, q=q, max_level=4)
    support = [pair for pair in m.fusion.pairs() if pair != dropped]
    spectra = {label: list(m.rho(label)) for label in m.labels}
    legs = (("id_tensor_h", -2.0), ("h_tensor_id", 0.0))
    nontrivial = 0
    for alpha in m.labels:
        lam = spectra[alpha]
        worst: dict = {}
        for a in range(len(lam)):
            for a2 in range(len(lam)):
                blocks: dict = {}
                for pair in support:
                    blocks.update(oracles.delta_hat_reference(cg_set(m, *pair), alpha, a, a2))
                applied = oracles.modular_legs_reference(blocks, spectra)
                for side, power in legs:
                    for label in m.labels:
                        diag = np.asarray(spectra[label]) ** power
                        expected = oracles.haar_on_matrix_unit(lam, a, a2) * np.diag(diag)
                        diff = float(np.max(np.abs(applied.get((side, label), 0) - expected)))
                        worst[side, label] = max(worst.get((side, label), 0.0), diff)
        result = verify_modular(m, alpha, support)
        for side, power in legs:
            for block in result[side]:
                top = max(np.asarray(spectra[block["label"]]) ** power)
                scale = max(1.0, sum(lam) * max(lam) * top)
                want = worst[side, block["label"]] / scale
                assert block["residual"] == pytest.approx(want, rel=1e-12, abs=1e-14), (
                    alpha, side, block,
                )
                nontrivial += want > 1e-6
    assert bool(nontrivial) == truncated


class TestCoassociativity:
    def test_s3_all_triples(self, s3_dual):
        support = list(s3_dual.fusion.pairs())
        for alpha in s3_dual.labels:
            result = verify_coassociativity(s3_dual, alpha, support, TIGHT)
            assert result["pass"]
            assert result["skipped"] == []
            assert result["max_residual"] <= 1e-12

    def test_suq2_complete_triples(self, suq2_half):
        support = list(suq2_half.fusion.pairs())
        result = verify_coassociativity(suq2_half, "1", support, TIGHT)
        assert result["triples"], "no certifiable triple at level 8"
        assert result["max_residual"] <= 1e-9
        for skip in result["skipped"]:
            assert skip["reason"]

    @pytest.mark.parametrize(
        "name, kwargs, step",
        [
            ("s3", {}, 1),
            ("cyclic5", {}, 1),
            ("su_q_2", {"q": 0.5, "max_level": 6}, 1),
            ("su_q_2", {"q": 2.0, "max_level": 5}, 1),
            ("free_orthogonal", {}, 1),
            ("su_q_2", {"q": 0.5, "max_level": 6}, 2),  # every other pair as the support
            ("s3_group_algebra", {}, 1),  # non-commutative fusion: row(l, r) != row(r, l)
        ],
    )
    def test_enumerated_triples_equal_brute_force(self, name, kwargs, step):
        if name == "s3_group_algebra":
            m = load_model(_s3_group_algebra_document())
            row = m.fusion.components
            assert sum(row(l, r) != row(r, l) for l, r in m.fusion.pairs()) == 18
        else:
            m = resolve_builtin(name, **kwargs)
        support = list(m.fusion.pairs())[::step]
        for alpha in m.labels:
            result = verify_coassociativity(m, alpha, support)
            got = [tuple(t["triple"]) for t in result["triples"] + result["skipped"]]
            assert len(got) == len(set(got)), alpha
            assert set(got) == oracles.coassociativity_triples_reference(m, alpha, support), alpha


def _s3_group_algebra_document() -> dict:
    """The group algebra of S3 as a model document: one 1-dimensional irrep per element.

    Each irrep has rho (1) and the inverse element as its conjugate; g x h fuses
    to gh alone, with the 1 x 1 x 1 CG coefficient 1.
    """
    elements = list(itertools.permutations(range(3)))
    label = {g: "".join(map(str, g)) for g in elements}

    def product(g, h):
        return tuple(g[h[i]] for i in range(3))

    def inverse(g):
        return tuple(sorted(range(3), key=g.__getitem__))

    pairs = list(itertools.product(elements, repeat=2))
    return {
        "name": "s3_group_algebra",
        "trivial": label[(0, 1, 2)],
        "irreps": [
            {"label": label[g], "dim": 1, "rho": [1.0], "conjugate": label[inverse(g)]}
            for g in elements
        ],
        "fusion": [
            {"left": label[g], "right": label[h], "components": {label[product(g, h)]: 1}}
            for g, h in pairs
        ],
        "cg": [
            {"alpha": label[product(g, h)], "beta": label[g], "gamma": label[h], "i": 1,
             "coeffs": [[0, 0, 0, 1.0, 0.0]]}
            for g, h in pairs
        ],
    }


def test_s3_group_algebra_passes_haar_modular(capsys, tmp_path):
    target = tmp_path / "s3_group_algebra.json"
    target.write_text(json.dumps(_s3_group_algebra_document()), encoding="utf-8")
    assert main(["verify", "haar-modular", "--model", str(target)]) == 0
    capsys.readouterr()


@pytest.fixture(scope="module")
def cyclic7_dual():
    return resolve_builtin("cyclic7")


@pytest.fixture(scope="module")
def suq2_two_level6():
    return resolve_builtin("su_q_2", q=2.0, max_level=6)


def _coassociativity_with_stacks(m, alpha):
    """verify_coassociativity of alpha, plus the (rhs, lhs) stacks of each checked triple.

    The stacks are the per-tensor-pair einsums of oracles.coassociativity_stacks_reference.
    """
    result = verify_coassociativity(m, alpha, list(m.fusion.pairs()))
    stacks = [
        oracles.coassociativity_stacks_reference(m, alpha, t["triple"]) for t in result["triples"]
    ]
    assert len(stacks) == len(result["triples"])
    return result, stacks


def _gram_residual(rhs, lhs):
    """The Gram residual of one triple's (rhs, lhs) stacks, as a batch of one."""
    (resid,) = _batched._gram_residuals(rhs[None], lhs[None])
    return resid


def _live_columns(rhs, lhs):
    flat = [v.reshape(v.shape[0], v.shape[1] * v.shape[2]) for v in (rhs, lhs)]
    return flat[0].any(axis=0) | flat[1].any(axis=0)


class TestCoassociativityGram:
    """The batched Gram comparison against the dense per-a reference loop.

    The stacks of a triple hold its live columns, where some expansion term
    lands; a stack with more than `size` such columns spans what used to be
    several row slabs of the Gram matrix.
    """

    @pytest.mark.parametrize(
        "fixture", ["s3_dual", "cyclic7_dual", "suq2_half", "suq2_two_level6"]
    )
    def test_every_triple_equals_dense_reference(self, request, fixture):
        m = request.getfixturevalue(fixture)
        checked = several = 0
        for alpha in m.labels:
            result, stacks = _coassociativity_with_stacks(m, alpha)
            want = [oracles.coassociativity_dense_reference(r, l) for r, l in stacks]
            assert [t["residual"] for t in result["triples"]] == want, alpha
            assert result["max_residual"] == max([0.0] + want), alpha
            checked += len(want)
            several += sum(_live_columns(r, l).sum() > r.shape[1] for r, l in stacks)
        assert checked
        # weight conservation keeps su_q_2 triples within `size` live columns; s3's do not
        assert bool(several) == (fixture == "s3_dual")

    @pytest.mark.parametrize("kind", ["dense", "sparse", "zero"])
    def test_random_stacks_equal_dense_reference(self, kind):
        rng = np.random.default_rng({"dense": 11, "sparse": 12, "zero": 13}[kind])
        several = 0
        for trial in range(30):
            size, n_a = (int(v) for v in rng.integers(1, 7, size=2))
            k_r, k_l = (int(v) for v in rng.integers(0 if kind == "zero" else 1, 6, size=2))

            def stack(k):
                v = rng.normal(size=(k, size, n_a)) + 1j * rng.normal(size=(k, size, n_a))
                return v if kind != "zero" else 0.0 * v

            rhs = stack(k_r)
            if trial % 2 and k_l == k_r:
                # the same Gram matrix up to rounding: unit phases on a permuted stack
                lhs = rhs[rng.permutation(k_r)] * np.exp(1j * rng.uniform(0, 6.3, size=(k_r, 1, 1)))
            else:
                lhs = stack(k_l)
            if kind == "sparse":
                dead_both = rng.random((size, n_a)) < 0.3
                rhs[:, dead_both | (rng.random((size, n_a)) < 0.3)] = 0.0
                lhs[:, dead_both | (rng.random((size, n_a)) < 0.3)] = 0.0
            want = oracles.coassociativity_dense_reference(rhs, lhs)
            assert _gram_residual(rhs, lhs) == want, trial
            several += _live_columns(rhs, lhs).sum() > size
        assert several or kind == "zero"

    def test_no_live_column(self):
        for k_r, k_l in ((0, 0), (3, 0), (0, 2), (2, 3)):
            rhs = np.zeros((k_r, 4, 3), dtype=complex)
            lhs = np.zeros((k_l, 4, 3), dtype=complex)
            assert _gram_residual(rhs, lhs) == 0.0
            assert oracles.coassociativity_dense_reference(rhs, lhs) == 0.0
        # a dead right-hand side leaves the scale at 1: the residual is max |G(lhs)|
        lhs = np.zeros((1, 4, 3), dtype=complex)
        lhs[0, 2, 1] = 2.0
        assert _gram_residual(np.zeros((2, 4, 3), dtype=complex), lhs) == 4.0


class TestPlantedCoassociativityDefect:
    """A 1e-11 coefficient on an exactly-zero CG entry passes cg_set's gate but not coassociativity."""

    ALPHA, TRIPLE = "1", ["1", "1", "1"]

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("planted")
        clean = root / "clean.json"
        assert main(["export", "--model", "su_q_2", "--q", "0.5", "--max-level", "4",
                     "--include-cg", "--out", str(clean)]) == 0
        document = json.loads(clean.read_text(encoding="utf-8"))
        entry = next(
            e for e in document["cg"] if (e["beta"], e["gamma"], e["alpha"], e["i"]) == ("1", "1", "2", 1)
        )
        assert not any(row[:3] == [2, 0, 0] for row in entry["coeffs"])  # V[b=0, c=0, a=2] == 0
        entry["coeffs"].append([2, 0, 0, 1e-11, 0.0])
        defect = root / "defect.json"
        defect.write_text(json.dumps(document), encoding="utf-8")
        return clean, defect

    def test_defect_lands_on_dead_columns_and_is_measured(self, documents):
        clean, defect = (load_model(json.loads(p.read_text(encoding="utf-8"))) for p in documents)
        for m in (clean, defect):
            cg_set(m, "1", "1")  # the defect passes the 1e-9 unitarity and intertwining gate
        residuals, stacks = {}, {}
        for name, m in (("clean", clean), ("defect", defect)):
            result, recorded = _coassociativity_with_stacks(m, self.ALPHA)
            k = [t["triple"] for t in result["triples"]].index(self.TRIPLE)
            residuals[name], stacks[name] = result["triples"][k]["residual"], recorded[k]
        assert residuals["defect"] > 0.0
        assert residuals["defect"] == oracles.coassociativity_dense_reference(*stacks["defect"])
        assert residuals["defect"] > 5 * residuals["clean"]
        # the perturbed vectors are nonzero on a column where every clean vector is exactly 0
        assert np.any(_live_columns(*stacks["defect"]) & ~_live_columns(*stacks["clean"]))

    def _verify(self, path, tol, tmp_path):
        out = tmp_path / f"{path.stem}-{tol}.json"
        code = main(["verify", "haar-modular", "--model", str(path), "--tol", tol,
                     "--format", "json", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        flagged = [
            v for v in report["violations"]
            if v["check"] == "coassociativity" and v["alpha"] == self.ALPHA and v["triple"] == self.TRIPLE
        ]
        return code, report, flagged

    def test_cli_reports_the_violation(self, documents, tmp_path):
        clean, defect = documents
        code, _, flagged = self._verify(defect, "1e-13", tmp_path)
        assert code == 1
        assert len(flagged) == 1 and flagged[0]["residual"] > 5e-12
        # at a bound between the exported 12-digit rounding and the defect, only the defect fails
        code, report, _ = self._verify(clean, "5e-12", tmp_path)
        assert code == 0 and report["violations"] == []
        code, report, flagged = self._verify(defect, "5e-12", tmp_path)
        assert code == 1 and len(flagged) == 1
        assert {v["check"] for v in report["violations"]} == {"coassociativity"}


class TestPlantedNonFiniteCoefficient:
    """A NaN or inf in an expansion stack fails its triple instead of being dropped by max."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_gram_residual_is_inf(self, bad, side):
        rng = np.random.default_rng(21)
        for trial in range(12):
            stacks = [rng.normal(size=(3, 4, 3)) + 1j * rng.normal(size=(3, 4, 3)) for _ in range(2)]
            # the planted entry falls in a different slab of the 12 live columns each trial
            stacks[side][trial % 3, trial % 4, (trial // 4) % 3] = bad
            assert _gram_residual(*stacks) == math.inf, trial

    def test_triple_and_alpha_fail(self, suq2_half):
        real = intertwiners._gram_residuals

        def planted(rhs, lhs):
            rhs = rhs.copy()
            rhs[:, -1, -1] = math.nan  # the last entry of every triple's stack
            return real(rhs, lhs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intertwiners, "_gram_residuals", planted)
            result = verify_coassociativity(suq2_half, "1", list(suq2_half.fusion.pairs()))
        assert result["triples"]
        assert all(t["residual"] == math.inf and not t["pass"] for t in result["triples"])
        assert result["max_residual"] == math.inf and not result["pass"]

    @pytest.mark.parametrize("where, bad", [((0, 1, 0), math.nan), ((0, 0, 0), math.inf)])
    def test_intertwining_residual_reads_the_planted_value(self, where, bad):
        m = resolve_builtin("su_q_2", q=0.5, max_level=3)
        raw = [(t.alpha, t.copy_index, t.coeffs.copy()) for t in cg_set(m, "1", "1")]
        (coeffs,) = [c for alpha, _, c in raw if alpha == "2"]
        coeffs[where] = bad
        planted = CGTensor(alpha="2", beta="1", gamma="1", copy_index=1, coeffs=coeffs)
        residual = cg_intertwining_residual(m, planted)
        assert math.isnan(residual) if math.isnan(bad) else residual == math.inf
        # the pair's gate still names unitarity first; inf * 0 in its Gram product is nan
        broken = dataclasses.replace(m, cg=lambda model, beta, gamma: raw)
        with pytest.raises(ModelConsistencyError, match="unitarity"):
            cg_set(broken, "1", "1")

    def test_document_with_nan_coefficient_rejected(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        doc["cg"][0]["coeffs"][0][3] = math.nan
        text = json.dumps(doc)  # json writes NaN and reads it back as a float
        with pytest.raises(ModelSchemaError, match="finite"):
            load_model(json.loads(text))

    @pytest.mark.parametrize(
        "value, message",
        [(math.inf, "finite"), (-math.inf, "finite"), (True, r"\[a, b, c, re, im\] numbers"),
         ("0.5", r"\[a, b, c, re, im\] numbers"), (None, r"\[a, b, c, re, im\] numbers")],
    )
    def test_document_with_bad_coefficient_named(self, value, message):
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        doc["cg"][0]["coeffs"][0][4] = value
        with pytest.raises(ModelSchemaError, match=message):
            load_model(doc)


def _phase_rotated(name: str, args: list[str], tmp_path) -> QGModel:
    """An exported model whose CG entry k is multiplied by the unit phase exp(i (0.37 + 1.3 k)).

    A phase per tensor keeps unitarity and intertwining, so the document
    loads and passes the CG gate with genuinely complex coefficients.  The
    s3 document's parameters (group name and order) are dropped; no check
    reads them.
    """
    target = tmp_path / f"{name}.json"
    assert main(["export", "--model", name, *args, "--include-cg", "--out", str(target)]) == 0
    document = json.loads(target.read_text(encoding="utf-8"))
    for k, entry in enumerate(document["cg"]):
        phase = complex(math.cos(0.37 + 1.3 * k), math.sin(0.37 + 1.3 * k))
        values = [complex(re, im) * phase for _, _, _, re, im in entry["coeffs"]]
        entry["coeffs"] = [[*row[:3], v.real, v.imag] for row, v in zip(entry["coeffs"], values)]
    if name == "s3":
        document["parameters"] = {}
    return load_model(document)


def _basis_rotated(m: QGModel, seed: int) -> QGModel:
    """m with the basis of every irrep turned by a random unitary U: dense complex CG data.

    Each tensor becomes (U_beta x U_gamma) V U_alpha^H, still an isometry.  This
    keeps rho diagonal only where every rho is a multiple of the identity
    (su_q_2 at q = 1), and there it makes the contracted sums of both checks
    run over several nonzero terms, so their order shows in the last bits.
    """
    rng = np.random.default_rng(seed)
    u = {}
    for label in m.labels:
        n = m.dim(label)
        u[label] = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    def provider(model, beta, gamma):
        return [
            (t.alpha, t.copy_index,
             np.einsum("Bb,Cc,bca,Aa->BCA", u[beta], u[gamma], t.coeffs, u[t.alpha].conj()))
            for t in cg_set(m, beta, gamma)
        ]

    return dataclasses.replace(m, cg=provider)


class TestBatchedChecksExact:
    """The batched modular and coassociativity kernels against the per-tensor einsum references.

    Results must be equal, bit for bit: the kernels keep every sum in the
    einsum's order and every product in einsum's kernel.
    """

    @staticmethod
    def _assert_equal_to_references(m, step: int = 1, support=None) -> None:
        support = list(m.fusion.pairs())[::step] if support is None else support
        for alpha in m.labels:
            want = oracles.coassociativity_reference(m, alpha, support)
            assert verify_coassociativity(m, alpha, support) == want, alpha
            assert verify_modular(m, alpha, support) == oracles.modular_reference(m, alpha, support)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("su_q_2", {"q": 0.5, "max_level": 8}),
            ("su_q_2", {"q": 2.0, "max_level": 6}),
            ("su_q_2", {"q": 1.0, "max_level": 5}),
            ("s3", {}),
            ("cyclic7", {}),
            ("free_orthogonal", {}),
            ("free_orthogonal", {"f_diag": [1.0, 2.0, 3.0]}),
        ],
    )
    @pytest.mark.parametrize("step", [1, 2])  # the full support, then every other pair of it
    def test_builtin_models(self, name, kwargs, step):
        self._assert_equal_to_references(resolve_builtin(name, **kwargs), step)

    @pytest.mark.parametrize(
        "name, args",
        [("su_q_2", ["--q", "0.5", "--max-level", "6"]), ("s3", []), ("free_orthogonal", [])],
    )
    def test_complex_cg_documents(self, name, args, tmp_path):
        m = _phase_rotated(name, args, tmp_path)
        coeffs = [t.coeffs for beta, gamma in m.fusion.pairs() for t in cg_set(m, beta, gamma)]
        assert all(np.any(c.imag != 0) for c in coeffs)  # every tensor is genuinely complex
        self._assert_equal_to_references(m)

    @pytest.mark.parametrize("name, kwargs", [("s3", {}), ("su_q_2", {"q": 0.5, "max_level": 3})])
    def test_empty_and_single_pair_supports(self, name, kwargs):
        m = resolve_builtin(name, **kwargs)
        for support in [[], *([pair] for pair in m.fusion.pairs())]:
            self._assert_equal_to_references(m, support=support)

    def test_basis_rotated_cg_data(self):
        m = _basis_rotated(resolve_builtin("su_q_2", q=1.0, max_level=4), seed=5)
        # the weight-graded originals are at most a third nonzero
        assert all(np.count_nonzero(t.coeffs) > 0.8 * t.coeffs.size for t in cg_set(m, "2", "2"))
        self._assert_equal_to_references(m)

    @pytest.mark.parametrize("cap", [1, 7, 100])
    @pytest.mark.parametrize("name, kwargs", [("su_q_2", {"q": 0.5, "max_level": 6}), ("s3", {})])
    def test_memory_cap_chunk_boundaries(self, name, kwargs, cap, monkeypatch):
        """A cap of 1 entry gives every Gram row and every modular block its own step."""
        monkeypatch.setattr(_batched, "_BATCH_ENTRIES", cap)
        self._assert_equal_to_references(resolve_builtin(name, **kwargs))


class TestCompletenessCertificate:
    """Truncation flags against the untruncated SU(2) rule (oracles.suq2_components)."""

    LEVEL = 8  # suq2_half ingests the pair (l, r) iff l + r <= 8

    def expected_block(self, a: int, x: int) -> tuple[bool, list[str]]:
        # the sum next to x runs over the components of alpha x x; it is
        # certified only when that pair and each component's pair with x are ingested
        if a + x > self.LEVEL:
            return False, []
        missing = [c for c in oracles.suq2_components(a, x) if int(c) + x > self.LEVEL]
        return not missing, missing

    def test_theorem_5_3_truncated_exactly_beyond_the_fragment(self, suq2_half):
        for a in range(self.LEVEL + 1):
            for b in range(self.LEVEL + 1):
                s, t = spectral_grid(suq2_half, str(a), str(b), probes=0)[0]
                result = verify_theorem_5_3(suq2_half, str(a), str(b), s, t)
                assert result["truncated"] == (a + 2 * b > self.LEVEL), (a, b)
                assert result["truncated"] == (not self.expected_block(a, b)[0]), (a, b)

    def test_modular_blocks_match_the_rule(self, suq2_half):
        support = suq2_half.fusion.pairs()
        for a in range(self.LEVEL + 1):
            result = verify_modular(suq2_half, str(a), support)
            for side in ("id_tensor_h", "h_tensor_id"):
                blocks = result[side]
                assert [b["label"] for b in blocks] == list(suq2_half.labels)
                for block in blocks:
                    got = (block["complete"], block["missing"])
                    assert got == self.expected_block(a, int(block["label"])), (a, side, block)

    def test_unprobed_pair_still_sums_the_ingested_gamma(self, free_orth):
        # ("f", "fbar") is not ingested, so no sum over gamma can be certified;
        # the one ingested pair with f, (triv, f) or (f, triv), still contributes
        top = free_orth.rho("f")[0]
        result = verify_theorem_5_3(free_orth, "f", "f", 1.0, top)
        assert result["truncated"] is True and result["pass"] is None
        assert result["lhs_norm_eq1"] == pytest.approx(1.0, abs=1e-12)
        assert result["lhs_norm_eq2"] == pytest.approx(1.0, abs=1e-12)
        modular = verify_modular(free_orth, "f", free_orth.fusion.pairs())
        for side in ("id_tensor_h", "h_tensor_id"):
            flags = {b["label"]: (b["complete"], b["missing"]) for b in modular[side]}
            assert flags == {"triv": (True, []), "f": (False, []), "fbar": (False, [])}


    def test_probe_orientation_on_a_one_sided_fragment(self):
        # cyclic3 without (2, 1): the id x h block gamma of alpha sums x = alpha - gamma,
        # probing (alpha, -gamma) and needing (x, gamma); the h x id block beta sums
        # x = alpha - beta, probing (-beta, alpha) and needing (beta, x)
        m = resolve_builtin("cyclic3")
        rows = {p: m.fusion.components(*p) for p in m.fusion.pairs() if p != ("2", "1")}
        one_sided = dataclasses.replace(m, fusion=FusionTable(rows))
        assert validate_model(one_sided).issues == []
        incomplete = {
            ("0", "id_tensor_h", "1"): (False, ["2"]),  # needs (2, 1)
            ("0", "h_tensor_id", "2"): (False, ["1"]),  # needs (2, 1)
            ("1", "h_tensor_id", "1"): (False, []),  # probe (2, 1) absent
            ("2", "id_tensor_h", "2"): (False, []),  # probe (2, 1) absent
        }
        for alpha in one_sided.labels:
            result = verify_modular(one_sided, alpha, one_sided.fusion.pairs())
            for side in ("id_tensor_h", "h_tensor_id"):
                assert [b["label"] for b in result[side]] == list(one_sided.labels)
                for block in result[side]:
                    want = incomplete.get((alpha, side, block["label"]), (True, []))
                    assert (block["complete"], block["missing"]) == want, (alpha, side, block)


class TestSupplementRoundTrip:
    def _small_model(self):
        return resolve_builtin("su_q_2", q=0.5, max_level=3)

    def test_round_trip_preserves_cg(self):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
        reloaded = load_model(json.loads(json.dumps(doc)))
        for beta, gamma in reloaded.fusion.pairs():
            result = verify_cg_unitarity(cg_set(reloaded, beta, gamma), TIGHT)
            assert result["pass"]

    def test_corrupted_coefficient_rejected(self):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
        doc["cg"][0]["coeffs"][0][3] += 0.1
        reloaded = load_model(doc)
        beta, gamma = doc["cg"][0]["beta"], doc["cg"][0]["gamma"]
        with pytest.raises(ModelConsistencyError):
            cg_set(reloaded, beta, gamma)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda cg: cg[0].pop("i"),
            lambda cg: cg[0].update(coeffs="nope"),
            lambda cg: cg[0]["coeffs"].append([0, 0, 0]),
            lambda cg: cg.append("nonsense"),
            lambda cg: cg[0]["coeffs"][0].__setitem__(3, math.nan),
            lambda cg: cg[0]["coeffs"][0].__setitem__(4, -math.inf),
            lambda cg: cg[0]["coeffs"][0].__setitem__(0, math.nan),
        ],
    )
    def test_malformed_supplement_rejected(self, mutate):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, m.fusion.pairs())
        mutate(doc["cg"])
        with pytest.raises(ModelSchemaError):
            load_model(doc)

    def test_supplement_that_is_not_a_list_rejected(self):
        doc = model_to_document(self._small_model())
        doc["cg"] = {}
        with pytest.raises(ModelSchemaError, match="model field 'cg' must be a list"):
            load_model(doc)

    def test_entry_targeting_an_unknown_irrep_rejected_on_read(self):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        doc["cg"][0]["alpha"] = "9"
        reloaded = load_model(doc)
        with pytest.raises(ModelSchemaError, match="'cg' entry targets unknown irrep '9'"):
            cg_set(reloaded, "1", "1")

    def test_out_of_range_index_rejected(self):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        doc["cg"][0]["coeffs"][0][1] = 7
        reloaded = load_model(doc)
        with pytest.raises(ModelSchemaError):
            cg_set(reloaded, "1", "1")

    @pytest.mark.parametrize(
        "position, value",
        [(0, -1), (1, -1), (2, -1), (1, -2.0), (0, 0.5), (1, 0.5), (2, 1.5), (2, -0.5)],
    )
    def test_negative_or_fractional_index_rejected(self, position, value):
        # numpy would wrap -1 to the last basis vector and int() would cut 0.5 to 0
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        row = doc["cg"][0]["coeffs"][0]
        row[position] = value
        reloaded = load_model(doc)
        named = re.escape(f"index ({row[0]}, {row[1]}, {row[2]})")
        with pytest.raises(ModelSchemaError, match=named):
            cg_set(reloaded, "1", "1")

    def test_integral_float_indices_load(self):
        m = self._small_model()
        doc = model_to_document(m)
        doc["cg"] = cg_supplement_document(m, [("1", "1")])
        for entry in doc["cg"]:
            entry["coeffs"] = [[*map(float, row[:3]), *row[3:]] for row in entry["coeffs"]]
            entry["i"] = float(entry["i"])
        got, want = cg_set(load_model(doc), "1", "1"), cg_set(m, "1", "1")
        assert [(t.alpha, t.copy_index) for t in got] == [(t.alpha, t.copy_index) for t in want]
        assert all(type(t.copy_index) is int for t in got)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)


class _Row(list):
    pass


class _Int(int):
    pass


def _load_outcome(load, raw):
    try:
        load(raw)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "accepted"


def _set(entry: int, row: int, slot: int, value):
    return lambda cg: cg[entry]["coeffs"][row].__setitem__(slot, value)


def _index(value):
    return lambda cg: cg[1].update(i=value)


def _both(*mutations):
    return lambda cg: [mutate(cg) for mutate in mutations]


_NUMBERS = "rows must be [a, b, c, re, im] numbers"


class TestSupplementRowsAgainstTheWalk:
    """The bulk row proof and its fallback against the per-row walk of oracles.py."""

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (_set(1, 0, 3, True), _NUMBERS),
            (_set(1, 0, 0, False), _NUMBERS),
            (_set(1, 0, 4, "0.5"), _NUMBERS),
            (_set(1, 0, 3, [0.5]), _NUMBERS),
            (_set(1, 0, 4, None), _NUMBERS),
            (_set(1, 0, 0, np.int64(0)), _NUMBERS),
            (lambda cg: cg[1]["coeffs"][0].pop(), _NUMBERS),
            (lambda cg: cg[1]["coeffs"][0].append(0.0), _NUMBERS),
            (lambda cg: cg[1]["coeffs"].__setitem__(0, tuple(cg[1]["coeffs"][0])), _NUMBERS),
            (lambda cg: cg[1]["coeffs"].__setitem__(0, None), _NUMBERS),
            (_set(1, 0, 3, math.nan), "finite numbers"),
            (_set(1, 0, 4, math.inf), "finite numbers"),
            (_set(1, 0, 2, -math.inf), "finite numbers"),
            (_set(1, 0, 4, 10**400), "finite numbers"),  # an int too large for a float
            (_set(1, 0, 0, -(10**400)), "finite numbers"),
            (_set(1, 0, 3, 2**1023), "accepted"),  # the largest power of two a float holds
            (lambda cg: cg[1].update(coeffs=[[np.float64(v) for v in r] for r in cg[1]["coeffs"]]),
             "accepted"),
            (_set(1, 0, 4, np.float64(math.nan)), "finite numbers"),
            (lambda cg: cg[1].update(coeffs=[_Row(r) for r in cg[1]["coeffs"]]), "accepted"),
            (_set(1, 0, 0, _Int(0)), "accepted"),
            (lambda cg: cg[1].update(coeffs=[]), "accepted"),
            (lambda cg: None, "accepted"),
            # the first fault in document order wins, whichever check finds it
            (_both(_set(1, 0, 3, "x"), lambda cg: cg[4].pop("i")), _NUMBERS),
            (_both(lambda cg: cg[1].pop("i"), _set(4, 0, 3, "x")), "missing field 'i'"),
            (_both(_set(1, 0, 3, math.nan), lambda cg: cg.append("nonsense")), "finite numbers"),
            (_both(_set(1, 0, 3, math.nan), lambda cg: cg[4].update(coeffs="nope")), "finite"),
            (_both(_set(1, 0, 3, math.nan), lambda cg: cg[4].update(i="x")), "finite numbers"),
            (_both(_set(1, 0, 3, math.nan), lambda cg: cg[4].update(i=None)), "finite numbers"),
            (_both(_set(1, 0, 3, "x"), lambda cg: cg[4].update(i=math.inf)), _NUMBERS),
            (_both(lambda cg: cg[1].update(i="x"), _set(4, 0, 3, math.nan)), "field 'i'"),
            (_both(_set(1, 0, 3, 10**400), lambda cg: cg[4].update(i=0)), "finite numbers"),
            (_both(lambda cg: cg[1].update(i=1.5), _set(1, 0, 3, math.nan)), "field 'i'"),
            (_both(lambda cg: cg[1].update(i=None), lambda cg: cg[1].pop("coeffs")), "field 'i'"),
            (_both(_set(1, 0, 3, math.nan), _set(1, 1, 3, "x")), "finite numbers"),
            (_both(_set(1, 0, 3, "x"), _set(1, 1, 3, math.nan)), _NUMBERS),
            (_both(_set(1, 1, 3, math.inf), _set(2, 0, 3, True)), "finite numbers"),
            # the copy index: an int >= 1 or an integral float, as for the basis indices
            *((_index(v), "field 'i'") for v in ("x", "1", None, True, math.inf, math.nan)),
            *((_index(v), "field 'i'") for v in (1.5, 0, -1, 0.0, [1], np.int64(1))),
            *((_index(v), "accepted") for v in (1, 1.0, 2, _Int(1))),
            (_index(10**400), "accepted"),  # whether that copy exists is checked on first use
        ],
    )
    def test_same_verdict_and_message_as_the_walk(self, mutate, expected):
        m = resolve_builtin("su_q_2", q=0.5, max_level=3)
        cg = oracles.supplement_document_reference(m, m.fusion.pairs())
        assert len(cg) >= 5 and all(len(e["coeffs"]) >= 2 for e in cg[1:3])
        mutate(cg)
        got = _load_outcome(intertwiners.supplement_cg_provider, cg)
        assert got == _load_outcome(oracles.supplement_rows_reference, cg)
        assert expected in (got if got == "accepted" else got[1])

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("su_q_2", {"q": 0.5, "max_level": 8}),
            ("su_q_2", {"q": 2.0, "max_level": 6}),
            ("s3", {}),
            ("free_orthogonal", {"f_diag": [1.0, 1.0, 2.0]}),
        ],
    )
    def test_exported_rows_match_the_walk(self, name, kwargs):
        m = resolve_builtin(name, **kwargs)
        pairs = sorted(p for p in m.fusion.pairs() if name != "free_orthogonal" or m.trivial in p)
        got = cg_supplement_document(m, pairs)
        want = oracles.supplement_document_reference(m, pairs)
        assert got == want
        assert repr(got) == repr(want)  # the same int and float types, and the same signed zeros
        assert sum(len(e["coeffs"]) for e in got) > 0

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_kron_is_numpy_kron_bit_for_bit(self, q):
        rng = np.random.default_rng(int(10 * q))
        for n1 in range(1, 8):
            k1 = np.diag(q ** (np.arange(n1) - (n1 - 1) / 2))
            g1 = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
            for n2 in range(1, 8):
                k2 = np.diag(q ** (np.arange(n2) - (n2 - 1) / 2))
                g2 = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
                for a, b in ((k1, k2), (g1.real, k2), (k1, g2), (g1, g2.conj())):
                    got, want = intertwiners._kron(a, b), np.kron(a, b)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


class TestVerifiedStore:
    """cg_set builds and verifies each pair once per model and holds every call to its own bound."""

    @staticmethod
    def _perturbed(delta):
        """A reloaded su_q_2 fragment whose first CG entry has one coefficient moved by delta."""
        doc = perturbed_suq2_document(delta)
        return load_model(doc), (doc["cg"][0]["beta"], doc["cg"][0]["gamma"])

    @staticmethod
    def _count(monkeypatch):
        calls = Counter()
        for name in ("verify_cg_unitarity", "cg_intertwining_residual"):
            original = getattr(intertwiners, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(intertwiners, name, counted)
        return calls

    def test_each_pair_verified_once(self, monkeypatch):
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        calls = self._count(monkeypatch)
        pairs = m.fusion.pairs()
        for _ in range(3):
            sizes = [len(cg_set(m, *pair)) for pair in pairs]
        assert calls["verify_cg_unitarity"] == len(pairs)
        assert calls["cg_intertwining_residual"] == sum(sizes)

    def test_tighter_tolerance_still_raises(self):
        m, pair = self._perturbed(1e-7)
        loose = Tolerance(abs=1e-6)
        assert cg_set(m, *pair, loose)
        with pytest.raises(ModelConsistencyError, match="fails unitarity"):
            cg_set(m, *pair)
        assert cg_set(m, *pair, loose)

    def test_failing_pair_raises_same_message_every_call(self, monkeypatch):
        m, pair = self._perturbed(0.1)
        calls = self._count(monkeypatch)
        messages = []
        for _ in range(3):
            with pytest.raises(ModelConsistencyError, match="fails unitarity") as excinfo:
                cg_set(m, *pair)
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert calls["verify_cg_unitarity"] == 1

    def test_unchecked_build_is_verified_later(self):
        m, pair = self._perturbed(0.1)
        assert cg_set(m, *pair, check=False)
        with pytest.raises(ModelConsistencyError, match="fails unitarity"):
            cg_set(m, *pair)

    def test_returned_list_is_a_copy(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        first = cg_set(m, "1", "2")
        expected = [(t.alpha, t.copy_index) for t in first]
        first.append(first[0])
        first.reverse()
        assert [(t.alpha, t.copy_index) for t in cg_set(m, "1", "2")] == expected

    def test_replaced_model_starts_empty(self):
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        cg_set(m, "1", "1")
        with pytest.raises(CGUnavailableError):
            cg_set(dataclasses.replace(m, cg=None), "1", "1")

    def test_warm_theorem_sweep_matches_cold(self):
        def sweep(m):
            return [
                verify_theorem_5_3(m, alpha, beta, s, t)
                for alpha in m.labels
                for beta in m.labels
                for s, t in spectral_grid(m, alpha, beta)
            ]

        warm = resolve_builtin("su_q_2", q=0.5, max_level=4)
        first = sweep(warm)
        assert sweep(warm) == first
        assert sweep(resolve_builtin("su_q_2", q=0.5, max_level=4)) == first

    def test_stored_tensor_power_matches_cold(self):
        warm = resolve_builtin("su_q_2", q=0.5, max_level=8)
        for n in (3, 6, 2, 7, 6):
            cold = resolve_builtin("su_q_2", q=0.5, max_level=8)
            assert tensor_power_decompose(warm, "1", n) == tensor_power_decompose(cold, "1", n)


class TestCGSizeCap:
    """A pair whose n_beta * n_gamma exceeds the cap is refused before its provider runs."""

    def test_refused_pair_never_reaches_the_provider(self):
        m = resolve_builtin("su_q_2", q=0.81, max_level=90)
        calls = []

        def provider(model, beta, gamma):
            calls.append((beta, gamma))
            return m.cg(model, beta, gamma)

        counted = dataclasses.replace(m, cg=provider)
        cap = re.escape("CG pair ('39', '40') spans 40 x 41 = 1640 product basis vectors, ")
        with pytest.raises(PreconditionError, match=cap + "above the cap of 1600"):
            cg_set(counted, "39", "40")
        assert calls == []
        assert cg_set(counted, "2", "3") and calls == [("2", "3")]

    def test_cli_exits_2(self, capsys):
        argv = ["cg", "--model", "su_q_2", "--q", "0.81", "--max-level", "90"]
        assert main([*argv, "--beta", "39", "--gamma", "40"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: CG pair ('39', '40') spans 40 x 41 = 1640")


class TestExactSuQ2Reference:
    """Every su_q_2 CG tensor up to level 12 passes the gate and matches exact rational |V|^2 and signs.

    The model is built at float(q), which differs from the rational q by about
    1e-17 relative.  The worst |V|^2 error measured is 3.3e-16 over these
    pairs, and 4.4e-16 over every pair up to level 20; both are at sqrt_q 9/10,
    every other sqrt_q here stays at 1.1e-16.  Every exact zero is written as
    0.0, at q = 1 too, where some sums of the build cancel to within its
    decimal rounding.
    """

    LEVEL = 12
    SQUARE_BOUND = 5e-16
    SIGN_FLOOR = 1e-20  # |V| above 1e-10, the build's own zero threshold

    @pytest.mark.parametrize("sqrt_q", ["1/10", "1/2", "7/10", "9/10", "1", "2"])
    def test_every_pair_matches_the_exact_reference(self, sqrt_q):
        exact_sqrt_q = Fraction(sqrt_q)
        m = resolve_builtin("su_q_2", q=float(exact_sqrt_q**2), max_level=self.LEVEL)
        for n1 in range(self.LEVEL + 1):
            for n2 in range(self.LEVEL + 1 - n1):
                tensors = cg_set(m, str(n1), str(n2))
                exact = oracles.suq2_exact_cg_squares(n1, n2, exact_sqrt_q)
                assert [t.alpha for t in tensors] == list(exact)
                for t in tensors:
                    squares, signs = exact[t.alpha]
                    zero = (squares == 0).astype(bool)
                    assert (t.coeffs[zero] == 0).all(), (n1, n2, t.alpha)  # written as 0.0
                    squares = squares.astype(float)
                    assert not t.coeffs.imag.any()
                    gap = np.abs(np.abs(t.coeffs) ** 2 - squares).max()
                    assert gap <= self.SQUARE_BOUND, (n1, n2, t.alpha, gap)
                    live = squares > self.SIGN_FLOOR
                    assert (np.sign(t.coeffs.real[live]) == signs[live]).all(), (n1, n2, t.alpha)


class TestSuQ2AcrossTheQRange:
    """The su_q_2 CG data hold the 1e-9 gate, and both sweeps pass, from q 1e-6 to 1e6."""

    @pytest.mark.parametrize(
        "q", [1e-6, 1e-3, 0.02, 0.1, 0.5, 0.999999, 1.0, 1 + 1e-7, 2.0, 10.0, 1e3, 1e6]
    )
    def test_gate_and_sweeps_hold(self, capsys, q):
        level = 20 if abs(math.log10(q)) <= 1 else 12
        m = resolve_builtin("su_q_2", q=q, max_level=level)
        for n1 in range(level + 1):
            for n2 in range(level + 1 - n1):
                assert cg_set(m, str(n1), str(n2))
        for command, sweep_level in (("theorem-5.3", 10), ("haar-modular", 8)):
            code = main(["verify", command, "--q", repr(q), "--max-level", str(sweep_level)])
            assert (code, capsys.readouterr().err) == (0, ""), (command, q)

    def test_large_pair_at_q_1_holds_the_gate(self):
        # classical CG sums cancel too: with 20 digits, as |log10 q| alone would give at q = 1,
        # (30, 30) fails unitarity at 2.6e-9
        m = resolve_builtin("su_q_2", q=1.0, max_level=60)
        assert verify_cg_unitarity(cg_set(m, "30", "30"))["max_residual"] <= 1e-15
