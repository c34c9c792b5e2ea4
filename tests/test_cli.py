"""End-to-end coverage for the command-line driver.

Most cases call main(argv) in process for speed; one subprocess case checks
the installed entry point behaves the same way.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import subprocess
import sys
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqg import resolve_builtin
from cqg import cli, models
from cqg.cli import _json12, _round12, main
from cqg.intertwiners import verify_modular
from cqg.rep_data import Tolerance, model_to_document
from cqg.spectral import _theorem_5_3_sweep, spectral_grid, verify_theorem_5_3

from .conftest import perturbed_suq2_document

REPORT_KEYS = ["command", "model", "parameters", "results", "violations", "truncations"]


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def walk_floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from walk_floats(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_floats(v)


class TestExitCodeZero:
    def test_models_listing(self, capsys):
        code, report = run_json(capsys, "models")
        assert code == 0
        assert list(report) == REPORT_KEYS
        names = [row["builtin"] for row in report["results"] if "builtin" in row]
        assert names == ["su_q_2", "s3", "cyclic<n>", "free_orthogonal"]

    def test_models_with_selection(self, capsys):
        code, report = run_json(capsys, "models", "--model", "s3")
        assert code == 0
        selected = [row for row in report["results"] if "selected" in row]
        assert selected and selected[0]["dims"] == [1, 1, 2]

    def test_dims_reference_table(self, capsys):
        code, report = run_json(
            capsys, "dims", "--model", "su_q_2", "--q", "0.5",
            "--max-level", "2", "--t", "0,1,2",
        )
        assert code == 0
        rows = [
            (r["label"], r["d_0"], r["d_1"], r["d_2"]) for r in report["results"]
        ]
        assert rows == [
            ("0", 1.0, 1.0, 1.0),
            ("1", 2.0, 2.5, 4.25),
            ("2", 3.0, 5.25, 17.0625),
        ]

    def test_verify_theorem_sweep_clean(self, capsys):
        code, report = run_json(
            capsys, "verify", "theorem-5.3", "--model", "su_q_2", "--q", "0.5",
            "--max-level", "4", "--tol", "1e-9",
        )
        assert code == 0
        assert report["violations"] == []
        assert report["results"]
        # pairs near the truncation level cannot be decided and land in truncations
        assert all("alpha" in row for row in report["truncations"])

    @pytest.mark.parametrize("tol", ["1e-9", "1e-16"])
    def test_theorem_sweep_rows_match_per_point_calls(self, capsys, tol):
        # one sweep per pair in the CLI, the public one-point verifier here
        code, report = run_json(
            capsys, "verify", "theorem-5.3", "--model", "su_q_2", "--q", "2",
            "--max-level", "5", "--tol", tol,
        )
        m = resolve_builtin("su_q_2", q=2.0, max_level=5)
        tolerance = Tolerance(abs=float(tol), rel=float(tol), eigen_group=float(tol))
        rows, truncations, violations = [], [], []
        for alpha in m.labels:
            for beta in m.labels:
                for s, t in spectral_grid(m, alpha, beta, probes=2, tol=tolerance):
                    result = verify_theorem_5_3(m, alpha, beta, s, t, tolerance)
                    row = {key: result[key] for key in (
                        "alpha", "beta", "s", "t", "on_grid", "residual_eq1", "residual_eq2",
                        "truncated",
                    )}
                    rows.append(row)
                    if result["truncated"]:
                        truncations.append({"alpha": alpha, "beta": beta, "s": s, "t": t})
                    elif result["pass"] is False:
                        violations.append(dict(row, check="theorem-5.3"))
        assert code == (1 if violations else 0)
        assert report["results"] == _round12(rows)
        assert report["truncations"] == _round12(truncations)
        assert report["violations"] == _round12(violations)

    def test_kac_detection(self, capsys):
        code, report = run_json(capsys, "kac", "--model", "builtin:s3")
        assert code == 0
        head = report["results"][0]
        assert head["kac"] is True
        assert head["n_g"] == 2
        assert head["n_g_is_lower_bound"] is False

    def test_fusion_single_pair(self, capsys):
        code, report = run_json(
            capsys, "fusion", "--model", "su_q_2", "--max-level", "4",
            "--left", "1", "--right", "2",
        )
        assert code == 0
        row = report["results"][0]
        assert row["components"] == {"1": 1, "3": 1}
        assert row["total_dim"] == 6

    def test_cg_unitarity_report(self, capsys):
        code, report = run_json(
            capsys, "cg", "--model", "su_q_2", "--max-level", "4",
            "--beta", "1", "--gamma", "1",
        )
        assert code == 0
        tail = report["results"][-1]
        assert tail["max_residual"] <= 1e-9

    def test_asymmetric_spectrum_reported_not_flagged(self, capsys):
        # asymmetry is only a violation for self-conjugate irreps; f is not one
        code, report = run_json(
            capsys, "verify", "symmetry", "--model", "free_orthogonal",
            "--f-diag", "1,1,2",
        )
        assert code == 0
        rows = {row["label"]: row for row in report["results"]}
        assert rows["f"]["symmetric"] is False
        assert rows["f"]["verdict"] == "no_conclusion"

    def test_growth_inequality(self, capsys):
        code, report = run_json(
            capsys, "verify", "growth", "--model", "su_q_2", "--max-level", "8",
            "--alpha", "1,2", "--n", "1,2", "--t", "2,3",
        )
        assert code == 0
        assert report["violations"] == []
        assert all(row["pass"] for row in report["results"])

    @pytest.mark.parametrize("r, strategy", [("6", "exhaustive"), ("7", "random")])
    def test_auto_strategy_switches_at_the_tuple_bound(self, capsys, r, strategy):
        # cyclic10 has ten 1x1 blocks, so r = 6 is exactly 10^6 tuples: the largest exhaustive count
        code, report = run_json(capsys, "bounded-degree", "--model", "cyclic10", "--r", r)
        assert code == 0
        assert report["results"][0]["strategy"] == strategy


class TestExitCodeOne:
    def test_bounded_degree_witness(self, capsys):
        code, report = run_json(capsys, "bounded-degree", "--model", "builtin:s3", "--r", "3")
        assert code == 1
        violation = report["violations"][0]
        assert violation["check"] == "bounded-degree"
        assert violation["witness"]["kind"] == "matrix_units"

    def test_dimension_witness(self, capsys):
        code, report = run_json(
            capsys, "explore", "corollary-6.5", "--model", "su_q_2",
            "--word", "1:1", "--bound", "2", "--budget", "20",
        )
        assert code == 1
        violation = report["violations"][0]
        assert violation["check"] == "dimension-witness"
        assert violation["dim"] >= 3

    def test_consistency_violation_in_input(self, capsys, tmp_path, suq2_half):
        doc = json.loads(json.dumps(model_to_document(suq2_half)))
        doc["irreps"][1]["rho"] = [2.0, 1.0]
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "spectra", "--model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("consistency violation:")


    def test_cg_pair_failing_unitarity(self, capsys, tmp_path):
        target = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "export", "--model", "su_q_2", "--max-level", "3",
            "--include-cg", "--out", str(target),
        )
        assert code == 0
        document = json.loads(target.read_text(encoding="utf-8"))
        entry = next(e for e in document["cg"] if (e["beta"], e["gamma"]) == ("1", "1"))
        entry["coeffs"][0][3] *= 2.0  # real part of one nonzero coefficient
        target.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "cg", "--model", str(target), "--beta", "1", "--gamma", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("consistency violation:")
        assert "fails unitarity" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("cg", "--beta", "0", "--gamma", "0"),
            ("verify", "theorem-5.3", "--alpha", "0", "--beta", "0"),
            ("verify", "haar-modular", "--alpha", "0"),
        ],
    )
    def test_tol_reaches_the_cg_gate(self, capsys, tmp_path, command):
        # the CG stack of ('0', '0') holds unitarity to 2.5e-9 * 2: inside 1e-8, not 1e-9
        target = tmp_path / "model.json"
        target.write_text(json.dumps(perturbed_suq2_document(2.5e-9)), encoding="utf-8")
        code, _, err = run_cli(capsys, *command, "--model", str(target), "--tol", "1e-8")
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, *command, "--model", str(target))
        assert (code, out) == (1, "")
        assert "CG data for ('0', '0') fails unitarity: max residual 5.000e-09" in err


class TestExitCodeTwo:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("dims", "--model", "no_such_model"), "unknown built-in"),
            (("cg", "--model", "s3"), "--beta"),
            (("dims", "--model", "s3", "--t", "1,x"), "comma-separated"),
            (("kac", "--model", "s3", "--tol", "-1"), "--tol must be positive"),
            (("kac", "--model", "cyclic3", "--tol", "inf"), "--tol must be finite"),
            (("verify", "theorem-5.3", "--max-level", "2", "--tol", "nan"), "--tol must be finite"),
            (("bounded-degree", "--model", "s3", "--strategy", "random", "--trials", "0"),
             "trials=0"),
            (("bounded-degree", "--model", "s3", "--strategy", "random", "--trials", "-1"),
             "trials=-1"),
            (("bounded-degree", "--model", "s3", "--strategy", "random", "--seed", "-1"),
             "seed=-1"),
            (("verify", "growth", "--model", "s3", "--n", "1.5"), "integers"),
            (("fusion", "--model", "s3", "--left", "std"), "together"),
            (("explore", "main-theorem", "--model", "s3", "--alpha0", "std"), ""),
            (("fusion", "--model", "su_q_2", "--max-level", "2",
              "--left", "2", "--right", "9"), "unknown irrep"),
            (("spectra", "--q", "nan"), "q=nan"),
            (("spectra", "--q", "inf"), "q=inf"),
            (("spectra", "--q", "1e-80", "--max-level", "6"), "max_level=6"),
            (("explore", "corollary-6.5", "--word", "1:x"), "'1:x'"),
            (("explore", "corollary-6.5", "--word", "1:2,1:1.5"), "'1:1.5'"),
            (("verify", "growth", "--model", "s3", "--n", "1,inf"), "'1,inf'"),
            (("verify", "growth", "--model", "s3", "--n", "nan"), "'nan'"),
            (("verify", "growth", "--max-level", "6", "--n", "1", "--t", "nan", "--alpha", "1"),
             "t > 1"),
            (("verify", "growth", "--max-level", "6", "--n", "1", "--t", "inf", "--alpha", "1"),
             "t > 1"),
            (("spectra", "--model", "free_orthogonal", "--f-diag", "1,1e200,1"),
             "F_diag [1.0, 1e+200, 1.0] leaves the float range"),
            (("spectra", "--model", "free_orthogonal", "--f-diag", "1,1e-200,1"),
             "F_diag [1.0, 1e-200, 1.0] leaves the float range"),
            (("spectra", "--model", "free_orthogonal", "--f-diag", "1,1e-160,1"),
             "F_diag [1.0, 1e-160, 1.0] leaves the float range"),
            (("spectra", "--model", "free_orthogonal", "--f-diag", "1e154,1e154"),
             "F_diag [1e+154, 1e+154] leaves the float range"),
            (("dims", "--model", "cyclic\u00b2"), "unsupported group dual 'cyclic\u00b2'"),
            (("dims", "--model", "cyclic0"), "cyclic group order must be >= 1"),
            (("dims", "--model", "cyclic" + "9" * 5000), "5000 digits"),
        ],
    )
    def test_usage_errors(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert needle in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("f_diag, code", [("1,1e150,1", 2), ("1,1e-150,1", 2),
                                              ("1,1e70,1", 0), ("1,1e-70,1", 0)])
    def test_wide_f_diag_is_refused_before_the_modular_check_overflows(
        self, capsys, f_diag, code
    ):
        # a spread whose d_alpha * max(rho_alpha) * max(rho**-2) overflows exits 2, without a
        # RuntimeWarning; one just inside the float range checks with finite residuals
        got, out, err = run_cli(
            capsys, "verify", "haar-modular", "--model", "free_orthogonal", "--f-diag", f_diag,
            "--format", "json",
        )
        assert got == code
        if code == 2:
            assert out == ""
            assert err.startswith("error: model 'free_orthogonal(F=[1,1e")
            assert "leaves the float range in the modular check" in err
        else:
            assert err == ""
            assert all(math.isfinite(x) for x in walk_floats(json.loads(out)))

    @pytest.mark.parametrize(
        "plant, needle",
        [
            ('"x"', "field 'i'"),
            ("null", "field 'i'"),
            ("Infinity", "field 'i'"),
            ("1.5", "field 'i'"),
            ('"1"', "field 'i'"),
            ("true", "field 'i'"),
            ("0", "field 'i'"),
            pytest.param("[0, 0, 0, 1" + "0" * 400 + ", 0.0]", "finite numbers", id="10**400"),
        ],
    )
    def test_malformed_cg_document(self, capsys, tmp_path, plant, needle):
        # a planted copy index, or a planted first row, of the (1, 1) entry
        target = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "export", "--model", "su_q_2", "--max-level", "3",
            "--include-cg", "--out", str(target),
        )
        assert code == 0
        document = json.loads(target.read_text(encoding="utf-8"))
        entry = next(e for e in document["cg"] if (e["beta"], e["gamma"]) == ("1", "1"))
        if plant.startswith("["):
            entry["coeffs"][0] = "PLANT"
        else:
            entry["i"] = "PLANT"
        target.write_text(json.dumps(document).replace('"PLANT"', plant), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "cg", "--model", str(target), "--beta", "1", "--gamma", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert needle in err

    EVERY_COMMAND = [
        ("models",),
        ("dims",),
        ("spectra",),
        ("fusion",),
        ("cg", "--beta", "1", "--gamma", "1"),
        *(("verify", what) for what in cli._VERIFY),
        ("kac",),
        ("bounded-degree",),
        ("explore", "main-theorem", "--steps", "2"),
        ("explore", "corollary-6.5", "--bound", "3"),
        ("export",),
    ]

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
    def test_tol_checked_for_every_command(self, capsys, argv):
        argv = (*argv, "--max-level", "4")
        assert run_cli(capsys, *argv, "--tol", "1e-9")[0] in (0, 1)  # the rest of argv is valid
        for tol, needle in (("nan", "--tol must be finite"), ("0", "--tol must be positive")):
            assert run_cli(capsys, *argv, "--tol", tol) == (2, "", f"error: {needle}\n")

    @pytest.mark.parametrize("n", [1001, 1234567890123])
    def test_cyclic_order_capped_before_anything_is_built(self, capsys, monkeypatch, n):
        monkeypatch.setattr(models, "Irrep", None)  # building any irrep fails the test
        assert run_cli(capsys, "dims", "--model", f"cyclic{n}") == (
            2, "", f"error: cyclic{n} has {n * n} fusion entries, above the cap of 10**6 "
            "(n <= 1000)\n"
        )

    @pytest.mark.parametrize("argv", [("dims",), ("fusion",), ("export", "--include-cg")])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "report.json"
        assert run_cli(capsys, *argv, "--model", "s3", "--out", str(target)) == (
            2, "", f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        )

    def test_missing_model_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "dims", "--model", str(path))
        assert code == 2
        assert err.startswith("error:")


class TestFormats:
    def test_report_key_order(self, capsys):
        _, report = run_json(capsys, "spectra", "--model", "s3")
        assert list(report) == REPORT_KEYS
        assert report["command"] == "spectra"
        assert report["model"] == "dual(s3)"

    def test_csv_sections_and_values(self, capsys):
        code, out, err = run_cli(
            capsys, "dims", "--model", "su_q_2", "--q", "0.5", "--max-level", "2",
            "--t", "0,1,2", "--format", "csv",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "## results"
        assert lines[1] == "label,dim,d_0,d_1,d_2"
        assert lines[3] == "1,2,2,2.5,4.25"
        assert "## violations" in lines and "## truncations" in lines

    def test_table_format_prose(self, capsys):
        code, out, err = run_cli(capsys, "kac", "--model", "cyclic5")
        assert code == 0 and err == ""
        assert out.startswith("command: kac\n")
        assert "model: dual(cyclic5)" in out
        assert "violations (0):" in out

    def test_floats_carry_twelve_significant_digits(self, capsys):
        _, report = run_json(
            capsys, "verify", "theorem-5.3", "--model", "su_q_2", "--q", "0.8",
            "--max-level", "3", "--alpha", "1", "--beta", "2",
        )
        seen = 0
        for value in walk_floats(report):
            assert value == float(f"{value:.12g}")
            seen += 1
        assert seen > 0

    def test_out_redirects_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "spectra", "--model", "s3", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == "" and err == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert list(report) == REPORT_KEYS


def _csv_sections(out: str) -> dict[str, tuple[list[str], list[dict[str, str]]]]:
    """Each csv section's header and its rows, as dicts of their nonempty cells."""
    sections: dict[str, tuple[list[str], list[dict[str, str]]]] = {}
    for line in out.splitlines():
        if line.startswith("## "):
            header, rows = sections[line[3:]] = ([], [])
        elif not header:
            header.extend(line.split(","))
        else:
            rows.append({c: v for c, v in zip(header, line.split(",")) if v != ""})
    return sections


def _theorem_5_3_passes(m, tol):
    return [
        result["pass"]
        for alpha in m.labels
        for beta in m.labels
        for result in _theorem_5_3_sweep(
            m, alpha, beta, spectral_grid(m, alpha, beta, probes=2, tol=tol), tol
        )
    ]


def _modular_passes(m, tol):
    support = sorted(m.fusion.pairs())
    return [
        block["pass"]
        for alpha in m.labels
        for side in ("id_tensor_h", "h_tensor_id")
        for block in verify_modular(m, alpha, support, tol)[side]
    ]


class TestVerdictRowFiling:
    """Each verdict row is one results row; its violation is that row plus ``check``.

    A row is a violation exactly when the verifier's own ``pass`` is False, and
    a truncated row (``pass`` None) files a truncation instead.  Counts at
    --tol 1e-16 depend on the last bits of the arithmetic, so only shapes and
    the row-to-row correspondence are asserted.
    """

    RUNS = {
        "haar-modular": (
            ("verify", "haar-modular", "--max-level", "4", "--tol", "1e-16"),
            ("alpha", "side", "block", "missing"),
        ),
        "theorem-5.3": (
            ("verify", "theorem-5.3", "--max-level", "4", "--tol", "1e-16"),
            ("alpha", "beta", "s", "t"),
        ),
        "growth": (
            ("verify", "growth", "--max-level", "4", "--n", "1,3"),
            ("alpha", "n", "t", "message"),
        ),
    }

    @staticmethod
    def _filed(check, rows):
        """The rows of results that file a verdict, with their verifier's pass."""
        m = resolve_builtin("su_q_2", q=0.5, max_level=4)
        tol = Tolerance(abs=1e-16, rel=1e-16, eigen_group=1e-16)
        if check == "growth":
            return rows, [row["pass"] for row in rows]
        if check == "theorem-5.3":
            return rows, _theorem_5_3_passes(m, tol)
        rows = [row for row in rows if row["side"] != "coassociativity"]
        return rows, _modular_passes(m, tol)

    @pytest.mark.parametrize("check", list(RUNS))
    def test_json(self, capsys, check):
        argv, truncation_keys = self.RUNS[check]
        code, report = run_json(capsys, *argv)
        rows, passes = self._filed(check, report["results"])
        assert len(rows) == len(passes) and rows
        expected = [dict(row, check=check) for row, p in zip(rows, passes) if p is False]
        filed = [v for v in report["violations"] if v["check"] == check]
        assert filed == expected
        # the results row's keys, in its order, then check
        assert [list(v) for v in filed] == [
            list(row) + ["check"] for row, p in zip(rows, passes) if p is False
        ]
        assert code == (1 if report["violations"] else 0)
        assert report["truncations"]
        assert all(tuple(t) == truncation_keys for t in report["truncations"])
        if check == "theorem-5.3":
            assert all((p is None) == row["truncated"] for row, p in zip(rows, passes))
            cut = [row for row in rows if row["truncated"]]
            assert report["truncations"] == [{k: row[k] for k in truncation_keys} for row in cut]
        if check == "haar-modular":
            assert all((p is None) == (not row["complete"]) for row, p in zip(rows, passes))
            cut = [row for row in rows if not row["complete"]]
            assert [t["block"] for t in report["truncations"]] == [row["block"] for row in cut]
        if check != "growth":
            assert filed, "1e-16 is below rounding, so some row must fail"

    @pytest.mark.parametrize("check", list(RUNS))
    def test_csv(self, capsys, check):
        argv, truncation_keys = self.RUNS[check]
        _, json_report = run_json(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert err == ""
        sections = _csv_sections(out)
        assert list(sections) == ["results", "violations", "truncations"]
        results_header, results = sections["results"]
        violations_header, violations = sections["violations"]
        truncations_header, truncations = sections["truncations"]
        _, passes = self._filed(check, json_report["results"])
        rows = [r for r in results if check != "haar-modular" or r["side"] != "coassociativity"]
        expected = [dict(row, check=check) for row, p in zip(rows, passes) if p is False]
        assert [v for v in violations if v["check"] == check] == expected
        if check == "theorem-5.3":
            assert violations_header == results_header + ["check"]
        if check == "haar-modular" and violations and violations[0]["check"] == check:
            # block rows lead the results header; the columns follow the first violation
            assert violations_header[:6] == results_header[:5] + ["check"]
        assert truncations_header == list(truncation_keys)
        assert len(truncations) == len(json_report["truncations"])
        assert code == (1 if violations else 0)


class _Level(enum.IntEnum):
    TOP = 3


_WRITER_EDGES = [
    {},
    [],
    (),
    [[], {}, ()],
    {"a": {}, "b": [[[]]], "c": {"d": {"e": [1, {"f": None}]}}},
    (1, 2.5, ("x", (None,))),
    {2: "int", 2.5: "float", True: "bool", None: "none"},
    {1: "int first", "1": "str later"},
    {"key": 'say "hi"', "back\\slash": "a\\b", "ctl\x00": "\x00\x1f\t\n\r\x7f\x08\x0c"},
    ["ünïcödé", "snow ☃", "face 😀", "\ud800", "\u2028"],
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1 / 3],
    [1e11, 123456789012.5, 1e12, 1e15 + 0.3, 1e16, 12345678901234567.0, 1e17, -1e17],
    [True, False, 0, -5, 10**30, -(10**30)],
    [np.float64(1 / 3), np.float64(math.nan), np.int64(7), np.bool_(True), np.float32(0.1)],
    {"z": complex(1.5, -2.0), "w": [1j, complex(math.inf, 0)]},
    MappingProxyType({"a": 1.0, "b": [MappingProxyType({})]}),
    {"proxy": MappingProxyType({"x": (1.25, "y")}), "ordered": OrderedDict(b=2, a=1.0)},
    [_Level.TOP, type("Tag", (str,), {})("tagged"), np.array([[1, 2], [3, 4]])],
    1.5,
    "top",
    None,
]

_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats(min_value=1e11, max_value=1e17)
    | st.text()
)
_json_keys = st.text() | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """_json12 against the two-step route it replaces, text for text."""

    @pytest.mark.parametrize("value", _WRITER_EDGES)
    def test_edge_cases_match_the_stdlib_route(self, value):
        assert _json12(value) == json.dumps(_round12(value), indent=2)

    @settings(max_examples=300)
    @given(_json_values)
    def test_random_values_match_the_stdlib_route(self, value):
        assert _json12(value) == json.dumps(_round12(value), indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [0.0, -0.0, 0.0, -0.0, 1.5, -0.0, 0.0],
            [-0.0, 0.0, {"a": -0.0, "b": 0.0, "c": [0.0, -0.0]}],
            [0.1, 0.1, 1 / 3, {"x": 1 / 3, "y": [0.1, 1 / 3]}, 1 / 3, -0.1],
            [1, 1.0, True, 1.0, 1, 2.0, 2, 1e-300, 1e-300, 1.23456789012345e17],
            [float("nan"), 2.5, float("inf"), 2.5, -float("inf"), float("nan")],
        ],
    )
    def test_zeros_and_repeated_floats(self, value):
        assert _json12(value) == json.dumps(_round12(value), indent=2)

    def test_calls_share_no_float_texts(self, monkeypatch):
        tables = []
        real = cli._json12

        def spy(value, indent="", floats=None):
            tables.append((indent, floats, dict(floats or {})))
            return real(value, indent, floats)

        monkeypatch.setattr(cli, "_json12", spy)
        first, second = [0.25, [0.25, -0.0], 0.5], [0.5, 0.0, 0.25]
        assert cli._json12(first) == json.dumps(first, indent=2)
        assert cli._json12(second) == json.dumps(second, indent=2)
        starts = [k for k, (indent, _, _) in enumerate(tables) if indent == ""]
        assert starts == [0, 6] and tables[0][1] is None and tables[6][1] is None
        table1, table2 = tables[1][1], tables[7][1]
        assert table1 is not table2
        assert tables[7][2] == {}  # the second call starts from nothing
        assert table1 == {0.25: "0.25", 0.5: "0.5"}  # zeros never enter a table

    @pytest.mark.parametrize(
        "argv",
        [
            ("models",),
            ("dims", "--model", "su_q_2", "--max-level", "3"),
            ("spectra", "--model", "free_orthogonal", "--f-diag", "1,1,2"),
            ("fusion", "--model", "builtin:s3"),
            ("cg", "--model", "su_q_2", "--max-level", "3", "--beta", "1", "--gamma", "2"),
            ("verify", "theorem-5.3", "--model", "su_q_2", "--q", "2", "--max-level", "3"),
            ("verify", "haar-modular", "--model", "builtin:s3"),
            ("verify", "symmetry", "--model", "free_orthogonal", "--f-diag", "1,1,2"),
            ("verify", "frobenius", "--model", "cyclic5"),
            ("verify", "growth", "--model", "su_q_2", "--max-level", "4"),
            ("kac", "--model", "su_q_2", "--max-level", "3"),
            ("bounded-degree", "--model", "builtin:s3", "--r", "3"),
            ("explore", "main-theorem", "--model", "su_q_2", "--max-level", "16"),
            ("explore", "corollary-6.5", "--model", "su_q_2", "--bound", "2"),
            ("export", "--model", "su_q_2", "--max-level", "3", "--include-cg"),
            ("export", "--model", "builtin:s3", "--include-cg"),
        ],
    )
    def test_json_output_is_the_stdlib_indent_2_text(self, capsys, argv):
        _, out, err = run_cli(capsys, *argv, "--format", "json")
        assert err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _help_texts(parser) -> dict[str, str]:
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    texts = {name: sub.format_help() for name, sub in subparsers.choices.items()}
    texts[""] = parser.format_help()
    return texts


class TestParserBuiltOnce:
    """main() reuses one parser per process; it must behave as a fresh one would."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_help_text_of_every_subcommand_matches_a_fresh_parser(self, capsys):
        fresh = _help_texts(cli._build_parser.__wrapped__())
        assert set(fresh) == {"", "models", "dims", "spectra", "fusion", "cg", "verify", "kac",
                              "bounded-degree", "explore", "export"}
        assert _help_texts(cli._build_parser()) == fresh
        for name, text in fresh.items():
            with pytest.raises(SystemExit) as stop:
                main([name, "--help"] if name else ["--help"])
            assert stop.value.code == 0
            assert capsys.readouterr().out == text

    SEQUENCE = [
        ("verify", "growth", "--model", "su_q_2", "--max-level", "4", "--n", "1,2", "--t", "3"),
        ("dims", "--model", "s3", "--t", "0,2", "--format", "csv"),
        ("verify", "symmetry", "--model", "free_orthogonal", "--f-diag", "1,1,2"),
        ("explore", "corollary-6.5", "--model", "su_q_2", "--bound", "2"),
        ("fusion", "--model", "cyclic5", "--left", "1", "--right", "2", "--format", "json"),
        ("cg", "--model", "s3"),
        ("kac", "--model", "su_q_2", "--max-level", "3"),
        ("dims", "--model", "su_q_2", "--max-level", "2"),
    ]

    def test_successive_calls_match_fresh_parsers(self, capsys, monkeypatch):
        reused = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 2, 0, 0]


class TestExportRoundTrip:
    def test_export_then_reuse(self, capsys, tmp_path):
        target = tmp_path / "model.json"
        code, out, err = run_cli(
            capsys, "export", "--model", "su_q_2", "--q", "0.5",
            "--max-level", "3", "--include-cg", "--out", str(target),
        )
        assert code == 0 and out == "" and err == ""
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["name"] == "su_q_2(q=0.5,max_level=3)"
        assert "cg" in document

        code, report = run_json(
            capsys, "cg", "--model", str(target), "--beta", "1", "--gamma", "1"
        )
        assert code == 0
        assert report["results"][-1]["max_residual"] <= 1e-9

        code, report = run_json(
            capsys, "verify", "haar-modular", "--model", str(target), "--alpha", "1"
        )
        assert code == 0
        assert report["violations"] == []

    def test_export_without_cg(self, capsys, tmp_path):
        target = tmp_path / "plain.json"
        code, _, _ = run_cli(
            capsys, "export", "--model", "cyclic5", "--out", str(target)
        )
        assert code == 0
        document = json.loads(target.read_text(encoding="utf-8"))
        assert "cg" not in document

        code, _, err = run_cli(
            capsys, "cg", "--model", str(target), "--beta", "1", "--gamma", "1"
        )
        assert code == 2
        assert err.startswith("error:")


class TestReachableBranches:
    """Branches of the command handlers that only these inputs reach."""

    def test_unknown_builtin_falls_back_to_an_existing_file(self, capsys, tmp_path, monkeypatch):
        # no .json suffix and no "/": tried as a built-in first, then read as a file
        (tmp_path / "mymodel").write_text(
            json.dumps(model_to_document(resolve_builtin("s3"))), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        code, report = run_json(capsys, "dims", "--model", "mymodel")
        assert code == 0
        assert report["model"] == "dual(s3)"

    def test_reloaded_export_missing_one_cg_pair(self, capsys, tmp_path):
        target = tmp_path / "model.json"
        assert run_cli(
            capsys, "export", "--model", "su_q_2", "--max-level", "4", "--include-cg",
            "--out", str(target),
        ) == (0, "", "")
        document = json.loads(target.read_text(encoding="utf-8"))
        _, full = run_json(capsys, "verify", "haar-modular", "--model", str(target))
        document["cg"] = [e for e in document["cg"] if (e["beta"], e["gamma"]) != ("1", "2")]
        target.write_text(json.dumps(document), encoding="utf-8")
        code, cut = run_json(capsys, "verify", "haar-modular", "--model", str(target))
        assert code == 0
        message = "no Clebsch-Gordan data for pair ('1', '2')"
        assert [row for row in cut["truncations"] if "message" in row] == [
            {"alpha": "1", "message": message},
            {"alpha": "3", "message": message},
        ]
        assert sorted({row["alpha"] for row in cut["results"]}) == ["0", "2", "4"]

        def alpha_0_triples(report):
            (row,) = [r for r in report["results"]
                      if r["alpha"] == "0" and r["side"] == "coassociativity"]
            return row["triples_checked"], row["triples_skipped"]

        assert alpha_0_triples(full) == (10, 5)
        assert alpha_0_triples(cut) == (8, 7)

    def test_fusion_pair_not_ingested(self, capsys):
        code, report = run_json(
            capsys, "fusion", "--max-level", "4", "--left", "3", "--right", "3"
        )
        assert code == 0 and report["results"] == [] and report["violations"] == []
        assert report["truncations"] == [
            {"pair": ["3", "3"],
             "message": "fusion pair ('3', '3') is not ingested in this model fragment"}
        ]
        assert run_cli(capsys, "fusion", "--max-level", "4", "--left", "1", "--right", "x") == (
            2, "", "error: unknown irrep label 'x' in model 'su_q_2(q=0.5,max_level=4)'\n"
        )

    def test_main_theorem_refined_subsequence(self, capsys, tmp_path):
        labels = ["0", "a1", "a2", "a3"]
        spectra = {"0": [1.0], "a1": [2.0, 0.5], "a2": [4.0, 1.0, 0.25], "a3": [16.0, 0.0625]}
        rows = {("a1", "a1"): {"0": 1, "a2": 1}, ("a2", "a2"): {"0": 1, "a2": 2, "a3": 1}}
        for x in labels:
            rows[(x, "0")] = rows[("0", x)] = {x: 1}
        document = {
            "name": "refined",
            "trivial": "0",
            "irreps": [{"label": x, "dim": len(rho), "rho": rho, "conjugate": x}
                       for x, rho in spectra.items()],
            "fusion": [{"left": left, "right": right, "components": components}
                       for (left, right), components in rows.items()],
        }
        target = tmp_path / "refined.json"
        target.write_text(json.dumps(document), encoding="utf-8")
        code, report = run_json(
            capsys, "explore", "main-theorem", "--model", str(target),
            "--alpha0", "a1", "--steps", "2",
        )
        assert code == 1
        results = report["results"]
        assert [row["label"] for row in results if "label" in row] == ["a1", "a2", "a3"]
        assert [(v["check"], v["k_pair"], v["value"]) for v in report["violations"]] == [
            ("growth-chain", [2, 3], 0.764880952381)
        ]
        (subsequence,) = [row for row in results if row.get("check") == "subsequence"]
        assert subsequence == {"check": "subsequence", "outcome": "refined",
                               "k_indices": [1, 3], "dimension": 2, "budget_left": 19}
        (final,) = [row for row in results if row.get("check") == "final-bound"]
        assert final["lower_bound_value"] == final["final_bound_value"] == 0.803125
        assert not [v for v in report["violations"] if v["check"] == "consistency-trap"]


class TestDeterminism:
    def test_random_strategy_reports_identical(self, capsys):
        argv = (
            "bounded-degree", "--model", "su_q_2", "--max-level", "2",
            "--r", "5", "--seed", "42", "--trials", "300",
        )
        first_code, first = run_cli(capsys, *argv, "--format", "json")[:2]
        second_code, second = run_cli(capsys, *argv, "--format", "json")[:2]
        assert first_code == second_code == 1
        assert first == second

    def test_subprocess_entry_point(self):
        argv = [
            sys.executable, "-m", "cqg.cli", "verify", "theorem-5.3",
            "--model", "su_q_2", "--max-level", "2", "--format", "json",
        ]
        first = subprocess.run(argv, capture_output=True, timeout=120)
        second = subprocess.run(argv, capture_output=True, timeout=120)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip().endswith(b"}")
