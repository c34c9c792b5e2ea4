"""Command-line driver.

Exit codes: 0 all checks passed, 1 at least one violation or witness found,
2 usage or input error.  JSON and CSV output carry numbers at 12 significant
digits and identical invocations (same seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any

from .dimensions import dim_t, growth_inequality_check, symmetry_check, symmetry_sweep
from .errors import (
    CGUnavailableError,
    ModelConsistencyError,
    ModelSchemaError,
    PreconditionError,
    TruncationError,
)
from .fusion import decompose, frobenius_check
from .intertwiners import (
    _cg_record,
    cg_supplement_document,
    verify_coassociativity,
    verify_modular,
)
from .kac_degree import (
    bounded_degree_identity_check,
    corollary_6_5_probe,
    is_kac,
    lemma_6_3_check,
    main_inequality_eval,
    main_theorem_sequence,
    n_G,
    subsequence_refine,
)
from .models import resolve_builtin
from .rep_data import QGModel, Tolerance, load_model, model_to_document
from .spectral import _theorem_5_3_sweep, spectral_grid


def _tolerance(args: argparse.Namespace) -> Tolerance:
    t = float(args.tol)
    if not 0 < t < math.inf:
        raise PreconditionError("--tol must be positive" if t <= 0 else "--tol must be finite")
    return Tolerance(abs=t, rel=t, eigen_group=t)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise PreconditionError(f"expected a comma-separated number list, got {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):  # nan and inf are not integers either
        raise PreconditionError(f"expected integers, got {text!r}")
    return [int(v) for v in values]


def _resolve_model(args: argparse.Namespace, tol: Tolerance) -> QGModel:
    spec = args.model or "su_q_2"
    name = spec[len("builtin:") :] if spec.startswith("builtin:") else spec
    f_diag = _parse_floats(args.f_diag) if args.f_diag else None
    if not spec.startswith("builtin:") and (spec.endswith(".json") or "/" in spec):
        return load_model(spec, tol=tol)
    try:
        return resolve_builtin(name, q=args.q, max_level=args.max_level, f_diag=f_diag)
    except PreconditionError:
        if os.path.exists(spec):
            return load_model(spec, tol=tol)
        raise


def _round12(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.12g}")
        return str(value)
    if isinstance(value, complex):
        return {"re": _round12(value.real), "im": _round12(value.imag)}
    if isinstance(value, dict):
        return {str(k): _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return str(value)


_encode_str = json.encoder.encode_basestring_ascii


def _json12(value: Any, indent: str = "", floats: dict[float, str] | None = None) -> str:
    """``json.dumps(_round12(value), indent=2)``, rounded and encoded in one walk.

    ``indent`` is the indentation of the line value starts on.  Exact types
    only: anything else (numpy scalars, subclasses, complex values) takes
    the two-step route, so both routes give the same text for every input.
    ``floats`` maps each nonzero finite float met so far in this call to its
    text, so each distinct float is formatted once; zeros stay out of it,
    since 0.0 and -0.0 are one key but two texts.
    """
    if floats is None:
        floats = {}
    kind = type(value)
    if kind is float:
        text = floats.get(value)
        if text is None:
            if not math.isfinite(value):
                return _encode_str(str(value))
            text = repr(float(f"{value:.12g}"))
            if value:
                floats[value] = text
        return text
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            # str() of distinct keys may coincide; the later value wins, as in _round12
            value = {str(k): v for k, v in value.items()}
        items = [f"{_encode_str(k)}: {_json12(v, inner, floats)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json12(v, inner, floats) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(_round12(value), indent=2).replace("\n", "\n" + indent)


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}" if math.isfinite(value) else str(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_round12(value), separators=(",", ":"))
    return str(value)


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        _write(_json12(report) + "\n", args)
        return
    if args.format == "csv":
        lines: list[str] = []
        for section in ("results", "violations", "truncations"):
            rows = report.get(section, [])
            lines.append(f"## {section}")
            if rows:
                columns = list(dict.fromkeys(key for row in rows for key in row))
                lines.append(",".join(columns))
                for row in rows:
                    lines.append(
                        ",".join(
                            _fmt_cell(row[c]).replace(",", ";") if c in row else ""
                            for c in columns
                        )
                    )
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"command: {report['command']}", f"model: {report['model']}"]
        params = report.get("parameters", {})
        if params:
            lines.append(
                "parameters: "
                + ", ".join(f"{k}={_fmt_cell(v)}" for k, v in params.items())
            )
        for section in ("results", "violations", "truncations"):
            rows = report.get(section, [])
            lines.append(f"{section} ({len(rows)}):")
            for row in rows:
                lines.append("  " + "  ".join(f"{k}={_fmt_cell(v)}" for k, v in row.items()))
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args: argparse.Namespace) -> None:
    """Write to ``--out`` when given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, model_name: str, parameters: dict) -> dict:
    return {
        "command": command,
        "model": model_name,
        "parameters": parameters,
        "results": [],
        "violations": [],
        "truncations": [],
    }


def _file(report: dict, row: dict, check: str, passed: bool | None, truncation=None) -> None:
    """Append row to the results, then its truncation if given, else its violation if failed.

    ``passed`` is the verifier's own verdict, None when the row is truncated.
    """
    report["results"].append(row)
    if truncation is not None:
        report["truncations"].append(truncation)
    elif passed is False:
        report["violations"].append(dict(row, check=check))


def _labels_arg(m: QGModel, text: str | None) -> list[str]:
    if text is None:
        return list(m.labels)
    labels = [v.strip() for v in text.split(",") if v.strip() != ""]
    for label in labels:
        m.irrep(label)
    return labels


# ---------------------------------------------------------------------------
# subcommand bodies; each fills the report and returns nothing


def _cmd_models(args, report, m: QGModel | None, tol: Tolerance) -> None:
    for name, hint in (
        ("su_q_2", "q-deformed SU(2) series; uses --q and --max-level"),
        ("s3", "dual of the symmetric group on three letters (Kac)"),
        ("cyclic<n>", "dual of the cyclic group of order n (Kac), e.g. cyclic5"),
        ("free_orthogonal", "free orthogonal fundamental fragment; uses --f-diag"),
    ):
        report["results"].append({"builtin": name, "notes": hint})
    if m is not None:
        report["results"].append(
            {
                "selected": m.name,
                "labels": list(m.labels),
                "dims": [m.dim(label) for label in m.labels],
                "truncated": m.is_truncated,
            }
        )


def _cmd_dims(args, report, m: QGModel, tol: Tolerance) -> None:
    ts = _parse_floats(args.t)
    for label in _labels_arg(m, args.labels):
        row = {"label": label, "dim": m.dim(label)}
        for t in ts:
            row[f"d_{t:g}"] = dim_t(m.rho(label), t)
        report["results"].append(row)


def _cmd_spectra(args, report, m: QGModel, tol: Tolerance) -> None:
    for label in _labels_arg(m, args.labels):
        spectrum = m.rho(label)
        report["results"].append(
            {
                "label": label,
                "dim": m.dim(label),
                "conjugate": m.conjugate(label),
                "spectrum": list(spectrum),
                "Gamma": float(spectrum[0]),
                "d_1": float(spectrum.trace()),
                "symmetric": symmetry_check(spectrum, tol),
            }
        )


def _cmd_fusion(args, report, m: QGModel, tol: Tolerance) -> None:
    if (args.left is None) != (args.right is None):
        raise PreconditionError("--left and --right must be given together")
    pairs = (
        [(args.left, args.right)] if args.left is not None else sorted(m.fusion.pairs())
    )
    for left, right in pairs:
        try:
            dec = decompose(m, left, right)
        except TruncationError as exc:
            report["truncations"].append({"pair": [left, right], "message": str(exc)})
            continue
        report["results"].append(
            {
                "left": left,
                "right": right,
                "components": {label: mult for label, mult in dec.components},
                "total_dim": dec.total_dim(m),
                "total_quantum_dim": dec.total_quantum_dim(m),
            }
        )


def _cmd_cg(args, report, m: QGModel, tol: Tolerance) -> None:
    if args.beta is None or args.gamma is None:
        raise PreconditionError("cg needs --beta and --gamma")
    unitarity = _cg_record(m, args.beta, args.gamma, tol)["unitarity"]
    # copies of the per-tensor rows: the report itself stays in the model's store
    report["results"] += [dict(entry) for entry in unitarity["tensors"]]
    stack = ("cross_orthogonality_residual", "completeness_residual", "max_residual")
    report["results"].append({key: unitarity[key] for key in stack})


_THEOREM_5_3_ROW = (
    "alpha", "beta", "s", "t", "on_grid", "residual_eq1", "residual_eq2", "truncated"
)


def _cmd_verify_theorem_5_3(args, report, m: QGModel, tol: Tolerance) -> None:
    alphas = _labels_arg(m, args.alpha)
    betas = _labels_arg(m, args.beta)
    for alpha in alphas:
        for beta in betas:
            points = spectral_grid(m, alpha, beta, probes=args.probes, tol=tol)
            for (s, t), result in zip(points, _theorem_5_3_sweep(m, alpha, beta, points, tol)):
                truncated = result["truncated"]
                cut = {"alpha": alpha, "beta": beta, "s": s, "t": t} if truncated else None
                row = {k: result[k] for k in _THEOREM_5_3_ROW}
                _file(report, row, "theorem-5.3", result["pass"], cut)


def _cmd_verify_haar_modular(args, report, m: QGModel, tol: Tolerance) -> None:
    support = m.fusion.pairs()
    for alpha in _labels_arg(m, args.alpha):
        try:
            result = verify_modular(m, alpha, support, tol)
        except CGUnavailableError as exc:
            report["truncations"].append({"alpha": alpha, "message": str(exc)})
            continue
        for side in ("id_tensor_h", "h_tensor_id"):
            for block in result[side]:
                where = {"alpha": alpha, "side": side, "block": block["label"]}
                row = dict(where, residual=block["residual"], complete=block["complete"])
                cut = None if block["complete"] else dict(where, missing=block["missing"])
                _file(report, row, "haar-modular", block["pass"], cut)
        coassoc = verify_coassociativity(m, alpha, support, tol)
        for triple in coassoc["triples"]:
            if not triple["pass"]:
                report["violations"].append(
                    {
                        "check": "coassociativity",
                        "alpha": alpha,
                        "triple": triple["triple"],
                        "residual": triple["residual"],
                    }
                )
        report["results"].append(
            {
                "alpha": alpha,
                "side": "coassociativity",
                "triples_checked": len(coassoc["triples"]),
                "triples_skipped": len(coassoc["skipped"]),
                "max_residual": coassoc["max_residual"],
            }
        )


def _cmd_verify_symmetry(args, report, m: QGModel, tol: Tolerance) -> None:
    results, violations = symmetry_sweep(m, tol)
    report["results"].extend(results)
    report["violations"].extend(violations)


def _cmd_verify_frobenius(args, report, m: QGModel, tol: Tolerance) -> None:
    violations = frobenius_check(m)
    pairs = len(m.fusion)
    report["results"].append({"pairs_checked": pairs, "violations_found": len(violations)})
    report["violations"].extend(violations)


def _cmd_verify_growth(args, report, m: QGModel, tol: Tolerance) -> None:
    ns = _parse_ints(args.n)
    ts = _parse_floats(args.t)
    for alpha in _labels_arg(m, args.alpha):
        for n in ns:
            for t in ts:
                try:
                    result = growth_inequality_check(m, alpha, n, t, tol)
                except TruncationError as exc:
                    report["truncations"].append(
                        {"alpha": alpha, "n": n, "t": t, "message": str(exc)}
                    )
                    continue
                _file(report, result, "growth", result["pass"])


def _cmd_kac(args, report, m: QGModel, tol: Tolerance) -> None:
    verdict = is_kac(m, tol)
    report["results"].append(
        {
            "kac": verdict,
            "n_g": n_G(m),
            "n_g_is_lower_bound": m.is_truncated,
        }
    )
    for label in m.labels:
        spectrum = m.rho(label)
        report["results"].append(
            {
                "label": label,
                "Gamma": float(spectrum[0]),
                "d_1": float(spectrum.trace()),
                "dim": m.dim(label),
            }
        )


def _cmd_bounded_degree(args, report, m: QGModel, tol: Tolerance) -> None:
    r = args.r if args.r is not None else 2 * n_G(m)
    strategy = args.strategy
    if strategy == "auto":
        units = sum(m.dim(label) ** 2 for label in m.labels)
        strategy = "exhaustive" if units**r <= 10**6 else "random"
    result = bounded_degree_identity_check(
        m, r, strategy=strategy, trials=args.trials, seed=args.seed
    )
    report["results"].append({k: v for k, v in result.items() if k != "witness"})
    if result["verdict"] == "violated":
        report["violations"].append(
            {"check": "bounded-degree", "r": r, "witness": result["witness"]}
        )


def _cmd_explore_main_theorem(args, report, m: QGModel, tol: Tolerance) -> None:
    alpha0 = args.alpha0
    m.irrep(alpha0)
    seq = main_theorem_sequence(m, alpha0, args.steps, tol)
    gamma_alpha = float(m.rho(alpha0)[0])
    for step in seq:
        report["results"].append(
            {
                "k": step.k,
                "label": step.label,
                "Gamma": step.Gamma,
                "log_gamma": step.log_gamma,
                "d_1": step.d1,
                "dim": step.dim,
                "dim_top": step.dim_top,
            }
        )
    for entry in lemma_6_3_check(seq, [s.k for s in seq], gamma_alpha, tol):
        report["results"].append(
            {
                "check": "growth-chain",
                "k_pair": entry["k_pair"],
                "value": entry["value"],
                "pass": entry["pass"],
            }
        )
        if not entry["pass"]:
            report["violations"].append(dict(entry, check="growth-chain"))
    outcome = subsequence_refine(seq, gamma_alpha, budget=args.budget, tol=tol)
    report["results"].append({"check": "subsequence", **outcome})
    if outcome["outcome"] == "refined":
        by_k = {s.k: s for s in seq}
        ka, kb = outcome["k_indices"][0], outcome["k_indices"][1]
        evaluation = main_inequality_eval(
            by_k[ka], by_k[kb], gamma_alpha, outcome["dimension"], tol=tol
        )
        report["results"].append({"check": "final-bound", **evaluation})
        if (
            evaluation["log_lower_bound"] >= math.log1p(-tol.rel)
            and evaluation["log_final_bound"] < 0
        ):
            report["violations"].append(
                {
                    "check": "consistency-trap",
                    "message": "refined pair satisfies both the >=1 chain and the <1 bound",
                    **evaluation,
                }
            )


def _cmd_explore_corollary_6_5(args, report, m: QGModel, tol: Tolerance) -> None:
    word = []
    for token in filter(None, (t.strip() for t in str(args.word).split(","))):
        label, colon, power = token.partition(":")
        try:
            word.append((label.strip(), int(power) if colon else 1))
        except ValueError:
            raise PreconditionError(f"--word letter {token!r} needs an integer power") from None
    result = corollary_6_5_probe(m, word, bound=args.bound, budget=args.budget)
    report["results"].append(result)
    if result.get("witness") is not None:
        report["violations"].append(
            {
                "check": "dimension-witness",
                "bound": args.bound,
                "witness": result["witness"],
                "dim": result["dim"],
                "factors_used": result["factors_used"],
            }
        )


def _cmd_export(args, report, m: QGModel, tol: Tolerance) -> None:
    document = model_to_document(m)
    if args.include_cg:
        document["cg"] = cg_supplement_document(m, m.fusion.pairs())
    _write(_json12(document) + "\n", args)


_VERIFY = {
    "theorem-5.3": _cmd_verify_theorem_5_3,
    "haar-modular": _cmd_verify_haar_modular,
    "symmetry": _cmd_verify_symmetry,
    "frobenius": _cmd_verify_frobenius,
    "growth": _cmd_verify_growth,
}
_EXPLORE = {"main-theorem": _cmd_explore_main_theorem, "corollary-6.5": _cmd_explore_corollary_6_5}


@functools.cache  # fixed configuration: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="builtin name, builtin:<name>, or a model JSON path")
    common.add_argument("--q", type=float, default=0.5, help="deformation parameter for su_q_2")
    common.add_argument("--max-level", type=int, default=8, help="truncation level for su_q_2")
    common.add_argument("--f-diag", help="comma list for free_orthogonal, e.g. 1,1,2")
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--trials", type=int, default=1000, help="random trial count")
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="report format"
    )
    common.add_argument("--out", help="write the report to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="cqg",
        description="Representation calculus for compact quantum groups at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    def by_what(table: dict):
        return lambda args, report, m, tol: table[args.what](args, report, m, tol)

    add("models", _cmd_models, "list built-in models")

    p = add("dims", _cmd_dims, "d_t table")
    p.add_argument("--t", default="0,1,2", help="comma list of exponents")
    p.add_argument("--labels", help="comma list of labels (default: all)")

    p = add("spectra", _cmd_spectra, "spectra, Gamma, quantum dims")
    p.add_argument("--labels", help="comma list of labels (default: all)")

    p = add("fusion", _cmd_fusion, "fusion decompositions")
    p.add_argument("--left", help="left factor label")
    p.add_argument("--right", help="right factor label")

    p = add("cg", _cmd_cg, "Clebsch-Gordan unitarity report")
    p.add_argument("--beta", help="first factor label")
    p.add_argument("--gamma", help="second factor label")

    p = add("verify", by_what(_VERIFY), "verification sweeps")
    p.add_argument("what", choices=tuple(_VERIFY))
    p.add_argument("--alpha", help="comma list of labels (default: all)")
    p.add_argument("--beta", help="comma list of labels (default: all)")
    p.add_argument("--probes", type=int, default=2, help="off-grid probe count per pair")
    p.add_argument("--n", default="1,2", help="tensor power list for growth")
    p.add_argument("--t", default="2,3", help="exponent list for growth")

    add("kac", _cmd_kac, "Kac detection and degree bound")

    p = add("bounded-degree", _cmd_bounded_degree, "standard-polynomial test")
    p.add_argument("--r", type=int, help="polynomial degree (default 2 N_G)")
    p.add_argument(
        "--strategy", choices=("auto", "exhaustive", "random"), default="auto"
    )

    p = add("explore", by_what(_EXPLORE), "theorem machinery walks")
    p.add_argument("what", choices=tuple(_EXPLORE))
    p.add_argument("--alpha0", default="1", help="sequence start label")
    p.add_argument("--steps", type=int, default=3, help="number of squarings")
    p.add_argument("--budget", type=int, default=20, help="search budget")
    p.add_argument("--word", default="1:1", help="word letters label:power, comma separated")
    p.add_argument("--bound", type=int, default=20, help="dimension bound to beat")

    p = add("export", _cmd_export, "emit the model document")
    p.add_argument("--include-cg", action="store_true", help="embed CG coefficients")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerance(args)
        needs_model = args.command != "models"
        model = None
        if needs_model or args.model:
            model = _resolve_model(args, tol)
        parameters = {
            "tol": float(args.tol),
            "format": args.format,
        }
        if model is not None and "q" in model.parameters:
            parameters["q"] = model.parameters["q"]
        if model is not None and "max_level" in model.parameters:
            parameters["max_level"] = model.parameters["max_level"]
        command_name = args.command
        if args.command in {"verify", "explore"}:
            command_name = f"{args.command} {args.what}"
        report = _report(command_name, model.name if model else "-", parameters)
        args.func(args, report, model, tol)
        if args.command != "export":  # export writes the document itself, no report
            _emit(report, args)
    except ModelConsistencyError as exc:
        sys.stderr.write(f"consistency violation: {exc}\n")
        return 1
    except (
        ModelSchemaError, PreconditionError, TruncationError, CGUnavailableError, OSError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
