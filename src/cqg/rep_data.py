"""Domain types for compact-quantum-group model data.

A model is a finite fragment of a representation category: a set of
irreducible representations (label, dimension, spectrum of the canonical
positive intertwiner rho, conjugate label), a fusion table giving tensor
product multiplicities for the ingested pairs, and optionally a provider of
Clebsch-Gordan isometries.  Fusion pairs whose decomposition would leave the
fragment are absent from the table; operations that need them fail fast with
:class:`~cqg.errors.TruncationError` instead of silently dropping components.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable

from .errors import ModelConsistencyError, ModelSchemaError, TruncationError


@dataclass(frozen=True)
class Tolerance:
    """Numeric comparison thresholds.

    ``abs``/``rel`` bound residuals of additive identities; ``eigen_group``
    bounds log-scale distance when deciding that two rho eigenvalues are the
    same spectral point.
    """

    abs: float = 1e-9
    rel: float = 1e-9
    eigen_group: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs < 0 or self.rel < 0 or self.eigen_group < 0:
            raise ValueError("tolerance components must be >= 0")

    def close(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.abs + self.rel * max(abs(x), abs(y))

    def residual_ok(self, residual: float, scale: float = 1.0) -> bool:
        return abs(residual) <= self.abs + self.rel * abs(scale)

    def same_eigenvalue(self, lam: float, mu: float) -> bool:
        # eigenvalues are products of model parameters; log scale keeps the
        # grouping consistent under multiplication
        return abs(math.log(lam) - math.log(mu)) <= self.eigen_group


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class RhoSpectrum:
    """Multiset of strictly positive rho eigenvalues, stored descending.

    The canonical basis convention of the package: index 0 carries the largest
    eigenvalue.  The defining normalization is the trace balance
    sum(lambda_i) = sum(1/lambda_i).
    """

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.eigenvalues)
        if not values:
            raise ModelConsistencyError("empty rho spectrum")
        if any(v <= 0 or not math.isfinite(v) for v in values):
            raise ModelConsistencyError(f"non-positive rho entry in {values!r}")
        object.__setattr__(self, "eigenvalues", tuple(sorted(values, reverse=True)))

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __iter__(self) -> Iterator[float]:
        return iter(self.eigenvalues)

    def __getitem__(self, i: int) -> float:
        return self.eigenvalues[i]

    def trace(self) -> float:
        return sum(self.eigenvalues)

    def inverse_trace(self) -> float:
        return sum(1.0 / v for v in self.eigenvalues)

    def balance_residual(self) -> float:
        return abs(self.trace() - self.inverse_trace())

    def is_balanced(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        scale = max(self.trace(), self.inverse_trace())
        return tol.residual_ok(self.balance_residual(), scale)

    def conjugate(self) -> "RhoSpectrum":
        """Spectrum of the conjugate representation: the inverse multiset."""
        return RhoSpectrum(tuple(1.0 / v for v in self.eigenvalues))


def normalize_rho(diag: Sequence[float]) -> RhoSpectrum:
    """Rescale a positive diagonal to the trace-balanced spectrum.

    The unique positive scalar c with sum(c d_i) = sum(1/(c d_i)) is
    c = sqrt(sum(1/d_i) / sum(d_i)); the result is c*diag sorted descending.
    """
    values = [float(v) for v in diag]
    if not values:
        raise ModelConsistencyError("empty diagonal")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ModelConsistencyError(f"non-positive diagonal entry in {values!r}")
    c = math.sqrt(sum(1.0 / v for v in values) / sum(values))
    return RhoSpectrum(tuple(c * v for v in values))


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: label, degree, rho spectrum, conjugate."""

    label: str
    dim: int
    rho: RhoSpectrum
    conjugate: str

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ModelConsistencyError(f"irrep {self.label!r}: dim must be a positive integer")
        if len(self.rho) != self.dim:
            raise ModelConsistencyError(
                f"irrep {self.label!r}: rho has {len(self.rho)} entries, dim is {self.dim}"
            )


class FusionTable:
    """Multiplicities m(alpha, left x right) for the ingested pairs.

    Absent pair = the decomposition leaves the model fragment; absent label
    within an ingested pair = multiplicity 0.  Instances are read-only after
    construction.
    """

    def __init__(self, entries: Mapping[tuple[str, str], Mapping[str, int]]):
        table: dict[tuple[str, str], Mapping[str, int]] = {}
        for (left, right), components in entries.items():
            row = {str(label): int(mult) for label, mult in components.items()}
            for label, mult in row.items():
                if mult < 1:
                    raise ModelConsistencyError(
                        f"fusion {left!r} x {right!r}: multiplicity of {label!r} is {mult}, must be >= 1"
                    )
            table[(str(left), str(right))] = MappingProxyType(row)
        self._entries = table

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._entries)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def components(self, left: str, right: str) -> Mapping[str, int]:
        """The read-only row of an ingested pair; TruncationError when the pair is absent."""
        row = self._entries.get((left, right))
        if row is None:
            raise TruncationError(
                f"fusion pair ({left!r}, {right!r}) is not ingested in this model fragment",
                pair=(left, right),
            )
        return row

    def multiplicity(self, alpha: str, left: str, right: str) -> int:
        return self.components(left, right).get(alpha, 0)


# A CG provider maps (model, beta, gamma) to the full list of isometry data
# for that pair: (alpha, copy_index, coeffs) with coeffs[b, c, a] the
# coefficient of basis vector b x c in the image of basis vector a.  The
# coefficient array type is whatever the intertwiners module consumes
# (a complex numpy array); rep_data treats it opaquely.
CGProvider = Callable[["QGModel", str, str], Sequence[tuple[str, int, Any]]]


@dataclass(frozen=True, eq=False)
class QGModel:
    """Immutable finite fragment of a compact quantum group's representation data."""

    name: str
    trivial: str
    irreps: tuple[Irrep, ...]
    fusion: FusionTable
    parameters: Mapping[str, Any] = field(default_factory=dict)
    cg: CGProvider | None = None
    truncation_note: str = ""

    def __post_init__(self) -> None:
        by_label: dict[str, Irrep] = {}
        for irr in self.irreps:
            if irr.label in by_label:
                raise ModelConsistencyError(f"duplicate irrep label {irr.label!r}")
            by_label[irr.label] = irr
        if self.trivial not in by_label:
            raise ModelSchemaError(f"trivial label {self.trivial!r} is not an irrep of the model")
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "_by_label", by_label)
        object.__setattr__(self, "_labels", tuple(by_label))
        object.__setattr__(self, "_store", {})

    def _memo(self, key: tuple, build: Callable[[], Any]) -> Any:
        """Data derived from the model (CG sets, tensor powers), built once on first use."""
        store = self._store
        if key not in store:
            store[key] = build()
        return store[key]

    @property
    def labels(self) -> tuple[str, ...]:
        """All irrep labels in declaration order (the canonical iteration order)."""
        return self._labels

    @property
    def is_truncated(self) -> bool:
        return bool(self.truncation_note)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def irrep(self, label: str) -> Irrep:
        try:
            return self._by_label[label]
        except KeyError:
            raise ModelSchemaError(f"unknown irrep label {label!r} in model {self.name!r}") from None

    def dim(self, label: str) -> int:
        return self.irrep(label).dim

    def rho(self, label: str) -> RhoSpectrum:
        return self.irrep(label).rho

    def conjugate(self, label: str) -> str:
        return self.irrep(label).conjugate


@dataclass(frozen=True)
class ValidationIssue:
    invariant: str
    labels: tuple[str, ...]
    residual: float | None
    message: str


@dataclass
class ValidationReport:
    """Outcome of structural validation; empty issue list means the model passes."""

    issues: list[ValidationIssue] = field(default_factory=list)
    scale_factors: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, invariant: str, labels: Sequence[str], residual: float | None, message: str) -> None:
        self.issues.append(ValidationIssue(invariant, tuple(labels), residual, message))


def validate_model(m: QGModel, tol: Tolerance = DEFAULT_TOLERANCE) -> ValidationReport:
    """Check every structural invariant; violations become report entries, never exceptions."""
    report = ValidationReport()

    for irr in m.irreps:
        residual = irr.rho.balance_residual()
        if not irr.rho.is_balanced(tol):
            report.add(
                "trace-balance",
                (irr.label,),
                residual,
                f"irrep {irr.label!r}: trace {irr.rho.trace():.12g} vs inverse trace "
                f"{irr.rho.inverse_trace():.12g}",
            )
        if irr.conjugate not in m:
            report.add(
                "conjugate-missing",
                (irr.label, irr.conjugate),
                None,
                f"irrep {irr.label!r}: conjugate {irr.conjugate!r} is not in the model",
            )
            continue
        conj = m.irrep(irr.conjugate)
        if conj.conjugate != irr.label:
            report.add(
                "conjugate-involution",
                (irr.label, conj.label),
                None,
                f"conjugate of {conj.label!r} is {conj.conjugate!r}, expected {irr.label!r}",
            )
        expected = irr.rho.conjugate()
        if len(conj.rho) != len(expected) or not all(
            tol.close(x, y) for x, y in zip(conj.rho, expected)
        ):
            worst = (
                max(abs(x - y) for x, y in zip(conj.rho, expected))
                if len(conj.rho) == len(expected)
                else float("inf")
            )
            report.add(
                "conjugate-spectrum",
                (irr.label, conj.label),
                worst,
                f"rho of {conj.label!r} is not the inverse multiset of rho of {irr.label!r}",
            )

    triv = m.irrep(m.trivial)
    if triv.dim != 1 or not tol.close(triv.rho[0], 1.0):
        report.add(
            "trivial-irrep",
            (m.trivial,),
            abs(triv.rho[0] - 1.0) if triv.dim == 1 else None,
            f"trivial irrep must have dim 1 and rho (1); got dim {triv.dim}, rho {tuple(triv.rho)}",
        )
    if triv.conjugate != triv.label:
        report.add(
            "trivial-irrep",
            (m.trivial,),
            None,
            f"trivial irrep must be self-conjugate; conjugate is {triv.conjugate!r}",
        )

    dims = {irr.label: irr.dim for irr in m.irreps}
    traces = {irr.label: irr.rho.trace() for irr in m.irreps}
    for left, right in m.fusion.pairs():
        if left not in m or right not in m:
            report.add(
                "fusion-labels",
                (left, right),
                None,
                f"fusion pair ({left!r}, {right!r}) references labels outside the model",
            )
            continue
        row = m.fusion.components(left, right)
        unknown = [label for label in row if label not in m]
        if unknown:
            report.add(
                "fusion-labels",
                (left, right, *unknown),
                None,
                f"fusion pair ({left!r}, {right!r}) has components outside the model: {unknown}",
            )
            continue
        dim_sum = sum(mult * dims[label] for label, mult in row.items())
        dim_prod = dims[left] * dims[right]
        if dim_sum != dim_prod:
            report.add(
                "dimension-count",
                (left, right),
                float(abs(dim_sum - dim_prod)),
                f"fusion {left!r} x {right!r}: component dims sum to {dim_sum}, product is {dim_prod}",
            )
        d1_sum = sum(mult * traces[label] for label, mult in row.items())
        d1_prod = traces[left] * traces[right]
        if not tol.close(d1_sum, d1_prod):
            report.add(
                "quantum-dimension-count",
                (left, right),
                abs(d1_sum - d1_prod),
                f"fusion {left!r} x {right!r}: quantum dims sum to {d1_sum:.12g}, "
                f"product is {d1_prod:.12g}",
            )
        for unit, other, product in (
            (left, right, f"trivial x {right!r}"),
            (right, left, f"{left!r} x trivial"),
        ):
            if unit == m.trivial and row != {other: 1}:
                report.add(
                    "trivial-unit",
                    (left, right),
                    None,
                    f"{product} must decompose as {other!r} alone; got {dict(row)}",
                )
        # multiplicity of the trivial component detects conjugate pairs:
        # it is 1 exactly when right = conjugate(left)
        triv_mult = row.get(m.trivial, 0)
        expected_triv = 1 if m.conjugate(left) == right else 0
        if triv_mult != expected_triv:
            report.add(
                "trivial-multiplicity",
                (left, right),
                float(abs(triv_mult - expected_triv)),
                f"fusion {left!r} x {right!r}: trivial component multiplicity {triv_mult}, "
                f"expected {expected_triv}",
            )

    for alpha, beta, gamma, m1, m2, message in _frobenius_mismatches(m):
        report.add("frobenius", (alpha, beta, gamma), float(abs(m1 - m2)), message)
    return report


def _frobenius_mismatches(m: QGModel) -> Iterator[tuple[str, str, str, int, int, str]]:
    """Multiplicity reciprocity on every triple whose needed pairs are all ingested.

    For each ingested pair (beta, gamma) whose labels and components are all
    in the model, and every label alpha, the multiplicity m1 of alpha in
    beta x gamma is compared with the two reciprocal readings,
    m(beta, alpha x conj(gamma)) and m(gamma, conj(beta) x alpha), whenever
    their pairs are ingested too.  Only nonzero fusion entries are visited:
    a mismatch with m1 > 0 is an entry of the row of beta x gamma, read
    against both reciprocals; one with m1 = 0 has a nonzero reciprocal, an
    entry of some row (left, right), whose triples are found through the
    preimage of conjugation (not conjugation itself, which need not be an
    involution on an invalid model).  Yields (alpha, beta, gamma, m1,
    reciprocal multiplicity, message) per mismatch, in ingested-pair order,
    then label declaration order, then the first reading before the second.
    """
    pairs = m.fusion.pairs()
    rows = {pair: m.fusion.components(*pair) for pair in pairs}
    order = {label: i for i, label in enumerate(m.labels)}
    checked = {
        pair: i
        for i, pair in enumerate(pairs)
        if pair[0] in order and pair[1] in order and all(label in order for label in rows[pair])
    }
    preimage: dict[str, list[str]] = {}
    for label in m.labels:
        preimage.setdefault(m.conjugate(label), []).append(label)
    found: list[tuple[tuple[int, int, int], tuple[str, str, str, int, int, str]]] = []

    def note(reading, alpha, beta, gamma, m1, label, left, right, m2) -> None:
        message = (
            f"m({alpha!r}, {beta!r} x {gamma!r}) = {m1} but "
            f"m({label!r}, {left!r} x {right!r}) = {m2}"
        )
        key = (checked[beta, gamma], order[alpha], reading)
        found.append((key, (alpha, beta, gamma, m1, m2, message)))

    # m1 > 0: each entry of a checked row against both of its reciprocal readings
    for beta, gamma in checked:
        beta_bar, gamma_bar = m.conjugate(beta), m.conjugate(gamma)
        for alpha, m1 in rows[beta, gamma].items():
            readings = ((0, beta, alpha, gamma_bar), (1, gamma, beta_bar, alpha))
            for reading, label, left, right in readings:
                other = rows.get((left, right))
                if other is not None and other.get(label, 0) != m1:
                    note(reading, alpha, beta, gamma, m1, label, left, right, other.get(label, 0))
    # m1 = 0: each entry m2 of a row (left, right) read as the reciprocal of the
    # triples it answers, (left, label, gamma) with conj(gamma) = right and
    # (right, beta, label) with conj(beta) = left
    for (left, right), row in rows.items():
        gammas = preimage.get(right, ()) if left in order else ()
        betas = preimage.get(left, ()) if right in order else ()
        for label, m2 in row.items():
            for gamma in gammas:
                if (label, gamma) in checked and left not in rows[label, gamma]:
                    note(0, left, label, gamma, 0, label, left, right, m2)
            for beta in betas:
                if (beta, label) in checked and right not in rows[beta, label]:
                    note(1, right, beta, label, 0, label, left, right, m2)
    found.sort(key=lambda item: item[0])
    for _, mismatch in found:
        yield mismatch


# ---------------------------------------------------------------------------
# JSON ingestion and export


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(doc: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise ModelSchemaError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelSchemaError(f"{where}: field {key!r} must be of type {kind.__name__}")
    return value


def _read_source(source: Any) -> Mapping[str, Any]:
    if isinstance(source, Mapping):
        return source
    if isinstance(source, os.PathLike):
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, (str, bytes)):
        if isinstance(source, str) and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            try:
                doc = json.loads(source)
            except json.JSONDecodeError as exc:
                raise ModelSchemaError(f"model source is neither a file path nor JSON: {exc}") from exc
    else:
        raise ModelSchemaError(f"unsupported model source type {type(source).__name__}")
    if not isinstance(doc, Mapping):
        raise ModelSchemaError("model document must be a JSON object")
    return doc


def load_model_with_report(
    source: Any, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[QGModel, ValidationReport]:
    """Parse, normalize, and validate a model document.

    Supplied spectra must already satisfy the trace balance within tolerance
    (a grossly unbalanced spectrum is a data error, not a normalization
    choice); the loader then applies :func:`normalize_rho` as a float polish
    and records the applied scale factor per irrep.
    """
    doc = _read_source(source)
    name = _require(doc, "name", str, "model")
    trivial = _require(doc, "trivial", str, "model")
    irreps_raw = _require(doc, "irreps", list, "model")
    fusion_raw = _require(doc, "fusion", list, "model")
    parameters_raw = doc.get("parameters", {})
    if not isinstance(parameters_raw, Mapping):
        raise ModelSchemaError("model: field 'parameters' must be an object")
    parameters: dict[str, Any] = {}
    for key, value in parameters_raw.items():
        if _is_number(value):
            value = float(value)
        elif isinstance(value, list) and all(_is_number(v) for v in value):
            value = [float(v) for v in value]
        elif not isinstance(value, str):
            raise ModelSchemaError(
                f"model: parameter {key!r} must be a number, a string or a list of numbers"
            )
        parameters[str(key)] = value

    scale_factors: dict[str, float] = {}
    irreps: list[Irrep] = []
    seen: set[str] = set()
    for entry in irreps_raw:
        if not isinstance(entry, Mapping):
            raise ModelSchemaError("model: each irrep entry must be an object")
        label = _require(entry, "label", str, "irrep")
        where = f"irrep {label!r}"
        dim = _require(entry, "dim", int, where)
        if isinstance(dim, bool):
            raise ModelSchemaError(f"{where}: field 'dim' must be an integer")
        conjugate = _require(entry, "conjugate", str, where)
        rho_raw = _require(entry, "rho", list, where)
        if not rho_raw or not all(_is_number(v) for v in rho_raw):
            raise ModelSchemaError(f"{where}: field 'rho' must be a non-empty list of numbers")
        if label in seen:
            raise ModelSchemaError(f"duplicate irrep label {label!r}")
        seen.add(label)
        raw = RhoSpectrum(tuple(float(v) for v in rho_raw))
        if not raw.is_balanced(tol):
            raise ModelConsistencyError(
                f"{where}: rho {tuple(raw)} violates the trace balance "
                f"(trace {raw.trace():.12g} vs inverse trace {raw.inverse_trace():.12g})"
            )
        polished = normalize_rho(tuple(raw))
        scale_factors[label] = polished[0] / raw[0]
        irreps.append(Irrep(label=label, dim=dim, rho=polished, conjugate=conjugate))

    labels = {irr.label for irr in irreps}

    entries: dict[tuple[str, str], dict[str, int]] = {}
    for entry in fusion_raw:
        if not isinstance(entry, Mapping):
            raise ModelSchemaError("model: each fusion entry must be an object")
        left = _require(entry, "left", str, "fusion entry")
        right = _require(entry, "right", str, "fusion entry")
        components = _require(entry, "components", Mapping, f"fusion ({left!r}, {right!r})")
        if left not in labels or right not in labels:
            raise ModelSchemaError(
                f"fusion pair ({left!r}, {right!r}) references labels outside the model"
            )
        row: dict[str, int] = {}
        for comp, mult in components.items():
            if comp not in labels:
                raise ModelSchemaError(
                    f"fusion ({left!r}, {right!r}): component {comp!r} is not in the model"
                )
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ModelSchemaError(
                    f"fusion ({left!r}, {right!r}): multiplicity of {comp!r} must be a positive integer"
                )
            row[comp] = mult
        if (left, right) in entries:
            raise ModelSchemaError(f"duplicate fusion pair ({left!r}, {right!r})")
        entries[(left, right)] = row

    provider: CGProvider | None = None
    if "cg" in doc:
        from .intertwiners import supplement_cg_provider

        provider = supplement_cg_provider(doc["cg"])

    model = QGModel(
        name=name,
        trivial=trivial,
        irreps=tuple(irreps),
        fusion=FusionTable(entries),
        parameters=parameters,
        cg=provider,
        truncation_note=str(doc.get("truncation_note", "")),
    )
    report = validate_model(model, tol)
    report.scale_factors.update(scale_factors)
    if not report.ok:
        details = "; ".join(issue.message for issue in report.issues[:5])
        more = "" if len(report.issues) <= 5 else f" (+{len(report.issues) - 5} more)"
        raise ModelConsistencyError(f"model {name!r} failed validation: {details}{more}")
    return model, report


def load_model(source: Any, tol: Tolerance = DEFAULT_TOLERANCE) -> QGModel:
    """Load and fully validate a model document; see :func:`load_model_with_report`."""
    model, _ = load_model_with_report(source, tol)
    return model


def model_to_document(m: QGModel) -> dict[str, Any]:
    """Serialize a model back to the JSON document format (CG data excluded)."""
    doc: dict[str, Any] = {"name": m.name}
    if m.parameters:
        doc["parameters"] = dict(m.parameters)
    doc["trivial"] = m.trivial
    doc["irreps"] = [
        {
            "label": irr.label,
            "dim": irr.dim,
            "rho": list(irr.rho),
            "conjugate": irr.conjugate,
        }
        for irr in m.irreps
    ]
    doc["fusion"] = [
        {"left": left, "right": right, "components": dict(m.fusion.components(left, right))}
        for left, right in m.fusion.pairs()
    ]
    if m.truncation_note:
        doc["truncation_note"] = m.truncation_note
    return doc
