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

import numpy as np

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
        if not (self.abs >= 0 and self.rel >= 0 and self.eigen_group >= 0):  # NaN fails too
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
    construction.  Held as flat integer arrays over the label universe
    ``_labels``: per pair (in ingestion order) ``_left``, ``_right`` and CSR
    ``_offsets`` into the per-entry ``_comp`` and ``_mult`` (in-row order kept);
    a row's read-only mapping is built the first time it is read.
    """

    def __init__(self, entries: Mapping[tuple[str, str], Mapping[str, int]]):
        table: dict[tuple[str, str], Mapping[str, int]] = {}
        for (left, right), components in entries.items():
            row = {str(label): int(mult) for label, mult in components.items()}
            for label, mult in row.items():
                if not 1 <= mult < 2**63:
                    raise ModelConsistencyError(
                        f"fusion {left!r} x {right!r}: multiplicity of {label!r} is {mult}, "
                        f"must be {'>= 1' if mult < 1 else 'below 2**63'}"
                    )
            table[(str(left), str(right))] = row
        index: dict[str, int] = {}
        ends = [index.setdefault(label, len(index)) for pair in table for label in pair]
        comp = [index.setdefault(label, len(index)) for row in table.values() for label in row]
        mult = [value for row in table.values() for value in row.values()]
        offsets = np.cumsum([0, *map(len, table.values())])
        self._adopt(tuple(index), ends[0::2], ends[1::2], offsets, comp, mult)

    @classmethod
    def _from_arrays(cls, *arrays: Any) -> "FusionTable":
        """A table from (labels, left, right, offsets, comp, mult)."""
        table = cls.__new__(cls)
        table._adopt(*arrays)
        return table

    def _adopt(self, labels, left, right, offsets, comp, mult) -> None:
        self._labels, self._rows = tuple(labels), {}
        self._left, self._right, self._offsets, self._comp, self._mult = (
            np.asarray(a, dtype=np.int64) for a in (left, right, offsets, comp, mult)
        )
        ends = (map(self._labels.__getitem__, a.tolist()) for a in (self._left, self._right))
        self._pairs = tuple(zip(*ends))
        self._index = dict(zip(self._pairs, range(len(self._pairs))))

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return self._pairs

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._index

    def __len__(self) -> int:
        return len(self._pairs)

    def components(self, left: str, right: str) -> Mapping[str, int]:
        """The read-only row of an ingested pair; TruncationError when the pair is absent."""
        row = self._rows.get((left, right))
        if row is None:
            i = self._index.get((left, right))
            if i is None:
                raise TruncationError(
                    f"fusion pair ({left!r}, {right!r}) is not ingested in this model fragment",
                    pair=(left, right),
                )
            lo, hi = self._offsets[i : i + 2].tolist()
            labels = map(self._labels.__getitem__, self._comp[lo:hi].tolist())
            row = MappingProxyType(dict(zip(labels, self._mult[lo:hi].tolist())))
            self._rows[left, right] = row
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
        object.__setattr__(self, "_order", {label: k for k, label in enumerate(by_label)})
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


def _raise_if_failed(report: ValidationReport, what: str) -> None:
    """Raise ModelConsistencyError for a failed report, naming its first five issues."""
    if not report.ok:
        details = "; ".join(issue.message for issue in report.issues[:5])
        more = "" if len(report.issues) <= 5 else f" (+{len(report.issues) - 5} more)"
        raise ModelConsistencyError(f"{what} failed validation: {details}{more}")


def validate_model(m: QGModel, tol: Tolerance = DEFAULT_TOLERANCE) -> ValidationReport:
    """Check every structural invariant; violations become report entries, never exceptions."""
    report = ValidationReport()

    for irr in m.irreps:
        rho = irr.rho
        if not rho.is_balanced(tol):
            message = f"trace {rho.trace():.12g} vs inverse trace {rho.inverse_trace():.12g}"
            message = f"irrep {irr.label!r}: {message}"
            report.add("trace-balance", (irr.label,), rho.balance_residual(), message)
        if irr.conjugate not in m:
            message = f"irrep {irr.label!r}: conjugate {irr.conjugate!r} is not in the model"
            report.add("conjugate-missing", (irr.label, irr.conjugate), None, message)
            continue
        conj = m.irrep(irr.conjugate)
        if conj.conjugate != irr.label:
            message = f"conjugate of {conj.label!r} is {conj.conjugate!r}, expected {irr.label!r}"
            report.add("conjugate-involution", (irr.label, conj.label), None, message)
        expected = rho.conjugate()
        same = len(conj.rho) == len(expected)
        if not (same and all(map(tol.close, conj.rho, expected))):
            worst = max(abs(x - y) for x, y in zip(conj.rho, expected)) if same else float("inf")
            message = f"rho of {conj.label!r} is not the inverse multiset of rho of {irr.label!r}"
            report.add("conjugate-spectrum", (irr.label, conj.label), worst, message)

    triv = m.irrep(m.trivial)
    if triv.dim != 1 or not tol.close(triv.rho[0], 1.0):
        residual = abs(triv.rho[0] - 1.0) if triv.dim == 1 else None
        message = f"got dim {triv.dim}, rho {tuple(triv.rho)}"
        message = f"trivial irrep must have dim 1 and rho (1); {message}"
        report.add("trivial-irrep", (m.trivial,), residual, message)
    if triv.conjugate != triv.label:
        message = f"trivial irrep must be self-conjugate; conjugate is {triv.conjugate!r}"
        report.add("trivial-irrep", (m.trivial,), None, message)

    # array reductions flag a superset of the failing pairs; only those get the checks below
    flat = _flat(m)
    names, conj, left, right, comp, mult, pair, checked = flat
    extra = [0] * (len(names) - len(m.labels))
    dims = np.array([irr.dim for irr in m.irreps] + extra, dtype=float)
    traces = np.array([irr.rho.trace() for irr in m.irreps] + extra, dtype=float)
    t, lens = m._order[m.trivial], np.diff(m.fusion._offsets)
    dim_sum, d1_sum, triv_mult = (
        np.bincount(pair, w, minlength=len(left))
        for w in (mult * dims[comp], mult * traces[comp], mult * (comp == t))
    )
    with np.errstate(all="ignore"):  # 2^-40 of the sums covers rounding; inf and nan flag
        d1_prod = traces[left] * traces[right]
        d1_bound = tol.abs + tol.rel * np.maximum(np.abs(d1_sum), np.abs(d1_prod))
        d1_off = ~(np.abs(d1_sum - d1_prod) <= d1_bound - 2.0**-40 * (d1_sum + d1_prod))
    # x where the row is {x: m}, else -1; m > 1 fails the dimension count
    lone = np.where(lens == 1, np.append(comp, -1)[m.fusion._offsets[:-1]], -1)
    flagged = (
        ~checked
        | (dim_sum != dims[left] * dims[right])
        | d1_off
        | ((left == t) & (lone != right))
        | ((right == t) & (lone != left))
        | (triv_mult != (conj[left] == right))
    )
    pairs = m.fusion.pairs()
    dims = {irr.label: irr.dim for irr in m.irreps}
    traces = {irr.label: irr.rho.trace() for irr in m.irreps}
    for left, right in map(pairs.__getitem__, np.flatnonzero(flagged).tolist()):
        row, where = m.fusion.components(left, right), f"fusion {left!r} x {right!r}"
        outside = left not in m or right not in m
        unknown = [] if outside else [label for label in row if label not in m]
        if outside or unknown:
            detail = "references labels" if outside else "has components"
            message = f"fusion pair ({left!r}, {right!r}) {detail} outside the model"
            message += f": {unknown}" if unknown else ""
            report.add("fusion-labels", (left, right, *unknown), None, message)
            continue
        dim_sum = sum(mult * dims[label] for label, mult in row.items())
        dim_prod = dims[left] * dims[right]
        if dim_sum != dim_prod:
            message = f"{where}: component dims sum to {dim_sum}, product is {dim_prod}"
            report.add("dimension-count", (left, right), float(abs(dim_sum - dim_prod)), message)
        d1_sum = sum(mult * traces[label] for label, mult in row.items())
        d1_prod = traces[left] * traces[right]
        if not tol.close(d1_sum, d1_prod):
            message = f"{where}: quantum dims sum to {d1_sum:.12g}, product is {d1_prod:.12g}"
            report.add("quantum-dimension-count", (left, right), abs(d1_sum - d1_prod), message)
        for unit, other, product in (
            (left, right, f"trivial x {right!r}"),
            (right, left, f"{left!r} x trivial"),
        ):
            if unit == m.trivial and row != {other: 1}:
                message = f"{product} must decompose as {other!r} alone; got {dict(row)}"
                report.add("trivial-unit", (left, right), None, message)
        # the trivial component detects conjugate pairs: multiplicity 1 iff right = conj(left)
        found, expected = row.get(m.trivial, 0), int(m.conjugate(left) == right)
        if found != expected:
            message = f"{where}: trivial component multiplicity {found}, expected {expected}"
            report.add("trivial-multiplicity", (left, right), float(abs(found - expected)), message)

    for alpha, beta, gamma, m1, m2, message in _frobenius_mismatches(m, flat):
        report.add("frobenius", (alpha, beta, gamma), float(abs(m1 - m2)), message)
    return report


def _flat(m: QGModel) -> tuple:
    """(names, conj, left, right, comp, mult, pair, checked): the fusion arrays of ``m`` over
    global label indices (the model's labels in declaration order, then the table's others),
    conjugates by index (-1 outside), each entry's pair position, and per pair whether its
    labels and components all lie in the model."""
    fusion, n = m.fusion, len(m.labels)
    names = [*m.labels, *(label for label in fusion._labels if label not in m)]
    index = {label: i for i, label in enumerate(names)}
    conj = [index.get(m.conjugate(label), -1) for label in m.labels] + [-1] * (len(names) - n)
    to_global = np.array([index[label] for label in fusion._labels], dtype=np.int64)
    left, right, comp = (to_global[a] for a in (fusion._left, fusion._right, fusion._comp))
    pair = np.repeat(np.arange(len(left)), np.diff(fusion._offsets))
    checked = (left < n) & (right < n) & (np.bincount(pair, comp >= n, minlength=len(left)) == 0)
    return names, np.array(conj, dtype=np.int64), left, right, comp, fusion._mult, pair, checked


def _lookup(keys: np.ndarray, values: np.ndarray) -> Callable:
    """get(queries, valid): the value stored under each valid query key, 0 where absent."""
    order = np.argsort(keys, kind="stable")
    keys = np.append(keys[order], np.iinfo(np.int64).max)  # keeps every position in range
    values = np.append(values[order], 0)

    def get(queries: np.ndarray, valid: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(keys, queries)
        found = values[pos]
        found *= valid & (keys[pos] == queries)
        return found

    return get


def _frobenius_mismatches(m: QGModel, flat: tuple = ()) -> list[tuple]:
    """Multiplicity reciprocity on every triple whose needed pairs are all ingested.

    For each pair (beta, gamma) whose labels and components all lie in the
    model and every label alpha, m1 = m(alpha, beta x gamma) is compared with
    m(beta, alpha x conj(gamma)) and m(gamma, conj(beta) x alpha) wherever
    those pairs are ingested, by sorted-key joins on (left * K + right) * K +
    label over the nonzero entries: m1 > 0 is an entry of beta x gamma; m1 = 0
    is found from the nonzero reciprocal through the preimage of conjugation
    (which need not be an involution on an invalid model).  Returns (alpha,
    beta, gamma, m1, reciprocal multiplicity, message) per mismatch, by
    ingested pair, then label declaration order, then the reading.
    """
    names, conj, left, right, comp, mult, pair, checked = flat or _flat(m)
    n, k = len(m.labels), len(names)
    lefts, rights = left[pair], right[pair]
    pair_at = _lookup(left * k + right, np.arange(1, len(left) + 1))  # pair position + 1
    mult_at = _lookup((lefts * k + rights) * k + comp, mult)
    found = []

    def note(reading, at, alpha, beta, gamma, m1, m2) -> None:
        found.append((at, alpha, np.full(len(at), reading), beta, gamma, m1, m2))

    # m1 > 0: each entry of a checked row against both of its reciprocal readings;
    # a reading of 0 is a mismatch only where its pair is ingested
    for reading, (label, a, b) in enumerate(((lefts, comp, rights), (rights, lefts, comp))):
        a, b = (a, conj[b]) if reading == 0 else (conj[a], b)
        valid = checked[pair] & (a >= 0) & (b >= 0)
        m2 = mult_at((a * k + b) * k + label, valid)
        i = np.flatnonzero(valid & (m2 != mult))
        i = i[pair_at(a[i] * k + b[i], True) > 0]
        note(reading, pair[i], comp[i], lefts[i], rights[i], mult[i], m2[i])
    del a, b, m2  # entry-length arrays the next pass has no use for
    # m1 = 0: each entry m2 of a row (left, right) is the reciprocal of the triples
    # (left, label, gamma) with conj(gamma) = right and (right, beta, label) with
    # conj(beta) = left; pre is the j-th label with conjugate t, or -1
    by_conj = np.argsort(conj, kind="stable")
    bounds = np.searchsorted(conj[by_conj], np.arange(k + 1))
    for j in range(np.diff(bounds).max(initial=0)):
        pre = np.where(np.diff(bounds) > j, by_conj[np.minimum(bounds[:-1] + j, k - 1)], -1)
        for reading, (alpha, target) in enumerate(((lefts, rights), (rights, lefts))):
            other = pre[target]
            beta, gamma = (comp, other) if reading == 0 else (other, comp)
            # alpha is a model label absent from the row of beta x gamma, a checked pair
            valid = (alpha < n) & (other >= 0)
            i = np.flatnonzero(valid & (mult_at((beta * k + gamma) * k + alpha, valid) == 0))
            at = pair_at(beta[i] * k + gamma[i], True) - 1
            i, at = i[(at >= 0) & checked[at]], at[(at >= 0) & checked[at]]
            note(reading, at, alpha[i], beta[i], gamma[i], np.zeros_like(i), mult[i])
    columns = [np.concatenate(column) for column in zip(*found)]
    order = np.lexsort(columns[2::-1])  # by pair position, then alpha, then reading
    out = []
    for _, alpha, reading, beta, gamma, m1, m2 in zip(*(c[order].tolist() for c in columns)):
        a, b, g = names[alpha], names[beta], names[gamma]
        label, x, y = (b, a, m.conjugate(g)) if reading == 0 else (g, m.conjugate(b), a)
        message = f"m({a!r}, {b!r} x {g!r}) = {m1} but m({label!r}, {x!r} x {y!r}) = {m2}"
        out.append((a, b, g, m1, m2, message))
    return out


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
    if isinstance(source, os.PathLike) or (isinstance(source, str) and os.path.exists(source)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, (str, bytes)):
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

    entries: dict[tuple[str, str], dict[str, int]] = {}
    for entry in fusion_raw:
        if not isinstance(entry, Mapping):
            raise ModelSchemaError("model: each fusion entry must be an object")
        left = _require(entry, "left", str, "fusion entry")
        right = _require(entry, "right", str, "fusion entry")
        components = _require(entry, "components", Mapping, f"fusion ({left!r}, {right!r})")
        if left not in seen or right not in seen:
            raise ModelSchemaError(
                f"fusion pair ({left!r}, {right!r}) references labels outside the model"
            )
        row: dict[str, int] = {}
        for comp, mult in components.items():
            if comp not in seen:
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
    _raise_if_failed(report, f"model {name!r}")
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
