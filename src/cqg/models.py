"""Built-in model constructors and the rho defining-property oracle.

Three families ship with the package: the q-deformed SU(2) series (truncated
at a chosen level), duals of small finite groups (Kac type), and the
fundamental fragment of a free orthogonal quantum group with diagonal
parameter matrix (the stock example of an asymmetric spectrum).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import ModelConsistencyError, PreconditionError
from .intertwiners import (
    AbelianDualCGProvider,
    GroupAverageCGProvider,
    SuQ2CGProvider,
    UnitPairCGProvider,
)
from .rep_data import (
    DEFAULT_TOLERANCE,
    FusionTable,
    Irrep,
    QGModel,
    RhoSpectrum,
    Tolerance,
    _raise_if_failed,
    normalize_rho,
    validate_model,
)


def rho_defining_property_oracle(
    candidate: RhoSpectrum, end_dim: int = 1, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Certify a spectrum against the normalization Tr(. rho) = Tr(. rho^{-1}).

    On the commutant of an irreducible the condition has a single scalar
    instance and collapses to the trace balance sum(lambda) = sum(1/lambda);
    ``end_dim`` records the commutant dimension the caller is asserting and
    1 is the only case the oracle covers.
    """
    spectrum = candidate if isinstance(candidate, RhoSpectrum) else RhoSpectrum(tuple(candidate))
    return spectrum.is_balanced(tol)


def _certify(m: QGModel, tol: Tolerance = DEFAULT_TOLERANCE) -> QGModel:
    _raise_if_failed(validate_model(m, tol), f"built-in model {m.name!r}")
    return m


def builtin_su_q_2(q: float, max_level: int) -> QGModel:
    """The q-deformed SU(2) series truncated at ``max_level``.

    Labels 0..max_level with dims n+1; the spectrum of label n is the
    descending sort of {q^n, q^{n-2}, ..., q^{-n}}, whose trace balance the
    model validation certifies; every irrep is self-conjugate; the fusion pair
    (l, r) is ingested iff l + r <= max_level, which keeps every ingested
    decomposition inside the fragment.  q = 1 gives classical SU(2).
    """
    q = float(q)
    max_level = int(max_level)
    if not (q > 0 and math.isfinite(q)):
        raise PreconditionError(
            f"q must be a positive finite real, got q={q!r} (max_level={max_level})"
        )
    if max_level < 0:
        raise PreconditionError("max_level must be >= 0")
    try:
        extremes = (q**max_level, q**-max_level)
    except OverflowError:
        extremes = (math.inf,)
    if not all(sys.float_info.min <= x < math.inf for x in extremes):
        raise PreconditionError(
            f"q**max_level or q**-max_level leaves the normal float range at q={q!r}, "
            f"max_level={max_level}"
        )
    # fusion entries, the sum of min(l, r) + 1 over l + r <= max_level; the cap is level 490
    half, odd = divmod(max_level, 2)
    entries = (half + 1) * (half + 2) * (4 * half + 3 + 6 * odd) // 6
    if entries > 10**7:
        raise PreconditionError(
            f"su_q_2 at max_level={max_level} has {entries} fusion entries, above the cap of "
            f"10**7 (max_level <= 490)"
        )
    irreps = []
    for n in range(max_level + 1):
        eigenvalues = tuple(q ** (n - 2 * k) for k in range(n + 1))
        spectrum = RhoSpectrum(eigenvalues)
        irreps.append(Irrep(label=str(n), dim=n + 1, rho=spectrum, conjugate=str(n)))
    # pairs (l, r) with l + r <= max_level, row-major; components |l - r|, |l - r| + 2, ..., l + r
    sizes = np.arange(max_level + 1, 0, -1)
    left = np.repeat(np.arange(max_level + 1), sizes)
    right = np.arange(len(left)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    counts = np.minimum(left, right) + 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    comp = np.repeat(np.abs(left - right) - 2 * offsets[:-1], counts) + 2 * np.arange(entries)
    labels = [str(n) for n in range(max_level + 1)]
    fusion = FusionTable._from_arrays(labels, left, right, offsets, comp, np.ones_like(comp))
    return _certify(
        QGModel(
            name=f"su_q_2(q={q:g},max_level={max_level})",
            trivial="0",
            irreps=tuple(irreps),
            fusion=fusion,
            parameters={"q": q, "max_level": max_level},
            cg=SuQ2CGProvider(q),
            truncation_note=f"irreps and fusion truncated at combined level {max_level}",
        )
    )


def _cyclic_dual(n: int) -> QGModel:
    if n < 1:
        raise PreconditionError("cyclic group order must be >= 1")
    if n * n > 10**6:  # the fusion dict costs about 1.2 KB per entry
        raise PreconditionError(
            f"cyclic{n} has {n * n} fusion entries, above the cap of 10**6 (n <= 1000)"
        )
    one = RhoSpectrum((1.0,))
    irreps = tuple(
        Irrep(label=str(k), dim=1, rho=one, conjugate=str((n - k) % n)) for k in range(n)
    )
    rows = {
        (str(k), str(l)): {str((k + l) % n): 1} for k in range(n) for l in range(n)
    }
    return _certify(
        QGModel(
            name=f"dual(cyclic{n})",
            trivial="0",
            irreps=irreps,
            fusion=FusionTable(rows),
            parameters={"group": f"cyclic{n}", "order": n},
            cg=AbelianDualCGProvider(),
        )
    )


def _s3_dual() -> QGModel:
    one = RhoSpectrum((1.0,))
    two = RhoSpectrum((1.0, 1.0))
    irreps = (
        Irrep(label="triv", dim=1, rho=one, conjugate="triv"),
        Irrep(label="sgn", dim=1, rho=one, conjugate="sgn"),
        Irrep(label="std", dim=2, rho=two, conjugate="std"),
    )
    rows = {
        ("triv", "triv"): {"triv": 1},
        ("triv", "sgn"): {"sgn": 1},
        ("triv", "std"): {"std": 1},
        ("sgn", "triv"): {"sgn": 1},
        ("sgn", "sgn"): {"triv": 1},
        ("sgn", "std"): {"std": 1},
        ("std", "triv"): {"std": 1},
        ("std", "sgn"): {"std": 1},
        ("std", "std"): {"triv": 1, "sgn": 1, "std": 1},
    }
    # the dihedral presentation: three rotations, three reflections
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    rotations = [
        np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) for t in angles
    ]
    reflections = [
        np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]]) for t in angles
    ]
    matrices = {
        "triv": [np.ones((1, 1))] * 6,
        "sgn": [np.ones((1, 1))] * 3 + [-np.ones((1, 1))] * 3,
        "std": rotations + reflections,
    }
    return _certify(
        QGModel(
            name="dual(s3)",
            trivial="triv",
            irreps=irreps,
            fusion=FusionTable(rows),
            parameters={"group": "s3", "order": 6},
            cg=GroupAverageCGProvider(matrices),
        )
    )


def builtin_finite_group_dual(which: str) -> QGModel:
    """Dual of a small finite group: "s3" or "cyclic <n>" (also cyclic<n>, cyclic:<n>)."""
    token = str(which).strip().lower().replace(":", " ").replace("_", " ")
    if token == "s3":
        return _s3_dual()
    if token.startswith("cyclic"):
        tail = token[len("cyclic") :].strip()
        if tail.isascii() and tail.isdigit():  # str.isdigit alone admits "²", which int() refuses
            if len(tail.lstrip("0")) > 20:  # int() refuses over 4300 digits; the cap is n <= 1000
                raise PreconditionError(
                    f"cyclic group order has {len(tail)} digits, above the cap of 10**6 "
                    "fusion entries (n <= 1000)"
                )
            return _cyclic_dual(int(tail))
    raise PreconditionError(f"unsupported group dual {which!r}; use 's3' or 'cyclic <n>'")


def builtin_free_orthogonal_fund(f_diag: Sequence[float]) -> QGModel:
    """Fundamental fragment of a free orthogonal model with diagonal parameter.

    The nontrivial irrep's spectrum is the balanced normalization of the
    squared diagonal; its conjugate carries the inverse spectrum.  Only the
    fusion pairs involving the trivial irrep are ingested: everything beyond
    the fundamental is left out of the fragment on purpose.  Three or more
    diagonal entries are needed for a genuinely asymmetric spectrum (length
    two is forced symmetric by trace balance).
    """
    values = [float(v) for v in f_diag]
    if not values:
        raise PreconditionError("F_diag needs at least one entry")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise PreconditionError("F_diag entries must be positive finite reals")
    try:  # the entries are positive and finite, so only a float range can fail here
        spectrum = normalize_rho([v * v for v in values])
        conjugate_spectrum = RhoSpectrum(tuple(1.0 / v for v in spectrum))
    except ModelConsistencyError as exc:
        raise PreconditionError(
            f"F_diag {values} leaves the float range once squared and trace-balanced: {exc}"
        ) from None
    dim = len(values)
    one = RhoSpectrum((1.0,))
    irreps = (
        Irrep(label="triv", dim=1, rho=one, conjugate="triv"),
        Irrep(label="f", dim=dim, rho=spectrum, conjugate="fbar"),
        Irrep(label="fbar", dim=dim, rho=conjugate_spectrum, conjugate="f"),
    )
    rows = {
        ("triv", "triv"): {"triv": 1},
        ("triv", "f"): {"f": 1},
        ("f", "triv"): {"f": 1},
        ("triv", "fbar"): {"fbar": 1},
        ("fbar", "triv"): {"fbar": 1},
    }
    label = ",".join(f"{v:g}" for v in values)
    return _certify(
        QGModel(
            name=f"free_orthogonal(F=[{label}])",
            trivial="triv",
            irreps=irreps,
            fusion=FusionTable(rows),
            parameters={"F_diag": values},
            cg=UnitPairCGProvider(),
            truncation_note="fusion beyond the fundamental is not ingested",
        )
    )


BUILTIN_NAMES = ("su_q_2", "s3", "cyclic<n>", "free_orthogonal")


def resolve_builtin(
    name: str,
    q: float = 0.5,
    max_level: int = 8,
    f_diag: Sequence[float] | None = None,
) -> QGModel:
    """Construct a built-in model from its CLI name and parameters."""
    token = str(name).strip().lower()
    if token in {"su_q_2", "suq2", "su_q2"}:
        return builtin_su_q_2(q, max_level)
    if token == "s3" or token.startswith("cyclic"):
        return builtin_finite_group_dual(token)
    if token in {"free_orthogonal", "free_orthogonal_fund", "o_f_plus"}:
        return builtin_free_orthogonal_fund(list(f_diag) if f_diag else [1.0, 1.0, 2.0])
    raise PreconditionError(
        f"unknown built-in model {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )
