"""Tensor decomposition engine over the fusion table.

Products, iterated powers with multiplicity bookkeeping, the maximal
component degree P_n, components attaining the maximal rho eigenvalue of a
product, and the multiplicity reciprocity report.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ModelConsistencyError, PreconditionError, TruncationError
from .rep_data import DEFAULT_TOLERANCE, QGModel, Tolerance, _frobenius_mismatches


@dataclass(frozen=True)
class Decomposition:
    """Multiset of irreducible components with multiplicities >= 1.

    Components are listed in the model's declaration order, the canonical
    iteration order used everywhere in the package.
    """

    components: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.components)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.components)

    def multiplicity(self, label: str) -> int:
        return self.as_dict().get(label, 0)

    def total_dim(self, m: QGModel) -> int:
        return sum(mult * m.dim(label) for label, mult in self.components)

    def total_quantum_dim(self, m: QGModel) -> float:
        return sum(mult * m.rho(label).trace() for label, mult in self.components)


def _canonical(m: QGModel, counts: dict[str, int]) -> Decomposition:
    return Decomposition(tuple((x, counts[x]) for x in m.labels if counts.get(x, 0) > 0))


def decompose(m: QGModel, beta: str, gamma: str) -> Decomposition:
    """Decomposition of beta x gamma; the pair must be ingested."""
    m.irrep(beta)
    m.irrep(gamma)
    return _canonical(m, m.fusion.components(beta, gamma))


def _fuse(m: QGModel, terms: Iterable[tuple[str, int]], right: str) -> dict[str, int]:
    """Multiplicities of (sum of mult x label over terms) x right, in first-seen order."""
    counts: dict[str, int] = {}
    for label, mult in terms:
        for comp, sub in m.fusion.components(label, right).items():
            counts[comp] = counts.get(comp, 0) + mult * sub
    return counts


def tensor_power_decompose(m: QGModel, alpha: str, n: int) -> Decomposition:
    """Decomposition of the n-th tensor power, associating to the left.

    Dynamic programming over the fusion table: the power at n + 1 is the
    fusion convolution of the power at n with alpha.  The model's store keeps
    each power and the fragment edge, as the message and pair of the first
    absent pair (not the exception: its traceback would pin the model), so a
    power past the edge raises an equal TruncationError at once.
    """
    if n < 1:
        raise PreconditionError("tensor power exponent n must be >= 1")
    m.irrep(alpha)
    powers, edge = m._memo(("tensor-power", alpha), lambda: ([_canonical(m, {alpha: 1})], []))
    if edge and len(powers) < n:
        raise TruncationError(*edge)
    while len(powers) < n:  # powers[k - 1] is the k-th power
        try:
            powers.append(_canonical(m, _fuse(m, powers[-1].components, alpha)))
        except TruncationError as exc:
            edge[:] = str(exc), exc.pair
            raise
    return powers[n - 1]


def p_n(m: QGModel, alpha: str, n: int) -> int:
    """Maximal degree among irreducible components of the n-th tensor power."""
    power = tensor_power_decompose(m, alpha, n)
    return max(m.dim(label) for label, _ in power.components)


def gamma_top_components(
    m: QGModel, alpha: str, beta: str, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[tuple[str, int], ...]:
    """Components of alpha x beta whose top rho eigenvalue is Gamma(alpha)*Gamma(beta).

    The product spectrum is the pairwise product multiset, so its maximum is
    the product of maxima and some component must attain it; an empty result
    therefore indicates inconsistent model data.
    """
    product_top = m.rho(alpha)[0] * m.rho(beta)[0]
    dec = decompose(m, alpha, beta)
    hits = tuple(
        (label, mult)
        for label, mult in dec.components
        if tol.same_eigenvalue(m.rho(label)[0], product_top)
    )
    if not hits:
        raise ModelConsistencyError(
            f"no component of {alpha!r} x {beta!r} attains the product top eigenvalue "
            f"{product_top:.12g}; the fusion row or the spectra are inconsistent"
        )
    return hits


def frobenius_check(m: QGModel) -> list[dict]:
    """Multiplicity reciprocity violations over all fully ingested triples.

    One entry per mismatch found by ``rep_data._frobenius_mismatches``,
    in its order.
    """
    return [
        {
            "invariant": "frobenius",
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "m_direct": m1,
            "m_reciprocal": m2,
            "message": message,
        }
        for alpha, beta, gamma, m1, m2, message in _frobenius_mismatches(m)
    ]
