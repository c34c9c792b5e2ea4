"""Clebsch-Gordan isometries and the dual-algebra calculus built on them.

The three concerns of this module:

* constructing and checking the isometries V(alpha, beta x gamma, i) that
  embed an irreducible component into a tensor product, expressed in the
  descending-rho eigenbasis of every irrep;
* the comultiplication of the dual block algebra on matrix units, with the
  component of the RIGHT tensor factor placed in the FIRST leg of the output
  (the convention every identity below is stated in);
* the dual Haar weight h(e^alpha_{a,a'}) = d_1(alpha) * lambda^alpha_a *
  delta_{a,a'} and its two modular identities, verified blockwise.
"""

from __future__ import annotations

import decimal
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate, chain
from typing import Any

import numpy as np

from ._batched import _expansion_stacks, _gram_residuals, _modular_residuals
from .errors import (
    CGUnavailableError,
    ModelConsistencyError,
    ModelSchemaError,
    PreconditionError,
    TruncationError,
)
from .rep_data import DEFAULT_TOLERANCE, QGModel, Tolerance

_ZERO_ENTRY = 1e-12  # below this (relative to the largest entry) a CG coefficient counts as 0
# the checks of a pair hold a few (n_beta n_gamma)^2 arrays: building and checking su_q_2
# (39, 39) peaks at 144 MB under tracemalloc, 42 MB of it the built tensors
_MAX_CG_PRODUCT_DIM = 1600


@dataclass(frozen=True, eq=False)
class CGTensor:
    """One isometry V(alpha, beta x gamma, i): H_alpha -> H_beta x H_gamma.

    ``coeffs[b, c, a]`` is the coefficient of basis vector b x c in the image
    of basis vector a; all indices are 0-based over the descending-rho bases,
    while ``copy_index`` runs 1..m(alpha, beta x gamma).
    """

    alpha: str
    beta: str
    gamma: str
    copy_index: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 3:
            raise ModelConsistencyError("CG coefficient array must have three indices (b, c, a)")
        if self.copy_index < 1:
            raise ModelConsistencyError("CG copy index must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.coeffs.shape  # (n_beta, n_gamma, n_alpha)

    @property
    def matrix(self) -> np.ndarray:
        """Matrix form with row index b * n_gamma + c and column index a."""
        n_b, n_c, n_a = self.coeffs.shape
        return self.coeffs.reshape(n_b * n_c, n_a)

    def coefficient(self, a: int, b: int, c: int) -> complex:
        return complex(self.coeffs[b, c, a])


class C00Element:
    """Finitely supported element of the dual block algebra.

    One square complex matrix per irrep label; labels absent from the support
    stand for zero blocks.  Instances are value objects: all arithmetic
    returns new elements.
    """

    def __init__(self, blocks: Mapping[str, Any]):
        store: dict[str, np.ndarray] = {}
        for label, mat in blocks.items():
            arr = np.array(mat, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ModelConsistencyError(f"block {label!r} must be a square matrix")
            store[str(label)] = arr
        self._blocks = store

    @classmethod
    def zero(cls) -> "C00Element":
        return cls({})

    @classmethod
    def matrix_unit(cls, m: QGModel, label: str, i: int, j: int) -> "C00Element":
        n = m.dim(label)
        if not (0 <= i < n and 0 <= j < n):
            raise PreconditionError(
                f"matrix unit indices ({i}, {j}) out of range for {label!r} of dim {n}"
            )
        block = np.zeros((n, n), dtype=complex)
        block[i, j] = 1.0
        return cls({label: block})

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._blocks))

    def block(self, label: str) -> np.ndarray | None:
        arr = self._blocks.get(label)
        return arr.copy() if arr is not None else None

    def blocks(self) -> dict[str, np.ndarray]:
        return {label: arr.copy() for label, arr in self._blocks.items()}

    def _binary(self, other: "C00Element", op) -> "C00Element":
        out: dict[str, np.ndarray] = {label: arr.copy() for label, arr in self._blocks.items()}
        for label, arr in other._blocks.items():
            if label in out:
                out[label] = op(out[label], arr)
            else:
                out[label] = op(np.zeros_like(arr), arr)
        return C00Element(out)

    def __add__(self, other: "C00Element") -> "C00Element":
        return self._binary(other, np.add)

    def __sub__(self, other: "C00Element") -> "C00Element":
        return self._binary(other, np.subtract)

    def __neg__(self) -> "C00Element":
        return C00Element({label: -arr for label, arr in self._blocks.items()})

    def __mul__(self, scalar: complex) -> "C00Element":
        return C00Element({label: scalar * arr for label, arr in self._blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "C00Element") -> "C00Element":
        out: dict[str, np.ndarray] = {}
        for label, arr in self._blocks.items():
            rhs = other._blocks.get(label)
            if rhs is not None:
                out[label] = arr @ rhs
        return C00Element(out)

    def adjoint(self) -> "C00Element":
        return C00Element({label: arr.conj().T for label, arr in self._blocks.items()})

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(arr))) for arr in self._blocks.values()), default=0.0)

    def is_zero(self, threshold: float = 0.0) -> bool:
        return self.max_abs() <= threshold


# ---------------------------------------------------------------------------
# CG retrieval and verification


def cg_set(
    m: QGModel, beta: str, gamma: str, tol: Tolerance = DEFAULT_TOLERANCE, check: bool = True
) -> list[CGTensor]:
    """All isometries for the pair (beta, gamma), one per (target, copy).

    The returned list is ordered by the target's declaration order and copy
    index, covers the fusion row exactly, and (unless ``check`` is disabled)
    has passed stacked unitarity and eigenvalue intertwining.  Each pair is
    built and its residuals computed at most once per model; every call holds
    the stored residuals to its own bound, which a NaN residual fails.
    """
    return list(chain.from_iterable(_cg_record(m, beta, gamma, tol, check)["into"].values()))


def _cg_record(
    m: QGModel, beta: str, gamma: str, tol: Tolerance = DEFAULT_TOLERANCE, check: bool = True
) -> dict:
    """The stored record of (beta, gamma), held to the bound of tol as cg_set describes."""
    record = m._memo(("cg", beta, gamma), lambda: _build_cg_record(m, beta, gamma))
    bound = max(tol.abs, 1e-9)
    if check and not record["worst"] <= bound:  # only a failing read walks the residuals
        unitarity = record["unitarity"]["max_residual"]
        if not unitarity <= bound:
            raise ModelConsistencyError(
                f"CG data for ({beta!r}, {gamma!r}) fails unitarity: "
                f"max residual {unitarity:.3e}"
            )
        for t, resid in zip(chain.from_iterable(record["into"].values()), record["residuals"]):
            if not resid <= bound:
                raise ModelConsistencyError(
                    f"CG tensor ({beta!r}, {gamma!r}) -> {t.alpha!r} breaks eigenvalue "
                    f"intertwining: residual {resid:.3e}"
                )
    return record


def _build_cg_record(m: QGModel, beta: str, gamma: str) -> dict:
    """The record of (beta, gamma): its tensors checked against the fusion row, and verified.

    ``into`` maps each target, in declaration order, to its tensors by copy
    index; ``unitarity`` is their verify_cg_unitarity report, ``residuals``
    their cg_intertwining_residual in that order, and ``worst`` the largest
    residual of both checks, NaN if any is NaN.
    """
    n_b, n_c = m.dim(beta), m.dim(gamma)
    row = m.fusion.components(beta, gamma)
    if m.cg is None:
        raise CGUnavailableError(f"model {m.name!r} supplies no Clebsch-Gordan data")
    if n_b * n_c > _MAX_CG_PRODUCT_DIM:
        raise PreconditionError(
            f"CG pair ({beta!r}, {gamma!r}) spans {n_b} x {n_c} = {n_b * n_c} product basis "
            f"vectors, above the cap of {_MAX_CG_PRODUCT_DIM}"
        )
    raw = m.cg(m, beta, gamma)
    groups: dict[str, list[CGTensor]] = {}
    for alpha, copy_index, coeffs in raw:
        arr = np.asarray(coeffs, dtype=complex)
        expected_shape = (n_b, n_c, m.dim(alpha))
        if arr.shape != expected_shape:
            raise ModelConsistencyError(
                f"CG data for ({beta!r}, {gamma!r}) -> {alpha!r}: shape {arr.shape}, "
                f"expected {expected_shape}"
            )
        groups.setdefault(alpha, []).append(
            CGTensor(alpha=alpha, beta=beta, gamma=gamma, copy_index=int(copy_index), coeffs=arr)
        )
    into = {
        alpha: tuple(sorted(groups[alpha], key=lambda t: t.copy_index))
        for alpha in m.labels
        if alpha in groups
    }
    counts = {alpha: len(tensors) for alpha, tensors in into.items()}
    if counts != row:
        raise ModelConsistencyError(
            f"CG data for ({beta!r}, {gamma!r}) covers {counts}, fusion row is {dict(row)}"
        )
    for alpha, tensors in into.items():
        got = [t.copy_index for t in tensors]
        expected = list(range(1, len(got) + 1))
        if got != expected:
            raise ModelConsistencyError(
                f"CG copy indices for ({beta!r}, {gamma!r}) -> {alpha!r} are {got}, "
                f"expected {expected}"
            )
    tensors = list(chain.from_iterable(into.values()))
    unitarity = verify_cg_unitarity(tensors)
    residuals = [cg_intertwining_residual(m, t) for t in tensors]
    worst = float(np.max([unitarity["max_residual"], *residuals]))  # NaN propagates
    return {"into": into, "unitarity": unitarity, "residuals": residuals, "worst": worst}


@np.errstate(invalid="ignore", over="ignore")  # a nan or inf residual is itself the report
def verify_cg_unitarity(tensors: Sequence[CGTensor], tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Isometry, mutual orthogonality, and completeness residuals of a pair's stack."""
    if not tensors:
        raise PreconditionError("verify_cg_unitarity needs at least one tensor")
    pair = (tensors[0].beta, tensors[0].gamma)
    if any((t.beta, t.gamma) != pair for t in tensors):
        raise PreconditionError("all tensors must share the same (beta, gamma) pair")
    per_tensor = []
    max_resid = 0.0
    for t in tensors:
        v = t.matrix
        resid = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
        per_tensor.append(
            {"alpha": t.alpha, "copy_index": t.copy_index, "isometry_residual": resid}
        )
        max_resid = max(max_resid, resid)
    cross = 0.0
    for i in range(len(tensors)):
        for j in range(i + 1, len(tensors)):
            cross = float(
                np.maximum(cross, np.max(np.abs(tensors[i].matrix.conj().T @ tensors[j].matrix)))
            )
    dim_prod = tensors[0].coeffs.shape[0] * tensors[0].coeffs.shape[1]
    acc = np.zeros((dim_prod, dim_prod), dtype=complex)
    for t in tensors:
        v = t.matrix
        acc += v @ v.conj().T
    completeness = float(np.max(np.abs(acc - np.eye(dim_prod))))
    max_resid = float(np.max([max_resid, cross, completeness]))  # NaN propagates; max() drops it
    return {
        "pair": list(pair),
        "tensors": per_tensor,
        "cross_orthogonality_residual": cross,
        "completeness_residual": completeness,
        "max_residual": max_resid,
        "pass": max_resid <= max(tol.abs, 1e-9),
    }


def cg_intertwining_residual(m: QGModel, t: CGTensor) -> float:
    """Largest weighted violation of lambda_b * lambda_c = lambda_a on the tensor's support."""
    rho = m._spectra(t.beta, t.gamma, t.alpha).rho
    products = rho[t.beta][:, None, None] * rho[t.gamma][None, :, None]
    mags = np.abs(t.coeffs)
    scale = float(mags.max()) or 1.0
    if not scale < math.inf:  # a nan or inf coefficient would weight every entry to 0
        return scale
    weights = np.where(mags > _ZERO_ENTRY * scale, mags, 0.0)
    return float(np.max(weights * np.abs(products / rho[t.alpha] - 1.0)))


# ---------------------------------------------------------------------------
# Comultiplication on matrix units, Haar weight, modular identities


def _tensors_into(
    m: QGModel, beta: str, gamma: str, alpha: str, tol: Tolerance = DEFAULT_TOLERANCE
) -> Sequence[CGTensor]:
    """Tensors of (beta, gamma) into alpha ([] if none); raises if the pair or its CG is absent."""
    if m.fusion.components(beta, gamma).get(alpha, 0) == 0:
        return []
    try:
        return _cg_record(m, beta, gamma, tol)["into"][alpha]
    except CGUnavailableError:
        raise CGUnavailableError(f"no Clebsch-Gordan data for pair ({beta!r}, {gamma!r})") from None


def _canonical_pairs(m: QGModel, support: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    pairs = {(str(b), str(g)) for b, g in support}
    for b, g in pairs:
        if b not in m or g not in m:
            raise ModelSchemaError(f"support pair ({b!r}, {g!r}) references labels outside the model")
    return sorted(pairs, key=lambda p: (m._order[p[0]], m._order[p[1]]))


def delta_hat(
    m: QGModel, alpha: str, a: int, a_prime: int, support: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], np.ndarray]:
    """Blocks of the dual comultiplication of the matrix unit e^alpha_{a, a'}.

    For each requested pair (beta, gamma) the returned array acts on
    H_gamma x H_beta, the gamma factor FIRST, with flattened index
    c * n_beta + b.  Its entries are
    sum_i V_i^{b,c}_a * conj(V_i^{b',c'}_{a'}).
    """
    n_a = m.dim(alpha)
    if not (0 <= a < n_a and 0 <= a_prime < n_a):
        raise PreconditionError(f"matrix unit indices ({a}, {a_prime}) out of range for {alpha!r}")
    out: dict[tuple[str, str], np.ndarray] = {}
    for beta, gamma in _canonical_pairs(m, support):
        tensors = _tensors_into(m, beta, gamma, alpha)
        dim_block = m.dim(gamma) * m.dim(beta)
        block = np.zeros((dim_block, dim_block), dtype=complex)
        for t in tensors:
            u = t.coeffs[:, :, a].T.reshape(-1)  # index c * n_beta + b
            v = t.coeffs[:, :, a_prime].T.reshape(-1)
            block += np.outer(u, v.conj())
        out[(beta, gamma)] = block
    return out


def haar_weight(m: QGModel, x: C00Element) -> complex:
    """sum over the support of d_1(label) * sum_a lambda_a * x[label][a, a]."""
    total, spectra = 0.0 + 0.0j, m._spectra()
    for label in x.support:
        block = x.block(label)
        if block.shape[0] != m.dim(label):
            raise ModelConsistencyError(
                f"block {label!r} has size {block.shape[0]}, model dim is {m.dim(label)}"
            )
        total += spectra.d1[label] * complex(np.sum(spectra.rho[label] * np.diag(block)))
    return total


def _certify_complete(
    m: QGModel, alpha: str, fixed: str, fixed_left: bool, pairs
) -> tuple[bool, list[str]]:
    """Is every x with alpha in (fixed x x), or in (x x fixed), paired with fixed in ``pairs``?

    By Frobenius reciprocity those x are the components of conj(fixed) x alpha
    (fixed on the left) or of alpha x conj(fixed) (fixed on the right); when
    that probe pair is not ingested the sum cannot be certified.  ``pairs`` is
    any container of (left, right) pairs: a fusion table or a support.
    Returns the certificate and the labels whose pair with fixed is missing.
    """
    probe = (m.conjugate(fixed), alpha) if fixed_left else (alpha, m.conjugate(fixed))
    if probe not in m.fusion:
        return False, []
    missing = [
        x
        for x in m.fusion.components(*probe)
        if ((fixed, x) if fixed_left else (x, fixed)) not in pairs
    ]
    return not missing, missing


def verify_modular(
    m: QGModel,
    alpha: str,
    support: Iterable[tuple[str, str]],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Blockwise check of the two modular identities of the dual Haar weight.

    Applying (id x h) to the comultiplication of e^alpha_{a,a'} must give
    h(e^alpha_{a,a'}) times the inverse-square of rho on each first-leg
    block; applying (h x id) must give h(e^alpha_{a,a'}) times the identity
    on each second-leg block.  A block whose contributing sum cannot be
    certified complete inside the fragment is reported with a truncation
    flag instead of being asserted.
    """
    pairs = _canonical_pairs(m, support)
    spectra = m._spectra(alpha)
    lam_alpha, d_alpha = spectra.rho[alpha], spectra.d1[alpha]

    # the first leg's largest expected entry is d_alpha * max(rho_alpha) * max(rho**-2)
    smallest = min([1.0] + [min(m.rho(label)) for label in {pair[1] for pair in pairs}])
    with np.errstate(over="ignore"):  # an overflow here is the answer, not a warning
        peak = d_alpha * lam_alpha.max() * np.float64(smallest) ** -2.0
    if not peak < math.inf:
        raise PreconditionError(
            f"model {m.name!r} leaves the float range in the modular check of {alpha!r}: "
            "d_alpha * max(rho_alpha) * max(rho**-2) overflows"
        )
    pair_tensors = {pair: _tensors_into(m, *pair, alpha, tol) for pair in pairs}
    support = set(pairs)
    bound = max(tol.abs, tol.rel)

    # The first leg (id x h) fixes gamma, lets h act on the beta factor and expects rho**-2
    # on the block diagonal; the second leg (h x id) fixes beta, lets h act on the gamma
    # factor and expects rho**0 = 1.  Each leg has one block per fixed label.
    blocks: list[tuple[int, str]] = []  # (tensor axis of the fixed label, label)
    terms: list[tuple[CGTensor, int, str]] = []  # (tensor, its block, the other label)
    for k in (1, 0):
        for pair in sorted(pairs, key=lambda p: (m._order[p[k]], m._order[p[1 - k]])):
            if not blocks or blocks[-1] != (k, pair[k]):
                blocks.append((k, pair[k]))
            terms += [(t, len(blocks) - 1, pair[1 - k]) for t in pair_tensors[pair]]
    legs: dict[int, list[dict]] = {1: [], 0: []}  # by fixed axis: 1 is id x h, 0 is h x id
    for (k, label), resid in zip(blocks, _modular_residuals(m, lam_alpha, d_alpha, blocks, terms)):
        complete, missing = _certify_complete(m, alpha, label, k == 0, support)
        legs[k].append(
            {"label": label, "residual": resid, "complete": complete, "missing": missing,
             "pass": resid <= bound if complete else None}
        )
    every = legs[1] + legs[0]
    max_complete = max([0.0] + [b["residual"] for b in every if b["complete"]])
    return {
        "alpha": alpha,
        "support": [list(p) for p in pairs],
        "id_tensor_h": legs[1],
        "h_tensor_id": legs[0],
        "max_complete_residual": max_complete,
        "truncated": not all(b["complete"] for b in every),
        "pass": max_complete <= bound,
    }


def _pairs_by_component(fusion) -> dict[str, list[tuple[str, str]]]:
    """The ingested pairs whose fusion row holds each label."""
    holding: dict[str, list[tuple[str, str]]] = {}
    for pair in fusion.pairs():
        for x in fusion.components(*pair):
            holding.setdefault(x, []).append(pair)
    return holding


def verify_coassociativity(
    m: QGModel,
    alpha: str,
    support: Iterable[tuple[str, str]],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Compare the two iterated comultiplications of every matrix unit of alpha.

    Expanding the first leg of each outer block against expanding the second
    leg lands in triple blocks (first, middle, last); the two expansions are
    compared on every triple whose contributing sums are certified complete
    within the fragment, and the rest are reported as skipped.
    """
    pairs = _canonical_pairs(m, support)
    bound = max(tol.abs, tol.rel)
    fusion = m.fusion

    # candidate triples: a support pair (beta, x) or (x, gamma) whose row holds alpha meets
    # each fusion entry (left, right, x) as (right, left, beta) or (gamma, right, left)
    by_left: dict[str, list[str]] = {}
    by_right: dict[str, list[str]] = {}
    for beta, gamma in pairs:
        if alpha in fusion.components(beta, gamma):
            by_left.setdefault(beta, []).append(gamma)
            by_right.setdefault(gamma, []).append(beta)
    holding = m._memo(("pairs-by-component",), lambda: _pairs_by_component(fusion))
    triples = {
        (right, left, beta)
        for x, betas in by_right.items() for left, right in holding.get(x, ()) for beta in betas
    }
    triples.update(
        (gamma, right, left)
        for x, gammas in by_left.items() for left, right in holding.get(x, ()) for gamma in gammas
    )

    # each pair's tensors by target, None when the pair is outside the fragment or has no CG;
    # a read gives the same for every alpha at one tolerance
    read: dict[tuple[str, str], Any] = m._memo(("cg-read", tol), dict)

    def into(pair: tuple[str, str]):
        try:
            read[pair] = _cg_record(m, *pair, tol)["into"]
        except (TruncationError, CGUnavailableError):
            read[pair] = None
        return read[pair]

    def expansions(p: str, q: str, r: str) -> list | None:
        """(t_in, t_out, side, row) of both expansions of (p, q, r), or None off the fragment.

        The first-leg expansion (side 0) sums inner pair (q, p) into x against
        outer pair (r, x), the second-leg one (r, q) into x against (x, p).
        Each pair is read in the order the sum meets it.
        """
        found = []
        for side, inner in enumerate(((q, p), (r, q))):
            if inner not in fusion:
                return None
            row, inner_into = 0, None
            for x in fusion.components(*inner):
                outer = (r, x) if side == 0 else (x, p)
                outer = read[outer] if outer in read else into(outer)
                if outer is None:
                    return None
                if inner_into is None:
                    inner_into = read[inner] if inner in read else into(inner)
                    if inner_into is None:
                        return None
                for t_out in outer.get(alpha, ()):
                    for t_in in inner_into[x]:
                        found.append((t_in, t_out, side, row))
                        row += 1
        return found

    order = m._order
    checked: list[tuple[str, str, str]] = []
    vectors: list[tuple] = []
    skipped: list[dict] = []
    for p, q, r in sorted(triples, key=lambda t: (order[t[0]], order[t[1]], order[t[2]])):
        found = expansions(p, q, r)
        if found is None:
            skipped.append({"triple": [p, q, r], "reason": "contributing sum leaves the fragment"})
            continue
        vectors += [(*v, len(checked)) for v in found]
        checked.append((p, q, r))
    residuals = np.zeros(len(checked))
    dim = {label: m.dim(label) for label in m.labels}
    dims = [[dim[x] for x in triple] for triple in checked]
    for members, rhs, lhs in _expansion_stacks(m, m.dim(alpha), dims, vectors):
        residuals[members] = _gram_residuals(rhs, lhs)
    results: list[dict] = []
    max_residual = 0.0
    for triple, resid in zip(checked, residuals.tolist()):
        max_residual = max(max_residual, resid)
        results.append({"triple": list(triple), "residual": resid, "pass": resid <= bound})
    return {
        "alpha": alpha,
        "support": [list(pair) for pair in pairs],
        "triples": results,
        "skipped": skipped,
        "max_residual": max_residual,
        "truncated": bool(skipped),
        "pass": max_residual <= bound,
    }


# ---------------------------------------------------------------------------
# Built-in CG constructions


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices: the same products, without its generic set-up."""
    n, m = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def _suq2_pair_tensors(n1: int, n2: int, q: float) -> list[tuple[str, int, np.ndarray]]:
    """CG isometries for the pair of labels (n1, n2) of the q-deformed SU(2) series.

    In each module's unnormalized basis v_j = F^j v_0 (weight index n - j),
    K v_j = s^(n-2j) v_j with s = sqrt(q) and |v_j|^2 = [j]! [n]! / [n-j]!.  Per
    target n3 the highest-weight vector h solves the two-term recurrence of
    Delta(E) h = 0, Delta(E) = E x K + K^-1 x E, and Delta(F) (likewise) lowers
    it to w_j3, of norm |h| |v_j3|.  Each entry is c |v_j1| |v_j2| / |w_j3|:
    dividing by anything but the target module's own norms would break the
    relative normalization between components that the modular identities
    depend on.  It is carried in decimal, with digits for a cancellation that
    grows as n1 + n2 near q = 1, else as |log q| (n1 + n2)^2, and rounded to
    float once; entries off the weight sector, and lowering sums that cancel to
    within 10^(2 - digits) of their two terms (classical zeros at q = 1), are exact 0.
    Only the overall phase per component is free, fixed by making positive the
    first coefficient of the unit highest-weight vector (in lexicographic
    product-basis order) whose modulus is above 1e-10.  A smaller leading
    coefficient is passed over, so the sign can follow the next one.
    """
    top_level = n1 + n2
    digits = 20 + math.ceil(top_level * max(1, abs(math.log10(q)) * top_level) / 4)
    with decimal.localcontext(decimal.Context(prec=digits)):
        q_dec = Decimal(q)
        s = q_dec.sqrt()
        zero = 2 * top_level  # s^e is s_pow[zero + e], for e = -2 top_level ... top_level
        s_pow = [s**-zero]
        for _ in range(3 * top_level):
            s_pow.append(s_pow[-1] * s)
        # [n] as the positive sum of q^(n-1-2k), built as [n+1] = q [n] + q^-n: the quotient
        # (q^n - q^-n) / (q - q^-1) cancels near q = 1
        qint = [Decimal(0), Decimal(1)]
        for n in range(1, top_level):
            qint.append(q_dec * qint[n] + s_pow[zero - 2 * n])
        root = [x.sqrt() for x in qint]

        def norm(n: int) -> list[Decimal]:  # |v_j| = sqrt([j]! [n]! / [n-j]!), j = 0..n
            factors = (root[j] * root[n + 1 - j] for j in range(1, n + 1))
            return list(accumulate(factors, operator.mul, initial=Decimal(1)))

        def add(x: Decimal, y: Decimal, cut: Decimal = Decimal(1).scaleb(2 - digits)) -> Decimal:
            z = x + y  # a sum that cancels to within cut of its two terms is an exact 0
            return z if abs(z) > cut * (abs(x) + abs(y)) else Decimal(0)

        # the product basis by sector j1 + j2 = total, then by j1: the order of every list below
        j1, j2 = np.divmod(np.arange((n1 + 1) * (n2 + 1)), n2 + 1)
        j1, j2 = np.divmod(np.argsort((j1 + j2) * (n1 + 1) + j1), n2 + 1)
        sector_start = np.searchsorted(j1 + j2, np.arange(top_level + 2))
        norm_1, norm_2 = norm(n1), norm(n2)
        # K^-1 on v_j, s^(2j-n); on v_(n-j) it is K
        k_left_inv, k_right_rev = (s_pow[zero - n : zero + n + 1 : 2] for n in (n1, n2))
        products = [  # |v_j1| |v_j2| per sector
            [norm_1[a] * norm_2[total - a] for a in range(max(0, total - n2), min(n1, total) + 1)]
            for total in range(top_level + 1)
        ]
        if q < 1.0:  # rho eigenvalue q^(n-2j) descends along j, else along the weight n - j
            j1, j2 = n1 - j1, n2 - j2
        out: list[tuple[str, int, np.ndarray]] = []
        for n3 in range(abs(n1 - n2), top_level + 1, 2):
            top = (top_level - n3) // 2  # j1 + j2 on the highest-weight sector, <= min(n1, n2)
            # Delta(E) h has no v_a x v_(top-1-a) term; the K factors of both terms give s^-(n3+2)
            x = [Decimal(1)]
            for a in range(top):
                x.append(
                    -x[a] * qint[top - a] * qint[n2 - top + a + 1] * s_pow[zero - n3 - 2]
                    / (qint[a + 1] * qint[n1 - a])
                )
            squares = [(c * p) ** 2 for c, p in zip(x, products[top])]
            h2 = sum(squares)
            first = next(a for a in range(top, -1, -1) if squares[a] > h2.scaleb(-20))
            h = h2.sqrt() if x[first] > 0 else -h2.sqrt()
            values: list[float] = []
            w, lo = x, 0  # the sector j1 + j2 = top + j3, over j1 = lo, lo + 1, ...
            for j3, norm_3 in enumerate(norm(n3)):
                total, scale = top + j3, 1 / (h * norm_3)
                values += [float(c * p * scale) for c, p in zip(w, products[total])]
                if j3 < n3:  # lower by Delta(F) = F x K + K^-1 x F
                    new_lo = max(0, total + 1 - n2)
                    shift, lo = new_lo - lo, new_lo
                    w = [  # from the old sector at j1 - 1 and j1; zip ends with the new sector
                        add(a * k_right, b * k_left)
                        for a, b, k_right, k_left in zip(
                            [0, *w][shift:], [*w, 0][shift:],
                            k_right_rev[lo + n2 - total - 1 :], k_left_inv[lo:],
                        )
                    ]
            live = slice(sector_start[top], sector_start[top_level - top + 1])
            j3 = np.arange(n3 + 1).repeat(np.diff(sector_start[top : top_level - top + 2]))
            coeffs = np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=complex)
            coeffs[j1[live], j2[live], n3 - j3 if q < 1.0 else j3] = values
            out.append((str(n3), 1, coeffs))
    return out


class SuQ2CGProvider:
    """On-demand CG construction for q-deformed SU(2) models."""

    def __init__(self, q: float):
        self.q = float(q)

    def __call__(
        self, model: QGModel, beta: str, gamma: str
    ) -> list[tuple[str, int, np.ndarray]]:
        return _suq2_pair_tensors(int(beta), int(gamma), self.q)


class AbelianDualCGProvider:
    """Characters fuse to their product character with coefficient 1."""

    def __call__(
        self, model: QGModel, beta: str, gamma: str
    ) -> list[tuple[str, int, np.ndarray]]:
        row = model.fusion.components(beta, gamma)
        one = np.ones((1, 1, 1), dtype=complex)
        return [(alpha, 1, one) for alpha in model.labels if alpha in row]


class UnitPairCGProvider:
    """CG for pairs involving the trivial irrep only: the identity embedding."""

    def __call__(
        self, model: QGModel, beta: str, gamma: str
    ) -> list[tuple[str, int, np.ndarray]]:
        triv = model.trivial
        if beta == triv:
            n = model.dim(gamma)
            return [(gamma, 1, np.eye(n, dtype=complex).reshape(1, n, n))]
        if gamma == triv:
            n = model.dim(beta)
            return [(beta, 1, np.eye(n, dtype=complex).reshape(n, 1, n))]
        raise CGUnavailableError(
            f"only pairs involving the trivial irrep carry CG data; got ({beta!r}, {gamma!r})"
        )


class GroupAverageCGProvider:
    """CG for a finite group dual by averaging candidate maps over the group.

    ``matrices`` holds one unitary matrix per group element per irrep label,
    all lists in the same element order.  Works for multiplicity-free fusion
    only.
    """

    def __init__(self, matrices: Mapping[str, Sequence[Any]]):
        self._matrices = {
            str(label): [np.asarray(g, dtype=complex) for g in mats]
            for label, mats in matrices.items()
        }
        sizes = {len(mats) for mats in self._matrices.values()}
        if len(sizes) != 1:
            raise ModelConsistencyError("all irreps must list the same group elements")

    def __call__(
        self, model: QGModel, beta: str, gamma: str
    ) -> list[tuple[str, int, np.ndarray]]:
        row = model.fusion.components(beta, gamma)
        reps_b = self._matrices[beta]
        reps_c = self._matrices[gamma]
        group_order = len(reps_b)
        big = [_kron(b, c) for b, c in zip(reps_b, reps_c)]
        out: list[tuple[str, int, np.ndarray]] = []
        for alpha in model.labels:
            mult = row.get(alpha, 0)
            if mult == 0:
                continue
            if mult > 1:
                raise CGUnavailableError(
                    "group-average CG construction handles multiplicity-free fusion only"
                )
            reps_a = self._matrices[alpha]
            n_b, n_c, n_a = model.dim(beta), model.dim(gamma), model.dim(alpha)
            # column i * n_a + a is the group average of the unit map E_{i,a}
            averages = sum(_kron(g_bc, g_a.conj()) for g_bc, g_a in zip(big, reps_a)) / group_order
            seeds = (averages[:, i * n_a + a] for a in range(n_a) for i in range(n_b * n_c))
            averaged = next((col for col in seeds if np.max(np.abs(col)) > 1e-8), None)
            if averaged is None:
                raise ModelConsistencyError(
                    f"group averaging found no intertwiner for ({beta!r}, {gamma!r}) -> {alpha!r}"
                )
            averaged = averaged.reshape(n_b * n_c, n_a)
            gram = averaged.conj().T @ averaged
            c = float(np.trace(gram).real) / n_a
            if np.max(np.abs(gram - c * np.eye(n_a))) > 1e-10 * max(c, 1.0):
                raise ModelConsistencyError(
                    f"averaged map for ({beta!r}, {gamma!r}) -> {alpha!r} is not a scalar isometry"
                )
            isometry = averaged / math.sqrt(c)
            flat = isometry.reshape(-1)
            first = np.flatnonzero(np.abs(flat) > 1e-10)[0]
            isometry = isometry * (np.conj(flat[first]) / abs(flat[first]))
            out.append((alpha, 1, isometry.reshape(n_b, n_c, n_a)))
        return out


# ---------------------------------------------------------------------------
# JSON CG supplement


def _check_cg_rows(rows: list) -> None:
    """Require every row to be a list of five finite numbers, bools excluded.

    C-level passes over the rows prove the common case (exact list rows of
    exact ints and finite floats); only when they cannot does the row walk
    run, naming the first fault in row order.
    """
    try:
        if (
            set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {5}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}
            and all(map(math.isfinite, chain.from_iterable(rows)))
        ):
            return
    except OverflowError:  # an int too large for a float: the walk names the first fault
        pass
    for rowv in rows:
        if not isinstance(rowv, list) or len(rowv) != 5:
            raise ModelSchemaError("'cg' coeffs rows must be [a, b, c, re, im] numbers")
        for v in rowv:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ModelSchemaError("'cg' coeffs rows must be [a, b, c, re, im] numbers")
        try:
            finite = all(map(math.isfinite, rowv))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ModelSchemaError("'cg' coeffs rows must hold finite numbers")


def supplement_cg_provider(raw: Any):
    """Provider backed by the optional "cg" array of a model document.

    Each entry: {"alpha", "beta", "gamma", "i", "coeffs": [[a, b, c, re, im], ...]}
    with 0-based non-negative integer basis indices and 1-based copy index i.
    Each entry is checked as it is read, fields before rows: the first fault in document order wins.
    """
    if not isinstance(raw, list):
        raise ModelSchemaError("model field 'cg' must be a list")
    data: dict[tuple[str, str], list[tuple[str, int, list]]] = {}
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise ModelSchemaError("each 'cg' entry must be an object")
        try:
            alpha = str(entry["alpha"])
            beta = str(entry["beta"])
            gamma = str(entry["gamma"])
            i = entry["i"]
            if isinstance(i, float) and i.is_integer():
                i = int(i)
            if isinstance(i, bool) or not isinstance(i, int) or i < 1:
                raise ModelSchemaError("'cg' entry field 'i' must be an integer >= 1")
            copy_index = int(i)
            coeffs = entry["coeffs"]
        except KeyError as exc:
            raise ModelSchemaError(f"'cg' entry missing field {exc}") from exc
        if not isinstance(coeffs, list):
            raise ModelSchemaError("'cg' coeffs must be a list of [a, b, c, re, im] rows")
        _check_cg_rows(coeffs)
        data.setdefault((beta, gamma), []).append((alpha, copy_index, coeffs))

    def provider(model: QGModel, beta: str, gamma: str) -> list[tuple[str, int, np.ndarray]]:
        items = data.get((beta, gamma))
        if items is None:
            raise CGUnavailableError(
                f"model document supplies no CG data for pair ({beta!r}, {gamma!r})"
            )
        out = []
        for alpha, copy_index, coeffs in items:
            if alpha not in model:
                raise ModelSchemaError(f"'cg' entry targets unknown irrep {alpha!r}")
            arr = np.zeros((model.dim(beta), model.dim(gamma), model.dim(alpha)), dtype=complex)
            for a, b, c, re, im in coeffs:
                ai, bi, ci = int(a), int(b), int(c)
                try:
                    if min(ai, bi, ci) < 0 or (ai, bi, ci) != (a, b, c):
                        raise IndexError  # numpy would wrap a negative index, int() cuts a fraction
                    arr[bi, ci, ai] = complex(re, im)
                except IndexError:
                    raise ModelSchemaError(
                        f"'cg' coefficient index ({a}, {b}, {c}) is not a non-negative integer "
                        f"in range for ({alpha!r}, {beta!r}, {gamma!r})"
                    ) from None
            out.append((alpha, copy_index, arr))
        return out

    return provider


def cg_supplement_document(m: QGModel, pairs: Iterable[tuple[str, str]]) -> list[dict]:
    """Serialize the CG data of the given pairs into the document supplement format."""
    entries: list[dict] = []
    for beta, gamma in _canonical_pairs(m, pairs):
        for t in cg_set(m, beta, gamma):
            b, c, a = np.nonzero(t.coeffs)  # C order: rows sorted by (b, c, a)
            v = t.coeffs[b, c, a]
            columns = (a.tolist(), b.tolist(), c.tolist(), v.real.tolist(), v.imag.tolist())
            rows = list(map(list, zip(*columns)))
            entries.append(
                {
                    "alpha": t.alpha,
                    "beta": beta,
                    "gamma": gamma,
                    "i": t.copy_index,
                    "coeffs": rows,
                }
            )
    return entries
