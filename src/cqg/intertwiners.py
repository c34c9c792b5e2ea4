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

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from .errors import (
    CGUnavailableError,
    ModelConsistencyError,
    ModelSchemaError,
    PreconditionError,
)
from .rep_data import DEFAULT_TOLERANCE, QGModel, Tolerance

_ZERO_ENTRY = 1e-12  # below this (relative to the largest entry) a CG coefficient counts as 0


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
    lam_b = np.asarray(tuple(m.rho(t.beta)))
    lam_c = np.asarray(tuple(m.rho(t.gamma)))
    lam_a = np.asarray(tuple(m.rho(t.alpha)))
    products = lam_b[:, None, None] * lam_c[None, :, None]
    targets = lam_a[None, None, :]
    mags = np.abs(t.coeffs)
    scale = float(mags.max()) or 1.0
    if not scale < math.inf:  # a nan or inf coefficient would weight every entry to 0
        return scale
    weights = np.where(mags > _ZERO_ENTRY * scale, mags, 0.0)
    return float(np.max(weights * np.abs(products / targets - 1.0)))


# ---------------------------------------------------------------------------
# Comultiplication on matrix units, Haar weight, modular identities


def _cg_for_target(m: QGModel, beta: str, gamma: str, alpha: str) -> Sequence[CGTensor] | None:
    """Tensors of the ingested pair (beta, gamma) into alpha; None when its CG is unavailable."""
    try:
        return _cg_record(m, beta, gamma)["into"].get(alpha, ())
    except CGUnavailableError:
        return None


def _tensors_into(m: QGModel, beta: str, gamma: str, alpha: str) -> Sequence[CGTensor]:
    """Tensors of (beta, gamma) into alpha ([] if none); raises if the pair or its CG is absent."""
    if m.fusion.components(beta, gamma).get(alpha, 0) == 0:
        return []
    tensors = _cg_for_target(m, beta, gamma, alpha)
    if tensors is None:
        raise CGUnavailableError(f"no Clebsch-Gordan data for pair ({beta!r}, {gamma!r})")
    return tensors


def _canonical_pairs(m: QGModel, support: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    order = {label: k for k, label in enumerate(m.labels)}
    pairs = {(str(b), str(g)) for b, g in support}
    for b, g in pairs:
        if b not in m or g not in m:
            raise ModelSchemaError(f"support pair ({b!r}, {g!r}) references labels outside the model")
    return sorted(pairs, key=lambda p: (order[p[0]], order[p[1]]))


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
    total = 0.0 + 0.0j
    for label in x.support:
        block = x.block(label)
        if block.shape[0] != m.dim(label):
            raise ModelConsistencyError(
                f"block {label!r} has size {block.shape[0]}, model dim is {m.dim(label)}"
            )
        lam = np.asarray(tuple(m.rho(label)))
        d1 = float(m.rho(label).trace())
        total += d1 * complex(np.sum(lam * np.diag(block)))
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
    order = {label: k for k, label in enumerate(m.labels)}
    lam_alpha = np.asarray(tuple(m.rho(alpha)))
    d_alpha = float(m.rho(alpha).trace())

    # the first leg's largest expected entry is d_alpha * max(rho_alpha) * max(rho**-2)
    smallest = min([1.0] + [min(m.rho(label)) for label in {pair[1] for pair in pairs}])
    with np.errstate(over="ignore"):  # an overflow here is the answer, not a warning
        peak = d_alpha * lam_alpha.max() * np.float64(smallest) ** -2.0
    if not peak < math.inf:
        raise PreconditionError(
            f"model {m.name!r} leaves the float range in the modular check of {alpha!r}: "
            "d_alpha * max(rho_alpha) * max(rho**-2) overflows"
        )
    pair_tensors = {pair: _tensors_into(m, *pair, alpha) for pair in pairs}
    bound = max(tol.abs, tol.rel)

    def leg_blocks(fixed_left: bool, power: float, spec: str) -> list[dict]:
        """Blocks of one leg for every matrix unit (a, a') at once, labelled by the fixed slot.

        The first leg (id x h) fixes gamma, lets h act on the beta factor and
        expects rho**-2 on the block diagonal; the second leg (h x id) fixes
        beta, lets h act on the gamma factor and expects rho**0 = 1.  ``spec``
        contracts one tensor into the (a, a', fixed, fixed') array of the leg.
        """
        k = 0 if fixed_left else 1
        blocks = []
        for label in sorted({pair[k] for pair in pairs}, key=order.get):
            n = m.dim(label)
            expected_diag = np.asarray(tuple(m.rho(label))) ** power
            acc = np.zeros((len(lam_alpha), len(lam_alpha), n, n), dtype=complex)
            for pair, tensors in pair_tensors.items():
                if pair[k] != label:
                    continue
                lam_other = np.asarray(tuple(m.rho(pair[1 - k])))
                d_other = float(m.rho(pair[1 - k]).trace())
                for t in tensors:
                    acc += d_other * np.einsum(spec, t.coeffs, lam_other, t.coeffs.conj())
            expected = np.multiply.outer(np.diag(d_alpha * lam_alpha), np.diag(expected_diag))
            diff = float(np.max(np.abs(acc - expected)))
            scale = max(1.0, d_alpha * float(lam_alpha.max()) * float(expected_diag.max()))
            resid = diff / scale
            complete, missing = _certify_complete(m, alpha, label, fixed_left, pairs)
            blocks.append(
                {"label": label, "residual": resid, "complete": complete, "missing": missing,
                 "pass": resid <= bound if complete else None}
            )
        return blocks

    first_blocks = leg_blocks(False, -2.0, "bca,b,bCA->aAcC")
    second_blocks = leg_blocks(True, 0.0, "bca,c,BcA->aAbB")
    blocks = first_blocks + second_blocks
    max_complete = max([0.0] + [b["residual"] for b in blocks if b["complete"]])
    return {
        "alpha": alpha,
        "support": [list(p) for p in pairs],
        "id_tensor_h": first_blocks,
        "h_tensor_id": second_blocks,
        "max_complete_residual": max_complete,
        "truncated": not all(b["complete"] for b in blocks),
        "pass": max_complete <= bound,
    }


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
    order = {label: k for k, label in enumerate(m.labels)}
    n_a = m.dim(alpha)
    bound = max(tol.abs, tol.rel)

    # candidate triples from both expansions
    triples: set[tuple[str, str, str]] = set()
    for beta, gamma in pairs:
        if m.fusion.components(beta, gamma).get(alpha, 0) == 0:
            continue
        for left, right in m.fusion.pairs():
            row = m.fusion.components(left, right)
            if gamma in row:
                triples.add((right, left, beta))
            if beta in row:
                triples.add((gamma, right, left))

    def contributors(inner: tuple[str, str], outer_pair) -> list | None:
        """(outer, inner) tensor pairs over the components x of the inner pair, or None.

        The first-leg expansion of triple (p, q, r) has inner pair (q, p) and
        outer pair (r, x); the second-leg expansion has (r, q) and (x, p).
        """
        if inner not in m.fusion:
            return None
        out = []
        for x in m.fusion.components(*inner):
            if outer_pair(x) not in m.fusion:
                return None
            outer = _cg_for_target(m, *outer_pair(x), alpha)
            inner_all = _cg_for_target(m, *inner, x)
            if outer is None or inner_all is None:
                return None
            out += [(t_out, t_in) for t_out in outer for t_in in inner_all]
        return out

    results: list[dict] = []
    skipped: list[dict] = []
    max_residual = 0.0
    for p, q, r in sorted(triples, key=lambda t: (order[t[0]], order[t[1]], order[t[2]])):
        left = contributors((q, p), lambda x: (r, x))
        right = contributors((r, q), lambda x: (x, p))
        if left is None or right is None:
            skipped.append({"triple": [p, q, r], "reason": "contributing sum leaves the fragment"})
            continue
        size = m.dim(p) * m.dim(q) * m.dim(r)
        # each expansion as a (tensor pair, size, n_alpha) stack of its vectors
        lhs, rhs = (
            np.reshape([np.einsum(spec, t_in.coeffs, t_out.coeffs) for t_out, t_in in terms],
                       (-1, size, n_a))
            for terms, spec in ((left, "upc,rca->pura"), (right, "rub,bpa->pura"))
        )
        resid = _gram_residual(rhs, lhs)
        max_residual = max(max_residual, resid)
        results.append({"triple": [p, q, r], "residual": resid, "pass": resid <= bound})
    return {
        "alpha": alpha,
        "support": [list(pair) for pair in pairs],
        "triples": results,
        "skipped": skipped,
        "max_residual": max_residual,
        "truncated": bool(skipped),
        "pass": max_residual <= bound,
    }


def _gram_residual(rhs: np.ndarray, lhs: np.ndarray) -> float:
    """max |G(rhs) - G(lhs)| over the scale max(1, max |G(rhs)|) of two expansion stacks.

    Each stack is (tensor pair, size, n_alpha).  Flattening its columns to
    (x, a), the Gram matrix G[(x, a), (y, a')] = sum_k v[k, x, a] conj(v[k, y, a'])
    holds the expansion of every matrix unit e_{a, a'} at once.  A column on
    which every vector of both stacks is exactly zero gives sums of exact
    zeros on both sides, so only the live columns are formed; each entry is
    the same einsum sum over k as on the full matrix.  Rows are taken
    ``size`` at a time, so no array exceeds n_alpha size^2 entries even when
    every column is live.  A non-finite Gram entry gives residual inf.
    """
    _, size, n_a = rhs.shape
    flat_r = rhs.reshape(rhs.shape[0], size * n_a)
    flat_l = lhs.reshape(lhs.shape[0], size * n_a)
    live = flat_r.any(axis=0) | flat_l.any(axis=0)
    flat_r, flat_l = flat_r[:, live], flat_l[:, live]
    bar_r, bar_l = flat_r.conj(), flat_l.conj()
    diff = 0.0
    scale = 1.0
    for start in range(0, flat_r.shape[1], size):
        rows = slice(start, start + size)
        gram = np.einsum("kx,ky->xy", flat_r[:, rows], bar_r)
        top = float(np.abs(gram).max())
        gram -= np.einsum("kx,ky->xy", flat_l[:, rows], bar_l)
        gap = float(np.abs(gram).max())
        if not (math.isfinite(top) and math.isfinite(gap)):
            return math.inf
        scale = max(scale, top)
        diff = max(diff, gap)
    return diff / scale


# ---------------------------------------------------------------------------
# Built-in CG constructions


def _qint(n: int, q: float) -> float:
    """The q-bracket of an integer; the classical integer at q = 1."""
    if q == 1.0:
        return float(n)
    return (q**n - q ** (-n)) / (q - 1.0 / q)


def _weight_module(n: int, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ladder operator matrices on the (n+1)-dimensional weight module.

    Basis index k = 0..n carries weight m_k = k - n/2.  Returns the diagonal
    of the group-like generator (eigenvalue q^{m_k}), the raising and
    lowering matrices, and the weight list.
    """
    dim = n + 1
    weights = np.array([k - n / 2.0 for k in range(dim)])
    kdiag = np.array([q**m for m in weights])
    raise_op = np.zeros((dim, dim))
    lower_op = np.zeros((dim, dim))
    for k in range(dim - 1):
        raise_op[k + 1, k] = math.sqrt(_qint(n - k, q) * _qint(k + 1, q))
    for k in range(1, dim):
        lower_op[k - 1, k] = math.sqrt(_qint(k, q) * _qint(n - k + 1, q))
    return kdiag, raise_op, lower_op, weights


def _rho_descending_order(n: int, q: float) -> list[int]:
    """Weight-basis indices ordered so the rho eigenvalues q^{2 m_k} descend.

    For q < 1 ascending weights already descend; otherwise (q = 1 included,
    as a fixed convention) descending weights are used.
    """
    if q < 1.0:
        return list(range(n + 1))
    return list(range(n, -1, -1))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices: the same products, without its generic set-up."""
    n, m = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def _suq2_pair_tensors(n1: int, n2: int, q: float) -> list[tuple[str, int, np.ndarray]]:
    """CG isometries for the pair of labels (n1, n2) of the q-deformed SU(2) series.

    Per target component: the highest-weight vector is the kernel of the
    coproduct raising operator on the matching total-weight subspace
    (one-dimensional: the series is multiplicity free), the rest of the
    component is generated by the coproduct lowering operator divided by the
    target module's own lowering coefficients.  Dividing by anything else
    would break the relative normalization between components that the
    modular identities depend on; only the overall phase per component is
    free, fixed by making the first nonzero coefficient of the
    highest-weight vector (in lexicographic product-basis order) real
    positive.
    """
    k1, e1, f1, w1 = _weight_module(n1, q)
    k2, e2, f2, w2 = _weight_module(n2, q)
    raise_full = _kron(e1, np.diag(k2)) + _kron(np.diag(1.0 / k1), e2)
    lower_full = _kron(f1, np.diag(k2)) + _kron(np.diag(1.0 / k1), f2)
    total_twice = np.rint(2.0 * np.add.outer(w1, w2).reshape(-1)).astype(int)
    perm1 = _rho_descending_order(n1, q)
    perm2 = _rho_descending_order(n2, q)
    out: list[tuple[str, int, np.ndarray]] = []
    for n3 in range(abs(n1 - n2), n1 + n2 + 1, 2):
        idx = np.flatnonzero(total_twice == n3)
        restricted = raise_full[:, idx]
        _, svals, vh = np.linalg.svd(restricted)
        top = svals[0]
        if len(idx) > 1 and svals[-2] <= 1e-6 * max(top, 1.0):
            raise ModelConsistencyError(
                f"highest-weight space for target {n3} of pair ({n1}, {n2}) is not one-dimensional"
            )
        if svals[-1] > 1e-10 * max(top, 1.0):
            raise ModelConsistencyError(
                f"no highest-weight vector for target {n3} of pair ({n1}, {n2})"
            )
        kernel = vh[-1]  # real: the ladder matrices are real for real q
        vec = np.zeros(raise_full.shape[0])
        vec[idx] = kernel
        first = idx[np.flatnonzero(np.abs(kernel) > 1e-10)[0]]
        if vec[first] < 0:
            vec = -vec
        cols = [vec]
        current = vec
        for step in range(n3):
            coefficient = math.sqrt(_qint(n3 - step, q) * _qint(step + 1, q))
            current = (lower_full @ current) / coefficient
            cols.append(current)
        weight_matrix = np.column_stack(cols[::-1])  # target weight index 0..n3 ascending
        perm3 = _rho_descending_order(n3, q)
        grid = weight_matrix.reshape(n1 + 1, n2 + 1, n3 + 1)
        coeffs = grid[np.ix_(perm1, perm2, perm3)].astype(complex)
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
        model.fusion.components(beta, gamma)
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

    C-level passes over all rows prove the common case (exact list rows of
    exact ints and finite floats); only when they cannot does the row walk
    run, naming the first fault in document order.
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
    """
    if not isinstance(raw, list):
        raise ModelSchemaError("model field 'cg' must be a list")
    data: dict[tuple[str, str], list[tuple[str, int, list]]] = {}
    coeff_lists: list[list] = []
    fault: Exception | None = None
    for entry in raw:
        try:
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
        except ModelSchemaError as exc:
            fault = exc  # raised after the rows of the entries before this one are checked
            break
        coeff_lists.append(coeffs)
        data.setdefault((beta, gamma), []).append((alpha, copy_index, coeffs))
    _check_cg_rows(list(chain.from_iterable(coeff_lists)))
    if fault is not None:
        raise fault

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
