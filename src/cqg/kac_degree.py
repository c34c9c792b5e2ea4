"""Kac detection, the standard-polynomial degree test, and the doubling-sequence
calculus that connects bounded degree to Kac type.

The Gamma-exponent arithmetic keeps exponents 2^(k-1) as exact integers and
works on logarithms; Gamma values themselves overflow doubles after a few
doublings.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .dimensions import _logsumexp, symmetry_check
from .errors import ModelConsistencyError, PreconditionError, TruncationError
from .fusion import _fuse
from .intertwiners import C00Element
from .rep_data import DEFAULT_TOLERANCE, QGModel, RhoSpectrum, Tolerance
from .spectral import eigenspace_dim


@dataclass(frozen=True)
class ThetaForm:
    """Symmetric spectrum rewritten as {Gamma^(+-theta_j)} plus a middle 1 when odd.

    thetas covers the top half, descending from theta_1 = 1; ``kac`` marks
    the all-ones spectrum, where the exponents are undefined and held at 1.
    """

    Gamma: float
    thetas: tuple[float, ...]
    parity: str
    dim: int
    kac: bool

    def reconstruct(self) -> RhoSpectrum:
        values = [self.Gamma**th for th in self.thetas]
        values += [self.Gamma**-th for th in self.thetas]
        if self.parity == "odd":
            values.append(1.0)
        return RhoSpectrum(tuple(values))


@dataclass(frozen=True)
class SequenceStep:
    """One step of the squaring sequence: k is 1-based, Gamma doubles in the exponent."""

    k: int
    label: str
    Gamma: float
    log_gamma: float
    d1: float
    dim_top: int
    dim: int
    spectrum: RhoSpectrum


def is_kac(m: QGModel, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff every spectrum is all-ones; three equivalent readings must agree."""
    all_ones = all(tol.close(lam, 1.0) for label in m.labels for lam in m.rho(label))
    gamma_one = all(tol.same_eigenvalue(m.rho(label)[0], 1.0) for label in m.labels)
    quantum_matches = all(
        tol.close(float(m.rho(label).trace()) / m.dim(label), 1.0) for label in m.labels
    )
    if not (all_ones == gamma_one == quantum_matches):
        raise ModelConsistencyError(
            f"Kac predicates disagree on {m.name!r}: all-ones={all_ones}, "
            f"Gamma=1 everywhere={gamma_one}, d_1=dim everywhere={quantum_matches}"
        )
    return all_ones


def n_G(m: QGModel) -> int:
    """Largest ingested irrep dimension; a lower bound when the model is truncated."""
    return max(m.dim(label) for label in m.labels)


_SLAB = 20000  # tuples per evaluated slab of an exhaustive unit grid
_MAX_PRODUCTS = 10**7


def _kernel_products(r: int) -> int:
    """Matrix products of one ``_standard_polynomial_blocks`` call at degree r.

    Layer k of the subset recursion, k <= h = ceil(r/2), costs C(r, k) k
    products and the final pairing C(r, h).
    """
    h = (r + 1) // 2
    return sum(math.comb(r, k) * k for k in range(1, h + 1)) + math.comb(r, h)


def _standard_polynomial_blocks(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Alternating sum over all orderings of r broadcastable (..., n, n) stacks.

    M[A], the alternating sum over the orderings of the factors indexed by A,
    splits on its first factor: M[A] = sum over i in A of (-1)^pos(i) x_i
    M[A minus i].  Subsets are built by size up to h = ceil(r/2) only, keeping
    the layer below the current one; the two halves then pair as
    s_r = sum over |S| = h of eps(S) M[S] M[complement of S], where
    eps(S) = (-1)^(sum S - h(h-1)/2) is the sign of the shuffle that moves S
    first.  That is ``_kernel_products(r)`` products instead of r!, and every
    ordering is still summed, so integer inputs give exact results.  M[A]
    broadcasts over the batch axes of its own factors only, so factors that
    vary along different axes share each partial product across the grid.
    """
    dtype = np.result_type(*mats)
    xs = [np.asarray(x, dtype=dtype) for x in mats]
    r = len(xs)
    h = (r + 1) // 2
    below: dict[int, np.ndarray] = {}
    table = {1 << i: x for i, x in enumerate(xs)}
    for size in range(2, h + 1):
        below, table = table, {}
        for subset in itertools.combinations(range(r), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            acc = xs[subset[0]] @ below[mask ^ (1 << subset[0])]
            for position in range(1, size):
                i = subset[position]
                term = xs[i] @ below[mask ^ (1 << i)]
                if position % 2:
                    acc -= term
                else:
                    acc += term
            table[mask] = acc
    rest = table if r % 2 == 0 else below
    full = (1 << r) - 1
    shift = h * (h - 1) // 2
    total = None
    for subset in itertools.combinations(range(r), h):
        mask = 0
        for i in subset:
            mask |= 1 << i
        term = table[mask] @ rest[full ^ mask]
        if total is None:
            total = term
        elif (sum(subset) - shift) % 2:
            total -= term
        else:
            total += term
    return total


def standard_polynomial(xs: Sequence[C00Element]) -> C00Element:
    """The alternating product sum over all orderings, computed blockwise.

    Labels missing from any argument contribute a zero factor to every
    ordering, so the result is supported on the common support.
    """
    if len(xs) < 2:
        raise PreconditionError("the standard polynomial needs at least two arguments")
    common = set(xs[0].support)
    for x in xs[1:]:
        common &= set(x.support)
    blocks = {}
    for label in sorted(common):
        blocks[label] = _standard_polynomial_blocks([x.block(label) for x in xs])
    return C00Element(blocks)


def bounded_degree_identity_check(
    m: QGModel,
    r: int,
    strategy: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
) -> dict:
    """Test whether the alternating identity of degree r holds on the block algebra.

    Exhaustive strategy: every r-tuple of matrix units; tuples mixing two
    different blocks are structurally zero (blockwise products vanish), so
    only single-block tuples are evaluated numerically, though all count
    toward the tuple total.  Random strategy: ``trials`` tuples of elements
    with integer entries in [-3, 3] drawn from ``seed``, multiplied as int64;
    that arithmetic is exact modulo 2^64, and the true value of a vanishing
    polynomial is 0, so any nonzero block is a genuine witness.
    """
    if r < 2:
        raise PreconditionError("degree r must be >= 2")
    dims = {label: m.dim(label) for label in m.labels}
    if strategy == "exhaustive":
        unit_count = sum(n * n for n in dims.values())
        total = unit_count**r
        if total > 10**6:
            raise PreconditionError(
                f"exhaustive check needs {total} tuples, above the 10^6 bound"
            )
    elif strategy == "random":
        if trials < 1 or seed < 0:
            raise PreconditionError(
                f"random check needs trials >= 1 and seed >= 0, got trials={trials}, seed={seed}"
            )
        half = (r + 1) // 2  # the subset table peaks at its two widest layers
        widest = math.comb(r, half) + math.comb(r, half - 1)
        entries = widest * trials * max(n * n for n in dims.values())
        if entries > 10**8:
            raise PreconditionError(
                f"random check needs {entries} table entries at once, above the 10^8 bound"
            )
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}; use 'exhaustive' or 'random'")
    products = _kernel_products(r)
    if products > _MAX_PRODUCTS:
        raise PreconditionError(
            f"degree {r} needs {products} matrix products per block, above the 10^7 bound"
        )
    if strategy == "exhaustive":
        counts = {"tuples_checked": total}
        witness = _first_unit_witness(m, dims, r)
    else:
        counts = {"trials": trials, "seed": int(seed)}
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        draws = {
            label: rng.integers(-3, 4, size=(trials, r, dims[label], dims[label]))
            for label in m.labels
        }
        first_bad: int | None = None
        for label in m.labels:
            mats = np.ascontiguousarray(np.moveaxis(draws[label], 1, 0), dtype=np.int64)
            values = _standard_polynomial_blocks(list(mats))
            nonzero = np.flatnonzero(values.reshape(trials, -1).any(axis=1))
            if nonzero.size:
                trial = int(nonzero[0])
                first_bad = trial if first_bad is None else min(first_bad, trial)
        witness = None
        if first_bad is not None:
            elements = [
                {label: draws[label][first_bad, pos].tolist() for label in m.labels}
                for pos in range(r)
            ]
            witness = {"kind": "elements", "trial": first_bad, "tuple": elements}
    return {
        "verdict": "holds_on_samples" if witness is None else "violated",
        "r": r,
        "strategy": strategy,
        **counts,
        "witness": witness,
    }


def _unit_grid_slabs(n: int, r: int) -> Iterator[tuple[int, np.ndarray]]:
    """Standard-polynomial values of every r-tuple of n x n matrix units, in slabs.

    Yields (offset, values): values reshaped to (-1, n, n) are the tuples from
    flat index ``offset`` on, in ``itertools.product`` order with unit
    u = (u // n, u % n).  Position p takes its units along grid axis p, so a
    partial product over positions A is built once per choice of A's units.
    A grid above ``_SLAB`` tuples is cut into slabs over the leading position.
    """
    units = n * n
    basis = np.eye(units).reshape(units, n, n)
    if units == 1:
        yield 0, _standard_polynomial_blocks([basis[0]] * r)
        return
    axes = [basis.reshape((1,) * p + (units,) + (1,) * (r - 1 - p) + (n, n)) for p in range(r)]
    per_lead = units ** (r - 1)
    lead = max(1, _SLAB // per_lead)
    for start in range(0, units, lead):
        slab = [axes[0][start : start + lead]] + axes[1:]
        yield start * per_lead, _standard_polynomial_blocks(slab)


def _first_unit_witness(m: QGModel, dims: dict[str, int], r: int) -> dict | None:
    """The first single-block r-tuple of matrix units with a nonzero standard polynomial."""
    for label in m.labels:
        n = dims[label]
        for offset, values in _unit_grid_slabs(n, r):
            nonzero = np.flatnonzero(values.reshape(-1, n * n).any(axis=1))
            if nonzero.size:
                tup = np.unravel_index(offset + int(nonzero[0]), (n * n,) * r)
                witness = [[label, int(u) // n, int(u) % n] for u in tup]
                return {"kind": "matrix_units", "tuple": witness}
    return None


def _top_ratio(m: QGModel, label: str, tol: Tolerance) -> float:
    """d_1 / dim H(Gamma), Gamma the top rho eigenvalue of the label."""
    spec = m.rho(label)
    return float(spec.trace()) / eigenspace_dim(spec, spec[0], tol)


def prop_6_2_check(
    m: QGModel, alpha: str, beta: str, gamma: str, tol: Tolerance = DEFAULT_TOLERANCE
) -> dict:
    """Evaluate the top-eigenvalue component inequality for a qualifying triple.

    Hypotheses checked before evaluating: gamma is a component of
    alpha x beta, its top eigenvalue is the product of the factors' top
    eigenvalues, and it maximizes d_1 / dim H(Gamma) among components with
    that top eigenvalue.  The returned value must then be >= 1.
    """
    row = m.fusion.components(alpha, beta)
    if row.get(gamma, 0) == 0:
        raise PreconditionError(f"{gamma!r} is not a component of {alpha!r} x {beta!r}")
    log_target = math.log(m.rho(alpha)[0]) + math.log(m.rho(beta)[0])
    if abs(math.log(m.rho(gamma)[0]) - log_target) > 2 * tol.eigen_group:
        raise PreconditionError(
            f"top eigenvalue of {gamma!r} is not the product of the factors' top eigenvalues"
        )

    qualifying = [
        c
        for c in row
        if abs(math.log(m.rho(c)[0]) - log_target) <= 2 * tol.eigen_group
    ]
    best = max(_top_ratio(m, c, tol) for c in qualifying)
    if _top_ratio(m, gamma, tol) < best * (1.0 - tol.rel):
        raise PreconditionError(
            f"{gamma!r} does not maximize d_1/dim H(Gamma) among qualifying components "
            f"{qualifying}"
        )
    d_gamma = float(m.rho(gamma).trace())
    d_alpha = float(m.rho(alpha).trace())
    dim_top_alpha = eigenspace_dim(m.rho(alpha), m.rho(alpha)[0], tol)
    dim_top_gamma = eigenspace_dim(m.rho(gamma), m.rho(gamma)[0], tol)
    value = (d_gamma * dim_top_alpha) / (d_alpha * m.rho(beta)[0] * dim_top_gamma)
    return {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "qualifying": qualifying,
        "value": value,
        "pass": value >= 1.0 - tol.rel,
    }


def theta_normal_form(s: RhoSpectrum, tol: Tolerance = DEFAULT_TOLERANCE) -> ThetaForm:
    """Exponent form of a symmetric spectrum; errors on asymmetric input."""
    if not symmetry_check(s, tol):
        raise PreconditionError("theta normal form needs a symmetric spectrum")
    n = len(s)
    parity = "odd" if n % 2 else "even"
    gamma = float(s[0])
    half = n // 2
    if tol.same_eigenvalue(gamma, 1.0):
        return ThetaForm(
            Gamma=1.0, thetas=(1.0,) * half, parity=parity, dim=n, kac=True
        )
    log_gamma = math.log(gamma)
    thetas = [1.0]
    for j in range(1, half):
        th = math.log(s[j]) / log_gamma
        thetas.append(min(1.0, max(0.0, th)))
    return ThetaForm(
        Gamma=gamma, thetas=tuple(thetas), parity=parity, dim=n, kac=False
    )


def main_theorem_sequence(
    m: QGModel, alpha0: str, steps: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[SequenceStep]:
    """The squaring sequence: each step sits inside the square of the previous one.

    Step k+1 is the component of step_k x step_k whose top eigenvalue is the
    square of step k's, chosen to maximize d_1 / dim H(Gamma); ties break by
    smaller dimension, then by label string.  Needs a non-Kac start and a
    fragment deep enough for ``steps`` squarings.
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    spectrum = m.rho(alpha0)
    if tol.same_eigenvalue(spectrum[0], 1.0):
        raise PreconditionError(
            f"{alpha0!r} has top eigenvalue 1; the squaring sequence needs a non-Kac start"
        )

    def make_step(k: int, label: str) -> SequenceStep:
        spec = m.rho(label)
        gamma = float(spec[0])
        return SequenceStep(
            k=k,
            label=label,
            Gamma=gamma,
            log_gamma=math.log(gamma),
            d1=float(spec.trace()),
            dim_top=eigenspace_dim(spec, gamma, tol),
            dim=m.dim(label),
            spectrum=spec,
        )

    seq = [make_step(1, alpha0)]
    for k in range(2, steps + 2):
        prev = seq[-1]
        row = m.fusion.components(prev.label, prev.label)  # TruncationError when absent
        target_log = 2.0 * prev.log_gamma
        candidates = [
            c
            for c in row
            if abs(math.log(m.rho(c)[0]) - target_log) <= 4 * tol.eigen_group
        ]
        if not candidates:
            raise ModelConsistencyError(
                f"no component of {prev.label!r} squared has the squared top eigenvalue"
            )
        chosen = min(candidates, key=lambda c: (-_top_ratio(m, c, tol), m.dim(c), c))
        seq.append(make_step(k, chosen))
    return seq


def lemma_6_3_check(
    seq: Sequence[SequenceStep],
    k_indices: Sequence[int],
    gamma_alpha: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Evaluate the telescoped growth inequality on consecutive chosen indices.

    For each consecutive pair (kA, kB) of 1-based step numbers the value
    [d_1(B) dim H_A(Gamma_A)] / [d_1(A) dim H_B(Gamma_B)] *
    Gamma_alpha^(2^(kA-1) - 2^(kB-1)) must be >= 1.
    """
    by_k = {step.k: step for step in seq}
    ks = [int(k) for k in k_indices]
    if any(k not in by_k for k in ks):
        raise PreconditionError(f"k indices {ks} must reference steps {sorted(by_k)}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise PreconditionError("k indices must be strictly increasing")
    log_gamma = math.log(gamma_alpha)
    out = []
    for n, (ka, kb) in enumerate(zip(ks, ks[1:]), start=1):
        a, b = by_k[ka], by_k[kb]
        log_value = (
            math.log(b.d1)
            - math.log(a.d1)
            + math.log(a.dim_top)
            - math.log(b.dim_top)
            + (2 ** (ka - 1) - 2 ** (kb - 1)) * log_gamma
        )
        value = math.exp(log_value) if log_value <= 709.0 else math.inf
        out.append(
            {
                "n": n,
                "k_pair": [ka, kb],
                "value": value,
                "log_value": log_value,
                "pass": log_value >= math.log1p(-tol.rel),
            }
        )
    return out


def _theta_domination(
    ka: int, theta_a: ThetaForm, kb: int, theta_b: ThetaForm, tol: Tolerance
) -> bool:
    """Exponent domination between two constant-dimension steps, in log form:
    2^(kB-1) theta_B_j <= 2^(kB-1) - 2^(kA-1) + 2^(kA-1) theta_A_j for all j."""
    ea, eb = 2 ** (ka - 1), 2 ** (kb - 1)
    slack = tol.abs * eb
    return all(
        eb * tb <= eb - ea + ea * ta + slack
        for ta, tb in zip(theta_a.thetas, theta_b.thetas)
    )


def subsequence_refine(
    seq: Sequence[SequenceStep],
    gamma_alpha: float,
    budget: int = 1000,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Extract a constant-dimension subsequence with gap >= 2 and dominated exponents.

    If some dimension repeats often enough, a greedy scan inside that
    dimension class looks for indices k_1 < k_2 < ... with k_{n+1} - k_n >= 2
    and the exponent-domination condition between consecutive picks; each
    condition evaluation costs one unit of budget.  When every dimension
    occurs once (the bounded-degree obstruction in action) the outcome
    reports the escaping dimension list instead.
    """
    thetas = {step.k: theta_normal_form(step.spectrum, tol) for step in seq}
    by_dim: dict[int, list[SequenceStep]] = {}
    for step in seq:
        by_dim.setdefault(step.dim, []).append(step)
    remaining = int(budget)
    for dim in sorted(by_dim):
        group = sorted(by_dim[dim], key=lambda st: st.k)
        if len(group) < 2:
            continue
        for start in range(len(group) - 1):
            chain = [group[start].k]
            for candidate in group[start + 1 :]:
                if candidate.k - chain[-1] < 2:
                    continue
                if remaining <= 0:
                    return {
                        "outcome": "exhausted",
                        "budget": int(budget),
                        "dims": [step.dim for step in seq],
                    }
                remaining -= 1
                if _theta_domination(
                    chain[-1], thetas[chain[-1]], candidate.k, thetas[candidate.k], tol
                ):
                    chain.append(candidate.k)
            if len(chain) >= 2:
                return {
                    "outcome": "refined",
                    "k_indices": chain,
                    "dimension": dim,
                    "budget_left": remaining,
                }
    return {
        "outcome": "dimension_escape",
        "dims": [step.dim for step in seq],
        "max_dim": max(step.dim for step in seq),
        "budget_left": remaining,
    }


def main_inequality_eval(
    step_a: SequenceStep,
    step_b: SequenceStep,
    gamma_alpha: float,
    n_dim: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Evaluate the two sides of the final contradiction bound for a refined pair.

    ``lower_bound_value`` is the middle expression
    (d_1(B)/d_1(A)) Gamma_alpha^(2^(kA-1) - 2^(kB-1)), which the growth
    chain forces >= 1; ``final_bound_value`` is the exponent-wise
    over-estimate, which the domination condition forces < 1.  No input
    satisfying all preconditions can have both, which is the desk-scale
    shadow of the boundedness theorem; both values are reported for
    inspection.
    """
    if step_a.dim != n_dim or step_b.dim != n_dim:
        raise PreconditionError(
            f"steps have dims {step_a.dim}, {step_b.dim}; expected constant {n_dim}"
        )
    if step_b.k - step_a.k < 2:
        raise PreconditionError("steps must be at least 2 apart in k")
    theta_a = theta_normal_form(step_a.spectrum, tol)
    theta_b = theta_normal_form(step_b.spectrum, tol)
    ea, eb = 2 ** (step_a.k - 1), 2 ** (step_b.k - 1)
    log_gamma = math.log(gamma_alpha)
    log_lower = math.log(step_b.d1) - math.log(step_a.d1) + (ea - eb) * log_gamma
    parity_term = [] if n_dim % 2 == 0 else [(ea - eb) * log_gamma]
    numerator = [ea * ta * log_gamma for ta in theta_a.thetas]
    numerator += [(ea - eb * (tb + 1.0)) * log_gamma for tb in theta_b.thetas]
    numerator += parity_term
    denominator = [ea * ta * log_gamma for ta in theta_a.thetas]
    denominator += [-ea * ta * log_gamma for ta in theta_a.thetas]
    denominator += [] if n_dim % 2 == 0 else [0.0]
    log_final = _logsumexp(numerator) - _logsumexp(denominator)
    return {
        "k_pair": [step_a.k, step_b.k],
        "lower_bound_value": math.exp(log_lower) if log_lower <= 709.0 else math.inf,
        "log_lower_bound": log_lower,
        "final_bound_value": math.exp(log_final) if log_final <= 709.0 else math.inf,
        "log_final_bound": log_final,
    }


def corollary_6_5_probe(
    m: QGModel,
    word: Sequence[tuple[str, int]],
    bound: int,
    budget: int,
) -> dict:
    """Search tensor words on a non-Kac generator for a component above a dimension bound.

    The word is a list of (label, power) letters; negative powers mean the
    conjugate label.  The letters are cycled out to k total factors for
    k = 2..budget, each product extending the previous one by one factor;
    the first component (in declaration order) with dimension > bound is the
    witness.
    """
    letters: list[str] = []
    for label, power in word:
        label = m.irrep(str(label)).label
        count = int(power)
        letters += [label if count > 0 else m.conjugate(label)] * abs(count)
    if not letters:
        raise PreconditionError("the word must contain at least one nonzero-power letter")
    top = max(m.rho(label)[0] for label in letters)
    if DEFAULT_TOLERANCE.same_eigenvalue(top, 1.0):
        raise PreconditionError("the generator word has top eigenvalue 1 (Kac); no escape")
    current = {letters[0]: 1}
    for k in range(2, int(budget) + 1):
        current = _fuse(m, current.items(), letters[(k - 1) % len(letters)])
        for label in m.labels:
            if label in current and m.dim(label) > bound:
                return {
                    "outcome": "witness",
                    "witness": label,
                    "dim": m.dim(label),
                    "factors_used": k,
                }
    return {"outcome": "exhausted", "witness": None, "budget": int(budget)}
