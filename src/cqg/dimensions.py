"""The d_t / Gamma calculus on rho spectra and the spectral symmetry criteria.

d_t(U) = sum of the t-th powers of the rho eigenvalues interpolates the
degree (t = 0) and the quantum dimension (t = 1).  Gamma(U) is the largest
eigenvalue.  The symmetry question asks whether the descending eigenvalue
list coincides with the descending list of inverses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import PreconditionError
from .fusion import p_n
from .rep_data import DEFAULT_TOLERANCE, QGModel, RhoSpectrum, Tolerance

FORCED_SYMMETRIC = "forced_symmetric"
NO_CONCLUSION = "no_conclusion"


@dataclass(frozen=True)
class EigenLists:
    """Descending eigenvalue list and the descending list of inverses."""

    forward: tuple[float, ...]
    backward: tuple[float, ...]


def _logsumexp(values: Sequence[float]) -> float:
    top = max(values)
    if not math.isfinite(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def dim_t(s: RhoSpectrum, t: float) -> float:
    """sum(lambda_i ** t); dim at t = 0, quantum dimension at t = 1.

    Computed through logarithms so that large |t| (iterated tensor powers
    push t-th powers past double range) degrades gracefully instead of
    raising overflow.
    """
    logs = [t * math.log(v) for v in s]
    if max(logs) > 700.0:
        log_value = _logsumexp(logs)
        # past double range the only faithful float is inf
        return math.exp(log_value) if log_value <= 709.0 else math.inf
    return sum(math.exp(x) for x in logs)


def gamma(s: RhoSpectrum) -> float:
    """Largest rho eigenvalue (the spectrum is stored descending)."""
    return s[0]


def eigen_lists(s: RhoSpectrum) -> EigenLists:
    return EigenLists(forward=tuple(s), backward=tuple(s.conjugate()))


def symmetry_check(s: RhoSpectrum, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the spectrum equals its inverse multiset entrywise."""
    lists = eigen_lists(s)
    return all(tol.close(x, y) for x, y in zip(lists.forward, lists.backward))


def symmetry_by_conjugate(m: QGModel, alpha: str) -> str:
    """Spectral symmetry verdict from conjugation data alone.

    A self-conjugate irrep has rho equal (as a multiset) to its inverse, so
    symmetry is forced; otherwise nothing follows.  Whether the stored
    spectrum actually honors a forced verdict is a model-consistency question
    checked by the verification sweeps, not here.
    """
    return FORCED_SYMMETRIC if m.conjugate(alpha) == alpha else NO_CONCLUSION


def power_sum_uniqueness(
    a: Sequence[float],
    b: Sequence[float],
    t_grid: Sequence[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> bool:
    """Decide multiset equality of positive multisets through power sums.

    Agreement of sum(a_i^t) and sum(b_j^t) on enough distinct exponents
    t > 1 pins the multisets; the grid must offer at least len(a) + len(b)
    such values.
    """
    if not a or not b:
        raise PreconditionError("power_sum_uniqueness needs non-empty multisets")
    if any(v <= 0 for v in a) or any(v <= 0 for v in b):
        raise PreconditionError("power_sum_uniqueness is defined for positive multisets")
    distinct = sorted(set(float(t) for t in t_grid if t > 1))
    if len(distinct) < len(a) + len(b):
        raise PreconditionError(
            f"t grid must contain at least {len(a) + len(b)} distinct values > 1; got {len(distinct)}"
        )
    for t in distinct:
        pa = sum(v**t for v in a)
        pb = sum(v**t for v in b)
        if not tol.close(pa, pb):
            return False
    return True


def growth_inequality_check(
    m: QGModel,
    alpha: str,
    n: int,
    t: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Check d_t(alpha)^n <= P_n(alpha)^(t-1) * d_{-t}(alpha)^n and its mirror.

    P_n(alpha) is the maximal degree of an irreducible component of the n-th
    tensor power.  Comparison happens on logarithms; the reported sides are
    plain values (finite at desk scale).
    """
    if n < 1:
        raise PreconditionError("tensor power exponent n must be >= 1")
    if not 1 < t < math.inf:  # nan fails both comparisons
        raise PreconditionError("growth inequality is stated for t > 1")
    s = m.rho(alpha)
    pn = p_n(m, alpha, n)
    key = ("log-d_t", alpha, t)  # both logs, once per model, label and t
    log_dt, log_dmt = m._memo(key, lambda: (math.log(dim_t(s, t)), math.log(dim_t(s, -t))))
    log_p = math.log(pn)
    slack = tol.abs + tol.rel
    lhs_log = n * log_dt
    rhs_log = (t - 1.0) * log_p + n * log_dmt
    mirror_lhs_log = n * log_dmt
    mirror_rhs_log = (t - 1.0) * log_p + n * log_dt
    return {
        "alpha": alpha,
        "n": n,
        "t": t,
        "p_n": pn,
        "lhs": math.exp(lhs_log),
        "rhs": math.exp(rhs_log),
        "mirror_lhs": math.exp(mirror_lhs_log),
        "mirror_rhs": math.exp(mirror_rhs_log),
        "pass": (lhs_log <= rhs_log + slack) and (mirror_lhs_log <= mirror_rhs_log + slack),
    }


def symmetry_sweep(m: QGModel, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[list[dict], list[dict]]:
    """Per-irrep symmetry table plus the violations where a forced verdict fails."""
    results: list[dict] = []
    violations: list[dict] = []
    for label in m.labels:
        s = m.rho(label)
        symmetric = symmetry_check(s, tol)
        verdict = symmetry_by_conjugate(m, label)
        lists = eigen_lists(s)
        results.append(
            {
                "label": label,
                "symmetric": symmetric,
                "verdict": verdict,
                "forward": list(lists.forward),
                "backward": list(lists.backward),
            }
        )
        if verdict == FORCED_SYMMETRIC and not symmetric:
            violations.append(
                {
                    "invariant": "forced-symmetry",
                    "label": label,
                    "message": f"irrep {label!r} is self-conjugate but its spectrum is asymmetric",
                }
            )
    return results, violations
