"""Spectral projections of rho-operators and the twisted trace identity verifier.

Projections are index sets over the canonical descending basis; dense
matrices appear only inside the identity verifier, where the CG contraction
needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .intertwiners import _certify_complete, cg_set
from .rep_data import DEFAULT_TOLERANCE, QGModel, RhoSpectrum, Tolerance


@dataclass(frozen=True)
class SpectralProjection:
    """Projection onto the eigenvalue class of ``value`` inside one spectrum."""

    value: float
    index_set: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.index_set)


def spectral_projection(
    s: RhoSpectrum, t: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> SpectralProjection:
    """Indices of eigenvalues equal to t under log-scale grouping; may be empty."""
    if not (t > 0 and math.isfinite(t)):
        raise PreconditionError("spectral parameter t must be a positive finite real")
    idx = tuple(a for a, lam in enumerate(s) if tol.same_eigenvalue(lam, t))
    return SpectralProjection(value=float(t), index_set=idx)


def eigenspace_dim(s: RhoSpectrum, t: float, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    return spectral_projection(s, t, tol).dim


def distinct_eigenvalues(s: RhoSpectrum, tol: Tolerance = DEFAULT_TOLERANCE) -> list[float]:
    """One representative per grouped eigenvalue class, descending."""
    reps: list[float] = []
    for lam in s:
        if not reps or not tol.same_eigenvalue(reps[-1], lam):
            reps.append(float(lam))
    return reps


def tensor_projection_pairs(
    s_u: RhoSpectrum, s_v: RhoSpectrum, t: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[tuple[float, float]]:
    """Eigenvalue pairs (t', t/t') that contribute to the product projection at t.

    Summing dim H_U(t') * dim H_V(t/t') over the returned pairs gives the
    eigenspace dimension of the tensor product at t.
    """
    if not (t > 0 and math.isfinite(t)):
        raise PreconditionError("spectral parameter t must be a positive finite real")
    pairs: list[tuple[float, float]] = []
    for t_prime in distinct_eigenvalues(s_u, tol):
        complement = t / t_prime
        if eigenspace_dim(s_v, complement, tol) > 0:
            pairs.append((t_prime, complement))
    return pairs


def spectral_grid(
    m: QGModel, alpha: str, beta: str, probes: int = 2, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[tuple[float, float]]:
    """All (s, t) with t in Sp(rho_beta) and s*t in Sp(rho_alpha), plus probe points.

    The grid exhausts the support of both twisted trace identities for the
    pair (alpha, beta); the probes are deterministic off-support points where
    both sides of both identities must vanish.  Sorted by (t, s) descending.
    """
    s_alpha = m.rho(alpha)
    s_beta = m.rho(beta)
    points: list[tuple[float, float]] = []
    for t in distinct_eigenvalues(s_beta, tol):
        for product in distinct_eigenvalues(s_alpha, tol):
            points.append((product / t, t))
    seen: list[tuple[float, float]] = []
    for s, t in points:
        if not any(tol.same_eigenvalue(s, s0) and tol.same_eigenvalue(t, t0) for s0, t0 in seen):
            seen.append((s, t))

    def off_support(s: float, t: float) -> bool:
        return eigenspace_dim(s_beta, t, tol) == 0 or eigenspace_dim(s_alpha, s * t, tol) == 0

    probe_points: list[tuple[float, float]] = []
    base = [(7.0, 11.0), (11.0, 7.0), (7.0, 7.0), (11.0, 11.0)]
    k = 0
    while len(probe_points) < max(0, probes):
        s, t = base[k % len(base)]
        scale = math.e ** (k // len(base))
        if off_support(s * scale, t * scale):
            probe_points.append((s * scale, t * scale))
        k += 1
    ordered = sorted(seen, key=lambda p: (-p[1], -p[0]))
    return ordered + probe_points


def _projection_diag(s: RhoSpectrum, t: float, tol: Tolerance) -> np.ndarray:
    """0/1 mask of the eigenvalues of s equal to t; its sum is dim H(t)."""
    return np.array([float(tol.same_eigenvalue(lam, t)) for lam in s])


def verify_theorem_5_3(
    m: QGModel,
    alpha: str,
    beta: str,
    s: float,
    t: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> dict:
    """Residuals of the two twisted trace identities at one (s, t) point.

    eq1: sum over gamma, i of d_1(gamma) V(alpha, gamma x beta, i)^*
         (P_gamma(s) x P_beta(t)) V = (d_alpha / t) dim H_beta(t) P_alpha(st)
    eq2: sum over gamma, i of d_1(gamma) V(alpha, beta x gamma, i)^*
         (P_beta(t) x P_gamma(s)) V = d_alpha t dim H_beta(t) P_alpha(st)

    On support the residuals are relative operator norms; off support both
    sides must vanish and the reported residual is the larger absolute norm.
    The sums need every gamma with nonzero multiplicity; when the fragment
    cannot certify that set complete the result is flagged truncated.
    """
    if not (s > 0 and t > 0 and 0 < s * t < math.inf):
        raise PreconditionError("spectral parameters must be positive finite reals")
    s_alpha = m.rho(alpha)
    mask_alpha = _projection_diag(s_alpha, s * t, tol)
    mask_beta = _projection_diag(m.rho(beta), t, tol)
    mask_gamma: dict[str, np.ndarray] = {}
    d_alpha = float(s_alpha.trace())
    dim_beta_t = int(mask_beta.sum())
    dim_alpha_st = int(mask_alpha.sum())
    on_grid = dim_beta_t > 0 and dim_alpha_st > 0

    def equation(first_is_gamma: bool, c: float) -> tuple[float, float, float, bool]:
        # (residual, lhs norm, rhs norm, complete) of the identity with rhs c P_alpha(st); eq1
        # puts gamma in the first slot, eq2 in the second, over the pairs that contain alpha
        complete, _ = _certify_complete(m, alpha, beta, not first_is_gamma, m.fusion)
        lhs = np.zeros((len(s_alpha), len(s_alpha)), dtype=complex)
        for gamma in m.labels:
            pair = (gamma, beta) if first_is_gamma else (beta, gamma)
            if pair not in m.fusion or m.fusion.components(*pair).get(alpha, 0) == 0:
                continue
            if gamma not in mask_gamma:
                mask_gamma[gamma] = _projection_diag(m.rho(gamma), s, tol)
            d_gamma = float(m.rho(gamma).trace())
            masks = (mask_gamma[gamma], mask_beta)
            weight = np.multiply.outer(*(masks if first_is_gamma else masks[::-1])).reshape(-1)
            for v in (tensor.matrix for tensor in cg_set(m, *pair) if tensor.alpha == alpha):
                lhs += d_gamma * (v.conj().T @ (weight[:, None] * v))
        lhs_norm = float(np.linalg.norm(lhs, 2))
        rhs_norm = abs(c) if dim_alpha_st else 0.0
        if not on_grid:  # the right-hand side is zero
            return lhs_norm, lhs_norm, rhs_norm, complete
        diff = float(np.linalg.norm(lhs - c * np.diag(mask_alpha), 2))
        return diff / max(rhs_norm, 1.0), lhs_norm, rhs_norm, complete

    residual_eq1, lhs_norm_1, rhs_norm_1, complete1 = equation(True, d_alpha / t * dim_beta_t)
    residual_eq2, lhs_norm_2, rhs_norm_2, complete2 = equation(False, d_alpha * t * dim_beta_t)
    truncated = not (complete1 and complete2)
    bound = max(tol.abs, tol.rel)
    return {
        "alpha": alpha,
        "beta": beta,
        "s": float(s),
        "t": float(t),
        "on_grid": on_grid,
        "dim_h_beta_t": dim_beta_t,
        "dim_h_alpha_st": dim_alpha_st,
        "residual_eq1": residual_eq1,
        "residual_eq2": residual_eq2,
        "lhs_norm_eq1": lhs_norm_1,
        "rhs_norm_eq1": rhs_norm_1,
        "lhs_norm_eq2": lhs_norm_2,
        "rhs_norm_eq2": rhs_norm_2,
        "truncated": truncated,
        "pass": None if truncated else residual_eq1 <= bound and residual_eq2 <= bound,
    }
