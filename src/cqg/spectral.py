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
from .intertwiners import _certify_complete, _cg_record
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
    pair (alpha, beta), one point per pair of eigenvalue classes, sorted by
    (t, s) descending; the probes are deterministic off-support points where
    both sides of both identities must vanish.
    """
    s_alpha = m.rho(alpha)
    s_beta = m.rho(beta)
    points = [
        (product / t, t)
        for t in distinct_eigenvalues(s_beta, tol)
        for product in distinct_eigenvalues(s_alpha, tol)
    ]

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
    return points + probe_points


_CHUNK = 64  # points per batched stack, so temporaries stay bounded on large grids


def _log_rho(m: QGModel, label: str) -> np.ndarray:
    """math.log of each rho eigenvalue of label, so a mask is one array comparison."""
    return m._memo(("log-rho", label), lambda: np.array([math.log(lam) for lam in m.rho(label)]))


def _theorem_5_3_plan(
    m: QGModel, alpha: str, beta: str, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple:
    """What both identities need for (alpha, beta) at any (s, t), built once per model and tolerance.

    One entry per equation, eq1 with gamma in the first slot, eq2 in the
    second: the completeness certificate, the live (a, a') entries of the
    left-hand side (the diagonal and every pair some CG row is nonzero at; all
    others are an exact 0) as (rows, cols), and the terms (gamma, d_gamma,
    [conj(V[:, rows]) * V[:, cols] ...]) over the gammas whose pair with beta
    contains alpha: a point's left-hand side is its 0/1 row weights times those.
    A plan reads, and so gates, its CG records once, at the tolerance it is keyed by.
    """

    def plan_equation(first_is_gamma: bool) -> tuple:
        complete, _ = _certify_complete(m, alpha, beta, not first_is_gamma, m.fusion)
        found = []
        for gamma in m.labels:
            pair = (gamma, beta) if first_is_gamma else (beta, gamma)
            if pair not in m.fusion or m.fusion.components(*pair).get(alpha, 0) == 0:
                continue
            vs = [t.matrix for t in _cg_record(m, *pair, tol)["into"][alpha]]
            found.append((gamma, float(m.rho(gamma).trace()), vs))
        nonzero = np.vstack([np.eye(m.dim(alpha))] + [v != 0 for _, _, vs in found for v in vs])
        rows, cols = np.nonzero(nonzero.T @ nonzero)
        terms = [(gamma, d, [v[:, rows].conj() * v[:, cols] for v in vs]) for gamma, d, vs in found]
        return complete, (rows, cols), terms

    key = ("theorem-5.3", alpha, beta, tol)
    return m._memo(key, lambda: (plan_equation(True), plan_equation(False)))


def _norms(live: np.ndarray, n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """2-norm of each row of live as the n x n matrix that is 0 off (rows, cols), as SVD has it."""
    if np.array_equal(rows, cols):  # a real diagonal matrix's 2-norm is its largest |entry|
        return np.abs(live).max(axis=1)
    dense = np.zeros((len(live), n, n), dtype=complex)
    dense[:, rows, cols] = live
    return np.linalg.svd(dense, compute_uv=False).max(axis=-1, initial=0)


def _theorem_5_3_sweep(
    m: QGModel,
    alpha: str,
    beta: str,
    points: list[tuple[float, float]],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[dict]:
    """verify_theorem_5_3 at every (s, t) of points, one result per point, in order.

    The pair's summation terms are planned once; masks, left-hand sides and
    norms are stacked over up to _CHUNK points at a time.
    """
    for s, t in points:
        if not (s > 0 and t > 0 and 0 < s * t < math.inf):
            raise PreconditionError("spectral parameters must be positive finite reals")
    d_alpha = float(m.rho(alpha).trace())
    n = m.dim(alpha)
    log_beta = _log_rho(m, beta)
    eq1, eq2 = _theorem_5_3_plan(m, alpha, beta, tol)
    bound = max(tol.abs, tol.rel)

    def masks(logs: np.ndarray, values) -> np.ndarray:
        # (points, dim) rows: which eigenvalues are grouped with each value
        at = np.array([math.log(x) for x in values])
        return np.abs(logs - at[:, None]) <= tol.eigen_group

    results: list[dict] = []
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        mask_alpha = masks(_log_rho(m, alpha), [s * t for s, t in chunk])
        mask_beta = masks(log_beta, [t for _, t in chunk])
        mask_gamma = {
            gamma: masks(_log_rho(m, gamma), [s for s, _ in chunk])
            for gamma in dict.fromkeys(g for _, _, terms in (eq1, eq2) for g, _, _ in terms)
        }
        dim_beta = mask_beta.sum(axis=1)
        dim_alpha = mask_alpha.sum(axis=1)
        on_grid = (dim_beta > 0) & (dim_alpha > 0)
        ts = np.array([t for _, t in chunk])
        # per equation, eq1 with gamma in the first slot: residuals, lhs and rhs norms per point
        residual, lhs_norm, rhs_norm = [], [], []
        for (_, (rows, cols), terms), first_is_gamma, c in (
            (eq1, True, d_alpha / ts * dim_beta),
            (eq2, False, d_alpha * ts * dim_beta),
        ):
            lhs = np.zeros((len(chunk), len(rows)), dtype=complex)  # the live entries only
            for gamma, d_gamma, products in terms:
                left, right = (mask_gamma[gamma], mask_beta)[:: 1 if first_is_gamma else -1]
                weight = (left[:, :, None] & right[:, None, :]).reshape(len(chunk), -1)
                weight = weight.astype(float)
                for p in products:
                    lhs += d_gamma * (weight @ p)
            norm = _norms(lhs, n, rows, cols)
            rhs = np.where(dim_alpha > 0, np.abs(c), 0.0)  # c P_alpha(st) has norm |c| or 0
            res = norm.copy()  # off the grid the right-hand side is zero
            if on_grid.any():
                p_alpha = mask_alpha[on_grid][:, rows] & (rows == cols)
                diff = _norms(lhs[on_grid] - c[on_grid, None] * p_alpha, n, rows, cols)
                res[on_grid] = diff / np.maximum(rhs[on_grid], 1.0)
            residual.append(res.tolist())
            lhs_norm.append(norm.tolist())
            rhs_norm.append(rhs.tolist())
        truncated = not (eq1[0] and eq2[0])
        for k, (s, t) in enumerate(chunk):
            r1, r2 = residual[0][k], residual[1][k]
            results.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "s": float(s),
                    "t": float(t),
                    "on_grid": bool(on_grid[k]),
                    "dim_h_beta_t": int(dim_beta[k]),
                    "dim_h_alpha_st": int(dim_alpha[k]),
                    "residual_eq1": r1,
                    "residual_eq2": r2,
                    "lhs_norm_eq1": lhs_norm[0][k],
                    "rhs_norm_eq1": rhs_norm[0][k],
                    "lhs_norm_eq2": lhs_norm[1][k],
                    "rhs_norm_eq2": rhs_norm[1][k],
                    "truncated": truncated,
                    "pass": None if truncated else r1 <= bound and r2 <= bound,
                }
            )
    return results


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
    return _theorem_5_3_sweep(m, alpha, beta, [(s, t)], tol)[0]
