"""Independent reference implementations used to cross-check the library.

Everything here is computed from first principles with plain numpy and the
standard library, deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def q_int(n: int, q: float) -> float:
    """Quantum integer (q^n - q^-n) / (q - q^-1), with the q=1 limit."""
    if q == 1.0:
        return float(n)
    return (q**n - q ** (-n)) / (q - 1.0 / q)


def suq2_spectrum(n: int, q: float) -> list[float]:
    """Unsorted rho eigenvalues q^(n-2k) of the level-n irrep."""
    return [q ** (n - 2 * k) for k in range(n + 1)]


def suq2_components(left: int, right: int) -> dict[str, int]:
    """Clebsch-Gordan series of the SU(2) type: |l-r|, |l-r|+2, ..., l+r."""
    lo, hi = abs(left - right), left + right
    return {str(n): 1 for n in range(lo, hi + 1, 2)}


def dim_t_direct(spectrum, t: float) -> float:
    return float(sum(x**t for x in spectrum))


_S3_CLASSES = (1, 3, 2)
_S3_CHARS = {
    "triv": (1, 1, 1),
    "sgn": (1, -1, 1),
    "std": (2, 0, -1),
}


def s3_fusion(a: str, b: str) -> dict[str, int]:
    """Fusion multiplicities of the S_3 dual from the character table."""
    out: dict[str, int] = {}
    for target, chi_t in _S3_CHARS.items():
        total = sum(
            size * _S3_CHARS[a][i] * _S3_CHARS[b][i] * chi_t[i]
            for i, size in enumerate(_S3_CLASSES)
        )
        mult, rem = divmod(total, 6)
        assert rem == 0
        if mult:
            out[target] = mult
    return out


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def brute_standard_polynomial(mats) -> np.ndarray:
    """Sum over all r! orderings; exact for integer inputs."""
    r = len(mats)
    n = mats[0].shape[0]
    acc = np.zeros((n, n), dtype=mats[0].dtype)
    for perm in itertools.permutations(range(r)):
        product = np.eye(n, dtype=mats[0].dtype)
        for index in perm:
            product = product @ mats[index]
        acc = acc + perm_sign(perm) * product
    return acc


def subset_recursion_standard_polynomial(mats: np.ndarray) -> np.ndarray:
    """Alternating sum over all orderings of stacked matrices, by the full subset recursion.

    ``mats`` has shape (r, ..., n, n).  Splitting on the first factor gives
    M[A] = sum over i in A of (-1)^pos(i) x_i M[A minus i], for every subset
    A up to the whole index set: r 2^(r-1) products, exact for integer inputs.
    """
    r = mats.shape[0]
    n = mats.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=mats.dtype), mats.shape[1:]).copy()
    table: dict[int, np.ndarray] = {0: eye}
    by_size = sorted(range(1, 1 << r), key=int.bit_count)
    for _, layer in itertools.groupby(by_size, key=int.bit_count):
        below, table = table, {}
        for mask in layer:
            acc = None
            position = 0
            for i in range(r):
                if not mask >> i & 1:
                    continue
                term = mats[i] @ below[mask ^ (1 << i)]
                if position % 2:
                    term = -term
                acc = term if acc is None else acc + term
                position += 1
            table[mask] = acc
    return table[(1 << r) - 1]


def chunked_unit_grid(n: int, r: int, chunk: int = 20000):
    """Yield (tuples, values) over every r-tuple of n x n matrix units.

    Tuples run in ``itertools.product`` order over units u = (u // n, u % n);
    each chunk is gathered into one (r, chunk, n, n) stack and evaluated by
    ``subset_recursion_standard_polynomial``.
    """
    units = n * n
    tuples = list(itertools.product(range(units), repeat=r))
    basis = np.zeros((units, n, n))
    for u in range(units):
        basis[u, u // n, u % n] = 1.0
    for start in range(0, len(tuples), chunk):
        batch = tuples[start : start + chunk]
        mats = np.stack([basis[[tup[pos] for tup in batch]] for pos in range(r)])
        yield batch, subset_recursion_standard_polynomial(mats)


def first_unit_witness(m, r: int) -> dict | None:
    """The first single-block r-tuple of matrix units with a nonzero standard polynomial."""
    for label in m.labels:
        n = m.dim(label)
        for batch, values in chunked_unit_grid(n, r):
            nonzero = np.flatnonzero(np.abs(values).reshape(len(batch), -1).max(axis=1))
            if nonzero.size:
                tup = batch[int(nonzero[0])]
                return {"kind": "matrix_units", "tuple": [[label, u // n, u % n] for u in tup]}
    return None


def delta_hat_reference(tensors, alpha: str, a: int, a_prime: int) -> dict:
    """Coproduct block of a matrix unit, by the defining quadruple loop.

    tensors is the Clebsch-Gordan family of one fusion pair (beta, gamma);
    the (beta, gamma) block of Delta(e^alpha_{a,a'}) lives on
    H_gamma (x) H_beta with the gamma index major:

        B[c * n_beta + b, c' * n_beta + b'] =
            sum_i coeffs_i[b, c, a] * conj(coeffs_i[b', c', a'])
    """
    relevant = [t for t in tensors if t.alpha == alpha]
    if not relevant:
        return {}
    n_beta, n_gamma, _ = relevant[0].coeffs.shape
    size = n_beta * n_gamma
    block = np.zeros((size, size), dtype=complex)
    for tensor in relevant:
        w = tensor.coeffs
        for c in range(n_gamma):
            for b in range(n_beta):
                for c2 in range(n_gamma):
                    for b2 in range(n_beta):
                        block[c * n_beta + b, c2 * n_beta + b2] += w[b, c, a] * np.conj(
                            w[b2, c2, a_prime]
                        )
    return {(tensor.beta, tensor.gamma): block}


def modular_legs_reference(blocks: dict, spectra: dict) -> dict:
    """(id (x) h) and (h (x) id) of the delta_hat_reference blocks of one matrix unit.

    blocks maps (beta, gamma) to its block on H_gamma (x) H_beta (gamma index
    major); spectra maps each label to its rho eigenvalues in basis order.
    id (x) h applies h(e^beta_{b,b'}) = d_1(beta) lambda_b delta_{b,b'} to the
    beta factor and lands on gamma; h (x) id does the same to the gamma factor
    and lands on beta.  Returns {("id_tensor_h", gamma) or ("h_tensor_id",
    beta): matrix}, summed over the pairs sharing that label.
    """
    out: dict = {}
    for (beta, gamma), block in blocks.items():
        lam_b, lam_c = spectra[beta], spectra[gamma]
        n_b, n_c = len(lam_b), len(lam_c)
        first = np.zeros((n_c, n_c), dtype=complex)
        second = np.zeros((n_b, n_b), dtype=complex)
        for c in range(n_c):
            for b in range(n_b):
                for c2 in range(n_c):
                    for b2 in range(n_b):
                        entry = block[c * n_b + b, c2 * n_b + b2]
                        if b == b2:
                            first[c, c2] += sum(lam_b) * lam_b[b] * entry
                        if c == c2:
                            second[b, b2] += sum(lam_c) * lam_c[c] * entry
        for key, leg in ((("id_tensor_h", gamma), first), (("h_tensor_id", beta), second)):
            out[key] = out.get(key, 0) + leg
    return out


def haar_on_matrix_unit(spectrum, a: int, a_prime: int) -> float:
    """h(e^alpha_{a,a'}) = d_1(alpha) * lambda_a * delta_{a,a'}."""
    if a != a_prime:
        return 0.0
    return float(sum(spectrum)) * float(spectrum[a])


def lemma_6_3_closed(q: float, m_lo: int, m_hi: int) -> float:
    """Closed form (1 - q^(2 m_hi + 2)) / (1 - q^(2 m_lo + 2)) for q < 1."""
    return (1.0 - q ** (2 * m_hi + 2)) / (1.0 - q ** (2 * m_lo + 2))


def theta_exponents(spectrum, gamma: float) -> list[float]:
    """log-scale exponents of the upper half of a symmetric spectrum."""
    upper = sorted((x for x in spectrum if x > 1.0), reverse=True)
    return [math.log(x) / math.log(gamma) for x in upper]


DIMS_TABLE_Q_HALF = {
    # label: (dim, d_1, d_2) for su_q_2 at q = 0.5
    "0": (1, 1.0, 1.0),
    "1": (2, 2.5, 4.25),
    "2": (3, 5.25, 17.0625),
}

FREE_ORTHOGONAL_112_FORWARD_TOP = math.sqrt(6.0)
FREE_ORTHOGONAL_112_BACKWARD_TOP = math.sqrt(8.0 / 3.0)

LEMMA_CHAIN_Q_HALF = [1.05, 1.0148809523809523, 1.000973698680352]

MAIN_SEQUENCE_Q_HALF = [
    # (k, label, Gamma, d_1, dim)
    (1, "1", 2.0, 2.5, 2),
    (2, "2", 4.0, 5.25, 3),
    (3, "4", 16.0, 21.3125, 5),
    (4, "8", 256.0, 341.33203125, 9),
    (5, "16", 65536.0, 87381.33332824707, 17),
]


def theorem_5_3_reference(m, alpha: str, beta: str, s: float, t: float, tol) -> dict:
    """Every key of verify_theorem_5_3 at one (s, t) point, in dense form.

    Projections are dense 0/1 diagonal matrices built from spectral_projection,
    both right-hand sides are dense matrices, and every norm (the right-hand
    ones included) is an SVD 2-norm.  The summation set, the CG tensors and
    the completeness certificate are the library's own, and each left-hand
    side is accumulated with the same weights in the same order, so every
    value can be compared with ==.
    """
    from cqg.intertwiners import _certify_complete, cg_set
    from cqg.spectral import spectral_projection

    def proj(label: str, value: float) -> np.ndarray:
        p = np.zeros((m.dim(label), m.dim(label)))
        for a in spectral_projection(m.rho(label), value, tol).index_set:
            p[a, a] = 1.0
        return p

    p_alpha, p_beta = proj(alpha, s * t), proj(beta, t)
    dim_beta_t = spectral_projection(m.rho(beta), t, tol).dim
    dim_alpha_st = spectral_projection(m.rho(alpha), s * t, tol).dim
    d_alpha = float(m.rho(alpha).trace())
    on_grid = dim_beta_t > 0 and dim_alpha_st > 0
    out = {"alpha": alpha, "beta": beta, "s": float(s), "t": float(t), "on_grid": on_grid,
           "dim_h_beta_t": dim_beta_t, "dim_h_alpha_st": dim_alpha_st}
    norms, complete = {}, True
    for eq, first_is_gamma, rhs in (
        ("eq1", True, (d_alpha / t) * dim_beta_t * p_alpha),
        ("eq2", False, d_alpha * t * dim_beta_t * p_alpha),
    ):
        complete &= _certify_complete(m, alpha, beta, not first_is_gamma, m.fusion)[0]
        lhs = np.zeros((m.dim(alpha), m.dim(alpha)), dtype=complex)
        for gamma in m.labels:
            pair = (gamma, beta) if first_is_gamma else (beta, gamma)
            if pair not in m.fusion or m.fusion.components(*pair).get(alpha, 0) == 0:
                continue
            factors = (proj(gamma, s), p_beta) if first_is_gamma else (p_beta, proj(gamma, s))
            weight = np.diag(np.kron(*factors))
            for tensor in cg_set(m, *pair):
                if tensor.alpha == alpha:
                    v = tensor.matrix
                    lhs += float(m.rho(gamma).trace()) * (v.conj().T @ (weight[:, None] * v))
        lhs_norm = float(np.linalg.norm(lhs, 2))
        rhs_norm = float(np.linalg.norm(rhs, 2))
        if on_grid:
            out[f"residual_{eq}"] = float(np.linalg.norm(lhs - rhs, 2)) / max(rhs_norm, 1.0)
        else:
            out[f"residual_{eq}"] = max(lhs_norm, rhs_norm)
        norms[f"lhs_norm_{eq}"], norms[f"rhs_norm_{eq}"] = lhs_norm, rhs_norm
    bound = max(tol.abs, tol.rel)
    out.update(norms, truncated=not complete)
    out["pass"] = (
        out["residual_eq1"] <= bound and out["residual_eq2"] <= bound if complete else None
    )
    return out


def frobenius_mismatches_reference(m) -> list[tuple[str, str, str, int, int, str]]:
    """The dense Frobenius walk: every (ingested pair, label), both reciprocal readings.

    For each ingested pair (beta, gamma) and every label alpha, the
    multiplicity m1 of alpha in beta x gamma is compared with the two
    reciprocal readings, m(beta, alpha x conj(gamma)) and
    m(gamma, conj(beta) x alpha), whenever their pairs are ingested too.
    Returns (alpha, beta, gamma, m1, reciprocal multiplicity, message) per
    mismatch; pairs that reference labels outside the model are skipped.
    """
    out = []
    # plain copies, made once: the loop below reads each row once per label
    rows = {pair: dict(m.fusion.components(*pair)) for pair in m.fusion.pairs()}
    for (beta, gamma), row in rows.items():
        if beta not in m or gamma not in m or any(label not in m for label in row):
            continue
        gamma_bar = m.conjugate(gamma)
        beta_bar = m.conjugate(beta)
        for alpha in m.labels:
            m1 = row.get(alpha, 0)
            for label, left, right in ((beta, alpha, gamma_bar), (gamma, beta_bar, alpha)):
                if (left, right) not in rows:
                    continue
                m2 = rows[left, right].get(label, 0)
                if m1 != m2:
                    message = (
                        f"m({alpha!r}, {beta!r} x {gamma!r}) = {m1} but "
                        f"m({label!r}, {left!r} x {right!r}) = {m2}"
                    )
                    out.append((alpha, beta, gamma, m1, m2, message))
    return out
