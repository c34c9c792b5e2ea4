"""Independent reference implementations used to cross-check the library.

Everything here is computed from first principles with plain numpy and the
standard library, deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from cqg.errors import CGUnavailableError, PreconditionError, TruncationError
from cqg.fusion import Decomposition
from cqg.intertwiners import _canonical_pairs, _certify_complete, _cg_record, _tensors_into
from cqg.rep_data import DEFAULT_TOLERANCE, Tolerance, ValidationReport


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


def suq2_exact_cg_squares(n1: int, n2: int, sqrt_q) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Exact |V|^2 and sign(V) of every su_q_2 CG isometry of the pair (n1, n2), q = sqrt_q**2.

    Works in each module's unnormalized basis v_j = F^j v_0, a positive
    multiple of the weight-basis vector k = n - j: there E v_j = [j][n-j+1]
    v_{j-1}, F v_j = v_{j+1}, K v_j = q^(n/2-j) v_j and |v_j|^2 = [j]! [n]! /
    [n-j]!.  With the library's coproduct Delta(E) = E x K + K^-1 x E (Delta(F)
    likewise), every coefficient is a Fraction when sqrt_q is rational.  The
    highest-weight vector of target n3 solves a two-term recurrence; lowering it
    by Delta(F) gives w_j3, with |w_j3|^2 = |w_0|^2 [j3]! [n3]! / [n3-j3]!.  So
    |V|^2 = c^2 |v_j1|^2 |v_j2|^2 / |w_j3|^2 exactly.  The overall sign makes the
    highest-weight vector's first coefficient in (k1, k2) order above 1e-10 in
    modulus positive, as the library does.  Returns {str(n3): (squares, signs)}:
    an object array of Fraction and an int array, both indexed [b, c, a] over
    the descending-rho bases.
    """
    s = Fraction(sqrt_q)
    q = s * s
    qints = [Fraction(n) if q == 1 else (q**n - q**-n) / (q - 1 / q) for n in range(n1 + n2 + 2)]
    qfact = list(itertools.accumulate(qints[1:], operator.mul, initial=Fraction(1)))

    def norm2(n: int, j: int) -> Fraction:  # |v_j|^2 = [j]! [n]! / [n-j]!
        return qfact[j] * qfact[n] / qfact[n - j]

    def k_on(n: int, j: int) -> Fraction:  # K v_j = q^(n/2 - j) v_j
        return s ** (n - 2 * j)

    def descending_rho(n: int) -> list[int]:  # weight indices k by descending q^(2k - n)
        return list(range(n + 1)) if q < 1 else list(range(n, -1, -1))

    out = {}
    for n3 in range(abs(n1 - n2), n1 + n2 + 1, 2):
        top = (n1 + n2 - n3) // 2  # j1 + j2 on the highest-weight sector; top <= min(n1, n2)
        x = [Fraction(1)]
        for a in range(top):  # Delta(E) h = 0, coefficient of v_a x v_(top-1-a)
            x.append(
                -x[a] * qints[top - a] * qints[n2 - top + a + 1]
                / (k_on(n1, a) * qints[a + 1] * qints[n1 - a] * k_on(n2, top - a - 1))
            )
        # the library's first nonzero is the first above 1e-10 in modulus, k1 = n1 - j1 ascending
        h2 = sum(c * c * norm2(n1, j1) * norm2(n2, top - j1) for j1, c in enumerate(x))
        first = next(
            j1 for j1 in range(top, -1, -1)
            if x[j1] ** 2 * norm2(n1, j1) * norm2(n2, top - j1) > h2 / 10**20
        )
        sign = 1 if x[first] > 0 else -1
        vectors = [{(j1, top - j1): sign * c for j1, c in enumerate(x)}]
        for _ in range(n3):
            lowered: dict[tuple[int, int], Fraction] = {}
            for (j1, j2), c in vectors[-1].items():
                if j1 < n1:
                    lowered[j1 + 1, j2] = lowered.get((j1 + 1, j2), 0) + c * k_on(n2, j2)
                if j2 < n2:
                    lowered[j1, j2 + 1] = lowered.get((j1, j2 + 1), 0) + c / k_on(n1, j1)
            vectors.append(lowered)
        squares = np.full((n1 + 1, n2 + 1, n3 + 1), Fraction(0), dtype=object)
        signs = np.zeros((n1 + 1, n2 + 1, n3 + 1), dtype=int)
        for j3, w in enumerate(vectors):
            w2 = h2 * norm2(n3, j3)
            for (j1, j2), c in w.items():
                at = (n1 - j1, n2 - j2, n3 - j3)
                squares[at] = c * c * norm2(n1, j1) * norm2(n2, j2) / w2
                signs[at] = (c > 0) - (c < 0)
        grid = np.ix_(descending_rho(n1), descending_rho(n2), descending_rho(n3))
        out[str(n3)] = (squares[grid], signs[grid])
    return out


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
    side is accumulated with the same weights in the same order: per tensor,
    one (1, rows) @ (rows, entries) product of the 0/1 weights with
    conj(V[:, a]) V[:, a'], here over every (a, a') entry.  A V^* (w V)
    product sums the rows in another order and can differ in the last bit,
    so only this form lets every value be compared with ==.
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
            weight = np.diag(np.kron(*factors))[None, :]
            for tensor in cg_set(m, *pair):
                if tensor.alpha == alpha:
                    v = tensor.matrix
                    products = (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)
                    lhs += float(m.rho(gamma).trace()) * (weight @ products).reshape(lhs.shape)
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


def coassociativity_dense_reference(rhs: np.ndarray, lhs: np.ndarray) -> float:
    """One triple's coassociativity residual over every matrix unit, no column skipped.

    rhs and lhs are the two expansion stacks (tensor pair, size, n_alpha).
    For each a, the blocks of e_{a,a'} for every a' are formed in full,
    sum_k v[k, x, a] conj(v[k, y, a']), and compared; the residual is the
    largest difference over max(1, largest right-hand entry).
    """
    n_a = rhs.shape[2]
    lhs_bar, rhs_bar = lhs.conj(), rhs.conj()
    diff = 0.0
    scale = 1.0
    for a in range(n_a):
        rhs_a = np.einsum("kx,kyA->Axy", rhs[:, :, a], rhs_bar)
        scale = max(scale, float(np.max(np.abs(rhs_a))))
        rhs_a -= np.einsum("kx,kyA->Axy", lhs[:, :, a], lhs_bar)
        diff = max(diff, float(np.max(np.abs(rhs_a))))
    return diff / scale


def coassociativity_stacks_reference(m, alpha: str, triple, tol: Tolerance = DEFAULT_TOLERANCE):
    """The (rhs, lhs) expansion stacks of one triple, one einsum per (outer, inner) tensor pair.

    The first-leg expansion of (p, q, r) sums the tensors of inner pair
    (q, p) into x against those of outer pair (r, x) into alpha; the
    second-leg one sums (r, q) into x against (x, p).  Each stack is
    (tensor pair, n_p n_q n_r, n_alpha), its pairs over x in row order, then
    outer and inner copy.  A pair outside the fragment, or without CG data,
    raises, the first-leg pairs being read first.
    """
    p, q, r = triple

    def contributors(inner, outer_pair):
        out = []
        for x in m.fusion.components(*inner):
            outer = _cg_record(m, *outer_pair(x), tol)["into"].get(alpha, ())
            inner_all = _cg_record(m, *inner, tol)["into"][x]
            out += [(t_out, t_in) for t_out in outer for t_in in inner_all]
        return out

    left = contributors((q, p), lambda x: (r, x))
    right = contributors((r, q), lambda x: (x, p))
    size = m.dim(p) * m.dim(q) * m.dim(r)
    lhs, rhs = (
        np.reshape([np.einsum(spec, t_in.coeffs, t_out.coeffs) for t_out, t_in in terms],
                   (-1, size, m.dim(alpha)))
        for terms, spec in ((left, "upc,rca->pura"), (right, "rub,bpa->pura"))
    )
    return rhs, lhs


def coassociativity_reference(m, alpha: str, support, tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """verify_coassociativity's result, one triple at a time from the per-pair einsum stacks.

    Triples come from the brute-force enumeration, in label order; each is
    skipped when its stacks leave the fragment, else its residual is
    coassociativity_dense_reference of its stacks.
    """
    pairs = _canonical_pairs(m, support)
    bound = max(tol.abs, tol.rel)
    order = {label: k for k, label in enumerate(m.labels)}
    results, skipped, max_residual = [], [], 0.0
    triples = coassociativity_triples_reference(m, alpha, pairs)
    for triple in sorted(triples, key=lambda t: [order[x] for x in t]):
        try:
            rhs, lhs = coassociativity_stacks_reference(m, alpha, triple, tol)
        except (TruncationError, CGUnavailableError):
            reason = "contributing sum leaves the fragment"
            skipped.append({"triple": list(triple), "reason": reason})
            continue
        resid = coassociativity_dense_reference(rhs, lhs)
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


def modular_reference(m, alpha: str, support, tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """verify_modular's result with one einsum per tensor and leg, summed block by block.

    The first leg (id x h) fixes gamma and sums, per tensor, over the beta
    index with rho_beta weights, expecting rho_gamma**-2; the second (h x id)
    fixes beta and sums over the gamma index, expecting 1.
    """
    pairs = _canonical_pairs(m, support)
    lam_alpha = np.asarray(tuple(m.rho(alpha)))
    d_alpha = float(m.rho(alpha).trace())
    smallest = min([1.0] + [min(m.rho(label)) for label in {pair[1] for pair in pairs}])
    with np.errstate(over="ignore"):
        peak = d_alpha * lam_alpha.max() * np.float64(smallest) ** -2.0
    if not peak < math.inf:
        raise PreconditionError(f"modular check of {alpha!r} leaves the float range")
    pair_tensors = {pair: _tensors_into(m, *pair, alpha, tol) for pair in pairs}
    bound = max(tol.abs, tol.rel)

    def leg_blocks(fixed_left: bool, power: float, spec: str) -> list[dict]:
        k = 0 if fixed_left else 1
        by_fixed: dict = {}
        for pair in sorted(pairs, key=lambda p: (order[p[k]], order[p[1 - k]])):
            by_fixed.setdefault(pair[k], []).append(pair)
        blocks = []
        for label, group in by_fixed.items():
            n = m.dim(label)
            expected_diag = np.asarray(tuple(m.rho(label))) ** power
            acc = np.zeros((len(lam_alpha), len(lam_alpha), n, n), dtype=complex)
            for pair in group:
                lam_other = np.asarray(tuple(m.rho(pair[1 - k])))
                d_other = float(m.rho(pair[1 - k]).trace())
                for t in pair_tensors[pair]:
                    acc += d_other * np.einsum(spec, t.coeffs, lam_other, t.coeffs.conj())
            expected = np.multiply.outer(np.diag(d_alpha * lam_alpha), np.diag(expected_diag))
            diff = float(np.max(np.abs(acc - expected)))
            resid = diff / max(1.0, d_alpha * float(lam_alpha.max()) * float(expected_diag.max()))
            complete, missing = _certify_complete(m, alpha, label, fixed_left, set(pairs))
            blocks.append({"label": label, "residual": resid, "complete": complete,
                           "missing": missing, "pass": resid <= bound if complete else None})
        return blocks

    order = {label: k for k, label in enumerate(m.labels)}
    first = leg_blocks(False, -2.0, "bca,b,bCA->aAcC")
    second = leg_blocks(True, 0.0, "bca,c,BcA->aAbB")
    max_complete = max([0.0] + [b["residual"] for b in first + second if b["complete"]])
    return {
        "alpha": alpha,
        "support": [list(p) for p in pairs],
        "id_tensor_h": first,
        "h_tensor_id": second,
        "max_complete_residual": max_complete,
        "truncated": not all(b["complete"] for b in first + second),
        "pass": max_complete <= bound,
    }


def coassociativity_triples_reference(m, alpha: str, support) -> set[tuple[str, str, str]]:
    """Every triple (p, q, r) that coassociativity must enumerate, over all label triples.

    A triple is kept when, for some x, either x is in the row of the ingested
    pair (q, p) and (r, x) is a support pair whose row holds alpha, or x is in
    the row of the ingested pair (r, q) and (x, p) is such a pair.
    """
    holding = {(b, g) for b, g in support if alpha in m.fusion.components(b, g)}

    def row(pair):
        return m.fusion.components(*pair) if pair in m.fusion else {}

    return {
        (p, q, r)
        for p, q, r in itertools.product(m.labels, repeat=3)
        if any((r, x) in holding for x in row((q, p)))
        or any((x, p) in holding for x in row((r, q)))
    }


def drop_grouped_greedy(points, eigen_group: float) -> list[tuple[float, float]]:
    """points in order, less each one an earlier kept point groups with, one point at a time.

    Two points group when their logs lie within eigen_group of each other in
    both s and t.
    """
    logs = np.array([(math.log(s), math.log(t)) for s, t in points]).reshape(-1, 2)
    seen_logs = np.empty_like(logs)
    seen: list[tuple[float, float]] = []
    for point, log_point in zip(points, logs):
        if not (np.abs(seen_logs[: len(seen)] - log_point) <= eigen_group).all(axis=1).any():
            seen_logs[len(seen)] = log_point
            seen.append(point)
    return seen


def validate_model_reference(m, tol: Tolerance = DEFAULT_TOLERANCE) -> ValidationReport:
    """The structural validation as a walk over every irrep and every ingested pair.

    The per-pair invariants are checked on each pair in turn, then the
    mismatches of :func:`frobenius_walk_reference` are appended;
    ``cqg.rep_data.validate_model`` must return the same issues in order.
    """
    report = ValidationReport()

    for irr in m.irreps:
        residual = irr.rho.balance_residual()
        if not irr.rho.is_balanced(tol):
            report.add(
                "trace-balance",
                (irr.label,),
                residual,
                f"irrep {irr.label!r}: trace {irr.rho.trace():.12g} vs inverse trace "
                f"{irr.rho.inverse_trace():.12g}",
            )
        if irr.conjugate not in m:
            report.add(
                "conjugate-missing",
                (irr.label, irr.conjugate),
                None,
                f"irrep {irr.label!r}: conjugate {irr.conjugate!r} is not in the model",
            )
            continue
        conj = m.irrep(irr.conjugate)
        if conj.conjugate != irr.label:
            report.add(
                "conjugate-involution",
                (irr.label, conj.label),
                None,
                f"conjugate of {conj.label!r} is {conj.conjugate!r}, expected {irr.label!r}",
            )
        expected = irr.rho.conjugate()
        if len(conj.rho) != len(expected) or not all(
            tol.close(x, y) for x, y in zip(conj.rho, expected)
        ):
            worst = (
                max(abs(x - y) for x, y in zip(conj.rho, expected))
                if len(conj.rho) == len(expected)
                else float("inf")
            )
            report.add(
                "conjugate-spectrum",
                (irr.label, conj.label),
                worst,
                f"rho of {conj.label!r} is not the inverse multiset of rho of {irr.label!r}",
            )

    triv = m.irrep(m.trivial)
    if triv.dim != 1 or not tol.close(triv.rho[0], 1.0):
        report.add(
            "trivial-irrep",
            (m.trivial,),
            abs(triv.rho[0] - 1.0) if triv.dim == 1 else None,
            f"trivial irrep must have dim 1 and rho (1); got dim {triv.dim}, rho {tuple(triv.rho)}",
        )
    if triv.conjugate != triv.label:
        report.add(
            "trivial-irrep",
            (m.trivial,),
            None,
            f"trivial irrep must be self-conjugate; conjugate is {triv.conjugate!r}",
        )

    dims = {irr.label: irr.dim for irr in m.irreps}
    traces = {irr.label: irr.rho.trace() for irr in m.irreps}
    for left, right in m.fusion.pairs():
        if left not in m or right not in m:
            report.add(
                "fusion-labels",
                (left, right),
                None,
                f"fusion pair ({left!r}, {right!r}) references labels outside the model",
            )
            continue
        row = m.fusion.components(left, right)
        unknown = [label for label in row if label not in m]
        if unknown:
            report.add(
                "fusion-labels",
                (left, right, *unknown),
                None,
                f"fusion pair ({left!r}, {right!r}) has components outside the model: {unknown}",
            )
            continue
        dim_sum = sum(mult * dims[label] for label, mult in row.items())
        dim_prod = dims[left] * dims[right]
        if dim_sum != dim_prod:
            report.add(
                "dimension-count",
                (left, right),
                float(abs(dim_sum - dim_prod)),
                f"fusion {left!r} x {right!r}: component dims sum to {dim_sum}, product is {dim_prod}",
            )
        d1_sum = sum(mult * traces[label] for label, mult in row.items())
        d1_prod = traces[left] * traces[right]
        if not tol.close(d1_sum, d1_prod):
            report.add(
                "quantum-dimension-count",
                (left, right),
                abs(d1_sum - d1_prod),
                f"fusion {left!r} x {right!r}: quantum dims sum to {d1_sum:.12g}, "
                f"product is {d1_prod:.12g}",
            )
        for unit, other, product in (
            (left, right, f"trivial x {right!r}"),
            (right, left, f"{left!r} x trivial"),
        ):
            if unit == m.trivial and row != {other: 1}:
                report.add(
                    "trivial-unit",
                    (left, right),
                    None,
                    f"{product} must decompose as {other!r} alone; got {dict(row)}",
                )
        # multiplicity of the trivial component detects conjugate pairs:
        # it is 1 exactly when right = conjugate(left)
        triv_mult = row.get(m.trivial, 0)
        expected_triv = 1 if m.conjugate(left) == right else 0
        if triv_mult != expected_triv:
            report.add(
                "trivial-multiplicity",
                (left, right),
                float(abs(triv_mult - expected_triv)),
                f"fusion {left!r} x {right!r}: trivial component multiplicity {triv_mult}, "
                f"expected {expected_triv}",
            )

    for alpha, beta, gamma, m1, m2, message in frobenius_walk_reference(m):
        report.add("frobenius", (alpha, beta, gamma), float(abs(m1 - m2)), message)
    return report


def frobenius_walk_reference(m) -> list[tuple[str, str, str, int, int, str]]:
    """Multiplicity reciprocity on every triple whose needed pairs are all ingested.

    For each ingested pair (beta, gamma) whose labels and components are all
    in the model, and every label alpha, the multiplicity m1 of alpha in
    beta x gamma is compared with the two reciprocal readings,
    m(beta, alpha x conj(gamma)) and m(gamma, conj(beta) x alpha), whenever
    their pairs are ingested too.  Only nonzero fusion entries are visited:
    a mismatch with m1 > 0 is an entry of the row of beta x gamma, read
    against both reciprocals; one with m1 = 0 has a nonzero reciprocal, an
    entry of some row (left, right), whose triples are found through the
    preimage of conjugation (not conjugation itself, which need not be an
    involution on an invalid model).  Returns (alpha, beta, gamma, m1,
    reciprocal multiplicity, message) per mismatch, in ingested-pair order,
    then label declaration order, then the first reading before the second.
    """
    pairs = m.fusion.pairs()
    rows = {pair: m.fusion.components(*pair) for pair in pairs}
    order = {label: i for i, label in enumerate(m.labels)}
    checked = {
        pair: i
        for i, pair in enumerate(pairs)
        if pair[0] in order and pair[1] in order and all(label in order for label in rows[pair])
    }
    preimage: dict[str, list[str]] = {}
    for label in m.labels:
        preimage.setdefault(m.conjugate(label), []).append(label)
    found: list[tuple[tuple[int, int, int], tuple[str, str, str, int, int, str]]] = []

    def note(reading, alpha, beta, gamma, m1, label, left, right, m2) -> None:
        message = (
            f"m({alpha!r}, {beta!r} x {gamma!r}) = {m1} but "
            f"m({label!r}, {left!r} x {right!r}) = {m2}"
        )
        key = (checked[beta, gamma], order[alpha], reading)
        found.append((key, (alpha, beta, gamma, m1, m2, message)))

    # m1 > 0: each entry of a checked row against both of its reciprocal readings
    for beta, gamma in checked:
        beta_bar, gamma_bar = m.conjugate(beta), m.conjugate(gamma)
        for alpha, m1 in rows[beta, gamma].items():
            readings = ((0, beta, alpha, gamma_bar), (1, gamma, beta_bar, alpha))
            for reading, label, left, right in readings:
                other = rows.get((left, right))
                if other is not None and other.get(label, 0) != m1:
                    note(reading, alpha, beta, gamma, m1, label, left, right, other.get(label, 0))
    # m1 = 0: each entry m2 of a row (left, right) read as the reciprocal of the
    # triples it answers, (left, label, gamma) with conj(gamma) = right and
    # (right, beta, label) with conj(beta) = left
    for (left, right), row in rows.items():
        gammas = preimage.get(right, ()) if left in order else ()
        betas = preimage.get(left, ()) if right in order else ()
        for label, m2 in row.items():
            for gamma in gammas:
                if (label, gamma) in checked and left not in rows[label, gamma]:
                    note(0, left, label, gamma, 0, label, left, right, m2)
            for beta in betas:
                if (beta, label) in checked and right not in rows[beta, label]:
                    note(1, right, beta, label, 0, label, left, right, m2)
    found.sort(key=lambda item: item[0])
    return [mismatch for _, mismatch in found]


def _declaration_order(m, counts: dict[str, int]) -> Decomposition:
    return Decomposition(
        tuple((label, counts[label]) for label in m.labels if counts.get(label, 0) > 0)
    )


def tensor_power_reference(m, alpha: str, n: int) -> Decomposition:
    """The n-th tensor power of alpha folded from scratch, with no store.

    Each power is the convolution of the previous one, in declaration order,
    with alpha; an absent pair raises the fusion table's own TruncationError.
    """
    power = _declaration_order(m, {alpha: 1})
    for _ in range(n - 1):
        counts: dict[str, int] = {}
        for label, mult in power.components:
            for comp, sub in m.fusion.components(label, alpha).items():
                counts[comp] = counts.get(comp, 0) + mult * sub
        power = _declaration_order(m, counts)
    return power


def word_product_reference(m, letters: list[str], k: int) -> dict[str, int]:
    """The product of the first k letters cycled out, rebuilt from its first factor."""
    factors = [letters[i % len(letters)] for i in range(k)]
    current: dict[str, int] = {factors[0]: 1}
    for nxt in factors[1:]:
        merged: dict[str, int] = {}
        for label, mult in current.items():
            for comp, inner in m.fusion.components(label, nxt).items():
                merged[comp] = merged.get(comp, 0) + mult * inner
        current = merged
    return current


def corollary_6_5_reference(m, word, bound: int, budget: int) -> dict:
    """The corollary 6.5 search with every k-factor product rebuilt from scratch."""
    letters = [
        label if power > 0 else m.conjugate(label)
        for label, power in word
        for _ in range(abs(power))
    ]
    for k in range(2, budget + 1):
        product = word_product_reference(m, letters, k)
        for label in m.labels:
            if label in product and m.dim(label) > bound:
                dim = m.dim(label)
                return {"outcome": "witness", "witness": label, "dim": dim, "factors_used": k}
    return {"outcome": "exhausted", "witness": None, "budget": budget}


def supplement_rows_reference(raw) -> dict:
    """Load-time checks of a document's "cg" supplement as one walk in document order.

    Every entry's fields, then every value of every coefficient row, checked
    one at a time; returns {(beta, gamma): [(alpha, i, coeffs), ...]} or
    raises the library's ModelSchemaError with its message.
    """
    from collections.abc import Mapping

    from cqg.errors import ModelSchemaError

    if not isinstance(raw, list):
        raise ModelSchemaError("model field 'cg' must be a list")
    data: dict = {}
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise ModelSchemaError("each 'cg' entry must be an object")
        try:
            alpha = str(entry["alpha"])
            beta = str(entry["beta"])
            gamma = str(entry["gamma"])
            copy_index = entry["i"]
            whole = isinstance(copy_index, int) or (
                isinstance(copy_index, float) and copy_index.is_integer()
            )
            if isinstance(copy_index, bool) or not whole or copy_index < 1:
                raise ModelSchemaError("'cg' entry field 'i' must be an integer >= 1")
            copy_index = int(copy_index)
            coeffs = entry["coeffs"]
        except KeyError as exc:
            raise ModelSchemaError(f"'cg' entry missing field {exc}") from exc
        if not isinstance(coeffs, list):
            raise ModelSchemaError("'cg' coeffs must be a list of [a, b, c, re, im] rows")
        for rowv in coeffs:
            numbers = isinstance(rowv, list) and len(rowv) == 5 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in rowv
            )
            if not numbers:
                raise ModelSchemaError("'cg' coeffs rows must be [a, b, c, re, im] numbers")
            try:
                finite = all(math.isfinite(float(v)) for v in rowv)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ModelSchemaError("'cg' coeffs rows must hold finite numbers")
        data.setdefault((beta, gamma), []).append((alpha, copy_index, coeffs))
    return data


def supplement_document_reference(m, pairs) -> list[dict]:
    """The "cg" supplement built one nonzero coefficient at a time, rows in (b, c, a) order."""
    from cqg.intertwiners import _canonical_pairs, cg_set

    entries = []
    for beta, gamma in _canonical_pairs(m, pairs):
        for t in cg_set(m, beta, gamma):
            rows = []
            for b, c, a in zip(*np.nonzero(t.coeffs)):
                v = t.coeffs[b, c, a]
                rows.append([int(a), int(b), int(c), float(v.real), float(v.imag)])
            entries.append(
                {"alpha": t.alpha, "beta": beta, "gamma": gamma, "i": t.copy_index, "coeffs": rows}
            )
    return entries


def group_average_cg_reference(m, matrices, beta: str, gamma: str) -> list:
    """The group-average CG of (beta, gamma), one seed unit map at a time.

    For each target alpha, the seeds E_{i,a} run with a outer and i inner;
    each is averaged as (1/|G|) Σ_g (B_g ⊗ C_g) E A_g^* with 2|G| matmuls,
    and the first average above 1e-8 is kept, scaled to an isometry and
    phase-fixed as GroupAverageCGProvider does.
    """
    big = [np.kron(b, c) for b, c in zip(matrices[beta], matrices[gamma])]
    n_b, n_c = m.dim(beta), m.dim(gamma)
    row = m.fusion.components(beta, gamma)
    out = []
    for alpha in (label for label in m.labels if row.get(label, 0)):
        assert row[alpha] == 1, "multiplicity-free fusion only"
        reps_a = matrices[alpha]
        n_a = m.dim(alpha)
        averaged = None
        for col in range(n_a):
            for rowi in range(n_b * n_c):
                seed = np.zeros((n_b * n_c, n_a), dtype=complex)
                seed[rowi, col] = 1.0
                candidate = sum(
                    big[g] @ seed @ reps_a[g].conj().T for g in range(len(big))
                ) / len(big)
                if np.max(np.abs(candidate)) > 1e-8:
                    averaged = candidate
                    break
            if averaged is not None:
                break
        c = float(np.trace(averaged.conj().T @ averaged).real) / n_a
        isometry = averaged / math.sqrt(c)
        flat = isometry.reshape(-1)
        first = np.flatnonzero(np.abs(flat) > 1e-10)[0]
        isometry = isometry * (np.conj(flat[first]) / abs(flat[first]))
        out.append((alpha, 1, isometry.reshape(n_b, n_c, n_a)))
    return out
