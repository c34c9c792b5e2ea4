"""Batched kernels of the modular and coassociativity checks over the nonzero CG entries.

One call per alpha builds every sum of a check from the nonzero entries of
the CG tensors, each term's product by einsum's own scalar kernel and each
sum added from 0 in the contracted index's order, so the results equal one
einsum per tensor or tensor pair bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .rep_data import QGModel

if TYPE_CHECKING:
    from .intertwiners import CGTensor

# entries of the largest array one batched step forms: a Gram batch or a chunk of modular blocks
_BATCH_ENTRIES = 2**13


class _Nonzeros:
    """The nonzero entries of a model's CG tensors, in flat arrays shared by the batched checks.

    A tensor is numbered on its first read, and its entries V[b, c, a] != 0
    become rows of ``bca`` (their indices) and ``value``, in C order.  Along
    axis k of tensor T, the entries with index j are the ``count[g]`` rows
    listed from ``rows[start[g]]`` on, for group g = base[3 T + k] + j; so a
    sum over one axis finds all of its nonzero terms by gathers.
    """

    def __init__(self) -> None:
        self._ids: dict[CGTensor, int] = {}
        self.dims = np.zeros(0, dtype=np.int64)  # n_beta, n_gamma, n_alpha of each tensor in turn
        self.base = np.zeros(0, dtype=np.int64)
        self.bca = np.zeros((0, 3), dtype=np.int64)
        self.value = np.zeros(0, dtype=complex)
        self.rows = np.zeros(0, dtype=np.int64)
        self.start = np.zeros(0, dtype=np.int64)
        self.count = np.zeros(0, dtype=np.int64)

    def ids(self, tensors: Sequence[CGTensor]) -> np.ndarray:
        """The numbers of the tensors; the new ones join in one batch."""
        known = self._ids
        new = [t for t in dict.fromkeys(tensors) if t not in known]
        if new:
            self._add(new)
        return np.fromiter(map(known.__getitem__, tensors), dtype=np.int64, count=len(tensors))

    def _add(self, tensors: list[CGTensor]) -> None:
        dims = np.array([t.coeffs.shape for t in tensors], dtype=np.int64)
        flat = np.concatenate([t.coeffs.reshape(-1) for t in tensors])
        ends = np.cumsum(dims.prod(axis=1))
        nz = np.flatnonzero(flat)
        owner = np.searchsorted(ends, nz, side="right")
        local = nz - ends[owner] + dims[owner].prod(axis=1)
        n_c, n_a = dims[owner, 1], dims[owner, 2]
        bca = np.stack([local // (n_c * n_a), local // n_a % n_c, local % n_a], axis=1)
        # one group per (tensor, axis, index); a stable sort keeps C order inside each group
        dims = dims.reshape(-1)
        base = np.cumsum(dims) - dims + len(self.count)
        groups = (base.reshape(-1, 3)[owner] + bca).T.reshape(-1)
        count = np.bincount(groups - len(self.count), minlength=int(dims.sum()))
        self.start = np.concatenate([self.start, np.cumsum(count) - count + len(self.rows)])
        rows = np.argsort(groups, kind="stable") % len(nz) + len(self.value)
        self.rows = np.concatenate([self.rows, rows])
        self.count = np.concatenate([self.count, count])
        self.base = np.concatenate([self.base, base])
        self.dims = np.concatenate([self.dims, dims])
        self.bca = np.concatenate([self.bca, bca])
        self.value = np.concatenate([self.value, flat[nz]])
        self._ids.update(zip(tensors, range(len(self._ids), len(self._ids) + len(tensors))))

    def _groups(self, left: np.ndarray, left_axis, right: np.ndarray, right_axis) -> tuple:
        """Each v and index j along the axes: v, j and the group of each of the two tensors."""
        at_left, at_right = 3 * left + left_axis, 3 * right + right_axis
        v, j = _ragged(self.dims[at_left])
        return v, j, self.base[at_left][v] + j, self.base[at_right][v] + j

    def pair_counts(self, left: np.ndarray, left_axis, right: np.ndarray, right_axis) -> np.ndarray:
        """How many pairs join forms for each v."""
        v, _, g_left, g_right = self._groups(left, left_axis, right, right_axis)
        return np.bincount(v, self.count[g_left] * self.count[g_right], len(left)).astype(np.int64)

    def join(self, left: np.ndarray, left_axis, right: np.ndarray, right_axis) -> tuple:
        """Each pair of nonzero entries of tensors left[v], right[v] sharing index j on the axes.

        An axis is one number for all tensors or one per tensor.  Returns v,
        j and the two rows of every pair: v ascending, then j ascending.
        """
        v, j, g_left, g_right = self._groups(left, left_axis, right, right_axis)
        n_right = self.count[g_right]
        pair, i = _ragged(self.count[g_left] * n_right)
        n_right = n_right[pair]
        row_left = self.rows[self.start[g_left][pair] + i // n_right]
        return v[pair], j[pair], row_left, self.rows[self.start[g_right][pair] + i % n_right]


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of the given lengths: the run of every item and its place in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _chunks(sizes: Sequence[int], limit: int):
    """Consecutive (lo, hi) runs of items whose sizes add up to at most limit, or of one item."""
    lo, total = 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > limit:
            yield lo, i
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        yield lo, len(sizes)


def _modular_residuals(m: QGModel, lam_alpha, d_alpha: float, blocks, terms) -> list[float]:
    """max |block - expected| / scale of each (fixed axis k, label) block of the two legs.

    A block is the (a, a', fixed, fixed') array sum, over its tensors t in
    order, of d_other times sum_j t[.., j, ..] rho_other[j] conj(t[.., j, ..])
    with j the index of the other factor; it is expected to be
    diag(d_alpha rho_alpha) x diag(rho_fixed**power), power -2 when gamma is
    fixed and 0 when beta is.  Every sum and product is the per-tensor
    einsum's, term for term: each sum over j runs from 0 upwards, skipping
    only exact-zero terms, and each product is einsum's own kernel.
    """
    if not blocks:
        return []
    store = m._memo(("cg-nonzeros",), _Nonzeros)
    spectra = m._spectra()
    n_a = len(lam_alpha)
    fixed = np.array([k for k, _ in blocks], dtype=np.int64)
    n_f = np.array([m.dim(label) for _, label in blocks], dtype=np.int64)
    # rho_fixed**power on the diagonal of each block: power -2 when gamma is fixed, 0 when beta is
    diagonal = np.concatenate([spectra.rho[label] ** (-2.0 * k) for k, label in blocks])
    diagonal_first = np.cumsum(n_f) - n_f
    block_size = n_a * n_a * n_f * n_f
    ids = store.ids([t for t, _, _ in terms])
    block_of = np.array([b for _, b, _ in terms], dtype=np.int64)
    first_lam = np.array([spectra.first[o] for _, _, o in terms], dtype=np.int64)
    d_other = np.array([spectra.d1[o] for _, _, o in terms])
    out = []
    for lo, hi in _chunks(block_size.tolist(), _BATCH_ENTRIES):
        tensors = slice(*np.searchsorted(block_of, [lo, hi]).tolist())
        t_block = block_of[tensors] - lo
        k = fixed[lo:hi][t_block]
        t, j, row_1, row_2 = store.join(ids[tensors], 1 - k, ids[tensors], 1 - k)
        lam = spectra.values[first_lam[tensors][t] + j]
        products = np.einsum("i,i,i->i", store.value[row_1], lam, store.value[row_2].conj())
        nf, k = n_f[lo:hi][t_block][t], k[t]
        place = ((store.bca[row_1, 2] * n_a + store.bca[row_2, 2]) * nf + store.bca[row_1, k]) * nf
        place += store.bca[row_2, k]
        # one partial block per tensor, then each block summed over its tensors in order
        size = block_size[lo:hi]
        tensor_first = np.cumsum(size[t_block]) - size[t_block]
        keys, where = np.unique(tensor_first[t] + place, return_inverse=True)
        sums = np.zeros(len(keys), dtype=complex)
        np.add.at(sums, where, products)
        t = np.searchsorted(tensor_first, keys, side="right") - 1
        block_first = np.cumsum(size) - size
        acc = np.zeros(int(size.sum()), dtype=complex)
        np.add.at(acc, block_first[t_block[t]] + keys - tensor_first[t], d_other[tensors][t] * sums)
        # expected: d_alpha lambda_a times rho_fixed**power at each (a, a, f, f)
        block, f = _ragged(n_f[lo:hi])
        nf = n_f[lo:hi][block]
        diag = diagonal[diagonal_first[lo] :][: len(f)]
        a = np.arange(n_a)[:, None]
        at = block_first[block] + (a * (n_a + 1) * nf + f) * nf + f
        acc[at] -= (d_alpha * lam_alpha)[a] * diag
        top = np.maximum.reduceat(diag, diagonal_first[lo:hi] - diagonal_first[lo])
        diffs = np.maximum.reduceat(np.abs(acc), block_first)
        out += (diffs / np.maximum(d_alpha * float(lam_alpha.max()) * top, 1.0)).tolist()
    return out


def _expansion_stacks(m: QGModel, n_a: int, dims, vectors):
    """Each triple's two expansion stacks, as batches (triples, rhs, lhs) of equal padded shape.

    ``vectors`` lists (t_in, t_out, side, row, triple); ``dims`` gives each
    triple's (n_p, n_q, n_r).  Side 0 is the first-leg expansion, whose
    vector is sum_x t_in[u, p, x] t_out[r, x, a], side 1 the second-leg one,
    sum_x t_in[r, u, x] t_out[x, p, a]; ``row`` is its place in its side's
    stack.  Each entry is built from the nonzero CG entries alone: its sum
    runs from 0 up the contracted index, as einsum's does, and each product
    is einsum's kernel, so the stacks are the per-tensor-pair einsums' bit
    for bit.  Only the columns where some term of the triple lands are kept,
    and stacks are padded with zeros: every other entry is an exact 0, which
    adds exact zeros to both Gram matrices.  Triples are built in runs of at
    most 4 _BATCH_ENTRIES terms, or of one triple.
    """
    if not vectors:
        return
    store = m._memo(("cg-nonzeros",), _Nonzeros)
    t_in, t_out, side, row, owner = zip(*vectors)
    side, row, owner = (np.array(v, dtype=np.int64) for v in (side, row, owner))
    t_in, t_out = store.ids(t_in), store.ids(t_out)
    dims = np.array(dims, dtype=np.int64).reshape(-1, 3)
    terms = np.bincount(owner, store.pair_counts(t_in, 2, t_out, 1 - side), len(dims))
    for lo, hi in _chunks(terms.tolist(), 4 * _BATCH_ENTRIES):
        v = slice(*np.searchsorted(owner, [lo, hi]).tolist())
        run = store, n_a, dims[lo:hi], t_in[v], t_out[v], side[v], row[v], owner[v] - lo
        for members, rhs, lhs in _stacks(*run):
            yield members + lo, rhs, lhs


def _stacks(store: _Nonzeros, n_a: int, dims, t_in, t_out, side, row, owner) -> list:
    """The batches of _expansion_stacks for one run of triples, numbered from 0."""
    vec, _, row_in, row_out = store.join(t_in, 2, t_out, 1 - side)
    products = np.einsum("i,i->i", store.value[row_in], store.value[row_out])
    # entry (p, u, r, a) is column ((p n_q + u) n_r + r) n_a + a: a side 0 term takes u, p from
    # t_in's axes 0, 1 and r from t_out's axis 0, a side 1 term r, u from t_in, p from t_out
    stride = np.stack([dims[:, 1] * dims[:, 2], dims[:, 2], np.ones_like(dims[:, 2])], axis=1) * n_a
    stride = stride[:, [1, 0, 2, 2, 1, 0]].reshape(-1, 2, 3)[owner, side]
    span = dims.prod(axis=1) * n_a
    first = np.cumsum(span) - span
    key = store.bca[row_in, 0] * stride[vec, 0] + store.bca[row_in, 1] * stride[vec, 1]
    key += store.bca[row_out, side[vec]] * stride[vec, 2] + store.bca[row_out, 2]
    key += first[owner[vec]]
    # each triple's live columns, numbered from 0
    keys, where = np.unique(key, return_inverse=True)
    live = np.bincount(np.searchsorted(first, keys, side="right") - 1, minlength=len(dims))
    col = (np.arange(len(keys)) - np.repeat(np.cumsum(live) - live, live))[where]
    # a batch holds the triples whose live columns pad to the same 2^n or 3 * 2^(n - 2)
    power = 1 << np.frexp(live - 1)[1].astype(np.int64)
    width = np.where(live <= 3 * power >> 2, 3 * power >> 2, power)
    widths, batch = np.unique(width, return_inverse=True)
    size = np.bincount(batch)
    by_batch = np.argsort(batch, kind="stable")
    batch_first = np.cumsum(size) - size
    place = np.empty_like(by_batch)
    place[by_batch] = np.arange(len(dims)) - np.repeat(batch_first, size)
    stacks = np.bincount(2 * owner + side, minlength=2 * len(dims)).reshape(-1, 2)
    height = np.maximum.reduceat(stacks[by_batch], batch_first)  # vectors per side, padded
    extent = size[:, None] * height * widths[:, None]
    start = (np.cumsum(extent) - extent.reshape(-1)).reshape(-1, 2)
    b = batch[owner]
    at = start[b, side] + (place[owner] * height[b, side] + row) * widths[b]
    entries = np.zeros(int(extent.sum()), dtype=complex)
    np.add.at(entries, at[vec] + col, products)
    return [
        (by_batch[f : f + n], entries[s_r : s_r + n * k_r * w].reshape(n, k_r, w),
         entries[s_l : s_l + n * k_l * w].reshape(n, k_l, w))
        for f, n, w, (k_l, k_r), (s_l, s_r) in zip(
            batch_first.tolist(), size.tolist(), widths.tolist(), height.tolist(), start.tolist()
        )
    ]


@np.errstate(invalid="ignore")  # a nan or inf Gram entry is reported as residual inf
def _gram_residuals(rhs: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    """max |G(rhs) - G(lhs)| over max(1, max |G(rhs)|) for each triple of a batch of stacks.

    rhs[t] and lhs[t] are triple t's two expansion stacks (vector, column...),
    zero-padded to common shapes, which adds only exact zeros to each sum.
    The Gram matrix G[x, y] = sum_k v[k, x] conj(v[k, y]) over the flattened
    columns x = (entry, a) holds the expansion of every matrix unit e_{a, a'}
    at once.  No einsum output exceeds _BATCH_ENTRIES entries unless a single
    Gram row does.  A non-finite Gram entry gives residual inf.
    """
    n = math.prod(rhs.shape[2:])
    rhs, lhs = rhs.reshape(*rhs.shape[:2], n), lhs.reshape(*lhs.shape[:2], n)
    step = max(1, _BATCH_ENTRIES // max(n * n, 1))
    slab = max(1, _BATCH_ENTRIES // max(step * n, 1))
    top, gap = np.zeros(len(rhs)), np.zeros(len(rhs))
    for lo in range(0, len(rhs), step):
        r, l, hi = rhs[lo : lo + step], lhs[lo : lo + step], lo + step
        bar_r, bar_l = r.conj(), l.conj()
        for x in range(0, n, slab):
            gram = np.einsum("tkx,tky->txy", r[:, :, x : x + slab], bar_r)
            top[lo:hi] = np.maximum(top[lo:hi], np.abs(gram).max(axis=(1, 2)))
            gram -= np.einsum("tkx,tky->txy", l[:, :, x : x + slab], bar_l)
            gap[lo:hi] = np.maximum(gap[lo:hi], np.abs(gram).max(axis=(1, 2)))
    return np.where(np.isfinite(top) & np.isfinite(gap), gap / np.maximum(top, 1.0), np.inf)
