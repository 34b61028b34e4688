"""Contrastive loss with entry-wise temperatures, and its exact gradients.

Two differentiation modes exist. DETACHED treats the temperatures as
constants (the trained objective: temperatures are computed from similarity
values excluded from the gradient tape). COUPLED differentiates through the
temperature function as well, replacing 1/tau by (tau - s * dtau/ds) / tau^2
per entry; it exists for analysis of the profile-design argument, not for
training. Both modes share the forward value.

The loss is the mean (not sum) over the 2N anchor rows of the cross-entropy
against the positive column, so learning rates are batch-size independent.

Training and finite-difference checks hand the loss the 2N x D stack that
`encoder.encode` returns, view a first; eval hands it a checked
`EmbeddingBatch`. Both go to one function. It walks row chunks of the NxN
products a.b^T and a packed within-view matrix (a.a^T above the diagonal,
b.b^T below it), so the profile sees each unordered pair once and no 2Nx2N
matrix is formed. Every logit s / tau is shifted by the fixed constant
1/tau_min, which bounds its magnitude, so one exp per pair serves both of the
pair's anchor rows and no running maximum is kept. Without a gradient a chunk
holds two tiles: the cross tile is exponentiated and reduced to its row and
column sums first, then its memory takes the packed tile, and the packed
tile's 1/tau takes e_b. The 2Nx(2N-1)
`LogitsBlock` path (`forward_from_block`, `grad_wrt_similarity`,
`chain_to_embeddings`, laid out by `geometry.block_index_maps`) is the
reference the function is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BatchTooSmallError, NumericError, ValidationError
from .geometry import EmbeddingBatch, LogitsBlock, block_index_maps, cross_tile
from .numeric import row_chunks, row_log_sum_exp, row_sums, stable_row_softmax
from .temperature import TemperatureProfile


class LossMode(Enum):
    DETACHED = "detached"
    COUPLED = "coupled"


@dataclass
class GradientBundle:
    """Loss value and embedding gradient of one batch."""

    loss: float
    dL_dz: np.ndarray  # 2N x D displacement vectors (view-a rows first)


def _packed_tile(rows, view_a, view_b, out=None):
    """Rows `rows` of a.a^T right of the diagonal and b.b^T left of it and on it, clamped.

    Both products run over all N columns. BLAS computes a product's edge
    blocks with other kernels, so an entry of a product over fewer columns can
    differ in its last bit from the same entry of the full one.
    """
    r0, r1 = rows.start, rows.stop
    tile = np.matmul(view_a[rows], view_a.T, out=out)
    within_b = view_b[rows] @ view_b.T
    tile[:, :r0] = within_b[:, :r0]
    np.copyto(tile[:, r0:r1], within_b[:, r0:r1], where=np.tri(r1 - r0, dtype=bool))
    return np.clip(tile, -1.0, 1.0, out=tile)


def _fold_chunk(rows, view_a, view_b, profile, frozen_at, shift, sums, positive, mode=None):
    """Add anchor rows `rows` of both NxN pair matrices into the per-row sums.

    `sums` holds, per anchor row of view a and then of view b, the sum of
    exp(logit - shift) over its 2N - 1 partners. A cross tile entry (i, j)
    belongs to a-row i and b-row j, a packed entry above the diagonal to
    a-rows i and j, one below it to b-rows i and j; so each tile adds its row
    and its column sums. Returns the tiles dL/dz is chained from: with a
    `mode`, the cross and packed factors of dL/ds; then e_cross, e_a and e_b.
    """
    r0, r1 = rows.start, rows.stop
    # two tiles without a `mode`: the similarities, exponentiated in place, and
    # their 1/tau; the packed tile takes over the cross tile once its sums are
    # out, and e_b takes over the packed tile's 1/tau
    factors = []
    for build in (cross_tile, _packed_tile):
        s = build(rows, view_a, view_b, out=e_cross if mode is None and build is _packed_tile else None)
        inv_tau = profile.tau_in_place(s.copy() if frozen_at is None else build(rows, *frozen_at))
        np.divide(1.0, inv_tau, out=inv_tau)
        if build is cross_tile:
            positive[rows] = np.diagonal(s[:, rows]) * np.diagonal(inv_tau[:, rows])
        if mode is LossMode.COUPLED:
            # (tau - s dtau) / tau^2 as (1 - s dtau / tau) / tau, before the exps
            # overwrite s: a zero dtau leaves DETACHED's 1/tau bit for bit
            factors.append((1.0 - s * profile.dtau_ds(s) * inv_tau) * inv_tau)
        elif mode is LossMode.DETACHED:
            factors.append(inv_tau)
        s *= inv_tau
        s -= shift
        np.exp(s, out=s)
        if build is cross_tile:
            e_cross, inv_tau = s, None
            cross_rows, cross_columns = row_sums(e_cross), e_cross.sum(axis=0)
    # e_b keeps what lies left of the diagonal, e_a what lies right of it; every
    # exp is finite and positive, so the zeros have the bits of a 0/1 mask's
    # product. DETACHED keeps 1/tau as its factor, so e_b needs a tile of its own
    e_a, e_b = s, (np.empty_like(s) if mode is LossMode.DETACHED else inv_tau)
    e_b[:, :r0] = e_a[:, :r0]
    e_b[:, r0:] = 0.0
    np.copyto(e_b[:, r0:r1], e_a[:, r0:r1], where=np.tri(r1 - r0, k=-1, dtype=bool))
    e_a[:, :r0] = 0.0
    np.copyto(e_a[:, r0:r1], 0.0, where=np.tri(r1 - r0, dtype=bool))
    sums[0, rows] += cross_rows + row_sums(e_a)
    sums[0] += e_a.sum(axis=0)
    sums[1] += cross_columns + e_b.sum(axis=0)
    sums[1, rows] += row_sums(e_b)
    return (*factors, e_cross, e_a, e_b)


def _infonce(
    view_a: np.ndarray,
    view_b: np.ndarray,
    profile: TemperatureProfile,
    mode: LossMode | None = None,
    frozen_at: tuple[np.ndarray, np.ndarray] | None = None,
) -> GradientBundle | float:
    """Loss, and with a `mode` its gradient dL/dz, of one two-view batch.

    Every logit is shifted by 1/tau_min, a bound on |s / tau(s)|, so each
    exp lies in [exp(-2/tau_min), 1], a normal double for any valid profile,
    and serves both anchor rows of its pair. The loss walks row chunks; with
    a `mode` the batch is one chunk, and dL/dz is chained from its NxN
    blocks. With `frozen_at`, two views of the same shape, every pair's tau
    is taken at its similarity there.
    """
    n = view_a.shape[0]
    if n < 2:
        raise BatchTooSmallError(
            f"need at least 2 samples (got {n}); a single-sample batch has no negatives"
        )
    shift = 1.0 / profile.tau_min
    sums = np.zeros((2, n))
    positive = np.empty(n)
    args = view_a, view_b, profile, frozen_at, shift, sums, positive
    if mode is None:
        for start, stop in row_chunks(n, n):
            _fold_chunk(slice(start, stop), *args)
    else:
        factor_cross, factor_packed, e_cross, e_a, e_b = _fold_chunk(slice(0, n), *args, mode)
    lse = shift + np.log(sums)
    if not np.all(np.isfinite(lse)):
        raise NumericError("similarity logits contain non-finite entries")
    loss = float(np.mean(lse - positive))
    if mode is None:
        return loss

    # dL/ds = factor * d(lse - positive)/d(logit); DETACHED's factor is 1/tau
    inv_a, inv_b = 1.0 / sums
    # a pair's logit enters the log-sum-exp of both its anchor rows
    g_cross = factor_cross * e_cross * (inv_a[:, None] + inv_b[None, :])
    g_cross[np.diag_indices(n)] -= 2.0 * np.diagonal(factor_cross)
    g_a = factor_packed * e_a * (inv_a[:, None] + inv_a[None, :])
    g_b = factor_packed * e_b * (inv_b[:, None] + inv_b[None, :])
    g_a += g_a.T
    g_b += g_b.T
    dL_dz = np.vstack([g_a @ view_a + g_cross @ view_b, g_cross.T @ view_a + g_b @ view_b])
    dL_dz /= 2 * n
    return GradientBundle(loss=loss, dL_dz=dL_dz)


def forward_from_block(block: LogitsBlock) -> float:
    """Mean cross-entropy of the positive column over all 2N rows."""
    return float(np.mean(row_log_sum_exp(block.scaled) - block.positive_scaled()))


def forward(batch: EmbeddingBatch, profile: TemperatureProfile) -> float:
    """Loss of a batch under a temperature profile, streamed over row chunks."""
    return _infonce(batch.view_a, batch.view_b, profile)


def grad_wrt_similarity(block: LogitsBlock, mode: LossMode = LossMode.DETACHED) -> np.ndarray:
    """Gradient of the mean loss w.r.t. every similarity entry.

    DETACHED: -(1 - p) / tau / (2N) at the positive column and
    p / tau / (2N) at negative entries. COUPLED multiplies the softmax
    residual by (tau - s * dtau/ds) / tau^2 instead of 1/tau.
    """
    residual = stable_row_softmax(block.scaled)
    rows = np.arange(block.num_rows)
    residual[rows, block.positive_column] -= 1.0
    if mode is LossMode.DETACHED:
        factor = 1.0 / block.temperatures
    else:
        dtau = block.profile.dtau_ds(block.s)
        # (tau - s dtau) / tau^2, factored so a zero dtau reproduces the
        # detached 1/tau bit for bit
        factor = (1.0 - block.s * dtau / block.temperatures) / block.temperatures
    return residual * factor / block.num_rows


def chain_to_embeddings(batch: EmbeddingBatch, dL_ds: np.ndarray) -> np.ndarray:
    """Chain a similarity-block gradient into the 2N embedding rows.

    Every block entry is a dot product of two embeddings; each entry
    contributes its gradient times the partner vector to both participants.
    The positive-pair term enters with weight -(1 - p)/tau and every negative
    pair enters once per anchor ordering, which is what gives the
    p(anchor->other) + p(other->anchor) structure of the displacement vector.
    `block_index_maps` holds each ordered pair once, so assignment scatters it.
    """
    g = np.zeros((2 * batch.n, 2 * batch.n))
    g[block_index_maps(batch.n)] = dL_ds
    return (g + g.T) @ batch.stacked()


def _split_views(z) -> tuple[np.ndarray, np.ndarray]:
    """Views a and b of a 2N x D stack, view a first; NumericError if any entry is not finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] % 2 != 0:
        raise ValidationError(f"z must stack the two views as a 2N x D matrix, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise NumericError("z contains non-finite entries")
    n = z.shape[0] // 2
    return z[:n], z[n:]


def grad_wrt_embeddings(
    z: np.ndarray,
    profile: TemperatureProfile,
    mode: LossMode = LossMode.DETACHED,
) -> GradientBundle:
    """Loss and dL/dz of one batch, given as its 2N x D stack (view a first).

    The embeddings are treated as free points of the similarity map
    s_ij = z_i . z_j; the normalization Jacobian belongs to the encoder.
    Rows are not checked for unit norm: `encoder.encode` made them so.
    """
    return _infonce(*_split_views(z), profile, mode)


def loss_on_embeddings(
    z: np.ndarray,
    profile: TemperatureProfile,
    frozen_at: np.ndarray | None = None,
) -> float:
    """Loss as a scalar field over a 2N x D stack of embeddings (view a first).

    Intended for finite-difference checks, so rows need not be unit norm.
    With `frozen_at`, a stack of the same shape, every pair's temperature
    is held at its value at `frozen_at` (differentiating this field
    reproduces the DETACHED gradient there); without, temperatures are
    recomputed from the perturbed similarities (COUPLED).
    """
    if frozen_at is not None and np.shape(frozen_at) != np.shape(z):
        raise ValidationError(f"frozen_at must have z's shape {np.shape(z)}, got {np.shape(frozen_at)}")
    frozen_views = None if frozen_at is None else _split_views(frozen_at)
    return _infonce(*_split_views(z), profile, frozen_at=frozen_views)
