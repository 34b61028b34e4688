"""Contrastive loss with entry-wise temperatures, and its exact gradients.

Two differentiation modes exist. DETACHED treats the temperatures as
constants (the trained objective: temperatures are computed from similarity
values excluded from the gradient tape). COUPLED differentiates through the
temperature function as well, replacing 1/tau by (tau - s * dtau/ds) / tau^2
per entry; it exists for analysis of the profile-design argument, not for
training. Both modes share the forward value.

The loss is the mean (not sum) over the 2N anchor rows of the cross-entropy
against the positive column, so learning rates are batch-size independent.

Training, eval and finite-difference checks share one function. It walks
row chunks of the NxN products a.b^T and a packed within-view matrix (a.a^T
above the diagonal, b.b^T below it), so the profile sees each unordered pair
once and no 2Nx2N matrix is formed. Every logit s / tau is shifted by the
fixed constant 1/tau_min, which bounds its magnitude, so one exp per pair
serves both of the pair's anchor rows and no running maximum is kept. The
2Nx(2N-1) `LogitsBlock` path (`forward_from_block`, `grad_wrt_similarity`,
`chain_to_embeddings`) is the diagnostic layout and the reference the
function is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BatchTooSmallError, NumericError, ValidationError
from .geometry import EmbeddingBatch, LogitsBlock
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


def _shifted_exp(s: np.ndarray, inv_tau: np.ndarray, shift: float) -> np.ndarray:
    """exp(s / tau - shift), in one new array."""
    e = s * inv_tau
    e -= shift
    return np.exp(e, out=e)


def _fold_chunk(rows, view_a, view_b, profile, temperatures, shift, sums, positive):
    """Add anchor rows `rows` of both NxN pair matrices into the per-row sums.

    `sums` holds, per anchor row of view a and then of view b, the sum of
    exp(logit - shift) over its 2N - 1 partners. A cross tile entry (i, j)
    belongs to a-row i and b-row j, a packed entry above the diagonal to
    a-rows i and j, one below it to b-rows i and j; so each tile adds its row
    and its column sums. Returns the tiles; a caller that drops them frees
    them before the next chunk.
    """
    n = view_a.shape[0]
    anchors, columns = np.arange(rows.start, rows.stop)[:, None], np.arange(n)
    upper = columns > anchors
    # clamping, packing and 1/tau work in place: a fresh tile costs page
    # faults whenever the heap was trimmed after the previous chunk
    cross = view_a[rows] @ view_b.T
    packed = view_a[rows] @ view_a.T
    np.copyto(packed, view_b[rows] @ view_b.T, where=~upper)
    for s in (cross, packed):
        np.clip(s, -1.0, 1.0, out=s)
    if temperatures is None:
        taus = profile.tau(cross), profile.tau(packed)
    else:
        taus = temperatures[0][rows].copy(), temperatures[1][rows].copy()
    inv_cross, inv_packed = (np.divide(1.0, tau, out=tau) for tau in taus)
    positive[rows] = np.diagonal(cross[:, rows]) * np.diagonal(inv_cross[:, rows])
    e_cross = _shifted_exp(cross, inv_cross, shift)
    e_a = _shifted_exp(packed, inv_packed, shift)
    e_b = np.where(columns < anchors, e_a, 0.0)
    e_a *= upper
    sums[0, rows] += row_sums(e_cross) + row_sums(e_a)
    sums[0] += e_a.sum(axis=0)
    sums[1] += e_cross.sum(axis=0) + e_b.sum(axis=0)
    sums[1, rows] += row_sums(e_b)
    return cross, packed, inv_cross, inv_packed, e_cross, e_a, e_b


def _infonce(
    view_a: np.ndarray,
    view_b: np.ndarray,
    profile: TemperatureProfile,
    mode: LossMode | None = None,
    temperatures: tuple[np.ndarray, np.ndarray] | None = None,
) -> GradientBundle | float:
    """Loss, and with a `mode` its gradient dL/dz, of one two-view batch.

    Every logit is shifted by 1/tau_min, a bound on |s / tau(s)|, so each
    exp lies in [exp(-2/tau_min), 1], a normal double for any valid profile,
    and serves both anchor rows of its pair. The loss walks row chunks; with
    a `mode` the batch is one chunk, and dL/dz is chained from its NxN
    blocks. `temperatures` replaces the profile by fixed (cross, packed)
    values.
    """
    n = view_a.shape[0]
    if n < 2:
        raise BatchTooSmallError(
            f"need at least 2 samples (got {n}); a single-sample batch has no negatives"
        )
    shift = 1.0 / profile.tau_min
    sums = np.zeros((2, n))
    positive = np.empty(n)
    args = view_a, view_b, profile, temperatures, shift, sums, positive
    if mode is None:
        for start, stop in row_chunks(n, n):
            _fold_chunk(slice(start, stop), *args)
    else:
        cross, packed, inv_cross, inv_packed, e_cross, e_a, e_b = _fold_chunk(slice(0, n), *args)
    lse = shift + np.log(sums)
    if not np.all(np.isfinite(lse)):
        raise NumericError("similarity logits contain non-finite entries")
    loss = float(np.mean(lse - positive))
    if mode is None:
        return loss

    # dL/ds = factor * d(lse - positive)/d(logit); DETACHED's factor is 1/tau
    factor_cross, factor_packed = inv_cross, inv_packed
    if mode is LossMode.COUPLED:
        # (tau - s dtau) / tau^2 as (1 - s dtau / tau) / tau: a zero dtau
        # leaves DETACHED's 1/tau bit for bit
        factor_cross = (1.0 - cross * profile.dtau_ds(cross) * inv_cross) * inv_cross
        factor_packed = (1.0 - packed * profile.dtau_ds(packed) * inv_packed) * inv_packed
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


def _scatter_offdiag(g: np.ndarray) -> np.ndarray:
    """Place an Nx(N-1) gradient back onto the off-diagonal of an NxN matrix."""
    n = g.shape[0]
    full = np.zeros((n, n))
    full[~np.eye(n, dtype=bool)] = g.ravel()
    return full


def chain_to_embeddings(batch: EmbeddingBatch, dL_ds: np.ndarray) -> np.ndarray:
    """Chain a similarity-block gradient into the 2N embedding rows.

    Every block entry is a dot product of two embeddings; each entry
    contributes its gradient times the partner vector to both participants.
    The positive-pair term enters with weight -(1 - p)/tau and every negative
    pair enters once per anchor ordering, which is what gives the
    p(anchor->other) + p(other->anchor) structure of the displacement vector.
    """
    n = batch.n
    va, vb = batch.view_a, batch.view_b
    g12 = dL_ds[:n, :n]
    g21 = dL_ds[n:, :n]
    g11 = _scatter_offdiag(dL_ds[:n, n:])
    g22 = _scatter_offdiag(dL_ds[n:, n:])
    dz_a = g12 @ vb + (g11 + g11.T) @ va + g21.T @ vb
    dz_b = g21 @ va + (g22 + g22.T) @ vb + g12.T @ va
    return np.vstack([dz_a, dz_b])


def grad_wrt_embeddings(
    batch: EmbeddingBatch,
    profile: TemperatureProfile,
    mode: LossMode = LossMode.DETACHED,
) -> GradientBundle:
    """Loss and dL/dz of one batch.

    The embeddings are treated as free points of the similarity map
    s_ij = z_i . z_j; the normalization Jacobian belongs to the encoder.
    """
    return _infonce(batch.view_a, batch.view_b, profile, mode)


def loss_on_embeddings(
    z: np.ndarray,
    profile: TemperatureProfile,
    frozen_temperatures: np.ndarray | None = None,
) -> float:
    """Loss as a scalar field over a flat stack of 2N embedding rows.

    Intended for finite-difference checks, so rows need not be unit norm.
    With `frozen_temperatures` (2Nx(2N-1), as `LogitsBlock.temperatures`)
    the entry-wise temperatures are held fixed (differentiating this field
    reproduces the DETACHED gradient); without, temperatures are recomputed
    from the perturbed similarities (COUPLED). Frozen values are read once
    per unordered pair: rows 0..N-1 for cross-view pairs and for view a,
    rows N..2N-1 for view b.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] % 2 != 0:
        raise ValidationError("z must stack the two views as a 2N x D matrix")
    n = z.shape[0] // 2
    temperatures = None
    if frozen_temperatures is not None:
        frozen = np.asarray(frozen_temperatures, dtype=np.float64)
        if frozen.shape != (2 * n, 2 * n - 1):
            raise ValidationError(
                f"frozen temperatures must be {2 * n}x{2 * n - 1}, got {frozen.shape}"
            )
        # one value per unordered pair: a's upper and b's lower within-view
        # triangle, packed as `_infonce` packs them; the unused diagonal gets
        # 1.0 only to keep 1/tau finite
        upper = ~np.tri(n, dtype=bool)
        within = np.where(upper, _scatter_offdiag(frozen[:n, n:]), _scatter_offdiag(frozen[n:, n:]))
        np.fill_diagonal(within, 1.0)
        temperatures = frozen[:n, :n], within
    return _infonce(z[:n], z[n:], profile, temperatures=temperatures)
