"""Contrastive loss with entry-wise temperatures, and its exact gradients.

Two differentiation modes exist. DETACHED treats the temperatures as
constants (the trained objective: temperatures are computed from similarity
values excluded from the gradient tape). COUPLED differentiates through the
temperature function as well, replacing 1/tau by (tau - s * dtau/ds) / tau^2
per entry; it exists for analysis of the profile-design argument, not for
training. Both modes share the forward value.

The loss is the mean (not sum) over the 2N anchor rows of the cross-entropy
against the positive column, so learning rates are batch-size independent.

Training, evaluation and finite-difference checks share one kernel that works
on the 2Nx2N Gram layout of the stacked embeddings [a; b] with the diagonal
masked: row r holds z_r . z_c for every c, and its positive sits at column
(r + N) mod 2N. The kernel evaluates the temperature profile once per
unordered pair. The 2Nx(2N-1) `LogitsBlock` path (`forward_from_block`,
`grad_wrt_similarity`, `chain_to_embeddings`) is the diagnostic layout and the
reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BatchTooSmallError, NumericError, ValidationError
from .geometry import EmbeddingBatch, LogitsBlock, clamp_similarities
from .numeric import row_log_sum_exp, row_sums, stable_row_softmax
from .temperature import TemperatureProfile


class LossMode(Enum):
    DETACHED = "detached"
    COUPLED = "coupled"


@dataclass
class GradientBundle:
    """Loss value with all intermediate gradients of one batch."""

    loss: float
    probs: np.ndarray  # 2N x 2N Gram-layout row softmax, zero diagonal
    dL_ds: np.ndarray  # 2N x 2N Gram-layout gradient w.r.t. raw similarities, zero diagonal
    dL_dz: np.ndarray  # 2N x D displacement vectors (view-a rows first)


def _gram(cross: np.ndarray, packed: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mirror two NxN pair matrices into the 2Nx2N Gram layout.

    `cross` holds the a_i . b_j entries. `packed` holds view a's within-view
    pairs in its strict upper triangle (`upper`) and view b's in its strict
    lower one. The result is [[W_a, X], [X^T, W_b]] with W_a and W_b
    symmetric; its diagonal is left to the caller.
    """
    n = cross.shape[0]
    g = np.empty((2 * n, 2 * n))
    g[:n, :n] = np.where(upper, packed, packed.T)
    g[:n, n:] = cross
    g[n:, :n] = cross.T
    g[n:, n:] = np.where(upper, packed.T, packed)
    return g


def _infonce_kernel(
    view_a: np.ndarray,
    view_b: np.ndarray,
    profile: TemperatureProfile,
    mode: LossMode | None = None,
    temperatures: tuple[np.ndarray, np.ndarray] | None = None,
) -> GradientBundle | float:
    """Loss, and with a `mode` all gradients, of one two-view batch.

    The similarities come from the NxN products a.b^T, a.a^T and b.b^T and
    are clamped once. The profile sees each unordered pair once: on the
    cross-view block and on an NxN matrix packing a's upper within-view
    triangle with b's lower one. One max/exp/sum pass per row of the masked
    2Nx2N logits gives the log-sum-exp loss and the softmax, and dL/dz is
    chained back through the NxN blocks of dL/ds + dL/ds^T.
    `temperatures` replaces the profile by fixed (cross, packed) values.
    Returns the loss alone when `mode` is None.
    """
    n = view_a.shape[0]
    if n < 2:
        raise BatchTooSmallError(
            f"need at least 2 samples (got {n}); a single-sample batch has no negatives"
        )
    upper = ~np.tri(n, dtype=bool)  # strict upper triangle
    cross = clamp_similarities(view_a @ view_b.T)
    packed = clamp_similarities(np.where(upper, view_a @ view_a.T, view_b @ view_b.T))
    if temperatures is None:
        temperatures = profile.tau(cross), profile.tau(packed)
    inv_cross, inv_packed = 1.0 / temperatures[0], 1.0 / temperatures[1]
    logits_cross = cross * inv_cross
    logits = _gram(logits_cross, packed * inv_packed, upper)
    np.fill_diagonal(logits, -np.inf)
    peak = logits.max(axis=1, keepdims=True)
    e = np.exp(np.subtract(logits, peak, out=logits), out=logits)  # in place, saves 2Nx2N memory
    sums = row_sums(e)
    lse = peak[:, 0] + np.log(sums)
    if not np.all(np.isfinite(lse)):
        raise NumericError("similarity logits contain non-finite entries")
    loss = float(np.mean(lse - np.tile(np.diagonal(logits_cross), 2)))
    if mode is None:
        return loss

    probs = e
    probs /= sums[:, None]
    # dL/ds = (p - 1[positive]) * factor / 2N; DETACHED's factor is 1/tau
    factor_cross, factor_packed = inv_cross, inv_packed
    if mode is LossMode.COUPLED:
        # (tau - s dtau) / tau^2 as (1 - s dtau / tau) / tau: a zero dtau
        # leaves DETACHED's 1/tau bit for bit
        factor_cross = (1.0 - cross * profile.dtau_ds(cross) * inv_cross) * inv_cross
        factor_packed = (1.0 - packed * profile.dtau_ds(packed) * inv_packed) * inv_packed
    factor_cross = factor_cross / (2 * n)
    dL_ds = _gram(factor_cross, factor_packed / (2 * n), upper)
    dL_ds *= probs
    rows = np.arange(2 * n)
    cols = (rows + n) % (2 * n)
    dL_ds[rows, cols] = (probs[rows, cols] - 1.0) * np.tile(np.diagonal(factor_cross), 2)
    g_aa, g_ab = dL_ds[:n, :n], dL_ds[:n, n:]
    g_ba, g_bb = dL_ds[n:, :n], dL_ds[n:, n:]
    g_cross = g_ab + g_ba.T
    dz_a = (g_aa + g_aa.T) @ view_a + g_cross @ view_b
    dz_b = g_cross.T @ view_a + (g_bb + g_bb.T) @ view_b
    return GradientBundle(loss=loss, probs=probs, dL_ds=dL_ds, dL_dz=np.vstack([dz_a, dz_b]))


def forward_from_block(block: LogitsBlock) -> float:
    """Mean cross-entropy of the positive column over all 2N rows."""
    lse = row_log_sum_exp(block.scaled)
    losses = lse - block.positive_scaled()
    return float(np.mean(losses))


def forward(batch: EmbeddingBatch, profile: TemperatureProfile) -> float:
    """Loss of a batch under a temperature profile."""
    return _infonce_kernel(batch.view_a, batch.view_b, profile)


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
    """Loss, probabilities, dL/ds, and dL/dz of one batch.

    The embeddings are treated as free points of the similarity map
    s_ij = z_i . z_j; the normalization Jacobian belongs to the encoder.
    `probs` and `dL_ds` come in the 2Nx2N Gram layout.
    """
    return _infonce_kernel(batch.view_a, batch.view_b, profile, mode)


def relative_penalty(scaled_row: np.ndarray, negative_index: int, positive_index: int) -> float:
    """Softmax share of one negative among a row's negative entries.

    This is |dL/ds_ij| / |dL/ds_ii+| for a fixed-temperature row: the
    fraction of the anchor's repulsion budget spent on that negative.
    Computed with max subtraction.
    """
    row = np.asarray(scaled_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValidationError("scaled_row must be one-dimensional")
    if not (0 <= positive_index < row.size) or not (0 <= negative_index < row.size):
        raise ValidationError("row indices out of range")
    if negative_index == positive_index:
        raise ValidationError("the positive entry has no relative penalty")
    negatives = np.delete(row, positive_index)
    neg_idx = negative_index - (1 if negative_index > positive_index else 0)
    shifted = negatives - negatives.max()
    e = np.exp(shifted)
    return float(e[neg_idx] / np.cumsum(e)[-1])


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
        # the kernel takes one value per unordered pair: a's upper and b's
        # lower within-view triangle, as it packs them itself; the masked
        # diagonal gets 1.0 only to keep 1/tau finite
        upper = ~np.tri(n, dtype=bool)
        within = np.where(upper, _scatter_offdiag(frozen[:n, n:]), _scatter_offdiag(frozen[n:, n:]))
        np.fill_diagonal(within, 1.0)
        temperatures = frozen[:n, :n], within
    return _infonce_kernel(z[:n], z[n:], profile, temperatures=temperatures)
