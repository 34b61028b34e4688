"""Shared helpers: random batches and scalar reference implementations.

The reference implementations here are written with Python floats and
explicit loops on purpose: they are the independent oracles the vectorized
kernels are checked against, and must not share code with them.
"""

import math

import numpy as np
import pytest

from dystress.geometry import EmbeddingBatch, l2_normalize
from dystress.numeric import Rng


@pytest.fixture
def rng():
    return Rng(20240817)


def random_batch(rng: Rng, n: int, d: int, labels=None) -> EmbeddingBatch:
    z = l2_normalize(rng.normal((2 * n, d)))
    return EmbeddingBatch(
        view_a=z[:n],
        view_b=z[n:],
        sample_ids=[f"s{i}" for i in range(n)],
        labels=labels,
    )


def permuted_batch(batch: EmbeddingBatch, perm) -> EmbeddingBatch:
    """`batch` with its samples reordered by `perm`: views, ids and labels together."""
    return EmbeddingBatch(
        view_a=batch.view_a[perm],
        view_b=batch.view_b[perm],
        sample_ids=[batch.sample_ids[i] for i in perm],
        labels=None if batch.labels is None else batch.labels[perm],
    )


def reference_block_rows(view_a, view_b):
    """Scalar construction of the 2Nx(2N-1) similarity block.

    Row i: [a_i.b_0 .. a_i.b_{N-1} | a_i.a_j (j != i)];
    row N+i mirrors it with anchors swapped. Returns a list of rows together
    with the positive index of each row.
    """
    n = len(view_a)
    rows = []
    for anchor_view, other_view in ((view_a, view_b), (view_b, view_a)):
        for i in range(n):
            row = []
            for j in range(n):
                row.append(float(np.dot(anchor_view[i], other_view[j])))
            for j in range(n):
                if j != i:
                    row.append(float(np.dot(anchor_view[i], anchor_view[j])))
            rows.append((row, i))
    return rows


def reference_ntxent(view_a, view_b, tau):
    """Independent fixed-temperature NT-Xent (mean over 2N anchors)."""
    total = 0.0
    rows = reference_block_rows(view_a, view_b)
    for row, pos in rows:
        scaled = [v / tau for v in row]
        ms = max(scaled)
        denom = sum(math.exp(v - ms) for v in scaled)
        total += -(scaled[pos] - ms - math.log(denom))
    return total / len(rows)


def _tau_fn(profile_or_tau):
    """Accept a TemperatureProfile, a callable s -> tau, or a fixed float."""
    if callable(getattr(profile_or_tau, "tau", None)):
        return lambda s: profile_or_tau.tau(s)
    if callable(profile_or_tau):
        return profile_or_tau
    return lambda s: float(profile_or_tau)


def reference_loss_with_profile(view_a, view_b, profile):
    """Scalar loss under an arbitrary temperature rule."""
    tau_of = _tau_fn(profile)
    total = 0.0
    rows = reference_block_rows(view_a, view_b)
    for row, pos in rows:
        scaled = [v / tau_of(min(1.0, max(-1.0, v))) for v in row]
        ms = max(scaled)
        denom = sum(math.exp(v - ms) for v in scaled)
        total += -(scaled[pos] - ms - math.log(denom))
    return total / len(rows)


def reference_grad_dz(view_a, view_b, profile):
    """Scalar-loop displacement vectors (detached mode).

    Accumulates, entry by entry, grad * partner into both participants of
    every dot product: the positive term -(1 - p)/tau * z_partner and the
    negative terms p/tau * z_partner for each anchor ordering separately.
    """
    tau_of = _tau_fn(profile)
    n = len(view_a)
    d = len(view_a[0])
    flat = [np.array(v, dtype=float) for v in list(view_a) + list(view_b)]
    grads = [np.zeros(d) for _ in range(2 * n)]
    rows = reference_block_rows(view_a, view_b)
    for r, (row, pos) in enumerate(rows):
        anchor = r  # flat index: rows 0..N-1 are a_i, rows N..2N-1 are b_i
        # partner flat indices in column order
        partners = []
        base = 0 if r < n else n
        i = r % n
        other_base = n if r < n else 0
        for j in range(n):
            partners.append(other_base + j)
        for j in range(n):
            if j != i:
                partners.append(base + j)
        clamped = [min(1.0, max(-1.0, v)) for v in row]
        taus = [tau_of(v) for v in clamped]
        scaled = [v / t for v, t in zip(clamped, taus)]
        ms = max(scaled)
        exps = [math.exp(v - ms) for v in scaled]
        denom = sum(exps)
        for k, partner in enumerate(partners):
            p = exps[k] / denom
            g = (p - (1.0 if k == pos else 0.0)) / taus[k] / (2 * n)
            grads[anchor] += g * flat[partner]
            grads[partner] += g * flat[anchor]
    return np.vstack(grads)
