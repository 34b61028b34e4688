"""Unit-sphere embeddings, the 2Nx(2N-1) similarity block, and pair bookkeeping.

The similarity block follows the standard two-view contrastive layout: for a
batch of N samples with views a and b, row i (i < N) holds the cross-view
similarities of a_i against all of b (columns 0..N-1, positive at column i)
followed by the within-view similarities of a_i against a_j, j != i
(columns N..2N-2). Row N+i is the mirror image for anchor b_i. Every row has
exactly one positive, at column (row mod N).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import BatchTooSmallError, DegenerateInputError, NumericError, ValidationError
from .temperature import TemperatureProfile

UNIT_NORM_TOL = 1e-9


def unit_rows(v: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of `v` divided by its norm, given as `norms`.

    Raises DegenerateInputError when a norm falls below 1e-12, and
    NumericError when a norm is not finite (a row that overflows or holds NaN).
    """
    if np.any(norms <= 1e-12):
        bad = int(np.argmin(norms))
        raise DegenerateInputError(f"cannot normalize row {bad} with norm {norms[bad]:.3e}")
    finite = np.isfinite(norms)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericError(f"cannot normalize row {bad} with norm {norms[bad]}")
    return v / norms[:, None]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Normalize a vector (or each row of a matrix) to unit L2 norm, as `unit_rows` checks."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        return unit_rows(v[None, :], np.array([np.linalg.norm(v)]))[0]
    return unit_rows(v, np.linalg.norm(v, axis=1))


def strip_diagonal(m: np.ndarray) -> np.ndarray:
    """Drop the diagonal of a square matrix, keeping row-wise column order."""
    n = m.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return m[mask].reshape(n, n - 1)


def cross_tile(rows, view_a, view_b, out=None):
    """Rows `rows` of the similarities a.b^T of two sets of unit rows, clamped to [-1, 1]."""
    tile = np.matmul(view_a[rows], view_b.T, out=out)
    return np.clip(tile, -1.0, 1.0, out=tile)


class PairKind(IntEnum):
    TRUE_POSITIVE = 0
    FALSE_NEGATIVE = 1
    TRUE_NEGATIVE = 2


@dataclass
class EmbeddingBatch:
    """Two aligned views of N samples, each row a unit vector.

    view_a[i] and view_b[i] are the two augmented views of sample i, i.e.
    the positive pair. Labels are optional and only needed by diagnostics.
    """

    view_a: np.ndarray
    view_b: np.ndarray
    sample_ids: Sequence[str]
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.view_a = np.asarray(self.view_a, dtype=np.float64)
        self.view_b = np.asarray(self.view_b, dtype=np.float64)
        if self.view_a.shape != self.view_b.shape or self.view_a.ndim != 2:
            raise ValidationError(
                f"views must be two equal NxD matrices, got {self.view_a.shape} and {self.view_b.shape}"
            )
        if len(self.sample_ids) != self.n:
            raise ValidationError("sample_ids length must match the number of samples")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.n,):
                raise ValidationError("labels must align with sample_ids")
        for name, m in (("view_a", self.view_a), ("view_b", self.view_b)):
            norms = np.linalg.norm(m, axis=1)
            if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):  # a NaN norm fails too
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise ValidationError(
                    f"{name} row {bad} is not unit norm (|v| = {norms[bad]:.12f})"
                )

    @property
    def n(self) -> int:
        return self.view_a.shape[0]

    def stacked(self) -> np.ndarray:
        """All 2N embeddings, view-a rows first (flat index i, then N+i)."""
        return np.vstack([self.view_a, self.view_b])

    def permuted(self, perm: np.ndarray) -> "EmbeddingBatch":
        """Batch with samples reordered by `perm` (views, ids, labels together)."""
        return EmbeddingBatch(
            view_a=self.view_a[perm],
            view_b=self.view_b[perm],
            sample_ids=[self.sample_ids[i] for i in perm],
            labels=None if self.labels is None else self.labels[perm],
        )


@dataclass
class LogitsBlock:
    """Similarity block plus per-entry temperatures and scaled logits."""

    s: np.ndarray
    temperatures: np.ndarray
    scaled: np.ndarray
    n: int
    profile: TemperatureProfile = field(repr=False)

    @property
    def num_rows(self) -> int:
        return 2 * self.n

    @property
    def positive_column(self) -> np.ndarray:
        """Positive column per row: row r has its positive at column r mod N."""
        return np.arange(2 * self.n) % self.n

    def positive_scaled(self) -> np.ndarray:
        return self.scaled[np.arange(2 * self.n), self.positive_column]


def block_index_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat-embedding indices (into `EmbeddingBatch.stacked()`) per block entry.

    Returns (anchor, other), both 2Nx(2N-1): entry (r, c) of the block is the
    dot product of embeddings `anchor[r, c]` and `other[r, c]`.
    """
    idx = np.arange(n)
    offdiag = np.tile(idx, (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    anchor = np.zeros((2 * n, 2 * n - 1), dtype=np.int64)
    other = np.zeros((2 * n, 2 * n - 1), dtype=np.int64)
    # rows 0..N-1: anchor a_i; columns [b_0..b_{N-1} | a_j, j != i]
    anchor[:n, :] = idx[:, None]
    other[:n, :n] = (idx + n)[None, :]
    other[:n, n:] = offdiag
    # rows N..2N-1: anchor b_i; columns [a_0..a_{N-1} | b_j, j != i]
    anchor[n:, :] = (idx + n)[:, None]
    other[n:, :n] = idx[None, :]
    other[n:, n:] = offdiag + n
    return anchor, other


def build_logits_block(batch: EmbeddingBatch, profile: TemperatureProfile) -> LogitsBlock:
    """Assemble the 2Nx(2N-1) block with entry-wise temperatures.

    Similarities are clamped to [-1, 1] before the temperature profile is
    evaluated, and the resulting temperatures are cached so the forward pass
    and all gradients see identical values.
    """
    n = batch.n
    if n < 2:
        raise BatchTooSmallError(
            f"need at least 2 samples (got {n}); a single-sample batch has no negatives"
        )
    va, vb = batch.view_a, batch.view_b
    s12 = va @ vb.T
    s11 = va @ va.T
    s22 = vb @ vb.T
    top = np.hstack([s12, strip_diagonal(s11)])
    bottom = np.hstack([s12.T.copy(), strip_diagonal(s22)])
    s = np.clip(np.vstack([top, bottom]), -1.0, 1.0)  # floating-point drift guard
    temperatures = profile.tau(s)
    return LogitsBlock(
        s=s,
        temperatures=temperatures,
        scaled=s / temperatures,
        n=n,
        profile=profile,
    )


def classify_pairs(batch: EmbeddingBatch) -> np.ndarray:
    """PairKind for every (row, col) of the batch's logits block.

    Positive columns are TRUE_POSITIVE; other entries are FALSE_NEGATIVE when
    the two underlying samples share a label and TRUE_NEGATIVE otherwise.
    Classification is positional: the same unordered sample pair appears in
    two rows and is classified in each.
    """
    if batch.labels is None:
        raise ValidationError("pair classification requires labels")
    n = batch.n
    if n < 2:
        raise BatchTooSmallError(f"need at least 2 samples (got {n})")
    anchor, other = block_index_maps(n)
    labels_flat = np.concatenate([batch.labels, batch.labels])
    kinds = np.where(
        labels_flat[anchor] == labels_flat[other],
        np.int64(PairKind.FALSE_NEGATIVE),
        np.int64(PairKind.TRUE_NEGATIVE),
    )
    rows = np.arange(2 * n)
    kinds[rows, rows % n] = PairKind.TRUE_POSITIVE
    return kinds


def write_embedding_dump(path: str | Path, batch: EmbeddingBatch) -> None:
    """JSON-lines dump, one record per sample per view."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for view_name, view in (("a", batch.view_a), ("b", batch.view_b)):
            for i in range(batch.n):
                record = {
                    "id": str(batch.sample_ids[i]),
                    "label": None if batch.labels is None else int(batch.labels[i]),
                    "view": view_name,
                    "z": [float(x) for x in view[i]],
                }
                fh.write(json.dumps(record) + "\n")


def read_embedding_dump(path: str | Path) -> EmbeddingBatch:
    """Inverse of write_embedding_dump; pairs records by id across views."""
    by_view: dict[str, dict[str, tuple]] = {"a": {}, "b": {}}  # id -> (z, label)
    dim = None  # the first record's z length, which every z must have
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:  # a KeyError names the missing field
                record = json.loads(line)
                view, sample_id, z = record["view"], str(record["id"]), record["z"]
                if not isinstance(z, list):  # float() of each character of a string would pass
                    raise TypeError(f"z must be a list of numbers, not {type(z).__name__}")
                z = [float(x) for x in z]
                label = record.get("label")
                label = None if label is None else np.int64(int(label))  # OverflowError beyond int64
                dim = len(z) if dim is None else dim
                if len(z) != dim:
                    raise ValueError(f"z has {len(z)} coordinates, the first record's has {dim}")
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise ValidationError(f"bad embedding record on line {line_no}: {err}") from err
            if view not in ("a", "b"):
                raise ValidationError(f"line {line_no}: view must be 'a' or 'b'")
            by_view[view][sample_id] = (z, label)
    ids = sorted(by_view["a"])
    if ids != sorted(by_view["b"]):
        raise ValidationError("embedding dump has unpaired views")
    if not ids:
        raise ValidationError("embedding dump is empty")
    view_a = np.array([by_view["a"][i][0] for i in ids], dtype=np.float64)
    view_b = np.array([by_view["b"][i][0] for i in ids], dtype=np.float64)
    raw_labels = [by_view["a"][i][1] for i in ids]
    labels = None if any(l is None for l in raw_labels) else np.array(raw_labels, dtype=np.int64)
    return EmbeddingBatch(view_a=view_a, view_b=view_b, sample_ids=ids, labels=labels)
