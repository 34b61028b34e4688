"""Unit-sphere embeddings, the 2Nx(2N-1) similarity block, and pair bookkeeping.

The similarity block follows the standard two-view contrastive layout: row r
holds the similarities of stacked embedding r (view a first) to the other
view's N embeddings, positive at column r mod N, then to the N - 1 others of
its own view. `block_index_maps` is the one definition of that order; the
block, the pair kinds and the chain of a block gradient to the embeddings
all go through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import BatchTooSmallError, DegenerateInputError, NumericError, ValidationError, check_int
from .temperature import TemperatureProfile

UNIT_NORM_TOL = 1e-9
NORM_FLOOR = 1e-12  # a row whose norm is at most this has no direction to keep


def unit_rows(v: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of `v` divided by its norm, given as `norms`.

    Raises DegenerateInputError when a norm is at most NORM_FLOOR, and
    NumericError when a norm is not finite (a row that overflows or holds NaN).
    """
    if np.any(norms <= NORM_FLOOR):
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
    dot product of embeddings `anchor[r, c]` = r and `other[r, c]`. Row r walks
    the stack cyclically from the other view's first row, stepping over r, so
    the maps hold each ordered pair of distinct rows exactly once.
    """
    rows = np.arange(2 * n)[:, None]
    cols = np.arange(2 * n - 1)[None, :]
    sample = rows % n  # the other view starts at rows - sample + n; step n + sample is r
    other = (rows - sample + n + cols + (cols >= n + sample)) % (2 * n)
    return np.broadcast_to(rows, other.shape), other


def build_logits_block(batch: EmbeddingBatch, profile: TemperatureProfile) -> LogitsBlock:
    """Assemble the 2Nx(2N-1) block with entry-wise temperatures.

    Similarities are gathered from the Gram matrix of `stacked()` at
    `block_index_maps` and clamped to [-1, 1] before the temperature profile
    is evaluated; the temperatures are cached so the forward pass and all
    gradients see identical values.
    """
    n = batch.n
    if n < 2:
        raise BatchTooSmallError(
            f"need at least 2 samples (got {n}); a single-sample batch has no negatives"
        )
    va, vb = batch.view_a, batch.view_b
    cross = va @ vb.T
    # per-view products: one 2N product rounds some entries differently (other BLAS kernels)
    gram = np.block([[va @ va.T, cross], [cross.T, vb @ vb.T]])
    s = np.clip(gram[block_index_maps(n)], -1.0, 1.0)  # floating-point drift guard
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
    sample, partner = anchor % n, other % n
    kinds = np.where(batch.labels[sample] == batch.labels[partner], PairKind.FALSE_NEGATIVE, PairKind.TRUE_NEGATIVE)
    kinds[sample == partner] = PairKind.TRUE_POSITIVE  # the anchor's own sample in the other view
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


def check_label(value) -> int:
    """A class label: an integer in the int64 range, so not 1.5, true or 2^63."""
    return check_int("label", value, -(2**63), 2**63 - 1)


def read_vector_records(path: str | Path, what: str, key: str, parse: Callable[[dict], tuple]) -> Iterator[tuple]:
    """(record[key] as floats, *parse(record)) for each non-blank line of a JSON-lines file.

    record[key] must be a list of numbers as long as the first record's. A line that
    breaks this or that `parse` rejects raises "bad {what} record on line N: ...".
    """
    dim = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:  # a KeyError names the missing field; a deeply nested line raises RecursionError
                record = json.loads(line)
                vector = record[key]
                if not isinstance(vector, list):  # float() of each character of a string would pass
                    raise TypeError(f"{key} must be a list of numbers, not {type(vector).__name__}")
                vector = [float(x) for x in vector]
                dim = len(vector) if dim is None else dim
                if len(vector) != dim:
                    raise ValueError(f"{key} has {len(vector)} coordinates, the first record's has {dim}")
                fields = parse(record)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:
                raise ValidationError(f"bad {what} record on line {line_no}: {err}") from err
            yield (vector, *fields)


def _dump_fields(record: dict) -> tuple[str, str, Optional[int]]:  # view, id, label
    if record["view"] not in ("a", "b"):
        raise ValueError(f"view must be 'a' or 'b', got {record['view']!r}")
    return record["view"], str(record["id"]), None if record.get("label") is None else check_label(record["label"])


def read_embedding_dump(path: str | Path) -> EmbeddingBatch:
    """Inverse of write_embedding_dump; pairs records by id across views, one per view with one label."""
    by_view: dict[str, dict[str, tuple]] = {"a": {}, "b": {}}  # id -> (z, label)

    def fields(record: dict) -> tuple[str, str, Optional[int]]:
        view, sample_id, label = _dump_fields(record)
        if sample_id in by_view[view]:
            raise ValueError(f"id {sample_id!r} repeats in view {view}")
        if by_view["b" if view == "a" else "a"].get(sample_id, (None, label))[1] != label:
            raise ValueError(f"id {sample_id!r} has a label other than its other view's")
        return view, sample_id, label

    for z, view, sample_id, label in read_vector_records(path, "embedding", "z", fields):
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
