"""Feature-space quality metrics and pair-kind similarity histograms.

Uniformity is log E exp(-2 |x_i - x_j|^2) over unordered distinct pairs
(self-pairs would bias the mean toward 0, so they are excluded). Interclass
uniformity applies the same formula to the class centroids, which are plain
per-class means and deliberately NOT re-normalized to the sphere.

Tolerance is the mean cosine similarity over same-label distinct pairs.
This definition comes from the hardness-aware-contrastive literature, not
from a formula of our own; it excludes self-pairs and cross-view positives.

Every metric that looks at pairs walks row chunks of its Gram matrix
(`numeric.row_chunks`) in a fixed order, so eval memory grows with N, not N^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numeric
from .errors import NumericError, ValidationError, check_float, check_int
from .numeric import fmt, row_chunks
from .geometry import EmbeddingBatch, PairKind

DEFAULT_KNN_K = 20
DEFAULT_KNN_WEIGHT_TEMPERATURE = 0.07
KNN_WEIGHT_TEMPERATURE_FLOOR = 1.0 / 700.0  # exp(s / T) for |s| <= 1 stays finite and normal
HISTOGRAM_BINS = 100


@dataclass
class MetricsReport:
    """Per-evaluation snapshot of representation quality."""

    epoch: int
    loss: float
    uniformity: float
    alignment: float
    tolerance: float
    interclass_uniformity: float
    knn_top1: float


@dataclass
class Histogram:
    """Binned cosine similarities of TP / FN / TN logits-block entries."""

    bin_edges: np.ndarray
    counts: dict[PairKind, np.ndarray]

    def total(self, kind: PairKind) -> int:
        return int(self.counts[kind].sum())


def _upper_tiles(points: np.ndarray, entries: int | None = None):
    """(rows, gram, upper) over row chunks of the Gram matrix's upper triangle.

    `gram` is points[rows] @ points[rows.start:].T and `upper` marks its
    entries right of the diagonal: each unordered distinct pair exactly once.
    A chunk spans at most `entries` entries of the full matrix (`row_chunks`).
    """
    n = points.shape[0]
    for start, stop in row_chunks(n, n, entries):
        upper = np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]
        yield slice(start, stop), points[start:stop] @ points[start:].T, upper


def uniformity(points: np.ndarray) -> float:
    """log of the mean of exp(-2 d^2) over unordered distinct pairs; <= 0."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValidationError("uniformity needs at least 2 points")
    n = points.shape[0]
    sq_norms = np.einsum("ij,ij->i", points, points)
    total = 0.0
    for rows, gram, upper in _upper_tiles(points):
        # max(|x_i|^2 + |x_j|^2 - 2 x_i.x_j, 0), then exp(-2 d^2), in the Gram tile
        gram *= 2.0
        np.subtract(sq_norms[rows, None] + sq_norms[None, rows.start :], gram, out=gram)
        np.maximum(gram, 0.0, out=gram)
        gram *= -2.0
        total += np.sum(np.exp(gram, out=gram), where=upper)
    return float(np.log(total / (n * (n - 1) // 2)))


def alignment(batch: EmbeddingBatch) -> float:
    """Mean squared distance between the two views of each sample; in [0, 4]."""
    diff = batch.view_a - batch.view_b
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


def _aligned(points, labels) -> tuple[np.ndarray, np.ndarray]:
    """`points` as float64 and `labels` as an array, one label per point."""
    points, labels = np.asarray(points, dtype=np.float64), np.asarray(labels)
    if points.shape[0] != labels.shape[0]:
        raise ValidationError("points and labels must align")
    return points, labels


def interclass_uniformity(points: np.ndarray, labels: np.ndarray) -> float:
    """Uniformity of the class centroids (plain means); lower is better."""
    points, labels = _aligned(points, labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValidationError("interclass uniformity needs at least 2 classes")
    centroids = np.vstack([points[labels == c].mean(axis=0) for c in classes])
    return uniformity(centroids)


def tolerance(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean cosine similarity over same-label distinct unordered pairs."""
    points, labels = _aligned(points, labels)
    total, count = 0.0, 0
    for rows, gram, upper in _upper_tiles(points):
        same = upper & (labels[rows, None] == labels[None, rows.start :])
        total += np.sum(np.clip(gram, -1.0, 1.0, out=gram), where=same)
        count += np.count_nonzero(same)
    if count == 0:
        raise ValidationError("no same-label pair exists")
    return float(total / count)


def check_knn_weight_temperature(value: float) -> None:
    """ValidationError unless `value` is a finite number of at least 1/700, where every vote weight is finite."""
    check_float("kNN weight temperature", value, KNN_WEIGHT_TEMPERATURE_FLOOR)


def _nearest(test_points: np.ndarray, train_points: np.ndarray, k: int):
    """(rows, nearest, sims) per row chunk of the test points.

    `nearest` holds each test row's k most similar train rows, most similar
    first, and `sims` their clamped cosine similarities. Equal similarities
    keep the lower train index first, as a stable sort of -s orders them; the
    k are selected around the k-th value, and only they are sorted.
    """
    for start, stop in row_chunks(test_points.shape[0], train_points.shape[0]):
        neg_sims = test_points[start:stop] @ train_points.T
        np.clip(neg_sims, -1.0, 1.0, out=neg_sims)
        np.negative(neg_sims, out=neg_sims)
        kth = np.partition(neg_sims, k - 1, axis=1)[:, [k - 1]]  # a copy, so the partition goes
        if np.isnan(kth).any():
            raise NumericError("a test point has fewer than k train points at a finite similarity")
        # everything below the k-th value, then ties at it, lowest index first, until k are taken
        taken = neg_sims < kth
        ties = neg_sims == kth
        ties &= np.cumsum(ties, axis=1, dtype=np.int32) <= k - np.count_nonzero(taken, axis=1, keepdims=True)
        taken |= ties
        chosen = np.nonzero(taken)[1].reshape(stop - start, k)
        order = np.argsort(np.take_along_axis(neg_sims, chosen, axis=1), axis=1, kind="stable")
        nearest = np.take_along_axis(chosen, order, axis=1)
        yield slice(start, stop), nearest, -np.take_along_axis(neg_sims, nearest, axis=1)


def knn_probe(
    train_points: np.ndarray,
    train_labels: np.ndarray,
    test_points: np.ndarray,
    test_labels: np.ndarray,
    k: int = DEFAULT_KNN_K,
    weight_temperature: float = DEFAULT_KNN_WEIGHT_TEMPERATURE,
) -> float:
    """Top-1 accuracy of a cosine-similarity weighted k-NN vote.

    Each test point's k nearest train points (by cosine similarity) vote for
    their class with weight exp(s / weight_temperature); vote ties go to the
    smaller class index.
    """
    train_points, train_labels = _aligned(train_points, train_labels)
    test_points, test_labels = _aligned(test_points, test_labels)
    if train_points.size == 0 or test_points.size == 0:
        raise ValidationError("knn probe needs non-empty train and test sets")
    check_int("k", k, 1, train_points.shape[0])
    check_knn_weight_temperature(weight_temperature)
    classes, class_index = np.unique(train_labels, return_inverse=True)
    correct = 0
    for rows, nearest, sims in _nearest(test_points, train_points, k):
        weights = np.exp(sims / weight_temperature)
        votes = np.zeros((nearest.shape[0], classes.size))
        chunk_rows = np.arange(nearest.shape[0])
        for rank in range(k):  # votes add up in rank order
            votes[chunk_rows, class_index[nearest[:, rank]]] += weights[:, rank]
        predicted = classes[np.argmax(votes, axis=1)]  # argmax takes the smallest index on ties
        correct += int(np.count_nonzero(predicted == test_labels[rows]))
    return correct / test_points.shape[0]


def pair_histograms(batch: EmbeddingBatch) -> Histogram:
    """Binned TP/FN/TN similarity counts over all logits-block entries.

    The block holds each unordered pair of the 2N stacked embeddings twice,
    once in each member's row, so every upper-triangle Gram entry counts
    twice; the block itself is never built.
    """
    if batch.labels is None:
        raise ValidationError("pair histograms require labels")
    n = batch.n
    labels = np.concatenate([batch.labels, batch.labels])
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    counts = {kind: np.zeros(HISTOGRAM_BINS, dtype=np.int64) for kind in PairKind}
    # a quarter of the budget: with its masks, masked copies and np.histogram's
    # blocks a tile costs about four times its size, and this keeps the
    # histogram under the loss's peak; integer counts do not depend on tile size
    for rows, gram, upper in _upper_tiles(batch.stacked(), numeric.CHUNK_ENTRIES // 4):
        np.clip(gram, -1.0, 1.0, out=gram)
        # the positive of row i < N is column N + i
        positive = np.arange(rows.start, 2 * n)[None, :] == n + np.arange(rows.start, rows.stop)[:, None]
        same = labels[rows, None] == labels[None, rows.start :]
        masks = {
            PairKind.TRUE_POSITIVE: positive,
            PairKind.FALSE_NEGATIVE: upper & same & ~positive,
            PairKind.TRUE_NEGATIVE: upper & ~same,
        }
        for kind, mask in masks.items():
            counts[kind] += 2 * np.histogram(gram[mask], bins=edges)[0]
    return Histogram(bin_edges=edges, counts=counts)


METRICS_CSV_HEADER = "epoch,loss,uniformity,alignment,tolerance,interclass_uniformity,knn_top1"


def write_metrics_csv(path: str | Path, reports: Sequence[MetricsReport]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(METRICS_CSV_HEADER + "\n")
        for r in reports:
            fh.write(
                f"{r.epoch},{fmt(r.loss)},{fmt(r.uniformity)},{fmt(r.alignment)},"
                f"{fmt(r.tolerance)},{fmt(r.interclass_uniformity)},{fmt(r.knn_top1)}\n"
            )


def write_histogram_csv(path: str | Path, hist: Histogram) -> None:
    """CSV `bin_lo,bin_hi,tp,fn,tn`, one row per bin."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,tp,fn,tn\n")
        tp = hist.counts[PairKind.TRUE_POSITIVE]
        fn = hist.counts[PairKind.FALSE_NEGATIVE]
        tn = hist.counts[PairKind.TRUE_NEGATIVE]
        for b in range(len(tp)):
            fh.write(
                f"{fmt(hist.bin_edges[b])},{fmt(hist.bin_edges[b + 1])},{tp[b]},{fn[b]},{tn[b]}\n"
            )
