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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .numeric import fmt, row_chunks
from .geometry import EmbeddingBatch, PairKind, clamp_similarities

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
    annotations: dict[str, float] = field(default_factory=dict)

    def total(self, kind: PairKind) -> int:
        return int(self.counts[kind].sum())


def _upper_tiles(points: np.ndarray):
    """(rows, gram, upper) over row chunks of the Gram matrix's upper triangle.

    `gram` is points[rows] @ points[rows.start:].T and `upper` marks its
    entries right of the diagonal: each unordered distinct pair exactly once.
    """
    n = points.shape[0]
    for start, stop in row_chunks(n, n):
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
        sq_dists = np.maximum(sq_norms[rows, None] + sq_norms[None, rows.start :] - 2.0 * gram, 0.0)
        total += np.sum(np.exp(-2.0 * sq_dists), where=upper)
    return float(np.log(total / (n * (n - 1) // 2)))


def alignment(batch: EmbeddingBatch) -> float:
    """Mean squared distance between the two views of each sample; in [0, 4]."""
    diff = batch.view_a - batch.view_b
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


def interclass_uniformity(points: np.ndarray, labels: np.ndarray) -> float:
    """Uniformity of the class centroids (plain means); lower is better."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.shape[0] != labels.shape[0]:
        raise ValidationError("points and labels must align")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValidationError("interclass uniformity needs at least 2 classes")
    centroids = np.vstack([points[labels == c].mean(axis=0) for c in classes])
    return uniformity(centroids)


def tolerance(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean cosine similarity over same-label distinct unordered pairs."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.shape[0] != labels.shape[0]:
        raise ValidationError("points and labels must align")
    total, count = 0.0, 0
    for rows, gram, upper in _upper_tiles(points):
        same = upper & (labels[rows, None] == labels[None, rows.start :])
        total += np.sum(clamp_similarities(gram), where=same)
        count += np.count_nonzero(same)
    if count == 0:
        raise ValidationError("no same-label pair exists")
    return float(total / count)


def check_knn_weight_temperature(value: float) -> None:
    """ValidationError unless 1/700 <= `value` < inf, the range where every vote weight is finite."""
    if not (KNN_WEIGHT_TEMPERATURE_FLOOR <= value < np.inf):
        raise ValidationError(f"kNN weight temperature must lie in [1/700, inf), got {value!r}")


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
    train_points = np.asarray(train_points, dtype=np.float64)
    test_points = np.asarray(test_points, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train_points.size == 0 or test_points.size == 0:
        raise ValidationError("knn probe needs non-empty train and test sets")
    if not (1 <= k <= train_points.shape[0]):
        raise ValidationError(f"k must be in [1, {train_points.shape[0]}], got {k}")
    check_knn_weight_temperature(weight_temperature)
    classes, class_index = np.unique(train_labels, return_inverse=True)
    correct = 0
    for start, stop in row_chunks(test_points.shape[0], train_points.shape[0]):
        sims = clamp_similarities(test_points[start:stop] @ train_points.T)
        # a stable sort of -s: equal similarities keep the lower train index first
        nearest = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        weights = np.exp(np.take_along_axis(sims, nearest, axis=1) / weight_temperature)
        votes = np.zeros((stop - start, classes.size))
        rows = np.arange(stop - start)
        for rank in range(k):  # votes add up in rank order
            votes[rows, class_index[nearest[:, rank]]] += weights[:, rank]
        predicted = classes[np.argmax(votes, axis=1)]  # argmax takes the smallest index on ties
        correct += int(np.count_nonzero(predicted == test_labels[start:stop]))
    return correct / test_points.shape[0]


def pair_histograms(
    batch: EmbeddingBatch,
    bins: int = HISTOGRAM_BINS,
    annotations: Optional[dict[str, float]] = None,
) -> Histogram:
    """Binned TP/FN/TN similarity counts over all logits-block entries.

    The counts come from row chunks of a.b^T, a.a^T and b.b^T; the block
    itself is never built.
    """
    if batch.labels is None:
        raise ValidationError("pair histograms require labels")
    if bins < 1:
        raise ValidationError("need at least one bin")
    n, labels = batch.n, batch.labels
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts = {kind: np.zeros(bins, dtype=np.int64) for kind in PairKind}

    def add(kind: PairKind, values: np.ndarray, times: int = 1) -> None:
        counts[kind] += times * np.histogram(values, bins=edges)[0]

    for start, stop in row_chunks(n, n):
        same = labels[start:stop, None] == labels[None, :]
        own = np.arange(n)[None, :] == np.arange(start, stop)[:, None]
        other_same = same & ~own
        cross = clamp_similarities(batch.view_a[start:stop] @ batch.view_b.T)
        # the block holds every cross-view entry twice: in a_i's row and in b_j's
        add(PairKind.TRUE_POSITIVE, cross[own], 2)
        add(PairKind.FALSE_NEGATIVE, cross[other_same], 2)
        add(PairKind.TRUE_NEGATIVE, cross[~same], 2)
        for view in (batch.view_a, batch.view_b):
            within = clamp_similarities(view[start:stop] @ view.T)
            add(PairKind.FALSE_NEGATIVE, within[other_same])
            add(PairKind.TRUE_NEGATIVE, within[~same])
    return Histogram(bin_edges=edges, counts=counts, annotations=dict(annotations or {}))


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
    """CSV `bin_lo,bin_hi,tp,fn,tn`; annotations become leading comment lines."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for key, value in sorted(hist.annotations.items()):
            fh.write(f"# {key}={fmt(value)}\n")
        fh.write("bin_lo,bin_hi,tp,fn,tn\n")
        tp = hist.counts[PairKind.TRUE_POSITIVE]
        fn = hist.counts[PairKind.FALSE_NEGATIVE]
        tn = hist.counts[PairKind.TRUE_NEGATIVE]
        for b in range(len(tp)):
            fh.write(
                f"{fmt(hist.bin_edges[b])},{fmt(hist.bin_edges[b + 1])},{tp[b]},{fn[b]},{tn[b]}\n"
            )
