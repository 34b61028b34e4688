"""Feature-space quality metrics and pair-kind similarity histograms.

Uniformity is log E exp(-2 |x_i - x_j|^2) over unordered distinct pairs
(self-pairs would bias the mean toward 0, so they are excluded). Interclass
uniformity applies the same formula to the class centroids, which are plain
per-class means and deliberately NOT re-normalized to the sphere.

Tolerance is the mean cosine similarity over same-label distinct pairs.
This definition comes from the hardness-aware-contrastive literature, not
from a formula of our own; it excludes self-pairs and cross-view positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .numeric import fmt
from .geometry import EmbeddingBatch, PairKind, build_logits_block, classify_pairs
from .temperature import TemperatureProfile

DEFAULT_KNN_K = 20
DEFAULT_KNN_WEIGHT_TEMPERATURE = 0.07
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


def _pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared distances of all unordered distinct pairs (condensed)."""
    gram = points @ points.T
    sq_norms = np.diag(gram)
    i, j = np.triu_indices(points.shape[0], k=1)
    return np.maximum(sq_norms[i] + sq_norms[j] - 2.0 * gram[i, j], 0.0)


def uniformity(points: np.ndarray) -> float:
    """log of the mean of exp(-2 d^2) over unordered distinct pairs; <= 0."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValidationError("uniformity needs at least 2 points")
    return float(np.log(np.mean(np.exp(-2.0 * _pairwise_sq_dists(points)))))


def alignment(batch: EmbeddingBatch) -> float:
    """Mean squared distance between the two views of each sample; in [0, 4]."""
    diff = batch.view_a - batch.view_b
    return float(np.mean(np.cumsum(diff * diff, axis=1)[:, -1]))


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
    i, j = np.triu_indices(points.shape[0], k=1)
    same = labels[i] == labels[j]
    if not np.any(same):
        raise ValidationError("no same-label pair exists")
    sims = np.clip(np.einsum("pd,pd->p", points[i[same]], points[j[same]]), -1.0, 1.0)
    return float(np.mean(sims))


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
    if not (0.0 < weight_temperature < np.inf):
        raise ValidationError(f"weight temperature must be positive and finite, got {weight_temperature!r}")
    classes = np.unique(train_labels)
    class_of = {c: idx for idx, c in enumerate(classes)}
    sims = np.clip(test_points @ train_points.T, -1.0, 1.0)
    correct = 0
    for t in range(test_points.shape[0]):
        order = np.argsort(-sims[t], kind="stable")[:k]
        votes = np.zeros(classes.size)
        for idx in order:
            votes[class_of[int(train_labels[idx])]] += np.exp(sims[t, idx] / weight_temperature)
        predicted = classes[int(np.argmax(votes))]  # argmax takes the smallest index on ties
        correct += int(predicted == test_labels[t])
    return correct / test_points.shape[0]


def pair_histograms(
    batch: EmbeddingBatch,
    bins: int = HISTOGRAM_BINS,
    annotations: Optional[dict[str, float]] = None,
) -> Histogram:
    """Binned TP/FN/TN similarity counts over all logits-block entries."""
    if batch.labels is None:
        raise ValidationError("pair histograms require labels")
    if bins < 1:
        raise ValidationError("need at least one bin")
    block = build_logits_block(batch, TemperatureProfile.constant(1.0))
    kinds = classify_pairs(batch)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts = {}
    for kind in PairKind:
        values = block.s[kinds == kind]
        counts[kind], _ = np.histogram(values, bins=edges)
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
