"""Metric closed forms, invariances, kNN probe, and histogram tests."""

import numpy as np
import pytest

from conftest import random_batch

from dystress.errors import NumericError, ValidationError
from dystress.geometry import EmbeddingBatch, PairKind, l2_normalize
from dystress.metrics import (
    HISTOGRAM_BINS,
    KNN_WEIGHT_TEMPERATURE_FLOOR,
    alignment,
    interclass_uniformity,
    knn_probe,
    pair_histograms,
    tolerance,
    uniformity,
    write_histogram_csv,
)
from dystress.numeric import Rng


class TestUniformity:
    def test_identical_points(self):
        pts = np.tile(np.array([[1.0, 0.0]]), (3, 1))
        assert abs(uniformity(pts)) < 1e-12

    def test_antipodal_pair(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(uniformity(pts) - (-8.0)) < 1e-12

    def test_orthogonal_pair(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert abs(uniformity(pts) - (-4.0)) < 1e-12

    def test_always_nonpositive(self):
        rng = Rng(3)
        for _ in range(20):
            pts = l2_normalize(rng.normal((12, 5)))
            assert uniformity(pts) <= 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            uniformity(np.array([[1.0, 0.0]]))


class TestAlignment:
    def test_identical_views(self, rng):
        batch = random_batch(rng, 5, 4)
        same = EmbeddingBatch(batch.view_a, batch.view_a.copy(), batch.sample_ids)
        assert alignment(same) == 0.0

    def test_orthogonal_views(self):
        va = np.array([[1.0, 0.0], [0.0, 1.0]])
        vb = np.array([[0.0, 1.0], [1.0, 0.0]])
        batch = EmbeddingBatch(va, vb, ["a", "b"])
        assert abs(alignment(batch) - 2.0) < 1e-12

    def test_antipodal_views(self):
        va = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = EmbeddingBatch(va, -va, ["a", "b"])
        assert abs(alignment(batch) - 4.0) < 1e-12

    def test_range(self, rng):
        batch = random_batch(rng, 20, 6)
        assert 0.0 <= alignment(batch) <= 4.0


class TestInterclassUniformity:
    def test_coincident_centroids(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1, 1])  # both centroids are the origin
        assert abs(interclass_uniformity(pts, labels)) < 1e-12

    def test_antipodal_singletons(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(interclass_uniformity(pts, np.array([0, 1])) - (-8.0)) < 1e-12

    def test_three_orthogonal_singletons(self):
        pts = np.eye(3)
        value = interclass_uniformity(pts, np.array([0, 1, 2]))
        assert abs(value - (-4.0)) < 1e-12  # all three pair distances are sqrt(2)

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            interclass_uniformity(np.eye(3), np.array([1, 1, 1]))

    def test_centroids_not_renormalized(self):
        # two tight clusters near +x/-x: centroids are inside the ball, so
        # the value must differ from the unit-vector antipodal value -8
        rng = Rng(9)
        a = l2_normalize(np.array([1.0, 0.0]) + 0.4 * rng.normal((50, 2)))
        b = l2_normalize(np.array([-1.0, 0.0]) + 0.4 * rng.normal((50, 2)))
        pts = np.vstack([a, b])
        labels = np.array([0] * 50 + [1] * 50)
        value = interclass_uniformity(pts, labels)
        assert value > -8.0


class TestTolerance:
    def test_identical_same_class_points(self):
        pts = np.tile(np.array([[0.0, 1.0]]), (4, 1))
        assert abs(tolerance(pts, np.zeros(4)) - 1.0) < 1e-12

    def test_antipodal_same_class(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(tolerance(pts, np.zeros(2)) - (-1.0)) < 1e-12

    def test_all_distinct_labels_error(self):
        with pytest.raises(ValidationError):
            tolerance(np.eye(3), np.array([0, 1, 2]))

    def test_range(self, rng):
        pts = l2_normalize(rng.normal((30, 5)))
        labels = np.arange(30) % 3
        assert -1.0 <= tolerance(pts, labels) <= 1.0


class TestKnnProbe:
    def test_exact_match_k1(self):
        train = np.eye(3)
        labels = np.array([4, 5, 6])
        acc = knn_probe(train, labels, train[1:2], labels[1:2], k=1)
        assert acc == 1.0

    def test_train_equals_test_k1_perfect(self, rng):
        pts = l2_normalize(rng.normal((20, 6)))
        labels = np.arange(20) % 4
        assert knn_probe(pts, labels, pts, labels, k=1) == 1.0

    def test_tie_goes_to_lower_class_index(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([7, 3])
        test = l2_normalize(np.array([[1.0, 1.0]]))  # equidistant
        assert knn_probe(train, labels, test, np.array([3]), k=2) == 1.0
        assert knn_probe(train, labels, test, np.array([7]), k=2) == 0.0

    def test_separable_clusters(self, rng):
        # brute-force construction: two tight clusters; every neighbor of a
        # query is from its own cluster, so accuracy must be exactly 1
        c0 = l2_normalize(np.array([1.0, 0.0, 0.0]) + 0.02 * rng.normal((40, 3)))
        c1 = l2_normalize(np.array([0.0, 1.0, 0.0]) + 0.02 * rng.normal((40, 3)))
        train = np.vstack([c0, c1])
        labels = np.array([0] * 40 + [1] * 40)
        q0 = l2_normalize(np.array([1.0, 0.0, 0.0]) + 0.02 * rng.normal((10, 3)))
        q1 = l2_normalize(np.array([0.0, 1.0, 0.0]) + 0.02 * rng.normal((10, 3)))
        test = np.vstack([q0, q1])
        test_labels = np.array([0] * 10 + [1] * 10)
        assert knn_probe(train, labels, test, test_labels, k=10) == 1.0

    def test_nan_at_kth_neighbour_raises(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]])
        labels = np.array([0, 1, 2])
        query = np.array([[1.0, 0.0]])
        # the NaN similarity ranks last, as a sort would put it, while k stops short of it
        assert knn_probe(train, labels, query, np.array([0]), k=2) == 1.0
        with pytest.raises(NumericError, match="finite similarity"):
            knn_probe(train, labels, query, np.array([0]), k=3)
        with pytest.raises(NumericError, match="finite similarity"):
            knn_probe(train, labels, np.array([[np.nan, 1.0]]), np.array([0]), k=1)

    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            knn_probe(np.eye(2), np.array([0, 1]), np.eye(2), np.array([0, 1]), k=3)

    @pytest.mark.parametrize("weight_temperature", [0.0, -1.0, float("nan"), float("inf"), 1e-300, 1 / 701])
    def test_weight_temperature_rejected(self, weight_temperature):
        train = np.eye(3)
        labels = np.array([0, 1, 2])
        with pytest.raises(ValidationError, match="weight temperature"):
            knn_probe(train, labels, train, labels, k=1, weight_temperature=weight_temperature)

    def test_weight_temperature_floor_weights_stay_finite(self):
        train = np.eye(3)
        labels = np.array([0, 1, 2])
        with np.errstate(over="raise"):
            top1 = knn_probe(train, labels, train, labels, k=3, weight_temperature=KNN_WEIGHT_TEMPERATURE_FLOOR)
        assert top1 == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            knn_probe(np.zeros((0, 2)), np.array([]), np.eye(2), np.array([0, 1]), k=1)


class TestRotationInvariance:
    def test_all_metrics(self, rng):
        n = 16
        batch = random_batch(rng, n, 6, labels=np.arange(n) % 4)
        q, _ = np.linalg.qr(rng.normal((6, 6)))
        rotated = EmbeddingBatch(
            batch.view_a @ q.T, batch.view_b @ q.T, batch.sample_ids, labels=batch.labels
        )
        pts, pts_r = batch.view_a, rotated.view_a
        labels = batch.labels
        assert abs(uniformity(pts) - uniformity(pts_r)) < 1e-10
        assert abs(alignment(batch) - alignment(rotated)) < 1e-10
        assert abs(tolerance(pts, labels) - tolerance(pts_r, labels)) < 1e-10
        assert abs(interclass_uniformity(pts, labels) - interclass_uniformity(pts_r, labels)) < 1e-10
        acc = knn_probe(pts, labels, batch.view_b, labels, k=5)
        acc_r = knn_probe(pts_r, labels, rotated.view_b, labels, k=5)
        assert acc == acc_r


@pytest.mark.parametrize(
    "metric",
    [
        tolerance,
        interclass_uniformity,
        lambda points, labels: knn_probe(points, labels, points, np.arange(6) % 2, k=1),
        lambda points, labels: knn_probe(points, np.arange(6) % 2, points, labels, k=1),
    ],
    ids=["tolerance", "interclass_uniformity", "knn_train", "knn_test"],
)
@pytest.mark.parametrize("count", [5, 7])
def test_labels_must_align_with_points(rng, metric, count):
    points = l2_normalize(rng.normal((6, 3)))
    with pytest.raises(ValidationError, match="must align"):
        metric(points, np.arange(count) % 2)


class TestPairHistograms:
    def test_identical_views_tp_mass_at_one(self, rng):
        z = l2_normalize(rng.normal((6, 5)))
        batch = EmbeddingBatch(z, z.copy(), [f"s{i}" for i in range(6)], labels=np.arange(6) % 2)
        hist = pair_histograms(batch)
        tp = hist.counts[PairKind.TRUE_POSITIVE]
        assert tp[-1] == 12  # all 2N positives in the bin ending at 1.0
        assert tp[:-1].sum() == 0

    def test_totals_match_pair_counts(self, rng):
        n = 8
        batch = random_batch(rng, n, 5, labels=np.arange(n) % 2)
        hist = pair_histograms(batch)
        total = sum(hist.total(kind) for kind in PairKind)
        assert total == 2 * n * (2 * n - 1)
        assert hist.total(PairKind.TRUE_POSITIVE) == 2 * n

    def test_permutation_invariant_counts(self, rng):
        n = 7
        batch = random_batch(rng, n, 4, labels=np.arange(n) % 3)
        hist = pair_histograms(batch)
        perm = rng.permutation(n)
        hist_p = pair_histograms(batch.permuted(perm))
        for kind in PairKind:
            assert np.array_equal(hist.counts[kind], hist_p.counts[kind])

    def test_csv_has_header_and_one_row_per_bin(self, tmp_path, rng):
        batch = random_batch(rng, 4, 4, labels=np.array([0, 0, 1, 1]))
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, pair_histograms(batch))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,tp,fn,tn"
        assert len(lines) == 1 + HISTOGRAM_BINS
        assert lines[1].startswith("-1.0,") and lines[-1].split(",")[1] == "1.0"
